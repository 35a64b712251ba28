import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levelup import (
    adult_sample_path,
    frontier_from_jsonl,
    load_report,
    policy_from_json_dict,
    read_scores_csv,
    scored_from_arrays,
    write_scores_csv,
)
from levelup import policy as policy_module
from levelup.cli import main

SYNTH_SPEC = {
    "seed": 5,
    "groups": [
        {"size": 300, "positive_base_rate": 0.4, "score_mean_pos": 0.75,
         "score_mean_neg": 0.3, "score_spread": 0.2, "name": "a"},
        {"size": 300, "positive_base_rate": 0.15, "score_mean_pos": 0.75,
         "score_mean_neg": 0.3, "score_spread": 0.2, "name": "b"},
    ],
}


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(SYNTH_SPEC))
    return path


@pytest.fixture(scope="module")
def scores_path(tmp_path_factory):
    rng = np.random.default_rng(21)
    n = 200
    scores = np.concatenate([rng.random(n) * 0.9 + 0.05,
                             rng.random(n) * 0.7 + 0.05])
    labels = (rng.random(2 * n) < scores).astype(int)
    groups = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    scored = scored_from_arrays(scores, labels, groups, ("a", "b"))
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    write_scores_csv(scored, path)
    return path


@pytest.fixture
def undecodable_scores(tmp_path):
    # the undecodable byte lies past the first chunk of text decoded
    path = tmp_path / "scores.csv"
    path.write_bytes(b"score,label,group\n" + b"0.25,0,a\n0.75,1,b\n" * 5000
                     + b"0.5,1,\xff\n")
    return path


def assert_scores_not_utf8(path, capsys):
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: scores is not UTF-8 text")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def enforce_dir(tmp_path_factory, scores_path):
    out = tmp_path_factory.mktemp("enforce")
    code = main(["enforce", "--scores", str(scores_path), "--constraint",
                 "dp", "--epsilon", "0.02", "--out", str(out)])
    assert code == 0
    return out


class TestSynth:
    def test_outputs_and_manifest(self, spec_path, tmp_path):
        out = tmp_path / "syn"
        assert main(["synth", "--synth-spec", str(spec_path),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["outputs"] == ["dataset.csv", "manifest.json",
                                       "scores.csv"]
        assert len(manifest["config_sha256"]) == 64
        scored = read_scores_csv(out / "scores.csv")
        assert scored.group_names == ("a", "b")
        assert scored.n_rows == 600

    def test_reruns_are_byte_identical(self, spec_path, tmp_path):
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        for out in (out1, out2):
            assert main(["synth", "--synth-spec", str(spec_path),
                         "--out", str(out)]) == 0
        for name in ("dataset.csv", "scores.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1["config"].pop("out")
        m2["config"].pop("out")
        assert m1["config"] == m2["config"]

    def test_missing_spec_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x")]) == 2

    def test_seed_is_usage_error(self, spec_path, tmp_path, capsys):
        # the spec carries the seed synth uses
        assert main(["synth", "--synth-spec", str(spec_path), "--seed", "3",
                     "--out", str(tmp_path / "x")]) == 2
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 3}))
        assert main(["synth", "--synth-spec", str(spec_path), "--config", str(config),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.endswith("usage error: config key 'seed' does not apply to this command\n")
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_outputs(self, spec_path, tmp_path):
        out = tmp_path / "train"
        assert main(["train", "--synth-spec", str(spec_path),
                     "--iterations", "300", "--out", str(out)]) == 0
        scorer = json.loads((out / "scorer.json").read_text())
        assert scorer["feature_names"] == ["signal"]
        assert len(scorer["weights"]) == 1
        assert scorer["final_loss"] > 0
        full = read_scores_csv(out / "scored.csv")
        train = read_scores_csv(out / "scored_train.csv")
        evl = read_scores_csv(out / "scored_eval.csv")
        assert full.n_rows == train.n_rows + evl.n_rows

    def test_csv_input_with_default_features(self, tmp_path):
        out = tmp_path / "adult"
        assert main(["train", "--data", str(adult_sample_path()),
                     "--label-col", "income", "--positive-label", ">50K",
                     "--group-col", "sex", "--iterations", "200",
                     "--out", str(out)]) == 0
        scorer = json.loads((out / "scorer.json").read_text())
        joined = " ".join(scorer["feature_names"])
        assert "sex" not in joined
        assert "income" not in joined

    @pytest.mark.parametrize("features", [[], ["--feature-cols", "x"]],
                             ids=["header", "rows"])
    def test_data_not_utf8_is_data_error(self, tmp_path, capsys, features):
        # without --feature-cols the header read meets the bad byte first
        data = tmp_path / "data.csv"
        data.write_bytes(b"x,y,g\n" + b"0.5,1,a\n0.25,0,b\n" * 20 + b"0.75,1,\xff\n")
        assert main(["train", "--data", str(data), "--label-col", "y",
                     "--positive-label", "1", "--group-col", "g", *features,
                     "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data}: data is not UTF-8 text")
        assert "Traceback" not in err

    def test_needs_exactly_one_source(self, spec_path, tmp_path):
        assert main(["train", "--out", str(tmp_path / "x")]) == 2
        assert main(["train", "--synth-spec", str(spec_path),
                     "--data", "also.csv", "--out", str(tmp_path / "y")]) == 2


class TestEnforce:
    def test_outputs(self, enforce_dir, scores_path):
        policy = policy_from_json_dict(
            json.loads((enforce_dir / "policy.json").read_text()))
        assert policy.group_names == ("a", "b")
        metrics = json.loads((enforce_dir / "metrics.json").read_text())
        assert set(metrics["per_group"]) == {"a", "b"}
        # the written policy actually satisfies the constraint
        scored = read_scores_csv(scores_path)
        sel = []
        for gid in range(2):
            rows = scored.groups == gid
            sel.append(float((scored.scores[rows]
                              >= policy.thresholds[gid]).mean()))
        assert abs(sel[0] - sel[1]) <= 0.02 + 1e-12
        report = load_report(enforce_dir / "audit.json")
        assert report.split == "provided"
        assert (enforce_dir / "audit.txt").read_text()

    def test_rerun_is_byte_identical(self, scores_path, tmp_path):
        args = ["enforce", "--scores", str(scores_path), "--constraint",
                "min-rate", "--stat", "selection_rate", "--tau", "0.4"]
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("policy.json", "metrics.json", "audit.json", "audit.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_builds_candidate_tables_once(self, scores_path, tmp_path,
                                          monkeypatch):
        # the constraint and its Unconstrained baseline share one build
        calls = []
        build = policy_module._build_tables

        def counted(scored):
            calls.append(scored)
            return build(scored)

        monkeypatch.setattr(policy_module, "_build_tables", counted)
        assert main(["enforce", "--scores", str(scores_path), "--constraint",
                     "dp", "--epsilon", "0.02", "--out", str(tmp_path / "x")]) == 0
        assert len(calls) == 1

    def test_constraint_required(self, scores_path, tmp_path):
        assert main(["enforce", "--scores", str(scores_path),
                     "--out", str(tmp_path / "x")]) == 2

    def test_unenforceable_measure_is_usage_error(self, scores_path, tmp_path):
        assert main(["enforce", "--scores", str(scores_path),
                     "--constraint", "te", "--epsilon", "0.1",
                     "--out", str(tmp_path / "x")]) == 2

    def test_non_finite_epsilon_is_data_error(self, scores_path, tmp_path, capsys):
        assert main(["enforce", "--scores", str(scores_path),
                     "--constraint", "dp", "--epsilon", "nan",
                     "--out", str(tmp_path / "x")]) == 3
        assert "epsilon" in capsys.readouterr().err

    def test_group_without_rows_is_data_error(self, tmp_path, capsys):
        # a one-row group goes to train in the split, so the eval rows
        # still name it but hold none of it
        spec = json.loads(json.dumps(SYNTH_SPEC))
        spec["groups"].append(dict(spec["groups"][0], size=1, name="c"))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.warns(UserWarning, match="single row"):
            code = main(["enforce", "--synth-spec", str(path), "--enforce-on",
                         "eval", "--iterations", "50", "--constraint", "min-rate",
                         "--stat", "selection_rate", "--tau", "0.2",
                         "--out", str(tmp_path / "x")])
        assert code == 3
        assert "group 'c' has no rows" in capsys.readouterr().err

    def test_two_sources_rejected(self, scores_path, spec_path, tmp_path):
        assert main(["enforce", "--scores", str(scores_path),
                     "--synth-spec", str(spec_path), "--constraint", "none",
                     "--out", str(tmp_path / "x")]) == 2

    def test_missing_scores_file(self, tmp_path):
        assert main(["enforce", "--scores", str(tmp_path / "nope.csv"),
                     "--constraint", "none", "--out", str(tmp_path / "x")]) == 3

    def test_scores_not_utf8_is_data_error(self, undecodable_scores, tmp_path,
                                           capsys):
        assert main(["enforce", "--scores", str(undecodable_scores),
                     "--constraint", "none", "--out", str(tmp_path / "x")]) == 3
        assert_scores_not_utf8(undecodable_scores, capsys)

    def test_infeasible_constraint_exit_code(self, tmp_path, capsys):
        # group a has no positive rows, so a tpr floor cannot be met
        scored = scored_from_arrays(np.array([0.2, 0.4, 0.3, 0.9]),
                                    np.array([0, 0, 0, 1]),
                                    np.array([0, 0, 1, 1]), ("a", "b"))
        path = tmp_path / "scores.csv"
        write_scores_csv(scored, path)
        code = main(["enforce", "--scores", str(path), "--constraint",
                     "min-rate", "--stat", "tpr", "--tau", "0.5",
                     "--out", str(tmp_path / "x")])
        assert code == 4
        err = capsys.readouterr().err
        assert "blocking group: a" in err

    def test_equality_undefined_statistic_names_the_group(self, tmp_path, capsys):
        # group b has no positive rows, so equal opportunity's tpr is
        # undefined at every threshold of it
        scored = scored_from_arrays(np.array([0.2, 0.9, 0.3, 0.4]),
                                    np.array([0, 1, 0, 0]),
                                    np.array([0, 0, 1, 1]), ("a", "b"))
        path = tmp_path / "scores.csv"
        write_scores_csv(scored, path)
        code = main(["enforce", "--scores", str(path), "--constraint", "eo",
                     "--epsilon", "0.1", "--out", str(tmp_path / "x")])
        assert code == 4
        err = capsys.readouterr().err
        assert "undefined for every candidate policy (blocking group: b)" in err


class TestFrontier:
    def test_min_rate_mode(self, scores_path, tmp_path):
        out = tmp_path / "fr"
        assert main(["frontier", "--scores", str(scores_path), "--mode",
                     "min-rate", "--stat", "selection_rate",
                     "--resolution", "8", "--out", str(out)]) == 0
        result = frontier_from_jsonl(out / "frontier.jsonl")
        assert result.objective == "min_group:selection_rate"
        lines = (out / "frontier.tsv").read_text().splitlines()
        assert len(lines) == 1 + len(result.points)

    def test_equality_mode(self, scores_path, tmp_path):
        out = tmp_path / "fr"
        assert main(["frontier", "--scores", str(scores_path), "--mode",
                     "equality", "--measure", "dp", "--resolution", "6",
                     "--out", str(out)]) == 0
        result = frontier_from_jsonl(out / "frontier.jsonl")
        assert result.objective_direction == "min"
        assert len(result.points) >= 1

    def test_mode_required(self, scores_path, tmp_path):
        assert main(["frontier", "--scores", str(scores_path),
                     "--out", str(tmp_path / "x")]) == 2


class TestAudit:
    def test_audit_against_unconstrained_default(self, scores_path,
                                                 enforce_dir, tmp_path):
        out = tmp_path / "audit"
        assert main(["audit", "--scores", str(scores_path), "--policy",
                     str(enforce_dir / "policy.json"),
                     "--out", str(out)]) == 0
        report = load_report(out / "audit.json")
        assert report.split == "provided"
        assert report.constraint_description["baseline"] == {
            "kind": "unconstrained"}

    def test_audit_policy_against_itself_is_clean(self, scores_path,
                                                  enforce_dir, tmp_path):
        out = tmp_path / "self"
        policy = str(enforce_dir / "policy.json")
        assert main(["audit", "--scores", str(scores_path), "--policy",
                     policy, "--baseline-policy", policy,
                     "--out", str(out)]) == 0
        report = load_report(out / "audit.json")
        assert report.levelled_down_groups == ()
        assert report.accuracy_before == report.accuracy_after

    @pytest.mark.parametrize("flag", ["--policy", "--baseline-policy"])
    def test_policy_file_not_json_is_data_error(self, scores_path, enforce_dir,
                                                tmp_path, capsys, flag):
        bad = tmp_path / "policy.json"
        bad.write_text("{not json")
        policies = {"--policy": str(enforce_dir / "policy.json"),
                    "--baseline-policy": str(enforce_dir / "policy.json")}
        policies[flag] = str(bad)
        args = [x for kv in policies.items() for x in kv]
        assert main(["audit", "--scores", str(scores_path), *args,
                     "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert f"{bad} is not valid JSON" in err

    def test_policy_required(self, scores_path, tmp_path):
        assert main(["audit", "--scores", str(scores_path),
                     "--out", str(tmp_path / "x")]) == 2

    def test_scores_not_utf8_is_data_error(self, undecodable_scores,
                                           enforce_dir, tmp_path, capsys):
        assert main(["audit", "--scores", str(undecodable_scores), "--policy",
                     str(enforce_dir / "policy.json"),
                     "--out", str(tmp_path / "x")]) == 3
        assert_scores_not_utf8(undecodable_scores, capsys)


class TestConfigResolution:
    def test_flags_override_config_file(self, scores_path, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"constraint": "dp", "epsilon": 0.5}))
        out = tmp_path / "o"
        assert main(["enforce", "--scores", str(scores_path), "--config",
                     str(config), "--epsilon", "0.02",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epsilon"] == 0.02

    def test_unknown_config_key_rejected(self, scores_path, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"constraint": "none", "bogus": 1}))
        assert main(["enforce", "--scores", str(scores_path), "--config",
                     str(config), "--out", str(tmp_path / "x")]) == 2

    def test_inapplicable_config_key_rejected(self, spec_path, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epsilon": 0.1}))
        assert main(["synth", "--synth-spec", str(spec_path), "--config",
                     str(config), "--out", str(tmp_path / "x")]) == 2

    def test_malformed_config_is_data_error(self, scores_path, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        assert main(["enforce", "--scores", str(scores_path), "--config",
                     str(config), "--out", str(tmp_path / "x")]) == 3

    def test_config_not_utf8_is_data_error(self, scores_path, tmp_path,
                                           capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'\xff{"constraint": "dp"}')
        assert main(["enforce", "--scores", str(scores_path), "--config",
                     str(config), "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {config}: config is not UTF-8 text")

    @pytest.mark.parametrize("command, config, key", [
        ("enforce", {"constraint": "dp", "epsilon": "0.1"}, "epsilon"),
        ("enforce", {"constraint": "min-rate", "tau": "0.1", "stat": "tpr"}, "tau"),
        ("enforce", {"constraint": "none", "tolerance": "x"}, "tolerance"),
        ("enforce", {"constraint": "max-rate", "kappa": True}, "kappa"),
        ("enforce", {"constraint": "bogus"}, "constraint"),
        ("enforce", {"constraint": "min-rate", "tau": 0.1, "stat": 1}, "stat"),
        ("train", {"seed": "x"}, "seed"),
        ("train", {"seed": 1.5}, "seed"),
        ("train", {"feature_cols": ["signal", 2]}, "feature_cols"),
        ("train", {"iterations": None}, "iterations"),
    ], ids=["epsilon", "tau", "tolerance", "bool", "choice", "string", "seed",
            "float-seed", "feature-list", "null"])
    def test_wrongly_typed_value_is_usage_error(self, scores_path, spec_path,
                                                tmp_path, capsys, command,
                                                config, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        source = (["--scores", str(scores_path)] if command == "enforce"
                  else ["--synth-spec", str(spec_path)])
        assert main([command, *source, "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: config key {key!r} must be ")
        assert "Traceback" not in err

    def test_typed_values_are_accepted(self, scores_path, spec_path, tmp_path):
        # an integer is a number; null restates a null default
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"constraint": "max-rate", "kappa": 1,
                                    "tolerance": 0, "epsilon": None}))
        assert main(["enforce", "--scores", str(scores_path), "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 0
        path.write_text(json.dumps({"seed": 3, "iterations": 50,
                                    "feature_cols": ["signal"]}))
        assert main(["train", "--synth-spec", str(spec_path), "--config", str(path),
                     "--out", str(tmp_path / "y")]) == 0

    def test_out_env_var_fallback(self, spec_path, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("LEVELUP_OUT", str(target))
        assert main(["synth", "--synth-spec", str(spec_path)]) == 0
        assert (target / "dataset.csv").exists()


@pytest.fixture
def input_files(tmp_path, scores_path, spec_path, enforce_dir):
    """Paths of the files the input-error cases name."""
    bad_spec = dict(SYNTH_SPEC, groups=[dict(g) for g in SYNTH_SPEC["groups"]])
    del bad_spec["groups"][1]["score_spread"]
    files = {"scores": scores_path, "spec": spec_path, "out": tmp_path / "out",
             "policy": enforce_dir / "policy.json",
             "list_config": tmp_path / "list.json", "bad_spec": tmp_path / "bad_spec.json",
             "empty_data": tmp_path / "empty.csv", "missing": tmp_path / "missing.json",
             "blank_first": tmp_path / "blank_first.csv"}
    files["list_config"].write_text('["seed", 3]')
    files["bad_spec"].write_text(json.dumps(bad_spec))
    files["empty_data"].write_text("")
    files["blank_first"].write_text("\ny,g,x\n1,a,0.5\n0,b,0.25\n")
    return files


@pytest.mark.parametrize("args, code, message", [
    ("enforce --config {list_config} --scores {scores} --constraint none", 2,
     "usage error: config must be a flat JSON object"),
    ("enforce --config {missing} --scores {scores} --constraint none", 3,
     "data error: cannot open config {missing}: No such file or directory"),
    ("synth --synth-spec {missing}", 3,
     "data error: cannot open synth spec {missing}: No such file or directory"),
    ("enforce --scores {missing} --constraint none", 3,
     "data error: cannot open scores {missing}: No such file or directory"),
    ("train --data {missing} --label-col y --positive-label 1 --group-col g", 3,
     "data error: cannot open data {missing}: No such file or directory"),
    ("train --data {missing} --label-col y --positive-label 1 --group-col g --feature-cols x", 3,
     "data error: cannot open data {missing}: No such file or directory"),
    ("audit --scores {scores} --policy {missing}", 3,
     "data error: cannot open policy {missing}: No such file or directory"),
    ("audit --scores {scores} --policy {policy} --baseline-policy {missing}", 3,
     "data error: cannot open baseline policy {missing}: No such file or directory"),
    ("train --data {blank_first} --label-col y --positive-label 1 --group-col g", 3,
     "data error: {blank_first} has no header row"),
    ("synth --synth-spec {bad_spec}", 3,
     "data error: malformed synth spec: KeyError('score_spread')"),
    ("train --data {empty_data}", 2, "usage error: --label-col is required with --data"),
    ("train --data {empty_data} --label-col y --positive-label 1 --group-col g", 3,
     "data error: {empty_data} has no header row"),
    ("enforce --scores {scores} --constraint min-rate --stat tpr", 2,
     "usage error: min-rate needs --stat and --tau"),
    ("enforce --scores {scores} --constraint max-rate", 2,
     "usage error: max-rate needs --kappa"),
    ("enforce --scores {scores} --constraint eo", 2,
     "usage error: equality constraints need --epsilon"),
    ("frontier --scores {scores} --mode equality", 2,
     "usage error: equality frontier needs --measure"),
    ("frontier --scores {scores} --mode min-rate", 2,
     "usage error: min-rate frontier needs --stat"),
    ("audit --policy {missing}", 2, "usage error: audit needs --scores"),
], ids=["config-list", "config-missing", "synth-spec-missing", "scores-missing",
        "data-missing", "data-missing-with-feature-cols", "policy-missing",
        "baseline-policy-missing", "data-blank-first-record", "synth-spec-key",
        "data-without-label-col", "data-empty", "min-rate-without-tau", "max-rate-without-kappa",
        "equality-without-epsilon", "equality-frontier-without-measure",
        "min-rate-frontier-without-stat", "audit-without-scores"])
def test_input_errors(input_files, capsys, args, code, message):
    argv = [a.format(**input_files) for a in args.split()] + ["--out", str(input_files["out"])]
    assert main(argv) == code
    assert capsys.readouterr().err == message.format(**input_files) + "\n"


@pytest.mark.parametrize("command", [
    ["synth"], ["enforce", "--constraint", "dp", "--epsilon", "0.02"],
], ids=["synth", "enforce"])
def test_repeated_group_name_in_synth_spec_is_data_error(tmp_path, capsys, command):
    # the outputs are keyed by group name, so two groups named "a" would
    # merge into one threshold and one metrics entry
    spec = dict(SYNTH_SPEC, groups=[*SYNTH_SPEC["groups"], SYNTH_SPEC["groups"][0]])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main([command[0], "--synth-spec", str(path), *command[1:], "--out", str(out)]) == 3
    assert capsys.readouterr().err == "data error: group name 'a' is repeated\n"
    assert not (out / "policy.json").exists() and not (out / "scores.csv").exists()


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert main(["explode"]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["synth", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma loads on numpy's first np.unique call and costs a CLI
    # process several milliseconds; train and every pinned-output case
    # run in one process, which reports the first command that loads it
    import test_pinned_outputs as pinned

    bare = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    if bare.stdout.strip() != "False":
        pytest.skip("import numpy alone loads numpy.ma")
    (tmp_path / "scores.csv").write_text(pinned.score_csv(), encoding="utf-8")
    commands = [["train", "--data", str(adult_sample_path()), "--label-col", "income",
                 "--positive-label", ">50K", "--group-col", "sex", "--out", "train"]]
    commands += [[*args, "--scores", "scores.csv", "--out", name]
                 for name, (args, _) in pinned.CASES.items()]
    script = (
        "import json, sys\n"
        "from levelup.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    if 'numpy.ma' in sys.modules:\n"
        "        print(' '.join(argv))\n"
        "        break\n"
    )
    src = str(Path(policy_module.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                         capture_output=True, text=True, cwd=tmp_path, env=env, check=True)
    assert run.stdout == ""
