import json

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

    def test_two_sources_rejected(self, scores_path, spec_path, tmp_path):
        assert main(["enforce", "--scores", str(scores_path),
                     "--synth-spec", str(spec_path), "--constraint", "none",
                     "--out", str(tmp_path / "x")]) == 2

    def test_missing_scores_file(self, tmp_path):
        assert main(["enforce", "--scores", str(tmp_path / "nope.csv"),
                     "--constraint", "none", "--out", str(tmp_path / "x")]) == 3

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

    def test_policy_required(self, scores_path, tmp_path):
        assert main(["audit", "--scores", str(scores_path),
                     "--out", str(tmp_path / "x")]) == 2


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

    def test_out_env_var_fallback(self, spec_path, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("LEVELUP_OUT", str(target))
        assert main(["synth", "--synth-spec", str(spec_path)]) == 0
        assert (target / "dataset.csv").exists()


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
