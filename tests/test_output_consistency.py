"""Every number two outputs of the CLI share is the same number.

Each CLI case of test_pinned_outputs runs on its score CSV, and the same
kinds of command run on random small score CSVs.  Compared with ==:

- metrics.json's accuracy and per-group statistics with audit.json's
  accuracy_after, constrained values and every "after" delta value;
- audit.json's baseline, accuracy_before and "before" values with the
  Unconstrained enforce's metrics.json;
- an enforce's audit.json with `levelup audit` of the enforce's own
  policy.json, apart from the constraint description;
- frontier.jsonl points with frontier.tsv rows, each point's statistics
  and accuracy with a direct tally of its policy, and the unconstrained
  point with the Unconstrained enforce.
"""

import json

import numpy as np
import pytest

from levelup import confusion, frontier_from_jsonl, group_metrics, read_scores_csv
from levelup.cli import main
from levelup.metrics import metrics_to_json_dict
from test_pinned_outputs import CASES, score_csv

NONE = ["enforce", "--constraint", "none"]


def run(name, args):
    """Exit code of the CLI run of args on ./scores.csv into ./name."""
    return main([*args, "--scores", "scores.csv", "--out", name])


def load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def without_constraint(report):
    return {k: v for k, v in report.items() if k != "constraint"}


def check_enforce(root, name):
    metrics, audit = load(root / name / "metrics.json"), load(root / name / "audit.json")
    none = load(root / "enforce-none" / "metrics.json")
    assert audit["accuracy_after"] == metrics["accuracy"], name
    assert audit["accuracy_before"] == none["accuracy"], name
    assert audit["constrained"] == metrics["per_group"], name
    assert audit["baseline"] == none["per_group"], name
    for group, deltas in audit["per_group_deltas"].items():
        for stat, d in deltas.items():
            assert d["before"] == none["per_group"][group][stat], (name, group, stat)
            assert d["after"] == metrics["per_group"][group][stat], (name, group, stat)
    again = name + "-audit"
    assert run(again, ["audit", "--policy", f"{name}/policy.json"]) == 0, name
    assert without_constraint(load(root / again / "audit.json")) == without_constraint(audit), name


def check_frontier(root, name):
    result = frontier_from_jsonl(root / name / "frontier.jsonl")
    lines = (root / name / "frontier.tsv").read_text(encoding="utf-8").splitlines()
    rows = [tuple(float(v) for v in line.split("\t")) for line in lines[1:]]
    assert rows == [(p.objective_value, p.accuracy) for p in result.points], name
    scored = read_scores_csv(root / "scores.csv")
    none = load(root / "enforce-none" / "metrics.json")
    for p in result.points:
        counts = confusion(scored, p.policy)
        assert group_metrics(counts) == p.per_group, name
        assert (sum(counts.tp) + sum(counts.tn)) / scored.n_rows == p.accuracy, name
        if p.constraint_value is None:
            assert p.accuracy == none["accuracy"], name
            assert metrics_to_json_dict(p.per_group) == none["per_group"], name


def test_pinned_cases_agree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scores.csv").write_text(score_csv(), encoding="utf-8")
    assert run("enforce-none", NONE) == 0
    for name, (args, _) in CASES.items():
        assert run(name, args) == 0, name
        if args[0] == "enforce":
            check_enforce(tmp_path, name)
        elif args[0] == "frontier":
            check_frontier(tmp_path, name)
        else:
            policy = args[args.index("--policy") + 1]
            enforced = load(tmp_path / policy.split("/")[0] / "audit.json")
            assert without_constraint(load(tmp_path / name / "audit.json")) == \
                without_constraint(enforced)
    check_enforce(tmp_path, "enforce-none")


def random_score_csv(rng) -> str:
    lines = ["score,label,group"]
    for g in range(int(rng.integers(2, 6))):
        size = int(rng.integers(1, 401))
        scores = np.round(rng.uniform(0.01, 0.99, size), 2)
        labels = rng.random(size) < rng.uniform(0.05, 0.95)
        lines += [f"{s!r},{int(y)},g{g}" for s, y in zip(scores.tolist(), labels)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(4))
def test_random_inputs_agree(tmp_path, monkeypatch, seed):
    # 4 x 50 inputs; a min-rate tpr enforce is infeasible (exit 4) when a
    # group has no positive row
    rng = np.random.default_rng(seed)
    for i in range(50):
        root = tmp_path / str(i)
        root.mkdir()
        monkeypatch.chdir(root)
        (root / "scores.csv").write_text(random_score_csv(rng), encoding="utf-8")
        enforces = {
            "enforce-none": NONE,
            "enforce-min-rate": ["enforce", "--constraint", "min-rate", "--stat", "tpr",
                                 "--tau", "0.7"],
            "enforce-dp": ["enforce", "--constraint", "dp",
                           "--epsilon", repr(float(rng.uniform(0.0, 0.2)))],
        }
        for name, args in enforces.items():
            code = run(name, args)
            assert code == 0 or (code == 4 and name == "enforce-min-rate"), (seed, i, name)
            if code == 0:
                check_enforce(root, name)
        sweep = (["--mode", "equality", "--measure", "dp"] if i % 2
                 else ["--mode", "min-rate", "--stat", "selection_rate"])
        assert run("frontier", ["frontier", *sweep, "--resolution", "10"]) == 0, (seed, i)
        check_frontier(root, "frontier")
