"""The three benchmark workloads: inputs, one pass of operations, checks.

A workload builds its inputs from the seed (`build`), lists the
operations of one pass (`ops`), and names a check per operation
(`check`) and the digest pinned per operation (`pin`).  The runner in
run.py times the operations.  Every operation is called through a
`levelup` module attribute at call time, so the timing wrappers in
spans.py see it when they are installed.

Synthetic inputs use `synth_generate` with its exact posteriors
(`true_scores`) as the scores.  Group g has base rate BASE_RATES[g] and
the score parameters in GROUP_PARAMS.  Dataset k of a workload is drawn
with spec seed `seed * 16 + k`.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import CliRun, check_frontier, check_result, pin_digest, short_hash, tsv_pairs

BASE_RATES = (0.35, 0.15, 0.25, 0.45, 0.10, 0.30, 0.20, 0.40)
GROUP_PARAMS = dict(score_mean_pos=0.8, score_mean_neg=0.3, score_spread=0.25)


@dataclass(frozen=True)
class Op:
    """One timed operation.  `call` gets the pass state (earlier results by
    op name) and returns the result; `kind` sums it into an end-to-end
    metric (enforce, frontier, level_up, scores_io, report, cli)."""

    name: str
    kind: str
    call: Callable[[dict], object]


def synth_scored(lv, n_groups: int, rows: int, seed: int):
    spec = lv.SynthSpec(
        groups=tuple(
            lv.GroupSpec(size=rows, positive_base_rate=BASE_RATES[g],
                         name=f"g{g}", **GROUP_PARAMS)
            for g in range(n_groups)
        ),
        seed=seed,
    )
    res = lv.synth_generate(spec)
    ds = res.dataset
    return lv.scored_from_arrays(res.true_scores, ds.labels, ds.groups, ds.group_names)


def candidate_sizes(scored) -> tuple[int, ...]:
    """m_g per group, computed from the inputs: distinct scores + 1."""
    return tuple(
        len(np.unique(scored.scores[scored.groups == g])) + 1
        for g in range(scored.n_groups)
    )


def mean_policy_accuracy(lv, results: dict) -> float:
    accs = [r.accuracy for r in results.values() if isinstance(r, lv.EnforcementResult)]
    return sum(accs) / len(accs) if accs else float("nan")


# ---------------------------------------------------------------------------
# equality-search: the coupled equality search


class EqualitySearch:
    name = "equality-search"
    in_process = True

    def build(self, lv, work: Path, seed: int) -> dict:
        return {
            "pair": synth_scored(lv, 2, 1200, seed * 16 + 0),
            "trio": synth_scored(lv, 3, 300, seed * 16 + 1),
            "quad": synth_scored(lv, 4, 2000, seed * 16 + 2),
            "oct": synth_scored(lv, 8, 1000, seed * 16 + 3),
        }

    def datasets(self, lv, inputs: dict) -> dict:
        return inputs

    def ops(self, lv, inputs: dict) -> list[Op]:
        dp = lv.FairnessMeasure.DEMOGRAPHIC_PARITY
        eodds = lv.FairnessMeasure.EQUALIZED_ODDS
        pair, trio, quad, oct_ = (inputs[k] for k in ("pair", "trio", "quad", "oct"))
        return [
            Op("equality_frontier dp 2x1200", "frontier",
               lambda st: lv.equality_frontier(pair, dp, 50)),
            Op("equality_frontier eodds 2x1200", "frontier",
               lambda st: lv.equality_frontier(pair, eodds, 50)),
            Op("partial_level_up dp 0.01 2x1200", "level_up",
               lambda st: lv.partial_level_up(pair, dp, 0.01)),
            Op("Equality dp 0.02 3x300", "enforce",
               lambda st: lv.enforce(trio, lv.Equality(dp, 0.02))),
            Op("Equality eodds 0.05 3x300", "enforce",
               lambda st: lv.enforce(trio, lv.Equality(eodds, 0.05))),
            Op("Equality dp 0.02 4x2000", "enforce",
               lambda st: lv.enforce(quad, lv.Equality(dp, 0.02))),
            Op("Equality dp 0.02 8x1000", "enforce",
               lambda st: lv.enforce(oct_, lv.Equality(dp, 0.02))),
        ]

    def check(self, lv, inputs: dict, results: dict) -> dict[str, Callable[[], list[str]]]:
        dp = lv.FairnessMeasure.DEMOGRAPHIC_PARITY
        eodds = lv.FairnessMeasure.EQUALIZED_ODDS
        pair = inputs["pair"]
        checks = {
            "equality_frontier dp 2x1200": functools.partial(
                check_frontier, lv, pair, results["equality_frontier dp 2x1200"],
                measure=dp),
            "equality_frontier eodds 2x1200": functools.partial(
                check_frontier, lv, pair, results["equality_frontier eodds 2x1200"],
                measure=eodds),
            "partial_level_up dp 0.01 2x1200": lambda: check_result(
                lv, pair, results["partial_level_up dp 0.01 2x1200"],
                uncon=lv.enforce(pair, lv.Unconstrained()), stat="selection_rate",
                keep_best=True),
        }
        for name, key, measure, eps in (
            ("Equality dp 0.02 3x300", "trio", dp, 0.02),
            ("Equality eodds 0.05 3x300", "trio", eodds, 0.05),
            ("Equality dp 0.02 4x2000", "quad", dp, 0.02),
            ("Equality dp 0.02 8x1000", "oct", dp, 0.02),
        ):
            checks[name] = functools.partial(
                check_result, lv, inputs[key], results[name], equality=(measure, eps))
        return checks

    def pin(self, lv, value) -> str | None:
        return pin_digest(lv, value)

    def accuracy(self, lv, results: dict) -> float:
        return mean_policy_accuracy(lv, results)


# ---------------------------------------------------------------------------
# separable-large: large groups, trivial search, I/O and table builds


class SeparableLarge:
    name = "separable-large"
    in_process = True

    def build(self, lv, work: Path, seed: int) -> dict:
        scored = synth_scored(lv, 4, 50_000, seed * 16 + 0)
        path = work / "scores_in.csv"
        lv.write_scores_csv(scored, path)
        return {"scored": scored, "csv": path, "out": work / "out"}

    def datasets(self, lv, inputs: dict) -> dict:
        return {"scored": inputs["scored"]}

    def ops(self, lv, inputs: dict) -> list[Op]:
        out: Path = inputs["out"]
        out.mkdir(exist_ok=True)
        csv_in, csv_out = inputs["csv"], out / "scores_out.csv"
        report_path, jsonl_path = out / "audit.json", out / "frontier.jsonl"

        def scored(st):
            return st["read_scores_csv"]

        def write(st):
            lv.write_scores_csv(scored(st), csv_out)
            return csv_out

        def report(st):
            return lv.build_report(
                st["Unconstrained"].metrics,
                st["MinimumRate selection_rate 0.3"].metrics,
                {"kind": "minimum_rate", "statistic": "selection_rate", "tau": 0.3},
                split="provided",
            )

        def save(st):
            lv.save_report(st["build_report"], report_path)
            return report_path

        def jsonl(st):
            lv.frontier_to_jsonl(st["mrc_frontier selection_rate 20"], jsonl_path)
            return jsonl_path

        return [
            Op("read_scores_csv", "scores_io", lambda st: lv.read_scores_csv(csv_in)),
            Op("write_scores_csv", "scores_io", write),
            Op("Unconstrained", "enforce",
               lambda st: lv.enforce(scored(st), lv.Unconstrained())),
            Op("MinimumRate selection_rate 0.3", "enforce",
               lambda st: lv.enforce(scored(st), lv.MinimumRate("selection_rate", 0.3))),
            Op("MinimumRate tpr 0.8", "enforce",
               lambda st: lv.enforce(scored(st), lv.MinimumRate("tpr", 0.8))),
            Op("MaximumRate 0.3", "enforce",
               lambda st: lv.enforce(scored(st), lv.MaximumRate(0.3))),
            Op("full_level_up tpr", "level_up",
               lambda st: lv.full_level_up(scored(st), "tpr")),
            Op("mrc_frontier selection_rate 20", "frontier",
               lambda st: lv.mrc_frontier(scored(st), "selection_rate", 20)),
            Op("build_report", "report", report),
            Op("render_text", "report", lambda st: lv.render_text(st["build_report"])),
            Op("save_report", "report", save),
            Op("frontier_to_jsonl", "report", jsonl),
        ]

    def check(self, lv, inputs: dict, results: dict) -> dict[str, Callable[[], list[str]]]:
        src = inputs["scored"]
        read = results["read_scores_csv"]
        uncon = results["Unconstrained"]
        front = results["mrc_frontier selection_rate 20"]
        report = results["build_report"]

        def same_rows():
            same = (
                read.group_names == src.group_names
                and np.array_equal(read.scores, src.scores)
                and np.array_equal(read.labels, src.labels)
                and np.array_equal(read.groups, src.groups)
            )
            return [] if same else ["rows read differ from the rows written"]

        def rewritten():
            same = results["write_scores_csv"].read_bytes() == inputs["csv"].read_bytes()
            return [] if same else ["rewritten CSV differs from the CSV read"]

        def report_accuracy():
            same = abs(report.accuracy_before - uncon.accuracy) < 1e-12
            return [] if same else ["report accuracy_before is not the unconstrained accuracy"]

        def saved():
            same = lv.load_report(results["save_report"]) == report
            return [] if same else ["saved report does not load back equal"]

        def jsonl():
            same = lv.frontier_from_jsonl(results["frontier_to_jsonl"]).points == front.points
            return [] if same else ["frontier JSONL does not load back equal"]

        def result(name, **kwargs):
            return lambda: check_result(lv, read, results[name], **kwargs)

        return {
            "read_scores_csv": same_rows,
            "write_scores_csv": rewritten,
            "Unconstrained": result("Unconstrained"),
            "MinimumRate selection_rate 0.3": result(
                "MinimumRate selection_rate 0.3", uncon=uncon, stat="selection_rate",
                floor=0.3),
            "MinimumRate tpr 0.8": result(
                "MinimumRate tpr 0.8", uncon=uncon, stat="tpr", floor=0.8),
            "MaximumRate 0.3": result("MaximumRate 0.3", cap=0.3),
            "full_level_up tpr": result(
                "full_level_up tpr", uncon=uncon, stat="tpr", keep_best=True),
            "mrc_frontier selection_rate 20": lambda: check_frontier(
                lv, read, front, stat="selection_rate", uncon=uncon),
            "build_report": report_accuracy,
            "render_text": lambda: (
                [] if "pooled accuracy" in results["render_text"]
                else ["report text lacks the pooled accuracy"]),
            "save_report": saved,
            "frontier_to_jsonl": jsonl,
        }

    def pin(self, lv, value) -> str | None:
        return pin_digest(lv, value)

    def accuracy(self, lv, results: dict) -> float:
        return mean_policy_accuracy(lv, results)


# ---------------------------------------------------------------------------
# cli-chain: the levelup CLI on the bundled fixture, one process per command

# What the `levelup` console script runs.
CLI_BOOT = "import sys; from levelup.cli import entrypoint; sys.argv[0] = 'levelup'; entrypoint()"


class CliChain:
    name = "cli-chain"
    in_process = False

    def __init__(self):
        # Set by the runner: run commands as subprocesses or via cli.main.
        self.subprocess = True
        self.env: dict[str, str] = {}

    def build(self, lv, work: Path, seed: int) -> dict:
        fixture = lv.adult_sample_path()
        if not fixture.is_file():
            raise FileNotFoundError(fixture)
        return {"fixture": fixture, "out": work / "cli", "seed": seed}

    def datasets(self, lv, inputs: dict) -> dict:
        path = inputs["out"] / "train" / "scored_train.csv"
        return {"scored_train": lv.read_scores_csv(path)} if path.is_file() else {}

    def commands(self, inputs: dict) -> list[tuple[str, str, list[str]]]:
        out: Path = inputs["out"]
        scores = str(out / "train" / "scored_train.csv")
        return [
            ("train", "cli", [
                "train", "--data", str(inputs["fixture"]), "--label-col", "income",
                "--positive-label", ">50K", "--group-col", "sex",
                "--seed", str(inputs["seed"]), "--out", str(out / "train")]),
            ("enforce dp 0.01", "enforce", [
                "enforce", "--scores", scores, "--constraint", "dp",
                "--epsilon", "0.01", "--out", str(out / "eq")]),
            ("enforce min-rate selection_rate 0.15", "enforce", [
                "enforce", "--scores", scores, "--constraint", "min-rate",
                "--stat", "selection_rate", "--tau", "0.15", "--out", str(out / "up")]),
            ("frontier equality dp", "frontier", [
                "frontier", "--scores", scores, "--mode", "equality",
                "--measure", "dp", "--out", str(out / "eqf")]),
            ("frontier min-rate selection_rate", "frontier", [
                "frontier", "--scores", scores, "--mode", "min-rate",
                "--stat", "selection_rate", "--out", str(out / "mrf")]),
            ("audit", "cli", [
                "audit", "--scores", scores, "--policy", str(out / "eq" / "policy.json"),
                "--out", str(out / "audit")]),
        ]

    def ops(self, lv, inputs: dict) -> list[Op]:
        return [
            Op(name, kind, self._runner(lv, argv, Path(argv[argv.index("--out") + 1]),
                                        fresh_root=inputs["out"] if i == 0 else None))
            for i, (name, kind, argv) in enumerate(self.commands(inputs))
        ]

    def _runner(self, lv, argv, outdir, fresh_root):
        def run(st):
            if fresh_root is not None:
                shutil.rmtree(fresh_root, ignore_errors=True)
            if self.subprocess:
                proc = subprocess.run(
                    [sys.executable, "-c", CLI_BOOT, *argv], env=self.env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                )
                return CliRun(proc.returncode, proc.stderr[-2000:], outdir)
            return CliRun(lv.cli.main(argv), "", outdir)
        return run

    def check(self, lv, inputs: dict, results: dict) -> dict[str, Callable[[], list[str]]]:
        dp = lv.FairnessMeasure.DEMOGRAPHIC_PARITY
        base: Path = inputs["out"]

        @functools.cache
        def scored():
            return lv.read_scores_csv(base / "train" / "scored_train.csv")

        @functools.cache
        def uncon():
            return lv.enforce(scored(), lv.Unconstrained())

        def policy(sub):
            with open(base / sub / "policy.json", encoding="utf-8") as handle:
                return lv.policy_from_json_dict(json.load(handle))

        def exited(name):
            run = results[name]
            return [] if run.returncode == 0 else [
                f"exit code {run.returncode}: {run.stderr.strip()[-300:]}"]

        def enforced(name, sub, vs_uncon=False, **kwargs):
            def check():
                if exited(name):
                    return exited(name)
                pol = policy(sub)
                with open(base / sub / "metrics.json", encoding="utf-8") as handle:
                    metrics = json.load(handle)
                gm = lv.group_metrics(lv.confusion(scored(), pol))
                res = lv.EnforcementResult(policy=pol, metrics=gm,
                                           accuracy=metrics["accuracy"])
                fails = check_result(lv, scored(), res,
                                     uncon=uncon() if vs_uncon else None, **kwargs)
                if metrics["per_group"] != lv.metrics_to_json_dict(gm):
                    fails.append("metrics.json per-group values differ from a fresh tally")
                return fails
            return check

        def frontier(name, sub, vs_uncon=False, **kwargs):
            def check():
                if exited(name):
                    return exited(name)
                front = lv.frontier_from_jsonl(base / sub / "frontier.jsonl")
                fails = check_frontier(lv, scored(), front,
                                       uncon=uncon() if vs_uncon else None, **kwargs)
                tsv = (base / sub / "frontier.tsv").read_text(encoding="utf-8")
                if tsv != "objective\taccuracy\n" + tsv_pairs(front):
                    fails.append("frontier.tsv disagrees with frontier.jsonl")
                return fails
            return check

        def audit():
            if exited("audit"):
                return exited("audit")
            report = lv.load_report(base / "audit" / "audit.json")
            fails = []
            if report.constrained != lv.group_metrics(lv.confusion(scored(), policy("eq"))):
                fails.append("audit constrained metrics differ from a fresh tally")
            if report.baseline != uncon().metrics:
                fails.append("audit baseline differs from the unconstrained policy")
            return fails

        return {
            "train": lambda: exited("train"),
            "enforce dp 0.01": enforced("enforce dp 0.01", "eq", equality=(dp, 0.01)),
            "enforce min-rate selection_rate 0.15": enforced(
                "enforce min-rate selection_rate 0.15", "up",
                vs_uncon=True, stat="selection_rate", floor=0.15),
            "frontier equality dp": frontier("frontier equality dp", "eqf", measure=dp),
            "frontier min-rate selection_rate": frontier(
                "frontier min-rate selection_rate", "mrf", stat="selection_rate",
                vs_uncon=True),
            "audit": audit,
        }

    def pin(self, lv, run: CliRun) -> str | None:
        if run.returncode != 0:
            return None
        if run.outdir.name in ("eq", "up"):
            policy = json.loads((run.outdir / "policy.json").read_text("utf-8"))
            metrics = json.loads((run.outdir / "metrics.json").read_text("utf-8"))
            thresholds = tuple(policy["thresholds"].values())
            return short_hash(f"{thresholds!r} {metrics['accuracy']!r}")
        if run.outdir.name in ("eqf", "mrf"):
            tsv = (run.outdir / "frontier.tsv").read_text(encoding="utf-8")
            return short_hash(tsv.split("\n", 1)[1])
        return None

    def accuracy(self, lv, results: dict) -> float:
        accs = []
        for run in results.values():
            if run is not None and run.outdir.name in ("eq", "up") and run.returncode == 0:
                metrics = json.loads((run.outdir / "metrics.json").read_text("utf-8"))
                accs.append(metrics["accuracy"])
        return sum(accs) / len(accs) if accs else float("nan")


WORKLOADS = {w.name: w for w in (EqualitySearch(), SeparableLarge(), CliChain())}
