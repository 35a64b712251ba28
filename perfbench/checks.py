"""Correctness checks that do not depend on how a result was computed.

Every helper returns a list of failure messages; an empty list means the
result passed.  Policies are re-tallied here with numpy and recomputed
through `metrics.confusion` / `metrics.disparity`, so a search that
returns an infeasible or mis-scored policy is caught whatever search
produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CliRun:
    """One `levelup` invocation: its exit code, stderr and output directory."""

    returncode: int
    stderr: str
    outdir: Path


def direct_accuracy(scored, thresholds) -> float:
    """Pooled accuracy of a threshold vector, tallied straight from the rows."""
    thr = np.asarray(thresholds, dtype=np.float64)[scored.groups]
    pred = scored.scores >= thr
    return int(np.count_nonzero(pred == (scored.labels == 1))) / scored.n_rows


def recomputed_metrics(lv, scored, policy):
    return lv.group_metrics(lv.confusion(scored, policy))


def check_result(lv, scored, result, uncon=None, stat=None, floor=None,
                 equality=None, cap=None, keep_best=False) -> list[str]:
    """Check one EnforcementResult against the rows it was computed on.

    stat/floor: every group's `stat` must be defined and >= floor.
    uncon: with stat, no group may end below its unconstrained value.
    equality: (measure, epsilon) the recomputed disparity must satisfy.
    cap: every group's selection rate must be <= cap.
    keep_best: the group best off under `uncon` keeps its threshold.
    """
    fails = []
    acc = direct_accuracy(scored, result.policy.thresholds)
    if result.accuracy != acc:
        fails.append(f"accuracy {result.accuracy!r} != direct tally {acc!r}")
    gm = recomputed_metrics(lv, scored, result.policy)
    if gm != result.metrics:
        fails.append("reported per-group metrics differ from a fresh confusion tally")
    if equality is not None:
        measure, eps = equality
        d = lv.disparity(gm, measure)
        if d is None or d > eps:
            fails.append(f"recomputed {measure.value} disparity {d!r} > epsilon {eps!r}")
    if cap is not None:
        rates = gm.values("selection_rate")
        if any(v is None or v > cap for v in rates):
            fails.append(f"selection rates {rates} exceed kappa {cap}")
    if stat is not None:
        vals = gm.values(stat)
        if any(v is None for v in vals):
            fails.append(f"{stat} undefined for some group: {vals}")
            return fails
        if floor is not None and min(vals) < floor:
            fails.append(f"{stat} {vals} below floor {floor}")
        if uncon is not None:
            base = uncon.metrics.values(stat)
            low = [n for n, v, b in zip(gm.group_names, vals, base) if v < b]
            if low:
                fails.append(f"{stat} fell below the unconstrained value for {low}")
            if keep_best:
                best = int(np.argmax(base))
                if result.policy.thresholds[best] != uncon.policy.thresholds[best]:
                    fails.append("best-off group's threshold moved")
    return fails


def check_frontier(lv, scored, front, measure=None, stat=None,
                   uncon=None) -> list[str]:
    """Every point is re-scored, meets its sweep value, and is non-dominated."""
    fails = []
    pts = front.points
    if not pts:
        return ["frontier has no points"]
    for i, p in enumerate(pts):
        acc = direct_accuracy(scored, p.policy.thresholds)
        if p.accuracy != acc:
            fails.append(f"point {i}: accuracy {p.accuracy!r} != tally {acc!r}")
        gm = recomputed_metrics(lv, scored, p.policy)
        if gm != p.per_group:
            fails.append(f"point {i}: per-group metrics differ from a fresh tally")
        if measure is not None:
            d = lv.disparity(gm, measure)
            if d != p.objective_value:
                fails.append(f"point {i}: disparity {d!r} != objective {p.objective_value!r}")
            if p.constraint_value is not None and (d is None or d > p.constraint_value):
                fails.append(f"point {i}: disparity {d!r} > epsilon {p.constraint_value!r}")
        if stat is not None:
            vals = gm.values(stat)
            if any(v is None for v in vals) or min(vals) != p.objective_value:
                fails.append(f"point {i}: min {stat} {vals} != objective {p.objective_value!r}")
            elif p.constraint_value is not None and min(vals) < p.constraint_value:
                fails.append(f"point {i}: min {stat} {min(vals)!r} < tau {p.constraint_value!r}")
            elif uncon is not None and any(
                v < b for v, b in zip(vals, uncon.metrics.values(stat))
            ):
                fails.append(f"point {i}: a group fell below its unconstrained {stat}")
    sign = 1.0 if front.objective_direction == "min" else -1.0
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            oa, ob = sign * a.objective_value, sign * b.objective_value
            if i != j and (
                (b.accuracy >= a.accuracy and ob < oa)
                or (b.accuracy > a.accuracy and ob <= oa)
            ):
                fails.append(f"point {i} is dominated by point {j}")
    return fails


def tsv_pairs(front) -> str:
    """The (objective, accuracy) lines `frontier_to_tsv` writes for a frontier."""
    return "".join(f"{p.objective_value!r}\t{p.accuracy!r}\n" for p in front.points)


def short_hash(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:16]


def tree_hash(path: Path) -> str:
    """Hash of every file name and its bytes under a directory."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode("utf-8") + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def fingerprint(lv, value) -> str:
    """Digest of everything a result holds, to compare passes of one run."""
    if isinstance(value, lv.ScoredDataset):
        h = hashlib.sha256()
        for arr in (value.scores, value.labels, value.groups):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(value.group_names).encode("utf-8"))
        return h.hexdigest()[:16]
    if isinstance(value, Path):
        return short_hash(value.read_bytes())
    if isinstance(value, CliRun):
        return f"{value.returncode}:{tree_hash(value.outdir)}"
    return short_hash(repr(value))


def pin_digest(lv, value) -> str | None:
    """What is pinned per seed: thresholds and accuracy, or frontier pairs.

    Approximate results are not pinned, so an exact search that beats
    them later is not a failure.
    """
    if isinstance(value, lv.EnforcementResult):
        if value.policy.provenance.approximate:
            return None
        return short_hash(f"{value.policy.thresholds!r} {value.accuracy!r}")
    if isinstance(value, lv.FrontierResult):
        return short_hash(tsv_pairs(value))
    return None
