"""Accuracy/objective trade-off frontiers over constraint sweeps.

A frontier point records the policy, its pooled accuracy, the achieved
objective value (not the swept constraint parameter), and a per-group
statistics snapshot, so per-group trajectories along the sweep can be
read straight off the frontier.

Dominance is non-strict on one coordinate: point p is dominated by q
when q is at least as accurate and strictly better on the objective, or
strictly more accurate and at least as good on the objective.  Points
equal on both coordinates survive together.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics as M
from .data import DataError, _parse_json_object, _read_text
from .metrics import FairnessMeasure, tracked_statistics
from .policy import (
    Equality,
    EnforcementResult,
    MinimumRate,
    ThresholdPolicy,
    Unconstrained,
    _Problem,
    _baseline,
    _choose,
    _finish,
    _sweep,
    policy_from_json_dict,
    policy_to_json_dict,
)
from .scoring import ScoredDataset

__all__ = [
    "FrontierPoint",
    "FrontierResult",
    "pareto_prune",
    "equality_frontier",
    "mrc_frontier",
    "frontier_to_jsonl",
    "frontier_from_jsonl",
    "frontier_to_tsv",
]


@dataclass(frozen=True)
class FrontierPoint:
    """One policy on (or considered for) a frontier."""

    policy: ThresholdPolicy
    accuracy: float
    objective_value: float
    constraint_value: float | None
    per_group: M.GroupMetrics


@dataclass(frozen=True)
class FrontierResult:
    """Pruned frontier plus sweep bookkeeping.

    objective_direction is "min" when smaller objective values are better
    (disparity) and "max" when larger are better (minimum group rate).
    skipped lists sweep values that produced no feasible policy.
    """

    points: tuple[FrontierPoint, ...]
    objective: str
    objective_direction: str
    perfectly_fair_point_exists: bool
    skipped: tuple[str, ...]


def pareto_prune(
    points: list[FrontierPoint], direction: str = "min"
) -> list[FrontierPoint]:
    """Non-dominated subset, best objective value first.

    Single sorted sweep rather than the quadratic pairwise scan; the two
    agree, which the test suite checks against a brute-force oracle.  A
    NaN objective value or accuracy is a DataError naming the point.
    """
    if direction not in ("min", "max"):
        raise DataError("direction must be 'min' or 'max'")
    for k, p in enumerate(points):
        for what, value in (("objective value", p.objective_value), ("accuracy", p.accuracy)):
            if math.isnan(value):
                raise DataError(f"point {k} has a NaN {what}")
    sign = 1.0 if direction == "min" else -1.0
    ordered = sorted(points, key=lambda p: (sign * p.objective_value, -p.accuracy))
    keep: list[FrontierPoint] = []
    best_prior_acc = -math.inf  # over strictly better objectives
    for _, tied in itertools.groupby(ordered, key=lambda p: p.objective_value):
        tied = list(tied)
        # the tie group's most accurate points, unless a strictly better
        # objective is at least as accurate
        top_acc = tied[0].accuracy
        if top_acc > best_prior_acc:
            keep.extend(p for p in tied if p.accuracy == top_acc)
            best_prior_acc = top_acc
    return keep


def _point(result: EnforcementResult, objective_value: float,
           constraint_value: float | None) -> FrontierPoint:
    return FrontierPoint(
        policy=result.policy,
        accuracy=result.accuracy,
        objective_value=objective_value,
        constraint_value=constraint_value,
        per_group=result.metrics,
    )


def _dedup(points: list[FrontierPoint]) -> list[FrontierPoint]:
    seen = set()
    out = []
    for p in points:
        key = (p.policy.thresholds, p.accuracy, p.objective_value)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def _check_resolution(resolution) -> None:
    if not isinstance(resolution, numbers.Integral) or resolution < 2:
        raise DataError(f"resolution must be an integer >= 2, got {resolution!r}")


def _start(problem, stats) -> list[list[float]]:
    """Each statistic's values at the groups' unconstrained picks; a
    DataError naming the first group where one is undefined."""
    try:
        return [_baseline(problem, stat) for stat in stats]
    except DataError as exc:
        raise DataError(f"{exc}; no frontier exists") from None


def _frontier(problem, target, constraints) -> FrontierResult:
    """The frontier of the constraints, in any order: one _sweep of them
    all; one _finish of the Unconstrained spec with every point's; each
    point's check against its swept value (for a measure, disparity at
    most epsilon; for a statistic, minimum at least tau); then the
    Unconstrained point first, the points and skipped messages by
    ascending swept value, _dedup and pareto_prune."""
    equality = isinstance(target, FairnessMeasure)
    key = "epsilon" if equality else "tau"
    specs, skipped = _sweep(problem, constraints)
    specs = sorted(specs, key=lambda spec: spec[2][key])
    uncon, *results = _finish(problem, [_choose(problem, Unconstrained()), *specs])
    raw = [_point(uncon, _objective(uncon.metrics, target), None)]
    for spec, res in zip(specs, results):
        value, achieved = spec[2][key], _objective(res.metrics, target)
        if achieved is None or (achieved > value if equality else achieved < value):
            raise RuntimeError(f"policy at {key}={value!r} reaches {achieved!r}")
        raw.append(_point(res, achieved, value))
    pts = pareto_prune(_dedup(raw), "min" if equality else "max")
    return FrontierResult(
        points=tuple(pts),
        objective=f"disparity:{target.value}" if equality else f"min_group:{target}",
        objective_direction="min" if equality else "max",
        perfectly_fair_point_exists=equality and any(p.objective_value == 0.0 for p in pts),
        skipped=tuple(f"{key}={v:.6g}: {exc}" for v, exc in sorted(skipped, key=lambda s: s[0])),
    )


def _objective(metrics: M.GroupMetrics, target) -> float | None:
    """The disparity of a measure, or the minimum group value of a
    statistic; None when undefined."""
    if isinstance(target, FairnessMeasure):
        return M.disparity(metrics, target)
    values = metrics.values(target)
    return None if None in values else min(values)


def equality_frontier(
    scored: ScoredDataset,
    measure: FairnessMeasure,
    resolution: int = 50,
) -> FrontierResult:
    """Sweep the equality tolerance from 0 to the unconstrained disparity.

    The sweep is linear in epsilon, endpoints included, and the
    unconstrained policy itself is added before pruning.  The objective
    recorded per point is the achieved disparity, which can sit well
    below the swept epsilon.

    All points come from one sweep, the one enforce(Equality(measure,
    eps)) runs at a single epsilon, searched from the unconstrained
    disparity down to 0.  Feasible sets are nested (a policy feasible at some
    epsilon is feasible at every larger one), so a point whose
    predecessor's policy still satisfies its epsilon takes that policy
    without a search, and once one point is infeasible every tighter
    point is too, with the same minimum achievable disparity.  The points
    and the skipped messages, in ascending epsilon, equal those of a fresh
    enforce at each epsilon, and one pass over the rows tallies them all
    with the unconstrained point.
    """
    _check_resolution(resolution)
    problem = _Problem(scored)
    d0 = max(max(v) - min(v) for v in _start(problem, tracked_statistics(measure)))
    return _frontier(problem, measure, [
        Equality(measure, float(eps)) for eps in np.linspace(0.0, d0, resolution)])


def mrc_frontier(
    scored: ScoredDataset,
    statistic: str = "selection_rate",
    resolution: int = 50,
) -> FrontierResult:
    """Sweep a minimum rate from the unconstrained minimum up to 1.

    The objective recorded per point is the achieved minimum group value
    of the statistic.  Sweep values with no feasible policy are skipped
    and noted, not silently dropped.  All points come from one sweep, the
    one enforce(MinimumRate(statistic, tau)) runs at a single tau: one pass
    over each group's candidates picks every point, and the points and
    the skipped messages, in ascending tau, equal those of a fresh
    enforce at each tau.  One pass over the rows tallies every point with
    the unconstrained one.
    """
    _check_resolution(resolution)
    if statistic not in M.STATISTIC_DIRECTIONS:
        raise DataError(f"unknown statistic {statistic!r}")
    MinimumRate(statistic, 1.0)  # a DataError unless a minimum rate statistic
    problem = _Problem(scored)
    lo = min(_start(problem, [statistic])[0])
    return _frontier(problem, statistic, [
        MinimumRate(statistic, float(tau)) for tau in np.linspace(lo, 1.0, resolution)])


# ---------------------------------------------------------------------------
# serialization

def _point_to_dict(p: FrontierPoint) -> dict:
    return {
        "policy": policy_to_json_dict(p.policy),
        "accuracy": p.accuracy,
        "objective_value": p.objective_value,
        "constraint_value": p.constraint_value,
        "per_group": M.metrics_to_json_dict(p.per_group),
    }


def frontier_to_jsonl(result: FrontierResult, path: str | Path) -> None:
    """One JSON object per line: a header line, then one line per point."""
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "objective": result.objective,
            "objective_direction": result.objective_direction,
            "perfectly_fair_point_exists": result.perfectly_fair_point_exists,
            "skipped": list(result.skipped),
            "points": len(result.points),
        }
        handle.write(json.dumps(header) + "\n")
        for p in result.points:
            handle.write(json.dumps(_point_to_dict(p)) + "\n")


def _point_from_dict(row: dict) -> FrontierPoint:
    return FrontierPoint(
        policy=policy_from_json_dict(row["policy"]),
        accuracy=row["accuracy"],
        objective_value=row["objective_value"],
        constraint_value=row["constraint_value"],
        per_group=M.metrics_from_json_dict(row["per_group"]),
    )


def _header_from_dict(header: dict) -> dict:
    return dict(
        objective=header["objective"],
        objective_direction=header["objective_direction"],
        perfectly_fair_point_exists=header["perfectly_fair_point_exists"],
        skipped=tuple(header["skipped"]),
        points=int(header["points"]),
    )


def frontier_from_jsonl(path: str | Path) -> FrontierResult:
    """Inverse of frontier_to_jsonl.  Blank lines are ignored; a malformed
    line, a file that is not UTF-8 and a point count other than the
    header's are DataErrors naming the file."""
    text = _read_text(path, "frontier")
    lines = [(k, line) for k, line in enumerate(text.split("\n"), start=1) if line.strip()]
    if not lines:
        raise DataError(f"{path} is empty")
    (k, first), rest = lines[0], lines[1:]
    header = _parse_json_object(first, f"{path} line {k}", "frontier header", _header_from_dict)
    count = header.pop("points")
    points = tuple(
        _parse_json_object(line, f"{path} line {k}", "frontier point", _point_from_dict)
        for k, line in rest
    )
    if len(points) != count:
        raise DataError(f"{path}: header gives {count} points, file has {len(points)}")
    return FrontierResult(points=points, **header)


def frontier_to_tsv(result: FrontierResult, path: str | Path) -> None:
    """Two plot-ready columns: objective value and accuracy."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("objective\taccuracy\n")
        for p in result.points:
            handle.write(f"{p.objective_value!r}\t{p.accuracy!r}\n")
