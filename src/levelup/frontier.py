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

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics as M
from .data import DataError, _parse_json_object, _read_text
from .metrics import FairnessMeasure
from .policy import (
    Equality,
    EnforcementResult,
    InfeasibleConstraintError,
    MinimumRate,
    ThresholdPolicy,
    Unconstrained,
    _EqualitySearch,
    _Problem,
    _enforce,
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
    """Non-dominated subset, sorted by objective value (ascending).

    Single sorted sweep rather than the quadratic pairwise scan; the two
    agree, which the test suite checks against a brute-force oracle.
    """
    if direction not in ("min", "max"):
        raise DataError("direction must be 'min' or 'max'")
    if not points:
        return []
    sign = 1.0 if direction == "min" else -1.0
    order = sorted(
        range(len(points)),
        key=lambda i: (sign * points[i].objective_value, -points[i].accuracy),
    )
    keep: list[int] = []
    best_prior_acc = -np.inf  # over strictly better objectives
    i = 0
    while i < len(order):
        j = i
        tie_obj = points[order[i]].objective_value
        group = []
        while j < len(order) and points[order[j]].objective_value == tie_obj:
            group.append(order[j])
            j += 1
        top_acc = max(points[k].accuracy for k in group)
        for k in group:
            acc = points[k].accuracy
            if acc <= best_prior_acc:
                continue  # dominated from a strictly better objective
            if acc < top_acc:
                continue  # dominated within the tie group
            keep.append(k)
        best_prior_acc = max(best_prior_acc, top_acc)
        i = j
    keep.sort(key=lambda k: (sign * points[k].objective_value, points[k].accuracy))
    return [points[k] for k in keep]


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

    The points are searched from the unconstrained disparity down to 0.
    Feasible sets are nested (a policy feasible at some epsilon is
    feasible at every larger one), so a point whose predecessor's policy
    still satisfies its epsilon takes that policy without a search, and
    once one point is infeasible every tighter point is too, with the
    same minimum achievable disparity.  The points and the skipped
    messages, in their order, equal those of a fresh
    enforce(Equality(measure, eps)) at each epsilon in ascending order.
    """
    _check_resolution(resolution)
    problem = _Problem(scored)
    uncon = _enforce(problem, Unconstrained())
    d0 = M.disparity(uncon.metrics, measure)
    if d0 is None:
        raise DataError(
            f"disparity of {measure.value} is undefined under the "
            "unconstrained policy; no frontier exists"
        )
    search = _EqualitySearch(problem, Equality(measure, d0))
    raw: list[FrontierPoint] = []
    skipped: list[str] = []
    for eps in np.linspace(0.0, d0, resolution)[::-1]:
        eps = float(eps)
        try:
            res = search.enforce(eps)
        except InfeasibleConstraintError as exc:
            skipped.append(f"epsilon={eps:.6g}: {exc}")
            continue
        d = M.disparity(res.metrics, measure)
        if d is None or d > eps:
            raise RuntimeError(f"policy at epsilon={eps!r} has disparity {d!r}")
        raw.append(_point(res, d, eps))
    # back to ascending epsilon: _dedup keeps the first of equal points
    raw.append(_point(uncon, d0, None))
    pts = pareto_prune(_dedup(raw[::-1]), "min")
    return FrontierResult(
        points=tuple(pts),
        objective=f"disparity:{measure.value}",
        objective_direction="min",
        perfectly_fair_point_exists=any(p.objective_value == 0.0 for p in pts),
        skipped=tuple(skipped[::-1]),
    )


def mrc_frontier(
    scored: ScoredDataset,
    statistic: str = "selection_rate",
    resolution: int = 50,
) -> FrontierResult:
    """Sweep a minimum rate from the unconstrained minimum up to 1.

    The objective recorded per point is the achieved minimum group value
    of the statistic.  Sweep values with no feasible policy are skipped
    and noted, not silently dropped.
    """
    _check_resolution(resolution)
    problem = _Problem(scored)
    uncon = _enforce(problem, Unconstrained())
    vals = uncon.metrics.values(statistic)
    if any(v is None for v in vals):
        raise DataError(
            f"{statistic} is undefined for some group under the "
            "unconstrained policy; no frontier exists"
        )
    lo = min(vals)
    raw: list[FrontierPoint] = [_point(uncon, lo, None)]
    skipped: list[str] = []
    for tau in np.linspace(lo, 1.0, resolution):
        try:
            res = _enforce(problem, MinimumRate(statistic, float(tau)))
        except InfeasibleConstraintError as exc:
            skipped.append(f"tau={float(tau):.6g}: {exc}")
            continue
        achieved = res.metrics.values(statistic)
        if any(v is None for v in achieved):
            raise RuntimeError(f"policy at tau={float(tau)!r} leaves {statistic} undefined")
        raw.append(_point(res, min(achieved), float(tau)))
    pts = pareto_prune(_dedup(raw), "max")
    return FrontierResult(
        points=tuple(pts),
        objective=f"min_group:{statistic}",
        objective_direction="max",
        perfectly_fair_point_exists=False,
        skipped=tuple(skipped),
    )


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
