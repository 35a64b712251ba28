"""Brute-force reference implementations used by the tests.

Everything here recomputes results from raw rows with itertools-style
enumeration.  None of it calls into the package's search code, so an
agreement test compares two genuinely independent implementations.  The
one exception is equality_frontier, the reference for the sweep rather
than for the search: it runs the package's single-constraint enforce
afresh at every point, which the brute-force enforce above judges.
"""

import csv
import itertools
from pathlib import Path

import numpy as np

from levelup import (
    DataError,
    Equality,
    FrontierResult,
    InfeasibleConstraintError,
    MaximumRate,
    MinimumRate,
    Unconstrained,
    disparity,
    pareto_prune,
    scored_from_arrays,
)
from levelup.frontier import _check_resolution, _dedup, _point
from levelup.policy import _Problem, _enforce

REJECT_ALL = 1.5

_TRACKED = {
    "demographic_parity": ("selection_rate",),
    "equal_opportunity": ("tpr",),
    "predictive_parity": ("precision",),
    "false_positive_error_rate_balance": ("tnr",),
    "equalized_odds": ("tpr", "fpr"),
    "conditional_use_accuracy_equality": ("precision", "npv"),
    "overall_accuracy_equality": ("accuracy",),
}


def candidate_grid(scores):
    """All thresholds that produce distinct decisions, smallest first."""
    distinct = sorted(set(float(s) for s in scores))
    cands = [0.0]
    for a, b in zip(distinct, distinct[1:]):
        mid = (a + b) / 2.0
        cands.append(mid if mid > a else b)
    cands.append(REJECT_ALL)
    return cands


def level_single_group(vals, start_idx, target):
    """Scan outward from start_idx, lower index first at each distance,
    for the first defined value reaching target.  When none does,
    the first defined value in that scan order holding the largest value
    (start_idx when every value is NaN).  Returns (index, missed)."""
    m = len(vals)
    best_fallback = start_idx
    for d in range(0, m):
        for k in (start_idx - d, start_idx + d):
            if not 0 <= k < m:
                continue
            v = vals[k]
            if np.isnan(v):
                continue
            if v >= target:
                return k, False
            if not np.isnan(vals[best_fallback]) and v > vals[best_fallback]:
                best_fallback = k
            elif np.isnan(vals[best_fallback]):
                best_fallback = k
    return best_fallback, True


def tally(scores, labels, threshold):
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    tn = int(np.sum(~pred & (labels == 0)))
    return tp, fp, fn, tn


def stat_from_counts(counts, name):
    tp, fp, fn, tn = counts
    pairs = {
        "selection_rate": (tp + fp, tp + fp + fn + tn),
        "tpr": (tp, tp + fn),
        "fnr": (fn, tp + fn),
        "tnr": (tn, tn + fp),
        "fpr": (fp, fp + tn),
        "precision": (tp, tp + fp),
        "npv": (tn, tn + fn),
        "accuracy": (tp + tn, tp + fp + fn + tn),
        "fn_fp_ratio": (fn, fp),
    }
    num, den = pairs[name]
    if den == 0:
        return None
    return num / den


def _disparity(per_group_counts, stat_names):
    worst = 0.0
    for name in stat_names:
        vals = [stat_from_counts(c, name) for c in per_group_counts]
        if any(v is None for v in vals):
            return None
        worst = max(worst, max(vals) - min(vals))
    return worst


def _feasible(constraint, per_group_counts, floors):
    """(feasible, disparity, min_primary) for one threshold combination."""
    if isinstance(constraint, Unconstrained):
        return True, None, None
    if isinstance(constraint, Equality):
        names = _TRACKED[constraint.measure.value]
        disp = _disparity(per_group_counts, names)
        if disp is None or disp > constraint.epsilon:
            return False, None, None
        prim = [stat_from_counts(c, names[0]) for c in per_group_counts]
        return True, disp, min(prim)
    if isinstance(constraint, MinimumRate):
        vals = []
        for g, counts in enumerate(per_group_counts):
            v = stat_from_counts(counts, constraint.statistic)
            need = constraint.tau
            if floors[g] is not None:
                need = max(need, floors[g])
            if v is None or v < need:
                return False, None, None
            vals.append(v)
        return True, max(vals) - min(vals), min(vals)
    if isinstance(constraint, MaximumRate):
        vals = [stat_from_counts(c, "selection_rate") for c in per_group_counts]
        if any(v > constraint.kappa for v in vals):
            return False, None, None
        return True, max(vals) - min(vals), min(vals)
    raise TypeError(constraint)


def _count_tables(scored):
    """Per group: the candidate grid and the tally at each candidate."""
    grids, count_tables = [], []
    for g in range(scored.n_groups):
        rows = scored.groups == g
        s, y = scored.scores[rows], scored.labels[rows]
        grids.append(candidate_grid(s))
        count_tables.append([tally(s, y, t) for t in grids[-1]])
    return grids, count_tables


def brute_force_min_disparity(scored, measure):
    """Smallest disparity of the measure over every threshold combination,
    or None when it is undefined for all of them."""
    _, count_tables = _count_tables(scored)
    names = _TRACKED[measure.value]
    best = None
    for counts in itertools.product(*count_tables):
        disp = _disparity(counts, names)
        if disp is not None and (best is None or disp < best):
            best = disp
    return best


def brute_force_enforce(scored, constraint):
    """Exhaustive search over every candidate threshold combination.

    Returns (thresholds, correct, accuracy) for the best feasible
    combination under the documented preference order, or None when no
    combination is feasible.  MinimumRate uses the per-group unconstrained
    value as an extra floor, matching the package's documented behaviour.
    """
    grids, count_tables = _count_tables(scored)

    floors = [None] * scored.n_groups
    if isinstance(constraint, MinimumRate):
        base, _, _ = brute_force_enforce(scored, Unconstrained())
        for g, t in enumerate(base):
            idx = grids[g].index(t)
            floors[g] = stat_from_counts(count_tables[g][idx],
                                         constraint.statistic)

    best_key = None
    best = None
    for combo in itertools.product(*[range(len(g)) for g in grids]):
        counts = [count_tables[g][i] for g, i in enumerate(combo)]
        ok, disp, min_prim = _feasible(constraint, counts, floors)
        if not ok:
            continue
        correct = sum(c[0] + c[3] for c in counts)
        thresholds = tuple(grids[g][i] for g, i in enumerate(combo))
        if isinstance(constraint, Unconstrained):
            key = (-correct, thresholds)
        else:
            key = (-correct, disp, -min_prim, thresholds)
        if best_key is None or key < best_key:
            best_key = key
            best = (thresholds, correct, correct / scored.n_rows)
    return best


def brute_force_pareto(accuracy, objective, direction="min"):
    """Quadratic dominance scan.  Returns indices of undominated points."""
    sign = 1.0 if direction == "min" else -1.0
    obj = sign * np.asarray(objective, dtype=np.float64)
    acc = np.asarray(accuracy, dtype=np.float64)
    keep = []
    for i in range(len(acc)):
        dominated = False
        for j in range(len(acc)):
            if j == i:
                continue
            if acc[j] >= acc[i] and obj[j] <= obj[i]:
                if acc[j] > acc[i] or obj[j] < obj[i]:
                    dominated = True
                    break
        if not dominated:
            keep.append(i)
    return keep


def equality_frontier(scored, measure, resolution=50):
    """The equality sweep point by point: epsilon ascending over
    linspace(0, unconstrained disparity, resolution), a fresh enforce at
    each point, the unconstrained policy first among the raw points.  A
    DataError names the first group, by tracked statistic, whose tally at
    its unconstrained threshold leaves the statistic undefined."""
    _check_resolution(resolution)
    problem = _Problem(scored)
    uncon = _enforce(problem, Unconstrained())
    for name in _TRACKED[measure.value]:
        for g, threshold in enumerate(uncon.policy.thresholds):
            rows = scored.groups == g
            if stat_from_counts(tally(scored.scores[rows], scored.labels[rows], threshold), name) is None:
                raise DataError(
                    f"{name} is undefined for group {scored.group_names[g]!r} under the "
                    "unconstrained policy; no frontier exists"
                )
    d0 = disparity(uncon.metrics, measure)
    raw = [_point(uncon, d0, None)]
    skipped = []
    for eps in np.linspace(0.0, d0, resolution):
        try:
            res = _enforce(problem, Equality(measure, float(eps)))
        except InfeasibleConstraintError as exc:
            skipped.append(f"epsilon={float(eps):.6g}: {exc}")
            continue
        raw.append(_point(res, disparity(res.metrics, measure), float(eps)))
    pts = pareto_prune(_dedup(raw), "min")
    return FrontierResult(
        points=tuple(pts),
        objective=f"disparity:{measure.value}",
        objective_direction="min",
        perfectly_fair_point_exists=any(p.objective_value == 0.0 for p in pts),
        skipped=tuple(skipped),
    )


def write_scores_csv(scored, path):
    """Row-at-a-time score CSV writer: one csv.writer call per row."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["score", "label", "group"])
        for i in range(scored.n_rows):
            writer.writerow(
                [
                    repr(float(scored.scores[i])),
                    str(int(scored.labels[i])),
                    scored.group_names[scored.groups[i]],
                ]
            )


def read_scores_csv(path):
    """Row-at-a-time score CSV reader: every check made on every row, in
    file order, so the first bad row raises."""
    path = Path(path)
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} has no header row") from None
        expected = ["score", "label", "group"]
        if [h.strip() for h in header] != expected:
            raise DataError(f"score CSV header must be {','.join(expected)}")
        scores, labels, groups = [], [], []
        names = []
        ids = {}
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError("expected 3 cells", row=rownum)
            try:
                s = float(row[0])
            except ValueError:
                raise DataError("unparseable score", row=rownum, column="score") from None
            if not 0.0 <= s <= 1.0:
                raise DataError("score outside [0, 1]", row=rownum, column="score")
            if row[1].strip() not in ("0", "1"):
                raise DataError("label must be 0 or 1", row=rownum, column="label")
            g = row[2].strip()
            if g == "":
                raise DataError("missing value", row=rownum, column="group")
            if g not in ids:
                ids[g] = len(names)
                names.append(g)
            scores.append(s)
            labels.append(int(row[1]))
            groups.append(ids[g])
    if not scores:
        raise DataError(f"{path} has a header but no data rows")
    return scored_from_arrays(scores, labels, groups, names)
