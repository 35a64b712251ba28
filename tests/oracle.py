"""Brute-force reference implementations used by the tests.

Everything here recomputes results from raw rows with itertools-style
enumeration.  None of it calls into the package's search code, so an
agreement test compares two genuinely independent implementations.
"""

import itertools

import numpy as np

from levelup import Equality, MaximumRate, MinimumRate, Unconstrained

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
