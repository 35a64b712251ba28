"""Per-group decision thresholds and constrained threshold selection.

Decision rule: predict positive iff score >= threshold, with one
threshold per group.  Thresholds live in [0, 1] except the sentinel
REJECT_ALL (the only permitted value above 1), which rejects every row.

Candidate grid.  For a group with n distinct scores the useful
thresholds are 0 (accept all), the n - 1 midpoints between consecutive
distinct scores, and REJECT_ALL: n + 1 candidates that realize every
achievable confusion outcome for that group exactly once.

Search.  enforce() maximizes pooled accuracy over the product of
per-group candidate grids subject to the constraint.  Accuracy ties are
broken, in order, by lower disparity of the constraint's statistic,
higher minimum group value of that statistic, then the lexicographically
smallest threshold vector.  Unconstrained has no relevant statistic, so
its ties go straight to the lexicographic rule.  The search is exact for
every constraint at any group count: Equality and the tie-break among
separable finalists both use one anchored-window search (see the window
search section below).  Provenance.approximate stays in the file format
for old policy files and is always false.

Levelling-up floor.  MinimumRate enforcement never returns a policy in
which any group's constrained statistic falls below the value that group
gets under Unconstrained: the feasible set is statistic >= max(tau,
unconstrained value).  Equality carries no such floor; dragging the
better-off group down is exactly the behaviour it is allowed to exhibit,
and the audit module exists to expose it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics as M
from .data import DataError
from .metrics import FairnessMeasure, harm_profile, tracked_statistics
from .scoring import ScoredDataset

__all__ = [
    "REJECT_ALL",
    "ThresholdPolicy",
    "Provenance",
    "Equality",
    "MinimumRate",
    "MaximumRate",
    "Unconstrained",
    "Constraint",
    "EnforcementResult",
    "InfeasibleConstraintError",
    "candidate_thresholds",
    "enforce",
    "partial_level_up",
    "full_level_up",
    "policy_to_json_dict",
    "policy_from_json_dict",
]

REJECT_ALL = 1.5

MIN_RATE_STATISTICS = ("selection_rate", "tpr", "tnr", "precision")


@dataclass(frozen=True)
class Provenance:
    """How a policy was produced, for the serialized record."""

    constraint: str
    parameters: dict
    search: str
    approximate: bool = False
    note: str = ""


@dataclass(frozen=True)
class ThresholdPolicy:
    """One decision threshold per group id."""

    thresholds: tuple[float, ...]
    group_names: tuple[str, ...]
    provenance: Provenance

    def __post_init__(self):
        if len(self.thresholds) != len(self.group_names):
            raise DataError("one threshold per group required")
        for t in self.thresholds:
            if not (0.0 <= t <= 1.0 or t == REJECT_ALL):
                raise DataError(
                    f"threshold {t} outside [0, 1] and not the reject-all sentinel"
                )

    def threshold_for(self, name: str) -> float:
        return self.thresholds[self.group_names.index(name)]


@dataclass(frozen=True)
class Equality:
    """Disparity of the measure's statistic(s) must not exceed epsilon."""

    measure: FairnessMeasure
    epsilon: float

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise DataError(f"epsilon must be a finite number >= 0, got {self.epsilon}")
        if not harm_profile(self.measure).enforceable:
            raise DataError(f"{self.measure.value} is reportable but not enforceable")


@dataclass(frozen=True)
class MinimumRate:
    """Every group's statistic must reach at least tau."""

    statistic: str
    tau: float

    def __post_init__(self):
        if self.statistic not in MIN_RATE_STATISTICS:
            raise DataError(
                f"minimum rate statistic must be one of {MIN_RATE_STATISTICS}"
            )
        if not 0.0 <= self.tau <= 1.0:
            raise DataError("tau must lie in [0, 1]")


@dataclass(frozen=True)
class MaximumRate:
    """Every group's selection rate must stay at or below kappa."""

    kappa: float
    statistic: str = "selection_rate"

    def __post_init__(self):
        if self.statistic != "selection_rate":
            raise DataError("maximum rate supports only selection_rate")
        if not 0.0 <= self.kappa <= 1.0:
            raise DataError("kappa must lie in [0, 1]")


@dataclass(frozen=True)
class Unconstrained:
    pass


Constraint = Equality | MinimumRate | MaximumRate | Unconstrained


class InfeasibleConstraintError(RuntimeError):
    """No candidate policy satisfies the constraint.

    blocking_group names the group that makes a per-group requirement
    unreachable, when one group alone is responsible.
    """

    def __init__(self, message: str, blocking_group: str | None = None):
        super().__init__(message)
        self.blocking_group = blocking_group


@dataclass(frozen=True)
class EnforcementResult:
    policy: ThresholdPolicy
    metrics: M.GroupMetrics
    accuracy: float


# ---------------------------------------------------------------------------
# candidate tables


@dataclass
class _GroupTable:
    """Confusion outcomes at every candidate threshold for one group."""

    thresholds: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    n: int
    pos: int
    neg: int

    @property
    def m(self) -> int:
        return len(self.thresholds)

    @property
    def fn(self) -> np.ndarray:
        return self.pos - self.tp

    @property
    def tn(self) -> np.ndarray:
        return self.neg - self.fp

    @property
    def correct(self) -> np.ndarray:
        return self.tp + self.tn

    def stat(self, name: str) -> np.ndarray:
        """Statistic at every candidate; NaN where UNDEFINED."""
        tp, fp = self.tp.astype(np.float64), self.fp.astype(np.float64)
        tn, fn = self.tn.astype(np.float64), self.fn.astype(np.float64)
        if name == "selection_rate":
            return (tp + fp) / self.n
        if name == "accuracy":
            return (tp + tn) / self.n
        if name == "tpr":
            return tp / self.pos if self.pos else np.full(self.m, np.nan)
        if name == "fnr":
            return fn / self.pos if self.pos else np.full(self.m, np.nan)
        if name == "tnr":
            return tn / self.neg if self.neg else np.full(self.m, np.nan)
        if name == "fpr":
            return fp / self.neg if self.neg else np.full(self.m, np.nan)
        if name == "precision":
            den = tp + fp
            return np.where(den > 0, tp / np.where(den > 0, den, 1.0), np.nan)
        if name == "npv":
            den = tn + fn
            return np.where(den > 0, tn / np.where(den > 0, den, 1.0), np.nan)
        raise DataError(f"unknown statistic {name!r}")


def _build_tables(scored: ScoredDataset) -> list[_GroupTable]:
    tables = []
    for gid in range(scored.n_groups):
        rows = scored.group_rows(gid)
        s = scored.scores[rows]
        y = scored.labels[rows]
        order = np.argsort(s, kind="stable")
        s, y = s[order], y[order]
        distinct, start = np.unique(s, return_index=True)
        pos_at = np.add.reduceat(y, start) if len(s) else np.array([], dtype=np.int64)
        tot_at = np.diff(np.append(start, len(s)))
        neg_at = tot_at - pos_at
        # suffix sums: candidate k selects the distinct scores from k on
        tp = np.append(np.cumsum(pos_at[::-1])[::-1], 0)
        fp = np.append(np.cumsum(neg_at[::-1])[::-1], 0)
        thresholds = np.empty(len(distinct) + 1)
        thresholds[0] = 0.0
        for k in range(1, len(distinct)):
            a, b = distinct[k - 1], distinct[k]
            mid = (a + b) / 2.0
            # guard against the midpoint rounding onto the lower score
            thresholds[k] = mid if a < mid else b
        thresholds[-1] = REJECT_ALL
        tables.append(
            _GroupTable(
                thresholds=thresholds,
                tp=tp.astype(np.int64),
                fp=fp.astype(np.int64),
                n=len(rows),
                pos=int(y.sum()),
                neg=len(rows) - int(y.sum()),
            )
        )
    return tables


def candidate_thresholds(scored: ScoredDataset, gid: int) -> np.ndarray:
    """All useful thresholds for one group, ascending: 0, midpoints, sentinel."""
    if not 0 <= gid < scored.n_groups:
        raise DataError(f"no group with id {gid}")
    return _build_tables(scored)[gid].thresholds.copy()


# ---------------------------------------------------------------------------
# tie-break machinery

def _pick_best(tables, combos, stat_names, primary):
    """Deterministic winner among accuracy-tied feasible combos (F, G)."""
    groups = range(len(tables))

    def column(values):
        return np.stack([values[g][combos[:, g]] for g in groups], axis=1)

    disp = np.zeros(len(combos))
    for name in stat_names:
        vals = column([t.stat(name) for t in tables])
        disp = np.maximum(disp, vals.max(axis=1) - vals.min(axis=1))
    min_prim = column([t.stat(primary) for t in tables]).min(axis=1)
    thr = column([t.thresholds for t in tables])
    keys = [thr[:, g] for g in reversed(groups)] + [-min_prim, disp]
    return tuple(int(v) for v in combos[np.lexsort(tuple(keys))[0]])


# ---------------------------------------------------------------------------
# window search: exact coupled search over per-group candidate sets
#
# Let lo be the smallest value of a tracked statistic in a combination of
# one candidate per group.  The combination is feasible exactly when every
# group's value v has v - lo <= eps, for each tracked statistic.  So the
# feasible combinations are the union, over anchors lo drawn from the
# candidates' own values, of products of per-group windows, and the best
# pooled accuracy is the best, over anchors, of a sum of per-group window
# maxima.

@dataclass
class _Members:
    """One group's candidates whose tracked statistics are all defined,
    sorted by (first statistic, second statistic)."""

    idx: np.ndarray
    stats: np.ndarray  # one row per tracked statistic
    correct: np.ndarray

    def __post_init__(self):
        # sparse[k, i] = max(correct[i:i + 2**k]), -1 past the end
        levels = [self.correct]
        while 2 ** len(levels) <= len(self.correct):
            half = 2 ** (len(levels) - 1)
            levels.append(np.maximum(levels[-1][:-half], levels[-1][half:]))
        self.sparse = np.full((len(levels), len(self.correct)), -1, dtype=np.int64)
        for k, level in enumerate(levels):
            self.sparse[k, : len(level)] = level

    def subset(self, keep: np.ndarray) -> _Members:
        return _Members(self.idx[keep], self.stats[:, keep], self.correct[keep])

    def window_max(self, L, R):
        """Max of correct over each [L, R); -1 where the window is empty."""
        k = np.frexp(np.maximum(R - L, 1))[1] - 1
        start = np.minimum(L, len(self.correct) - 1)
        best = np.maximum(self.sparse[k, start], self.sparse[k, np.maximum(R - (1 << k), start)])
        return np.where(R > L, best, -1)


def _members(tables, stat_names, subsets=None) -> list[_Members]:
    """Per group, the candidates (all, or those in subsets[g]) to search."""
    out = []
    for g, t in enumerate(tables):
        stats = np.stack([t.stat(name) for name in stat_names])
        idx = np.arange(t.m) if subsets is None else subsets[g]
        idx = idx[~np.isnan(stats[:, idx]).any(axis=0)]
        idx = idx[np.lexsort(stats[::-1, idx])]
        out.append(_Members(idx, stats[:, idx], t.correct[idx]))
    return out


def _windows(values, anchors, eps):
    """[L, R) of the sorted values v with v >= lo and v - lo <= eps, per anchor lo.

    v - lo <= eps is the subtraction metrics.disparity does; lo + eps can
    round across a value, so R is settled on the subtraction.
    """
    n = len(values)
    L = np.searchsorted(values, anchors, "left")
    R = np.searchsorted(values, anchors + eps, "right")
    while True:
        nxt, last = values[np.minimum(R, n - 1)], values[np.maximum(R - 1, 0)]
        grow = (R < n) & (nxt - anchors <= eps)
        shrink = (R > L) & (last - anchors > eps)
        if not (grow.any() or shrink.any()):
            return L, R
        R = np.where(grow, np.searchsorted(values, nxt, "right"), R)
        R = np.where(shrink, np.searchsorted(values, last, "left"), R)


def _anchor_pass(members, eps):
    """First-statistic windows of every group at every anchor, the groups'
    window maxima, and each anchor's total (-1 when a window is empty)."""
    anchors = np.unique(np.concatenate([mb.stats[0] for mb in members]))
    L, R = zip(*(_windows(mb.stats[0], anchors, eps) for mb in members))
    best = np.stack([mb.window_max(lo, hi) for mb, lo, hi in zip(members, L, R)])
    return L, R, best, np.where((best >= 0).all(axis=0), best.sum(axis=0), -1)


def _window_search(members, eps):
    """Best total correct over feasible combinations, and every combination
    reaching it as candidate indices (F, G); (-1, None) when none is feasible.
    """
    if len(members[0].stats) == 2:
        return _box_search(members, eps)
    L, R, best, total = _anchor_pass(members, eps)
    top = int(total.max())
    if top < 0:
        return -1, None
    tied = np.flatnonzero(total == top)
    # Per tied anchor and group, the first and last window position whose
    # correct equals the window's best; sorting correct * m + position
    # groups each value's positions in ascending runs.
    rows = []
    for g, mb in enumerate(members):
        m = len(mb.correct)
        keys = np.sort(mb.correct * m + np.arange(m))
        base = best[g, tied] * m
        rows.append(keys[np.searchsorted(keys, base + L[g][tied])] - base)
        rows.append(keys[np.searchsorted(keys, base + R[g][tied]) - 1] - base)
    combos = []
    for row in np.unique(np.stack(rows, axis=1), axis=0):
        sets = []
        for g, mb in enumerate(members):
            span = slice(row[2 * g], row[2 * g + 1] + 1)
            sets.append(mb.idx[span][mb.correct[span] == mb.correct[row[2 * g]]])
        grid = np.meshgrid(*sets, indexing="ij")
        combos.append(np.stack([axis.ravel() for axis in grid], axis=1))
    return top, np.unique(np.concatenate(combos), axis=0)


def _box_search(members, eps):
    """Two statistics: find the best, then collect the finalists among the
    members that can still reach it.

    A finalist's member in group g has correct >= (the group's max) -
    slack, where slack is the sum of the group maxima minus the best;
    dropping the others keeps the collection small when many anchors tie.
    """
    members = _prune(members, eps)
    if members is None:
        return -1, None
    top, _ = _box_scan(members, eps, ties=False)
    if top < 0:
        return -1, None
    slack = sum(int(mb.correct.max()) for mb in members) - top
    return _box_scan([mb.subset(mb.correct >= mb.correct.max() - slack)
                      for mb in members], eps, ties=True)


def _box_scan(members, eps, ties):
    """For each first-statistic anchor, the one-statistic search on the
    second statistic over the anchor's windows.

    The first-statistic pass caps each anchor's total, so anchors are
    visited best bound first until the bound falls below the best exact
    total found (or reaches it, when ties are not wanted).
    """
    L, R, _, bound = _anchor_pass(members, eps)
    top, found = -1, []
    for a in np.argsort(-bound, kind="stable"):
        if bound[a] < max(top + (not ties), 0):
            break
        window = []
        for mb, lo, hi in zip(members, L, R):
            span = np.arange(lo[a], hi[a])
            span = span[np.argsort(mb.stats[1, span], kind="stable")]
            window.append(_Members(mb.idx[span], mb.stats[1:, span], mb.correct[span]))
        best, finalists = _window_search(window, eps)
        if best > top:
            top, found = best, []
        if best == top >= 0:
            found.append(finalists)
    if top < 0:
        return -1, None
    return top, np.unique(np.concatenate(found), axis=0)


def _prune(members, eps):
    """Drop the members that no feasible combination can use.

    For each statistic, a usable member lies in the window of some anchor
    at which every group's window is non-empty.  Dropping members can
    empty other windows, so this repeats until nothing changes.  None
    when a group runs out of members.
    """
    while True:
        keep = [np.ones(len(mb.idx), dtype=bool) for mb in members]
        for s in range(len(members[0].stats)):
            values = [mb.stats[s] for mb in members]
            anchors = np.unique(np.concatenate(values))
            orders = [np.argsort(v, kind="stable") for v in values]
            windows = [_windows(v[o], anchors, eps) for v, o in zip(values, orders)]
            live = np.all([hi > lo for lo, hi in windows], axis=0)
            for k, (lo, hi), o in zip(keep, windows, orders):
                n = len(o) + 1
                depth = np.bincount(lo[live], minlength=n) - np.bincount(hi[live], minlength=n)
                k[o] &= np.cumsum(depth[:-1]) > 0
        if not all(k.any() for k in keep):
            return None
        if all(k.all() for k in keep):
            return members
        members = [mb.subset(k) for mb, k in zip(members, keep)]


def _min_disparity(members) -> float:
    """The smallest disparity any combination reaches: the least float eps
    at which the window search finds a feasible combination."""
    if len(members[0].stats) == 1:
        # anchor lo needs eps >= (each group's smallest value >= lo) - lo
        anchors = np.unique(np.concatenate([mb.stats[0] for mb in members]))
        need = np.zeros(len(anchors))
        for mb in members:
            at = np.searchsorted(mb.stats[0], anchors)
            gap = mb.stats[0][np.minimum(at, len(mb.idx) - 1)] - anchors
            need = np.maximum(need, np.where(at < len(mb.idx), gap, np.inf))
        return float(need.min())
    # Statistics lie in [0, 1] and non-negative floats order like their
    # bit patterns, so bisect on the bits.
    lo, hi = 0, int(np.float64(1.0).view(np.int64))
    while lo < hi:
        mid = (lo + hi) // 2
        if _window_search(members, float(np.int64(mid).view(np.float64)))[0] >= 0:
            hi = mid
        else:
            lo = mid + 1
    return float(np.int64(lo).view(np.float64))


# ---------------------------------------------------------------------------
# separable constraints: per-group feasible sets

def _unconstrained_indices(tables) -> tuple[int, ...]:
    return tuple(int(np.argmax(t.correct)) for t in tables)


def _separable_search(tables, per_group_feasible, stat):
    """Exact search when both objective and constraint split across groups.

    Each group keeps its accuracy-tied finalists; the tie-break's lowest
    disparity is their minimum achievable disparity, so the window search
    at that epsilon yields exactly the combos the tie-break ranks.
    """
    finalist_sets = []
    for g, t in enumerate(tables):
        feas = per_group_feasible[g]
        if not np.any(feas):
            return None, g
        c = np.where(feas, t.correct, -1)
        finalist_sets.append(np.flatnonzero(c == c.max()))
    if all(len(s) == 1 for s in finalist_sets):
        return tuple(int(s[0]) for s in finalist_sets), None
    members = _members(tables, (stat,), finalist_sets)
    _, finalists = _window_search(members, _min_disparity(members))
    return _pick_best(tables, finalists, (stat,), stat), None


# ---------------------------------------------------------------------------
# enforce

def _finish(scored, tables, picks, constraint_name, parameters, search, note=""):
    thresholds = tuple(float(tables[g].thresholds[picks[g]]) for g in range(len(tables)))
    policy = ThresholdPolicy(
        thresholds=thresholds,
        group_names=tuple(scored.group_names),
        provenance=Provenance(
            constraint=constraint_name,
            parameters=parameters,
            search=search,
            note=note,
        ),
    )
    counts = M.confusion(scored, policy)
    gm = M.group_metrics(counts)
    correct = sum(counts.tp) + sum(counts.tn)
    expected = sum(int(tables[g].correct[picks[g]]) for g in range(len(tables)))
    if correct != expected:
        raise RuntimeError(f"candidate table counts {expected} correct, tally {correct}")
    return EnforcementResult(
        policy=policy, metrics=gm, accuracy=correct / scored.n_rows
    )


def enforce(scored: ScoredDataset, constraint: Constraint) -> EnforcementResult:
    """Best-accuracy threshold policy subject to the constraint.

    Raises InfeasibleConstraintError when no candidate policy satisfies
    it, naming the blocking group when a per-group requirement is the
    cause.
    """
    tables = _build_tables(scored)

    if isinstance(constraint, Unconstrained):
        picks = _unconstrained_indices(tables)
        return _finish(scored, tables, picks, "unconstrained", {}, "exact-grid")

    if isinstance(constraint, (MinimumRate, MaximumRate)):
        stat = constraint.statistic
        base = _unconstrained_indices(tables)
        feas = []
        for g, t in enumerate(tables):
            vals = t.stat(stat)
            if isinstance(constraint, MinimumRate):
                floor = vals[base[g]]
                need = constraint.tau if np.isnan(floor) else max(constraint.tau, float(floor))
                ok = vals >= need
            else:
                ok = vals <= constraint.kappa
            feas.append(ok)
        picks, blocked = _separable_search(tables, feas, stat)
        if picks is None:
            name = scored.group_names[blocked]
            vals = tables[blocked].stat(stat)
            if np.all(np.isnan(vals)):
                raise InfeasibleConstraintError(
                    f"{stat} is undefined for every candidate threshold of "
                    f"group {name!r}",
                    blocking_group=name,
                )
            bound = constraint.tau if isinstance(constraint, MinimumRate) else constraint.kappa
            word = "minimum" if isinstance(constraint, MinimumRate) else "maximum"
            extreme = float(np.nanmax(vals)) if isinstance(constraint, MinimumRate) else float(np.nanmin(vals))
            raise InfeasibleConstraintError(
                f"{word} {stat} {bound} is unreachable for group {name!r}; "
                f"best achievable is {extreme:.6g}",
                blocking_group=name,
            )
        if isinstance(constraint, MinimumRate):
            kind, params = "minimum_rate", {"statistic": stat, "tau": constraint.tau}
        else:
            kind, params = "maximum_rate", {"statistic": stat, "kappa": constraint.kappa}
        return _finish(scored, tables, picks, kind, params, "exact-grid")

    if isinstance(constraint, Equality):
        names, eps = tracked_statistics(constraint.measure), constraint.epsilon
        members = _members(tables, names)
        if any(len(mb.idx) == 0 for mb in members):
            raise InfeasibleConstraintError(
                "tracked statistic is undefined for every candidate policy"
            )
        top, finalists = _window_search(members, eps)
        if top < 0:
            raise InfeasibleConstraintError(
                f"no candidate policy reaches disparity <= {eps}; "
                f"minimum achievable disparity is {_min_disparity(members):.6g}"
            )
        picks = _pick_best(tables, finalists, names, names[0])
        params = {"measure": constraint.measure.value, "epsilon": eps}
        return _finish(scored, tables, picks, "equality", params, "exact-grid")

    raise DataError(f"unknown constraint {constraint!r}")


# ---------------------------------------------------------------------------
# levelling up

def _level_single_group(table, start_idx, stat_name, target):
    """Nearest candidate (by grid distance from start) reaching the target.

    Scans outward from the starting candidate, preferring the lower
    threshold on ties.  Falls back to the best achievable value when the
    target is unreachable; the second return flags that case.
    """
    vals = table.stat(stat_name)
    m = table.m
    best_fallback = start_idx
    for d in range(0, m):
        for k in (start_idx - d, start_idx + d):
            if not 0 <= k < m:
                continue
            v = vals[k]
            if np.isnan(v):
                continue
            if v >= target - 1e-12:
                return k, False
            if not np.isnan(vals[best_fallback]) and v > vals[best_fallback]:
                best_fallback = k
            elif np.isnan(vals[best_fallback]):
                best_fallback = k
    return best_fallback, True


def _check_level_up_stat(measure_or_stat, scored, tables):
    if isinstance(measure_or_stat, FairnessMeasure):
        names = tracked_statistics(measure_or_stat)
        if len(names) != 1:
            raise DataError(
                f"{measure_or_stat.value} tracks more than one statistic; "
                "levelling up needs a single target statistic"
            )
        stat = names[0]
        direction = M.STATISTIC_DIRECTIONS[stat]
        if direction not in ("higher", "bidirectional"):
            raise DataError(
                f"no defensible level-up direction for {stat!r}"
            )
    else:
        stat = measure_or_stat
        if stat not in MIN_RATE_STATISTICS:
            raise DataError(
                f"level-up statistic must be one of {MIN_RATE_STATISTICS}"
            )
    for g, t in enumerate(tables):
        if np.all(np.isnan(t.stat(stat))):
            raise DataError(
                f"{stat} is undefined for every threshold of group "
                f"{scored.group_names[g]!r}"
            )
    return stat


def partial_level_up(
    scored: ScoredDataset,
    measure: FairnessMeasure,
    epsilon: float = 0.01,
) -> EnforcementResult:
    """Raise worse-off groups to the level equality enforcement would set,
    without touching the best-off group's threshold.

    The best-off group keeps its Unconstrained threshold exactly.  Every
    other group's threshold moves just far enough that its tracked
    statistic reaches what enforce(Equality(measure, epsilon)) would have
    assigned it, or as close as the candidate grid permits.  Targets are
    clamped from below at each group's own Unconstrained value, so no
    group is ever moved backwards.
    """
    tables = _build_tables(scored)
    stat = _check_level_up_stat(measure, scored, tables)
    uncon = _unconstrained_indices(tables)
    uncon_vals = [float(tables[g].stat(stat)[uncon[g]]) for g in range(len(tables))]
    if any(np.isnan(v) for v in uncon_vals):
        raise DataError(f"{stat} undefined under the unconstrained policy")
    top = max(uncon_vals)
    if all(v == top for v in uncon_vals):
        picks = uncon
        note = "all groups already level; unconstrained policy returned"
        residual = False
    else:
        eq = enforce(scored, Equality(measure, epsilon))
        eq_vals = eq.metrics.values(stat)
        picks = list(uncon)
        residual = False
        for g in range(len(tables)):
            if uncon_vals[g] == top:
                continue
            target = max(float(eq_vals[g]), uncon_vals[g])
            picks[g], missed = _level_single_group(tables[g], uncon[g], stat, target)
            residual = residual or missed
        picks = tuple(picks)
        note = "target level unreachable on the grid for some group" if residual else ""
    return _finish(
        scored, tables, picks, "partial_level_up",
        {"measure": measure.value, "epsilon": epsilon, "statistic": stat},
        "grid-walk", note=note,
    )


def full_level_up(scored: ScoredDataset, statistic: str) -> EnforcementResult:
    """Raise every worse-off group's statistic to the best group's
    Unconstrained level, leaving the best group untouched.

    When the grid cannot reach the target exactly the closest achievable
    value at or above the group's own Unconstrained level is used and the
    residual gap is recorded in the provenance note.
    """
    tables = _build_tables(scored)
    stat = _check_level_up_stat(statistic, scored, tables)
    uncon = _unconstrained_indices(tables)
    uncon_vals = [float(tables[g].stat(stat)[uncon[g]]) for g in range(len(tables))]
    if any(np.isnan(v) for v in uncon_vals):
        raise DataError(f"{stat} undefined under the unconstrained policy")
    target = max(uncon_vals)
    picks = list(uncon)
    gaps = []
    for g in range(len(tables)):
        if uncon_vals[g] == target:
            continue
        picks[g], missed = _level_single_group(tables[g], uncon[g], stat, target)
        if missed:
            achieved = float(tables[g].stat(stat)[picks[g]])
            gaps.append(f"{scored.group_names[g]}: residual gap {target - achieved:.6g}")
    return _finish(
        scored, tables, tuple(picks), "full_level_up",
        {"statistic": stat, "target": target},
        "grid-walk", note="; ".join(gaps),
    )


# ---------------------------------------------------------------------------
# serialization

def policy_to_json_dict(policy: ThresholdPolicy) -> dict:
    return {
        "thresholds": {
            name: policy.thresholds[gid]
            for gid, name in enumerate(policy.group_names)
        },
        "provenance": {
            "constraint": policy.provenance.constraint,
            "parameters": dict(policy.provenance.parameters),
            "search": policy.provenance.search,
            "approximate": policy.provenance.approximate,
            "note": policy.provenance.note,
        },
    }


def policy_from_json_dict(payload: dict) -> ThresholdPolicy:
    try:
        thresholds = payload["thresholds"]
        prov = payload["provenance"]
        return ThresholdPolicy(
            thresholds=tuple(float(v) for v in thresholds.values()),
            group_names=tuple(thresholds.keys()),
            provenance=Provenance(
                constraint=prov["constraint"],
                parameters=dict(prov["parameters"]),
                search=prov["search"],
                approximate=bool(prov["approximate"]),
                note=prov.get("note", ""),
            ),
        )
    except (KeyError, AttributeError, TypeError) as exc:
        raise DataError(f"malformed policy payload: {exc!r}") from exc
