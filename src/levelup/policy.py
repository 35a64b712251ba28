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
higher minimum group value of that statistic (the first one, for a
measure tracking two), then the lexicographically smallest threshold
vector.  Unconstrained has no relevant statistic, so its ties go
straight to the lexicographic rule.  The search is exact for every
constraint at any group count: Equality, its minimum disparity over one
statistic and the tie-break among separable finalists all use one
anchored-window search, which answers each stage of the tie-break as an
exact question on its windows and never lists the tied combinations
(see the window search section below).  Provenance.approximate stays in
the file format for old policy files and is always false.

Problem.  Each enforce, level-up, frontier and CLI enforce works on one
_Problem: the scored dataset, its candidate tables, the unconstrained
picks and, per group, the correct count and each statistic the
constraint reads at every candidate.  Each array is computed once, on
first use, and statistics come from the one numerator and denominator
definition in metrics (NaN here where metrics reports None).  Every
returned policy is re-tallied from the rows, and each group's four
confusion cells in the tally must equal its candidate table's.

Levelling-up floor.  MinimumRate enforcement never returns a policy in
which any group's constrained statistic falls below the value that group
gets under Unconstrained: the feasible set is statistic >= max(tau,
unconstrained value).  Equality carries no such floor; dragging the
better-off group down is exactly the behaviour it is allowed to exhibit,
and the audit module exists to expose it.
"""

from __future__ import annotations

import functools
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


def _group_table(scored: ScoredDataset, gid: int) -> _GroupTable:
    """Candidate table of one group's rows.

    The rows are ordered by one in-place sort of int64 keys
    (score bits << 1) | label.  ScoredDataset keeps scores in (0, 1) and
    labels in {0, 1}; non-negative float64 values order like their bit
    patterns, and the bits of a value below 1.0 stay under 2**62, so the
    shifted key fits in int64 and decodes back to the exact score and label.
    """
    rows = scored.group_rows(gid)
    if len(rows) == 0:
        raise DataError(f"group {scored.group_names[gid]!r} has no rows")
    key = scored.scores[rows].view(np.int64) << 1
    key |= scored.labels[rows]
    key.sort()
    bits = key >> 1
    start = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    distinct = bits[start].view(np.float64)
    # suffix sums: candidate k selects the rows from distinct score k on
    tp = np.append(np.cumsum((key & 1)[::-1])[::-1][start], 0)
    fp = np.append(len(key) - start, 0) - tp
    thresholds = np.empty(len(distinct) + 1)
    thresholds[0] = 0.0
    lower, upper, mid = distinct[:-1], distinct[1:], thresholds[1:-1]
    np.add(lower, upper, out=mid)
    mid /= 2.0
    # guard against the midpoint rounding onto the lower score
    np.copyto(mid, upper, where=~(lower < mid))
    thresholds[-1] = REJECT_ALL
    pos = int(tp[0])
    return _GroupTable(thresholds=thresholds, tp=tp, fp=fp, n=len(key), pos=pos, neg=len(key) - pos)


def _build_tables(scored: ScoredDataset) -> list[_GroupTable]:
    return [_group_table(scored, gid) for gid in range(scored.n_groups)]


def candidate_thresholds(scored: ScoredDataset, gid: int) -> np.ndarray:
    """All useful thresholds for one group, ascending: 0, midpoints, sentinel."""
    if not 0 <= gid < scored.n_groups:
        raise DataError(f"no group with id {gid}")
    return _group_table(scored, gid).thresholds


def _correct_array(table: _GroupTable) -> np.ndarray:
    """Correctly classified rows at every candidate: tp + tn."""
    return table.tp + (table.neg - table.fp)


def _stat_array(table: _GroupTable, name: str) -> np.ndarray:
    """The statistic at every candidate, from metrics' one definition of
    it; NaN where UNDEFINED."""
    num, den = M._RATIOS[name](table.tp, table.fp, table.neg - table.fp, table.pos - table.tp)
    return np.divide(num, den, out=np.full(table.m, np.nan), where=den != 0)


class _Problem:
    """One scored dataset as a search problem, shared by every search,
    level-up walk and _finish of one call or sweep.

    It holds the candidate tables, the correct counts and each statistic
    at every candidate, and the unconstrained picks.  An array is
    computed on first use and then kept, so only the arrays the
    constraints read are held: 8 bytes per candidate each.
    """

    def __init__(self, scored: ScoredDataset):
        self.scored = scored
        self.tables = _build_tables(scored)
        self._correct = {}
        self._stats = {}

    def correct(self, g: int) -> np.ndarray:
        if g not in self._correct:
            self._correct[g] = _correct_array(self.tables[g])
        return self._correct[g]

    def stat(self, g: int, name: str) -> np.ndarray:
        if (g, name) not in self._stats:
            self._stats[g, name] = _stat_array(self.tables[g], name)
        return self._stats[g, name]

    @functools.cached_property
    def uncon(self) -> tuple[int, ...]:
        """Per group, the first candidate classifying the most rows correctly."""
        return tuple(int(np.argmax(self.correct(g))) for g in range(len(self.tables)))


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
#
# The tie-break runs on the same structure.  A combination reaching the
# best total takes each group's window best at its own lo, which is a
# tied anchor.  A member's offset at an anchor is v - anchor (with two
# statistics, the larger of its two offsets), the subtraction
# metrics.disparity does, so offsets are compared exactly.  The least
# disparity d is the smallest, over tied anchors, of the largest per-group
# least offset among best-holding members; the higher minimum is the
# largest anchor reaching d; there, each group takes its smallest
# candidate index among best-holding members with offset <= d.
#
# Two statistics nest the search: at each first-statistic anchor, the
# one-statistic search on the second statistic over the anchor's windows.
# _box_scan answers many first-statistic anchors at once, in chunks.  A
# chunk lays each group's windows end to end, one segment per anchor,
# ordered by (segment, second statistic, position).  Its inner anchors are
# the distinct (segment, second-statistic value) pairs, and their windows
# come from searchsorted over the exact int64 keys segment * K + rank,
# where rank is a value's index among the K distinct second-statistic
# values; the right end is settled once per distinct value, as _windows
# does.  No window crosses a segment, so one sparse table per group
# answers every window maximum of the chunk.

# Window members, over all groups, that one chunk of _box_scan holds at
# most (a chunk has at least one anchor).
_CHUNK_MEMBERS = 4096


@dataclass
class _Members:
    """One group's candidates whose tracked statistics are all defined,
    sorted by (first statistic, second statistic); in a chunk of _box_scan,
    by (segment, second statistic, position), with the first statistic's
    offset from the segment's anchor in place of the first statistic."""

    idx: np.ndarray
    stats: np.ndarray  # one row per tracked statistic
    correct: np.ndarray

    def __post_init__(self):
        # sparse[k, i] = max(correct[i:i + 2**k]), -1 past the end
        n = len(self.correct)
        self.sparse = np.full((max(n.bit_length(), 1), n), -1, dtype=np.int64)
        self.sparse[0] = self.correct
        for k in range(1, len(self.sparse)):
            half, m = 1 << (k - 1), n - (1 << k) + 1
            np.maximum(self.sparse[k - 1, :m], self.sparse[k - 1, half:half + m], out=self.sparse[k, :m])

    def subset(self, keep: np.ndarray) -> _Members:
        return _Members(self.idx[keep], self.stats[:, keep], self.correct[keep])

    def window_max(self, L, R):
        """Max of correct over each [L, R); -1 where the window is empty."""
        k = np.frexp(np.maximum(R - L, 1))[1] - 1
        start = np.minimum(L, len(self.correct) - 1)
        best = np.maximum(self.sparse[k, start], self.sparse[k, np.maximum(R - (1 << k), start)])
        return np.where(R > L, best, -1)


def _members(problem, stat_names, subsets=None) -> list[_Members]:
    """Per group, the candidates (all, or those in subsets[g]) to search."""
    out = []
    for g, t in enumerate(problem.tables):
        idx = np.arange(t.m) if subsets is None else subsets[g]
        stats = np.stack([problem.stat(g, name)[idx] for name in stat_names])
        keep = ~np.isnan(stats).any(axis=0)
        idx, stats = idx[keep], stats[:, keep]
        order = np.lexsort(stats[::-1])
        idx = idx[order]
        out.append(_Members(idx, stats[:, order], problem.correct(g)[idx]))
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


def _totals(members, L, R):
    """Each group's window maxima over [L, R) and each anchor's total (-1
    when a window is empty)."""
    best = np.stack([mb.window_max(lo, hi) for mb, lo, hi in zip(members, L, R)])
    return best, np.where((best >= 0).all(axis=0), best.sum(axis=0), -1)


def _window_search(members, eps):
    """The tie-break's pick among feasible combinations of one member per
    group: (top, d, pick), where top is the best total correct, d the least
    disparity among the combinations reaching it and pick their first by
    higher minimum, then smallest candidate indices; (-1, inf, None) when
    none is feasible.
    """
    if len(members[0].stats) == 2:
        return _box_scan(members, eps)
    anchors = np.unique(np.concatenate([mb.stats[0] for mb in members]))
    L, R = zip(*(_windows(mb.stats[0], anchors, eps) for mb in members))
    best, total = _totals(members, L, R)
    top = int(total.max())
    if top < 0:
        return -1, math.inf, None
    tied = np.flatnonzero(total == top)
    # Per tied anchor and group, the window positions holding the window's
    # best are one run [lo, hi) of the sorted keys correct * m + position.
    runs = []
    for g, mb in enumerate(members):
        m = len(mb.correct)
        keys = np.sort(mb.correct * m + np.arange(m))
        base = best[g, tied] * m
        runs.append((keys, np.searchsorted(keys, base + L[g][tied]),
                     np.searchsorted(keys, base + R[g][tied])))
    return (top, *_single_pick(members, anchors[tied], runs))


def _single_pick(members, anchors, runs):
    """(d, pick) of one statistic from the best-holding runs at the tied
    anchors.  Positions ascend the statistic, so a run's first position
    holds its least offset, and only the picked anchor's runs are
    gathered: the largest anchor reaching d, where each group takes its
    smallest candidate index with offset <= d."""
    least = np.zeros(len(anchors))
    for mb, (keys, lo, _) in zip(members, runs):
        least = np.maximum(least, mb.stats[0, keys[lo] % len(keys)] - anchors)
    d = least.min()
    at = np.flatnonzero(least == d)[-1]
    pick = []
    for mb, (keys, lo, hi) in zip(members, runs):
        pos = keys[lo[at]:hi[at]] % len(keys)
        pick.append(int(mb.idx[pos][mb.stats[0, pos] - anchors[at] <= d].min()))
    return float(d), tuple(pick)


def _box_scan(members, eps):
    """Two statistics: for each first-statistic anchor, the one-statistic
    search on the second statistic over the anchor's windows, every member
    carrying its first-statistic offset from the anchor.

    _prune first drops the members no feasible combination can use, and
    its first-statistic windows bound each anchor's total.  Anchors are
    taken best bound first, in chunks (see _chunk_search) of 2, 4, 8, ...
    anchors holding at most _CHUNK_MEMBERS window members, until the bound
    falls below the best exact total found, so every anchor that can reach
    it is searched.  The pick is the smallest (d, -anchor, pick): least
    disparity, then the higher minimum of the first statistic, then the
    smallest indices.
    """
    pruned = _prune(members, eps)
    if pruned is None:
        return -1, math.inf, None
    members, anchors, L, R = pruned
    bound = _totals(members, L, R)[1]
    order = np.argsort(-bound, kind="stable")[:np.count_nonzero(bound >= 0)]
    descending = -bound[order]
    # size[j] - size[i]: the window members of anchors order[i:j]
    size = np.concatenate(([0], np.cumsum(sum(hi[order] - lo[order] for lo, hi in zip(L, R)))))
    values = np.unique(np.concatenate([mb.stats[1] for mb in members]))
    second = (values, _windows(values, values, eps)[1],
              [np.searchsorted(values, mb.stats[1]) for mb in members])
    top, key = -1, (math.inf, 0.0, None)
    i, chunk = 0, 2
    while i < len(order) and bound[order[i]] >= max(top, 0):
        reach = np.searchsorted(descending, -max(top, 0), "right")
        fits = np.searchsorted(size, size[i] + _CHUNK_MEMBERS, "right") - 1
        a = order[i:max(i + 1, min(i + chunk, reach, fits))]
        best = _chunk_search(members, anchors[a], [(lo[a], hi[a]) for lo, hi in zip(L, R)],
                             second, max(top, 0))
        if best is not None:
            if best[0] > top:
                top, key = best
            elif best[0] == top:
                key = min(key, best[1])
        i, chunk = i + len(a), 2 * chunk
    return top, key[0], key[2]


def _ranges(lo, count):
    """The positions of the ranges [lo, lo + count), concatenated, and
    where each range starts among them."""
    start = np.cumsum(count) - count
    return np.arange(count.sum()) + np.repeat(lo - start, count), start


def _chunk_search(members, outer, spans, second, floor):
    """The inner searches of one chunk of _box_scan at once.

    outer holds the chunk's first-statistic anchors and spans, per group,
    their windows [lo, hi); second holds the sorted distinct
    second-statistic values, the end of each value's window among them,
    and each group's members' ranks in them.  Returns, when the chunk's
    best total reaches floor, (that total, the smallest (d, -anchor, pick)
    among the anchors reaching it); None otherwise.
    """
    values, ends, ranks = second
    K = len(values)
    chunk, keys = [], []
    for mb, rank, (lo, hi) in zip(members, ranks, spans):
        n, count = len(mb.idx), hi - lo
        pos = _ranges(lo, count)[0]
        key = (np.repeat(np.arange(len(count)), count) * K + rank[pos]) * n + pos
        key.sort()
        pos, key = np.divmod(key, n)[::-1]
        # the first statistic's offset from the segment's anchor in its place
        stats = np.stack([mb.stats[0, pos] - outer[key // K], mb.stats[1, pos]])
        chunk.append(_Members(mb.idx[pos], stats, mb.correct[pos]))
        keys.append(key)
    # np.unique hashes int64 keys, several times slower than this sort
    inner = np.sort(np.concatenate(keys))
    inner = inner[np.concatenate(([True], inner[1:] != inner[:-1]))]
    seg, rank = np.divmod(inner, K)
    L = [np.searchsorted(k, inner) for k in keys]
    R = [np.searchsorted(k, seg * K + ends[rank]) for k in keys]
    best, total = _totals(chunk, L, R)
    top = int(total.max())
    if top < floor:
        return None
    # The best-holding runs of every tied inner anchor, gathered at once;
    # a member's offset is the larger of its two.
    tied = np.flatnonzero(total == top)
    least, runs = np.zeros(len(tied)), []
    for g, mb in enumerate(chunk):
        n = len(mb.idx)
        by_best = np.sort(mb.correct * n + np.arange(n))
        base = best[g, tied] * n
        lo = np.searchsorted(by_best, base + L[g][tied])
        count = np.searchsorted(by_best, base + R[g][tied]) - lo
        sel, start = _ranges(lo, count)
        pos = (by_best % n)[sel]
        off = mb.stats[1, pos] - np.repeat(values[rank[tied]], count)
        np.maximum(off, mb.stats[0, pos], out=off)
        least = np.maximum(least, np.minimum.reduceat(off, start))
        runs.append((pos, off, start, count))
    d = least.min()
    anchor = outer[seg[tied]]
    a = anchor[least == d].max()
    at = np.flatnonzero((least == d) & (anchor == a))
    # per group, the smallest candidate index with offset <= d in each of
    # the picked anchor's runs reaching d
    picks = []
    for mb, (pos, off, start, count) in zip(chunk, runs):
        sel, first = _ranges(start[at], count[at])
        idx = np.where(off[sel] <= d, mb.idx[pos[sel]], np.iinfo(np.int64).max)
        picks.append(np.minimum.reduceat(idx, first))
    picks = np.stack(picks)
    pick = picks[:, np.lexsort(picks[::-1])[0]]
    return top, (float(d), -a, tuple(int(i) for i in pick))


def _prune(members, eps):
    """Drop the members that no feasible combination can use.

    For each statistic, a usable member lies in the window of some anchor
    at which every group's window is non-empty.  Dropping members can
    empty other windows, so this repeats until nothing changes.  None
    when a group runs out of members; otherwise the members, the
    first-statistic anchors and each group's windows L, R at them.
    """
    while True:
        keep = [np.ones(len(mb.idx), dtype=bool) for mb in members]
        for s in range(len(members[0].stats)):
            values = [mb.stats[s] for mb in members]
            anchors = np.unique(np.concatenate(values))
            orders = [np.argsort(v, kind="stable") for v in values]
            windows = [_windows(v[o], anchors, eps) for v, o in zip(values, orders)]
            if s == 0:
                # members ascend the first statistic, so orders[0] is the identity
                first = anchors, *zip(*windows)
            live = np.all([hi > lo for lo, hi in windows], axis=0)
            for k, (lo, hi), o in zip(keep, windows, orders):
                n = len(o) + 1
                depth = np.bincount(lo[live], minlength=n) - np.bincount(hi[live], minlength=n)
                k[o] &= np.cumsum(depth[:-1]) > 0
        if not all(k.any() for k in keep):
            return None
        if all(k.all() for k in keep):
            return members, *first
        members = [mb.subset(k) for mb, k in zip(members, keep)]


def _min_disparity(members) -> float:
    """The smallest disparity any combination reaches.  With one
    statistic, the window search's d without a disparity bound when every
    member counts zero correct, so every combination ties; with two, the
    least float eps at which the window search finds a feasible
    combination."""
    if len(members[0].stats) == 1:
        flat = [_Members(mb.idx, mb.stats, np.zeros_like(mb.correct)) for mb in members]
        return _window_search(flat, math.inf)[1]
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

def _separable_search(problem, per_group_feasible, stat):
    """Exact search when both objective and constraint split across groups.

    Each group keeps its accuracy-tied finalists, and every combination of
    them is feasible, so the window search without a disparity bound ranks
    them by the tie-break.
    """
    finalist_sets = []
    for g, feas in enumerate(per_group_feasible):
        if not np.any(feas):
            return None, g
        c = np.where(feas, problem.correct(g), -1)
        finalist_sets.append(np.flatnonzero(c == c.max()))
    # One finalist per group is the pick.  The window search returns the
    # same, but its fixed cost per call shows in the min-rate frontier.
    if all(len(s) == 1 for s in finalist_sets):
        return tuple(int(s[0]) for s in finalist_sets), None
    return _window_search(_members(problem, (stat,), finalist_sets), math.inf)[2], None


# ---------------------------------------------------------------------------
# enforce

def _finish(problem, picks, constraint_name, parameters, search, note=""):
    """The result of the picks, with its metrics from a direct tally of the
    rows; a RuntimeError when any group's four confusion cells in the
    tally differ from its candidate table's."""
    scored, tables = problem.scored, problem.tables
    thresholds = tuple(float(t.thresholds[p]) for t, p in zip(tables, picks))
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
    for g, (t, p) in enumerate(zip(tables, picks)):
        tp, fp = int(t.tp[p]), int(t.fp[p])
        cells = (tp, fp, t.neg - fp, t.pos - tp)
        tally = (counts.tp[g], counts.fp[g], counts.tn[g], counts.fn[g])
        if cells != tally:
            raise RuntimeError(
                f"group {scored.group_names[g]!r}: candidate table counts "
                f"tp, fp, tn, fn {cells}, tally {tally}"
            )
    correct = sum(counts.tp) + sum(counts.tn)
    return EnforcementResult(
        policy=policy, metrics=M.group_metrics(counts), accuracy=correct / scored.n_rows
    )


def enforce(scored: ScoredDataset, constraint: Constraint) -> EnforcementResult:
    """Best-accuracy threshold policy subject to the constraint.

    Raises InfeasibleConstraintError when no candidate policy satisfies
    it, naming the blocking group when a per-group requirement is the
    cause.
    """
    return _enforce(_Problem(scored), constraint)


def _enforce(problem, constraint) -> EnforcementResult:
    """enforce() on a problem, so a sweep builds its tables and arrays
    once."""
    if isinstance(constraint, Unconstrained):
        return _finish(problem, problem.uncon, "unconstrained", {}, "exact-grid")

    if isinstance(constraint, (MinimumRate, MaximumRate)):
        stat = constraint.statistic
        stats = [problem.stat(g, stat) for g in range(len(problem.tables))]
        if isinstance(constraint, MinimumRate):
            feas = []
            for vals, pick in zip(stats, problem.uncon):
                floor = vals[pick]
                need = constraint.tau if np.isnan(floor) else max(constraint.tau, float(floor))
                feas.append(vals >= need)
        else:
            feas = [vals <= constraint.kappa for vals in stats]
        picks, blocked = _separable_search(problem, feas, stat)
        if picks is None:
            name = problem.scored.group_names[blocked]
            vals = stats[blocked]
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
        return _finish(problem, picks, kind, params, "exact-grid")

    if isinstance(constraint, Equality):
        return _EqualitySearch(problem, constraint).enforce(constraint.epsilon)

    raise DataError(f"unknown constraint {constraint!r}")


class _EqualitySearch:
    """Equality for one measure on one problem, at any epsilon.

    The members are built once and the minimum disparity at most once, so
    a sweep over epsilon pays for neither at every point.  Feasible sets
    are nested: a combination feasible at some epsilon is feasible at
    every larger one.  So, at an epsilon smaller than earlier ones:

    - below the minimum disparity it is infeasible, without a search;
    - the last picks found, at a larger epsilon, are its answer when
      their disparity d, which the window search returned with them, is
      within it: they reach its best total, its feasible set is a subset
      of the larger epsilon's, and the tie-break chain ranked the picks
      first among the larger set's combinations reaching that total.

    The picks are used only at epsilons no larger than the one they were
    found at, so calls in any order return what enforce() returns.
    """

    def __init__(self, problem, constraint: Equality):
        self.problem, self.measure = problem, constraint.measure
        self.members = _members(problem, tracked_statistics(constraint.measure))
        if any(len(mb.idx) == 0 for mb in self.members):
            raise InfeasibleConstraintError(
                "tracked statistic is undefined for every candidate policy"
            )
        self.min_disparity = None
        self.last = None  # (epsilon, d, picks) of the last search that found picks

    def picks(self, eps):
        if self.last is not None and self.last[0] >= eps and self.last[1] <= eps:
            return self.last[2]
        if self.min_disparity is None or eps >= self.min_disparity:
            top, d, picks = _window_search(self.members, eps)
            if top >= 0:
                self.last = (eps, d, picks)
                return picks
            if self.min_disparity is None:
                self.min_disparity = _min_disparity(self.members)
        raise InfeasibleConstraintError(
            f"no candidate policy reaches disparity <= {eps}; "
            f"minimum achievable disparity is {self.min_disparity:.6g}"
        )

    def enforce(self, eps) -> EnforcementResult:
        params = {"measure": self.measure.value, "epsilon": eps}
        return _finish(self.problem, self.picks(eps), "equality", params, "exact-grid")


# ---------------------------------------------------------------------------
# levelling up

def _level_single_group(vals, start_idx, target):
    """Nearest candidate (by grid distance from start) reaching the target.

    Candidates are ranked by distance from the starting candidate, the
    lower threshold first on equal distance.  Falls back to the first
    candidate in that order holding the best achievable value when the
    target is unreachable; the second return flags that case.
    """
    defined = ~np.isnan(vals)
    if not defined.any():
        return start_idx, True

    def nearest(mask):
        # the first True on each side of the start, the lower one on a tie
        up, down = mask[start_idx:], mask[start_idx::-1]
        hi = start_idx + int(np.argmax(up)) if up.any() else None
        lo = start_idx - int(np.argmax(down)) if down.any() else None
        if lo is None or (hi is not None and hi - start_idx < start_idx - lo):
            return hi
        return lo

    reach = vals >= target  # NaN compares false
    if reach.any():
        return nearest(reach), False
    return nearest(defined & (vals == np.nanmax(vals))), True


def _check_level_up_stat(measure_or_stat, problem):
    """The statistic to level and its values at the unconstrained picks;
    a DataError when levelling up cannot use it."""
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
    for g in range(len(problem.tables)):
        if np.all(np.isnan(problem.stat(g, stat))):
            raise DataError(
                f"{stat} is undefined for every threshold of group "
                f"{problem.scored.group_names[g]!r}"
            )
    uncon_vals = [float(problem.stat(g, stat)[p]) for g, p in enumerate(problem.uncon)]
    if any(np.isnan(v) for v in uncon_vals):
        raise DataError(f"{stat} undefined under the unconstrained policy")
    return stat, uncon_vals


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
    problem = _Problem(scored)
    stat, uncon_vals = _check_level_up_stat(measure, problem)
    uncon = problem.uncon
    top = max(uncon_vals)
    if all(v == top for v in uncon_vals):
        picks = uncon
        note = "all groups already level; unconstrained policy returned"
        residual = False
    else:
        eq_picks = _EqualitySearch(problem, Equality(measure, epsilon)).picks(epsilon)
        picks = list(uncon)
        residual = False
        for g in range(len(uncon)):
            if uncon_vals[g] == top:
                continue
            target = max(float(problem.stat(g, stat)[eq_picks[g]]), uncon_vals[g])
            picks[g], missed = _level_single_group(problem.stat(g, stat), uncon[g], target)
            residual = residual or missed
        picks = tuple(picks)
        note = "target level unreachable on the grid for some group" if residual else ""
    return _finish(
        problem, picks, "partial_level_up",
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
    problem = _Problem(scored)
    stat, uncon_vals = _check_level_up_stat(statistic, problem)
    target = max(uncon_vals)
    picks = list(problem.uncon)
    gaps = []
    for g, value in enumerate(uncon_vals):
        if value == target:
            continue
        picks[g], missed = _level_single_group(problem.stat(g, stat), problem.uncon[g], target)
        if missed:
            achieved = float(problem.stat(g, stat)[picks[g]])
            gaps.append(f"{scored.group_names[g]}: residual gap {target - achieved:.6g}")
    return _finish(
        problem, tuple(picks), "full_level_up",
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
