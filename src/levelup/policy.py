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
constraint at any group count.  Equality uses one anchored-window
search, which answers each stage of the tie-break as an exact question
on its windows and never lists the tied combinations, and reads the
minimum disparity over one statistic off the same windows (see the
window search section below).  MinimumRate and MaximumRate are
separable: one pass over each group's candidates finds its finalists,
which all hold the group's best correct count, so the tie-break among
their combinations is read in closed form off the groups' sorted
finalist values.  Every constrained pick is made by one sweep over
constraints of one kind: enforce() sweeps its one constraint, and a
frontier sweeps all its points at once, so each frontier point is the
pick a fresh enforce() makes.  Provenance.approximate stays in the file
format for old policy files and is always false.

Problem.  Each enforce, level-up, frontier and CLI enforce works on one
_Problem: the scored dataset and its candidate tables.  Each table keeps
the arrays derived from it: its group's correct count and each statistic
a constraint reads at every candidate, and its unconstrained pick, each
computed once, on first use.  The tables, and so those arrays, are kept
for the last dataset they were built for, so calls on one live dataset
build each of them once; member sets and their layouts stay per call.
Statistics come from the one numerator and denominator definition in
metrics (NaN here where metrics reports None), as do a result's metrics
and pooled accuracy, from its picks' table cells.  Every
returned policy is re-tallied from the rows, and each group's four cells
in the tally must equal its table's.  The tally reads only the scores,
labels, groups and thresholds, never the tables, and one pass over the
rows tallies every policy of a sweep: a frontier finishes its
unconstrained point with all its points' picks, CLI enforce finishes
its policy with the Unconstrained baseline, and CLI audit tallies its
policy with its baseline.

Levelling-up floor.  MinimumRate enforcement never returns a policy in
which any group's constrained statistic falls below the value that group
gets under Unconstrained: the feasible set is statistic >= max(tau,
unconstrained value).  Equality and MaximumRate carry no such floor;
dragging the better-off group down is exactly the behaviour they are
allowed to exhibit, and the audit module exists to expose it.
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass, field

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


def _check_bound(name, value) -> None:
    """A DataError unless a constraint's bound is a real number; a bool is
    not one, though Python counts it as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class Equality:
    """Disparity of the measure's statistic(s) must not exceed epsilon."""

    measure: FairnessMeasure
    epsilon: float

    def __post_init__(self):
        _check_bound("epsilon", self.epsilon)
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
        _check_bound("tau", self.tau)
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
        _check_bound("kappa", self.kappa)
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


@dataclass(frozen=True)
class _GroupTable:
    """Confusion outcomes at every candidate threshold for one group, and
    the arrays the searches derive from them: the correct counts, each
    statistic read and the unconstrained pick, each computed on first use
    and kept for the table's life.  Every array is read-only, since the
    tables of a dataset are shared; a table made by dataclasses.replace
    starts without the derived ones."""

    thresholds: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    pos: int
    neg: int
    _stats: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.thresholds)

    @functools.cached_property
    def correct(self) -> np.ndarray:
        return _read_only(_correct_array(self))

    def stat(self, name: str) -> np.ndarray:
        if name not in self._stats:
            self._stats[name] = _read_only(_stat_array(self, name))
        return self._stats[name]

    @functools.cached_property
    def uncon(self) -> int:
        """The first candidate classifying the most rows correctly."""
        return int(np.argmax(self.correct))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
    # suffix sums: candidate k selects the rows from distinct score k on.
    # The counts are int32 below 2**31 rows: a dataset's tables outlive the
    # call (_build_tables), and int32 holds them in 16 bytes per candidate
    # with the threshold, not 24, and the correct counts in 4, not 8.
    counts = np.int32 if len(key) < 2**31 else np.int64
    tp = np.append(np.cumsum((key & 1)[::-1])[::-1][start], 0).astype(counts)
    fp = np.append(len(key) - start, 0).astype(counts) - tp
    thresholds = np.empty(len(distinct) + 1)
    thresholds[0] = 0.0
    lower, upper, mid = distinct[:-1], distinct[1:], thresholds[1:-1]
    np.add(lower, upper, out=mid)
    mid /= 2.0
    # guard against the midpoint rounding onto the lower score
    np.copyto(mid, upper, where=~(lower < mid))
    thresholds[-1] = REJECT_ALL
    pos = int(tp[0])
    return _GroupTable(thresholds=thresholds, tp=tp, fp=fp, pos=pos, neg=len(key) - pos)


# The candidate tables of the last scored dataset they were built for:
# (a weak reference to the dataset, its tables), or None; the tables
# carry the arrays calls have derived from them.  A dataset's
# arrays are read-only and its own, so its tables stay valid while it
# lives, and _finish re-tallies every result from the rows regardless.
_last_tables = None


def _forget_tables(ref) -> None:
    """Empty the slot when its dataset dies, unless it has moved on."""
    global _last_tables
    if _last_tables is not None and _last_tables[0] is ref:
        _last_tables = None


def _build_tables(scored: ScoredDataset) -> tuple[_GroupTable, ...]:
    """Every group's candidate table, built once for the last dataset
    asked for: a call on another dataset first frees the slot, so the
    process never holds two datasets' tables or derived arrays."""
    global _last_tables
    slot = _last_tables
    if slot is not None and slot[0]() is scored:
        return slot[1]
    _last_tables = slot = None  # nothing left holds the old tables
    tables = tuple(_group_table(scored, gid) for gid in range(scored.n_groups))
    for t in tables:
        for arr in (t.thresholds, t.tp, t.fp):
            _read_only(arr)
    _last_tables = weakref.ref(scored, _forget_tables), tables
    return tables


def candidate_thresholds(scored: ScoredDataset, gid: int) -> np.ndarray:
    """All useful thresholds for one group, ascending: 0, midpoints, sentinel."""
    if not 0 <= gid < scored.n_groups:
        raise DataError(f"no group with id {gid}")
    return _group_table(scored, gid).thresholds


def _correct_array(table: _GroupTable) -> np.ndarray:
    """Correctly classified rows at every candidate: tp + tn, in the
    table's count type, since the table keeps it; _members widens it."""
    return table.tp + (table.neg - table.fp)


def _stat_array(table: _GroupTable, name: str) -> np.ndarray:
    """The statistic at every candidate, from metrics' one definition of
    it; NaN where UNDEFINED."""
    num, den = M._RATIOS[name](table.tp, table.fp, table.neg - table.fp, table.pos - table.tp)
    return np.divide(num, den, out=np.full(table.m, np.nan), where=den != 0)


class _Problem:
    """One scored dataset as a search problem, shared by every search,
    level-up walk and _finish of one call or sweep: the dataset and its
    candidate tables, shared with every call on the same dataset
    (_build_tables), with the arrays derived from them."""

    def __init__(self, scored: ScoredDataset):
        self.scored = scored
        self.tables = _build_tables(scored)

    def correct(self, g: int) -> np.ndarray:
        return self.tables[g].correct

    def stat(self, g: int, name: str) -> np.ndarray:
        return self.tables[g].stat(name)

    @property
    def uncon(self) -> tuple[int, ...]:
        """Per group, the first candidate classifying the most rows correctly."""
        return tuple(t.uncon for t in self.tables)


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
# All groups' members lie in one array, one block per group, and each
# member carries its rank among the K sorted distinct values of each
# statistic.  A group's window at lo holds the ranks from lo's to the end
# rank _ends settles for lo.  Counting the members per key group * K + rank
# gives below[group * K + x], the number of members in earlier groups or in
# the group at ranks under x, so every window's ends are two gathers from it.
# Only the right ends move with eps: the rest, and the sparse table that
# answers every window maximum (no window crosses a block), is kept on the
# member set and built once for it.
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
# one-statistic search on the second statistic over the anchor's windows,
# which _box_scan answers for many anchors at once (see _chunk_search).
# Like one statistic, it searches the whole member set at every eps:
# members no feasible combination uses only widen windows, never change an
# answer, so a sweep's one member set and its caches serve every eps.
# _prune, which drops them, runs only in _min_disparity's bisection.

# Window members, over all groups, that one chunk of _box_scan holds at
# most (a chunk has at least one anchor).
_CHUNK_MEMBERS = 4096


@dataclass
class _Members:
    """Every group's candidates whose tracked statistics are all defined,
    in one array sorted by (group, first statistic, second statistic,
    candidate index); in a chunk of _box_scan, by (group, segment, second
    statistic, position), with the first statistic's offset from the
    segment's anchor in place of the first statistic.  values holds each
    statistic's sorted distinct values when _members built the set, and
    rank each member's index in them, so a sweep and a bisection rank the
    values once.  The cached properties depend on the members alone, never
    on eps; subset builds a new set, with its own."""

    n_groups: int
    group: np.ndarray
    idx: np.ndarray
    stats: np.ndarray  # one row per tracked statistic
    rank: np.ndarray  # one row per tracked statistic
    values: list
    correct: np.ndarray

    @functools.cached_property
    def layouts(self) -> list:
        """Per statistic, (anchors, order, base, below, L): the ranks the
        members hold, the order by (group, rank), below and each group's
        offset base[g] = g * K into it, and each group's window start
        L = below[base + anchors].  Read only on _members' sets and their
        subsets in order, whose members already follow (group, first
        statistic), so the first order is the identity."""
        layouts = []
        for s, (rank, values) in enumerate(zip(self.rank, self.values)):
            K = len(values)
            key = self.group * K + rank
            count = np.bincount(key, minlength=self.n_groups * K)
            below = np.concatenate(([0], np.cumsum(count)))
            base = np.arange(self.n_groups)[:, None] * K
            anchors = np.flatnonzero(count.reshape(self.n_groups, K).any(axis=0))
            order = np.argsort(key, kind="stable") if s else np.arange(len(key))
            layouts.append((anchors, order, base, below, below[base + anchors]))
        return layouts

    @functools.cached_property
    def run_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The keys correct * n + position, sorted, and their positions."""
        n = len(self.correct)
        keys = np.sort(self.correct * n + np.arange(n))
        return keys, keys % n

    @functools.cached_property
    def sparse(self) -> np.ndarray:
        """sparse[k, i] = max(correct[i:i + 2**k]), -1 past the end, for
        2**k up to the largest group's member count: no window crosses a
        group's block."""
        n = len(self.correct)
        rows = int(np.bincount(self.group).max()).bit_length()
        sparse = np.full((rows, n), -1, dtype=np.int64)
        sparse[0] = self.correct
        for k in range(1, len(sparse)):
            half, m = 1 << (k - 1), n - (1 << k) + 1
            np.maximum(sparse[k - 1, :m], sparse[k - 1, half:half + m], out=sparse[k, :m])
        return sparse

    def subset(self, keep: np.ndarray) -> _Members:
        """The members at the positions keep, in its order."""
        return _Members(self.n_groups, self.group[keep], self.idx[keep],
                        self.stats.take(keep, axis=1), self.rank.take(keep, axis=1), self.values,
                        self.correct[keep])


def _members(problem, stat_names) -> _Members:
    """Every group's candidates to search; an InfeasibleConstraintError
    naming the first group with none at which every statistic is
    defined."""
    parts = []
    for g, t in enumerate(problem.tables):
        parts.append((np.full(t.m, g), np.arange(t.m), problem.correct(g),
                      *(problem.stat(g, name) for name in stat_names)))
    group, idx, correct, *stats = map(np.concatenate, zip(*parts))
    stats = np.stack(stats)
    keep = np.flatnonzero(~np.isnan(stats).any(axis=0))
    group = group[keep]
    empty = np.flatnonzero(np.bincount(group, minlength=len(parts)) == 0)
    if len(empty):
        raise InfeasibleConstraintError(
            "tracked statistic is undefined for every candidate policy",
            blocking_group=problem.scored.group_names[empty[0]],
        )
    rank = np.empty((len(stats), len(keep)), dtype=np.int64)
    values, key = [], group
    for v, r in zip(stats.take(keep, axis=1), rank):
        # Each group's values are a nearly ordered run, on which a stable
        # sort takes about linear time when it ascends; falling values (a
        # selection rate, tpr) are sorted reversed.  No rank depends on the
        # order among equal values.  A rank counts the value changes before
        # it in ascending order.
        if v[0] <= v[-1]:
            order = np.argsort(v, kind="stable")
        else:
            order = len(v) - 1 - np.argsort(v[::-1], kind="stable")
        v = v[order]
        change = np.empty(len(v), dtype=bool)
        change[0] = False
        np.not_equal(v[1:], v[:-1], out=change[1:])
        r[order] = np.cumsum(change)
        change[0] = True
        values.append(v[change])
        key = key * len(values[-1]) + r
    # the order by (group, first statistic, second statistic), equal ones
    # by candidate index: a lexsort's, from one stable sort of the ranks.
    # The key stays below a layout's groups x K cells times the members.
    order = np.argsort(key, kind="stable")
    keep = keep[order]
    # take along axis 1 gathers several times faster than [:, keep];
    # correct counts are int64 here, since run_keys multiplies them by the
    # member count
    return _Members(len(parts), group[order], idx[keep], stats.take(keep, axis=1),
                    rank.take(order, axis=1), values, correct[keep].astype(np.int64))


def _distinct(v):
    """The distinct values of v, ascending: np.unique's result, by one
    sort.  np.unique hashes int64 keys, several times slower, and its first
    call imports numpy.ma, which costs a CLI process more than its search."""
    v = np.sort(v)
    first = np.ones(len(v), dtype=bool)
    np.not_equal(v[1:], v[:-1], out=first[1:])
    return v[first]


def _ends(values, eps):
    """Per sorted distinct value lo, the first index among values whose
    value v has v - lo > eps.  That is the subtraction metrics.disparity
    does; lo + eps can round across a value, so the end is settled on it."""
    n = len(values)
    end = np.searchsorted(values, values + eps, "right")
    while True:
        grow = (end < n) & (values[np.minimum(end, n - 1)] - values <= eps)
        shrink = values[end - 1] - values > eps
        if not (grow.any() or shrink.any()):
            return end
        end = end + grow - shrink


def _windows(members, s, ends):
    """(anchors, order, L, R): the ranks of the distinct values of
    statistic s the members hold, and each group's window [L, R) at them
    among the members in order by (group, statistic s).  Only R, one
    gather from the member set's prefix counts, depends on ends."""
    anchors, order, base, below, L = members.layouts[s]
    return anchors, order, L, below[base + ends[anchors]]


def _totals(members, L, R):
    """Each window's max correct over [L, R) (-1 when empty), one row per
    group, and each anchor's total (-1 when a window is empty)."""
    n = len(members.correct)
    k = np.frexp(np.maximum(R - L, 1))[1] - 1
    start = np.minimum(L, n - 1)
    # flat gathers: sparse[k, i] is flat[k * n + i], and a pair of index
    # arrays takes numpy's slower path
    flat, row = members.sparse.ravel(), k * n
    best = np.maximum(flat[row + start], flat[row + np.maximum(R - (1 << k), start)])
    best = np.where(R > L, best, -1)
    return best, np.where((best >= 0).all(axis=0), best.sum(axis=0), -1)


def _runs(members, L, R, best):
    """Each window's best-holding members: one run of the positions sorted
    by (group, correct, position), the member set's sorted keys correct * n
    + position since a group's positions are one block.  (positions, run
    starts, run lengths)."""
    keys, pos = members.run_keys
    lo = np.searchsorted(keys, best * len(keys) + L)
    return pos, lo, np.searchsorted(keys, best * len(keys) + R) - lo


def _ranges(lo, count):
    """The positions of the ranges [lo, lo + count), concatenated, and
    where each range starts among them."""
    start = np.cumsum(count) - count
    return np.arange(count.sum()) + np.repeat(lo - start, count), start


def _gather(members, runs, value):
    """The runs' members (one row of runs per group, one column per anchor
    value), their offsets and where each run starts among them."""
    pos, lo, count = runs
    sel, start = _ranges(lo.ravel(), count.ravel())
    pos = pos[sel]
    off = members.stats[-1, pos] - np.repeat(np.tile(value, len(lo)), count.ravel())
    if len(members.stats) == 2:
        np.maximum(off, members.stats[0, pos], out=off)
    return pos, off, start


def _pick(members, runs, value, d, at):
    """Per group, the smallest candidate index with offset <= d in the run
    at each anchor in at; the smallest of those index vectors."""
    pos, lo, count = runs
    pos, off, start = _gather(members, (pos, lo[:, at], count[:, at]), value[at])
    picks = np.minimum.reduceat(np.where(off <= d, members.idx[pos], np.iinfo(np.int64).max), start)
    picks = picks.reshape(len(lo), -1)
    return tuple(picks[:, np.lexsort(picks[::-1])[0]].tolist())


def _window_search(members, eps):
    """Equality's pick among feasible combinations of one member per
    group: (top, d, pick), where top is the best total correct, d the least
    disparity among the combinations reaching it and pick their first by
    higher minimum, then smallest candidate indices; (-1, inf, None) when
    none is feasible.  Both statistic counts search the members as given,
    never a subset, so the set's cached layouts serve every eps; two
    statistics go to _box_scan.  Separable constraints never come here:
    their tie-break is _tie_break's closed form.
    """
    if len(members.stats) == 2:
        return _box_scan(members, [_ends(v, eps) for v in members.values])
    anchors, _, L, R = _windows(members, 0, _ends(members.values[0], eps))
    best, total = _totals(members, L, R)
    top = int(total.max())
    if top < 0:
        return -1, math.inf, None
    tied = np.flatnonzero(total == top)
    value = members.values[0][anchors[tied]]
    runs = _runs(members, L[:, tied], R[:, tied], best[:, tied])
    # positions ascend the statistic, so a run's first member holds its
    # least offset, and only the picked anchor's runs are gathered
    least = (members.stats[0, runs[0][runs[1]]] - value).max(axis=0)
    d = least.min()
    return top, float(d), _pick(members, runs, value, d, np.flatnonzero(least == d)[-1:])


def _box_scan(members, ends):
    """Two statistics: for each first-statistic anchor, the one-statistic
    search on the second statistic over the anchor's windows, every member
    carrying its first-statistic offset from the anchor.

    The first-statistic windows bound each anchor's total.  Anchors are
    taken best bound first, in chunks (see _chunk_search) of 2, 4, 8, ...
    anchors holding at most _CHUNK_MEMBERS window members, until the bound
    falls below the best exact total found, so every anchor that can reach
    it is searched.  The pick is the smallest (d, -anchor, pick): least
    disparity, then the higher minimum of the first statistic, then the
    smallest indices.  The scan takes every member, usable or not: a
    member no feasible combination uses leaves each bound an upper bound
    and each anchor's inner search exact.
    """
    anchors, _, L, R = _windows(members, 0, ends[0])
    anchors = members.values[0][anchors]
    bound = _totals(members, L, R)[1]
    order = np.argsort(-bound, kind="stable")[:np.count_nonzero(bound >= 0)]
    descending = -bound[order]
    # size[j] - size[i]: the window members of anchors order[i:j]
    size = np.concatenate(([0], np.cumsum((R - L).sum(axis=0)[order])))
    top, key = -1, (math.inf, 0.0, None)
    i, chunk = 0, 2
    while i < len(order) and bound[order[i]] >= max(top, 0):
        reach = np.searchsorted(descending, -max(top, 0), "right")
        fits = np.searchsorted(size, size[i] + _CHUNK_MEMBERS, "right") - 1
        a = order[i:max(i + 1, min(i + chunk, reach, fits))]
        best = _chunk_search(members, anchors[a], L[:, a], R[:, a], ends[1], max(top, 0))
        if best is not None:
            if best[0] > top:
                top, key = best
            elif best[0] == top:
                key = min(key, best[1])
        i, chunk = i + len(a), 2 * chunk
    return top, key[0], key[2]


def _chunk_search(members, outer, L, R, ends, floor):
    """The inner searches of one chunk of _box_scan at once.

    outer holds the chunk's first-statistic anchor values, L and R each
    group's windows at them, and ends each second-statistic rank's end
    rank.  The chunk lays the windows end to end, one segment per anchor,
    in order of the keys (group * S + segment) * K + rank, over S segments
    and K second-statistic values; a stable sort keeps each key's members
    in ascending position, the order _ranges lists them in.
    The inner anchors are the distinct (segment, rank) pairs, and the
    windows are binary searches over the keys: a prefix count per (group,
    segment, rank) cell, even over the chunk's own distinct ranks, has up
    to (window members)**2 cells and was slower on two groups.  Returns,
    when the chunk's best total reaches floor, (that total, the smallest
    (d, -anchor, pick) among the anchors reaching it); None otherwise.
    """
    G, S = L.shape
    K = len(members.values[1])
    count = (R - L).ravel()
    pos = _ranges(L.ravel(), count)[0]
    block = np.repeat(np.arange(G * S), count) * K + members.rank[1, pos]
    order = np.argsort(block, kind="stable")
    block = block[order]
    chunk = members.subset(pos[order])
    chunk.stats[0] -= outer[block // K % S]
    inner = _distinct(block % (S * K))
    seg, rank = np.divmod(inner, K)
    base = np.arange(G)[:, None] * (S * K)
    L = np.searchsorted(block, base + inner)
    R = np.searchsorted(block, base + seg * K + ends[rank])
    best, total = _totals(chunk, L, R)
    top = int(total.max())
    if top < floor:
        return None
    tied = np.flatnonzero(total == top)
    value = members.values[1][rank[tied]]
    runs = _runs(chunk, L[:, tied], R[:, tied], best[:, tied])
    _, off, start = _gather(chunk, runs, value)
    least = np.minimum.reduceat(off, start).reshape(G, -1).max(axis=0)
    d = least.min()
    anchor = outer[seg[tied]]
    a = anchor[least == d].max()
    at = np.flatnonzero((least == d) & (anchor == a))
    return top, (float(d), -a, _pick(chunk, runs, value, d, at))


def _prune(members, ends):
    """The members that some feasible combination can use; None when a
    group has none.

    For each statistic, a usable member lies in the window of some anchor
    at which every group's window is non-empty.  Dropping members can
    empty other windows, so this repeats until nothing changes.  The
    window search is exact without it; _min_disparity's bisection runs it
    for its None, which settles an infeasible step without a scan, and
    for its survivors, which start the next step.
    """
    while True:
        keep = np.ones(len(members.idx), dtype=bool)
        for s, end in enumerate(ends):
            _, order, L, R = _windows(members, s, end)
            live = (R > L).all(axis=0)
            n = len(order) + 1
            depth = np.bincount(L[:, live].ravel(), minlength=n)
            depth -= np.bincount(R[:, live].ravel(), minlength=n)
            keep[order] &= np.cumsum(depth[:-1]) > 0
        if keep.all():
            return members
        if not np.bincount(members.group[keep], minlength=members.n_groups).all():
            return None
        members = members.subset(np.flatnonzero(keep))


def _min_disparity(members) -> float:
    """The smallest disparity any combination reaches.

    With one statistic, read off the layout: at each anchor, a group's
    least offset is its first member at or above the anchor, at L since
    positions ascend the statistic, minus the anchor, the subtraction the
    window search's tie stage does.  The minimum is the smallest, over
    anchors where every group has such a member, of the largest least
    offset.

    With two, the least float eps at which the window search finds a
    feasible combination.  Feasible sets are nested, so _prune at a
    smaller eps, started from the members it kept at a larger one, reaches
    the fixed point it reaches from all of them: each step of the
    bisection starts from the last feasible step's survivors, and a step
    whose _prune returns None is infeasible without a scan.  A feasible
    step's scan returns the disparity d <= eps of a combination it found,
    so d is feasible too and the next step bisects below it.  An
    infeasible step at eps moves the lower end up to the least candidate
    difference above eps, values[ends[i]] - values[i] over both
    statistics: every eps below it has the same ends, so the same
    windows, and is infeasible too.
    """
    if len(members.stats) == 1:
        anchors, _, base, below, L = members.layouts[0]
        # every group has a member at or above each anchor up to the least
        # of the groups' largest values, so those anchors are a prefix
        live = np.count_nonzero((L < below[base + len(members.values[0])]).all(axis=0))
        least = members.stats[0][L[:, :live]] - members.values[0][anchors[:live]]
        return float(least.max(axis=0).min())
    # Statistics lie in [0, 1] and non-negative floats order like their
    # bit patterns, so bisect on the bits.
    lo, hi = 0, int(np.float64(1.0).view(np.int64))
    while lo < hi:
        mid = (lo + hi) // 2
        ends = [_ends(v, float(np.int64(mid).view(np.float64))) for v in members.values]
        survivors = _prune(members, ends)
        top, d, _ = (-1, math.inf, None) if survivors is None else _box_scan(survivors, ends)
        if top >= 0:
            hi, members = int(np.float64(d).view(np.int64)), survivors
        else:
            gap = 1.0
            for v, end in zip(members.values, ends):
                i = np.flatnonzero(end < len(v))
                gap = (v[end[i]] - v[i]).min(initial=gap)
            lo = max(mid + 1, int(np.float64(gap).view(np.int64)))
    return float(np.int64(lo).view(np.float64))


# ---------------------------------------------------------------------------
# separable constraints: per-group feasible sets

def _tie_break(problem, finalist_sets, stat):
    """The pick among every combination of the groups' finalists, all of
    them feasible and, since each finalist holds its group's best correct
    count, all equally accurate: the tie-break's later stages in closed
    form.

    An anchor is a finalist value up to the least of the groups' largest,
    and a group's gap at it is its first finalist value at or above the
    anchor minus the anchor, the subtraction metrics.disparity does.  The
    least disparity d is the smallest, over anchors, of the largest gap;
    the higher minimum is the largest anchor a reaching d; there, each
    group takes its smallest index among the finalists v with a <= v and
    v - a <= d.
    """
    if all(len(s) == 1 for s in finalist_sets):
        return tuple(int(s[0]) for s in finalist_sets)
    values = [problem.stat(g, stat)[s] for g, s in enumerate(finalist_sets)]
    ordered = [np.sort(v) for v in values]
    anchors = np.concatenate(ordered)
    anchors = anchors[anchors <= min(v[-1] for v in ordered)]
    least = np.max([v[np.searchsorted(v, anchors)] - anchors for v in ordered], axis=0)
    d = least.min()
    a = anchors[least == d].max()
    # finalist sets ascend, so the first candidate in the window is the smallest
    return tuple(int(s[np.argmax((a <= v) & (v - a <= d))]) for s, v in zip(finalist_sets, values))


def _unreachable(problem, constraint, g) -> InfeasibleConstraintError:
    """The error of a MinimumRate constraint that group g meets at no
    candidate.  A cap always has one: reject-all selects no row."""
    stat = constraint.statistic
    name = problem.scored.group_names[g]
    vals = problem.stat(g, stat)
    if np.all(np.isnan(vals)):
        return InfeasibleConstraintError(
            f"{stat} is undefined for every candidate threshold of group {name!r}",
            blocking_group=name,
        )
    return InfeasibleConstraintError(
        f"minimum {stat} {constraint.tau} is unreachable for group {name!r}; "
        f"best achievable is {float(np.nanmax(vals)):.6g}",
        blocking_group=name,
    )


def _separable_sweep(problem, constraints):
    """The picks of MinimumRate constraints, or of MaximumRate ones, on one
    statistic: the specs of the feasible ones and the (bound, error) pairs
    of the rest, from one _separable_pass over each group's candidates.

    A minimum rate tau is the floor max(tau, the unconstrained pick's
    value) on the statistic.  A cap kappa is the floor -kappa on the
    negated statistic (sign -1), which a value v meets exactly when
    v <= kappa, and no levelling-up floor: a cap may level a group down.
    """
    stat = constraints[0].statistic
    cap = isinstance(constraints[0], MaximumRate)
    name, key = ("maximum_rate", "kappa") if cap else ("minimum_rate", "tau")
    bounds = [getattr(c, key) for c in constraints]
    levels = np.array(bounds, dtype=np.float64)
    passes = []
    for g in range(len(problem.tables)):
        vals = problem.stat(g, stat)
        if cap:
            floors = -levels
        else:
            floors = np.fmax(levels, vals[problem.uncon[g]])  # fmax skips a NaN
        passes.append(_separable_pass(problem, g, vals, floors, -1 if cap else 1))
    first = np.stack([p[0] for p in passes])
    specs, skipped = [], []
    for t, (constraint, bound) in enumerate(zip(constraints, bounds)):
        blocked = np.flatnonzero(first[:, t] < 0)
        if len(blocked):
            skipped.append((bound, _unreachable(problem, constraint, int(blocked[0]))))
            continue
        sets = [ties.get(t, first[g, t:t + 1]) for g, (_, ties) in enumerate(passes)]
        params = {"statistic": stat, key: bound}
        specs.append((_tie_break(problem, sets, stat), name, params, "exact-grid", ""))
    return specs, skipped


def _separable_pass(problem, g, vals, floors, sign):
    """Group g's finalists, among its candidates with values vals, at every
    floor in floors, which a value v meets when sign * v >= floor: (a
    finalist's index at each floor, -1 where no candidate meets it;
    {floor's position: its finalists, ascending} where there are several).

    A finalist meets the floor and holds the most correct rows among the
    candidates that do.  A candidate holding fewer correct rows than the
    best at the highest floor is a finalist at no floor, so the pass keeps
    the rest of those meeting the lowest floor; at one floor, only the
    finalists.  In descending order of sign * vals they meet each floor in
    a prefix, of length k by one binary search.  Over that order, the
    running maximum best of the correct count and the count reach of the
    positions holding their running maximum answer every floor: the
    prefix's best count is best[k - 1], a finalist is where best first
    reaches that, and the prefix holds more than one finalist when reach
    grows past that position.
    """
    correct = problem.correct(g)
    # v >= f, or v <= -f for a cap, with no negated copy of vals; a NaN
    # meets no floor, and one floor is compared once
    meet = np.greater_equal if sign > 0 else np.less_equal
    lowest, highest = floors.min(), floors.max()
    meets = meet(vals, sign * lowest)
    least = np.where(meets if highest == lowest else meet(vals, sign * highest), correct, -1).max()
    idx = np.flatnonzero(meets & (correct >= least))
    if not len(idx):
        return np.full(len(floors), -1), {}
    # No answer depends on the order among equal values, so where sign *
    # vals rise along the candidates (tnr, mostly precision, a capped
    # selection rate) they are taken reversed: the stable sort then runs in
    # about linear time on these nearly ordered values.
    key = -sign * vals[idx]
    if key[0] > key[-1]:
        idx, key = idx[::-1], key[::-1]
    order = np.argsort(key, kind="stable")
    k = np.searchsorted(key[order], -floors, "right")
    order = idx[order]
    correct = correct[order]
    best = np.maximum.accumulate(correct)
    top = best[k - 1]
    at = np.searchsorted(best, top)
    reach = correct  # overwritten in place
    np.equal(correct, best, out=reach)
    np.cumsum(reach, out=reach)
    feasible = k > 0
    first = np.where(feasible, order[at], -1)
    ties = {}
    for t in np.flatnonzero(feasible & (reach[k - 1] > reach[at])):
        finalists = order[at[t]:k[t]]
        ties[t] = np.sort(finalists[problem.correct(g)[finalists] == top[t]])
    return first, ties


# ---------------------------------------------------------------------------
# enforce

def _cells(problem, picks) -> list[tuple[int, int, int, int]]:
    """Each group's confusion cells (tp, fp, tn, fn) at its pick, read
    from its candidate table."""
    picked = ((t, int(t.tp[p]), int(t.fp[p])) for t, p in zip(problem.tables, picks))
    return [(tp, fp, t.neg - fp, t.pos - tp) for t, tp, fp in picked]


def _metrics(problem, cells) -> M.GroupMetrics:
    """Every group's statistics from its confusion cells."""
    tp, fp, tn, fn = zip(*cells)
    return M.group_metrics(M.ConfusionCounts(
        tp=tp, fp=fp, tn=tn, fn=fn, group_names=tuple(problem.scored.group_names)))


def _policy(problem, spec) -> ThresholdPolicy:
    """The policy of a spec (picks, constraint name, parameters, search,
    note): each group's threshold at its pick."""
    picks, name, parameters, search, note = spec
    return ThresholdPolicy(
        tuple(float(t.thresholds[p]) for t, p in zip(problem.tables, picks)),
        tuple(problem.scored.group_names),
        Provenance(constraint=name, parameters=parameters, search=search, note=note))


def _finish(problem, specs) -> list[EnforcementResult]:
    """The results of specs, each (picks, constraint name, parameters,
    search, note), with their metrics from the candidate tables' cells; a
    RuntimeError when any policy's four confusion cells in some group
    differ from one direct tally of the rows for them all."""
    scored = problem.scored
    policies = [_policy(problem, spec) for spec in specs]
    results = []
    for spec, policy, counts in zip(
            specs, policies, M._tally(scored, [p.thresholds for p in policies]).tolist()):
        cells = _cells(problem, spec[0])
        for g, (cell, count) in enumerate(zip(cells, map(tuple, counts))):
            if cell != count:
                raise RuntimeError(
                    f"group {scored.group_names[g]!r}: candidate table counts "
                    f"tp, fp, tn, fn {cell}, tally {count}")
        metrics = _metrics(problem, cells)
        results.append(EnforcementResult(
            policy=policy, metrics=metrics, accuracy=M._pooled_accuracy(metrics)))
    return results


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
    return _finish(problem, [_choose(problem, constraint)])[0]


def _choose(problem, constraint):
    """The picks enforce() makes for the constraint on the problem, with
    their provenance: the spec (picks, constraint name, parameters, search,
    note) that _finish takes; every other constraint is a sweep of one."""
    if isinstance(constraint, Unconstrained):
        return problem.uncon, "unconstrained", {}, "exact-grid", ""
    specs, skipped = _sweep(problem, [constraint])
    if skipped:
        raise skipped[0][1]
    return specs[0]


def _sweep(problem, constraints):
    """The picks of constraints of one kind on one measure or statistic,
    in any order: the specs of the feasible ones and the (bound, error)
    pairs of the rest.  Every constrained pick is made here: enforce()
    sweeps one constraint, a frontier all its points at once."""
    if isinstance(constraints[0], Equality):
        return _equality_sweep(problem, constraints)
    if isinstance(constraints[0], (MinimumRate, MaximumRate)):
        return _separable_sweep(problem, constraints)
    raise DataError(f"unknown constraint {constraints[0]!r}")


def _equality_sweep(problem, constraints):
    """_sweep() for Equality constraints on one measure, searched from the
    largest epsilon down on one member set.

    Feasible sets are nested: a combination feasible at some epsilon is
    feasible at every larger one.  So the last picks found, at a larger
    epsilon, are the answer at a smaller one while their disparity d,
    which the window search returned with them, is within it: they reach
    its best total, its feasible set is a subset of the larger epsilon's,
    and the tie-break chain ranked the picks first among the larger set's
    combinations reaching that total.  Once one epsilon is infeasible,
    every smaller one is too, and the minimum disparity is computed once
    for all their messages.
    """
    measure = constraints[0].measure
    members = _members(problem, tracked_statistics(measure))
    specs, skipped, last, least = [], [], None, None
    for eps in sorted((c.epsilon for c in constraints), reverse=True):
        if least is None and (last is None or last[0] > eps):
            top, d, picks = _window_search(members, eps)
            if top >= 0:
                last = d, picks
            else:
                least = _min_disparity(members)
        if least is None:
            specs.append((last[1], "equality", {"measure": measure.value, "epsilon": eps}, "exact-grid", ""))
        else:
            skipped.append((eps, InfeasibleConstraintError(
                f"no candidate policy reaches disparity <= {eps}; "
                f"minimum achievable disparity is {least:.6g}")))
    return specs, skipped


# ---------------------------------------------------------------------------
# levelling up

def _level_single_group(vals, start_idx, target):
    """Nearest candidate (by grid distance from start) reaching the target.

    Candidates are ranked by distance from the starting candidate, the
    lower threshold first on equal distance.  Falls back to the first
    candidate in that order holding the best achievable value when the
    target is unreachable; the second return flags that case.  At least
    one value must be defined.
    """
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
    return nearest(vals == np.nanmax(vals)), True  # NaN compares false


def _baseline(problem, stat) -> list[float]:
    """Each group's stat at its unconstrained pick; a DataError naming the
    first group where it is undefined."""
    values = [float(problem.stat(g, stat)[p]) for g, p in enumerate(problem.uncon)]
    for name, value in zip(problem.scored.group_names, values):
        if math.isnan(value):
            raise DataError(f"{stat} is undefined for group {name!r} under the "
                            "unconstrained policy")
    return values


def _walk(problem, stat, targets):
    """Each group's pick walked from its unconstrained pick to its target
    in targets by _level_single_group, or kept where the target is None,
    and the groups whose target the grid misses."""
    picks, missed = list(problem.uncon), []
    for g, target in enumerate(targets):
        if target is not None:
            picks[g], miss = _level_single_group(problem.stat(g, stat), picks[g], target)
            if miss:
                missed.append(g)
    return tuple(picks), missed


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
    names = tracked_statistics(measure)
    if len(names) != 1:
        raise DataError(
            f"{measure.value} tracks more than one statistic; "
            "levelling up needs a single target statistic"
        )
    stat, constraint = names[0], Equality(measure, epsilon)
    values = _baseline(problem, stat)
    top = max(values)
    if all(v == top for v in values):
        picks = problem.uncon
        note = "all groups already level; unconstrained policy returned"
    else:
        eq_picks = _choose(problem, constraint)[0]
        picks, missed = _walk(problem, stat, [
            None if v == top else max(float(problem.stat(g, stat)[p]), v)
            for g, (v, p) in enumerate(zip(values, eq_picks))])
        note = "target level unreachable on the grid for some group" if missed else ""
    return _finish(problem, [(
        picks, "partial_level_up",
        {"measure": measure.value, "epsilon": epsilon, "statistic": stat},
        "grid-walk", note,
    )])[0]


def full_level_up(scored: ScoredDataset, statistic: str) -> EnforcementResult:
    """Raise every worse-off group's statistic to the best group's
    Unconstrained level, leaving the best group untouched.

    When the grid cannot reach the target exactly the closest achievable
    value at or above the group's own Unconstrained level is used and the
    residual gap is recorded in the provenance note.
    """
    problem = _Problem(scored)
    if statistic not in MIN_RATE_STATISTICS:
        raise DataError(f"level-up statistic must be one of {MIN_RATE_STATISTICS}")
    values = _baseline(problem, statistic)
    target = max(values)
    picks, missed = _walk(problem, statistic, [None if v == target else target for v in values])
    gaps = [f"{scored.group_names[g]}: residual gap "
            f"{target - float(problem.stat(g, statistic)[picks[g]]):.6g}" for g in missed]
    return _finish(problem, [(
        picks, "full_level_up",
        {"statistic": statistic, "target": target},
        "grid-walk", "; ".join(gaps),
    )])[0]


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
