"""Confusion counts, per-group statistics, disparities, and the measure taxonomy.

A statistic whose defining ratio is 0/0 is UNDEFINED and is represented
as None everywhere in this module.  UNDEFINED is never replaced by 0,
1, or NaN in reported values; callers must handle None.  The decision
rule throughout the package is: predict positive iff score >= threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .data import DataError

__all__ = [
    "ConfusionCounts",
    "GroupStats",
    "GroupMetrics",
    "FairnessMeasure",
    "HarmProfile",
    "STATISTIC_DIRECTIONS",
    "confusion",
    "group_metrics",
    "disparity",
    "harm_profile",
    "tracked_statistics",
    "metrics_to_json_dict",
    "metrics_from_json_dict",
]

# Direction a change in each statistic is read against when auditing:
# "higher" means larger values benefit the group, "lower" the reverse,
# "bidirectional" means the beneficial direction depends on context,
# "unclear" means no direction is defensible in general.
STATISTIC_DIRECTIONS = {
    "selection_rate": "bidirectional",
    "tpr": "higher",
    "fnr": "lower",
    "tnr": "higher",
    "fpr": "lower",
    "precision": "higher",
    "npv": "higher",
    "accuracy": "higher",
    "fn_fp_ratio": "unclear",
}


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-group confusion cells under some threshold policy."""

    tp: tuple[int, ...]
    fp: tuple[int, ...]
    tn: tuple[int, ...]
    fn: tuple[int, ...]
    group_names: tuple[str, ...]

    def __post_init__(self):
        k = len(self.group_names)
        for name in ("tp", "fp", "tn", "fn"):
            vals = getattr(self, name)
            if len(vals) != k:
                raise DataError(f"{name} must have one entry per group")
            if any(v < 0 for v in vals):
                raise DataError(f"negative count in {name}")

    def group_size(self, gid: int) -> int:
        return self.tp[gid] + self.fp[gid] + self.tn[gid] + self.fn[gid]


# Rows per block of the confusion tally.  A block's temporaries stay a few
# hundred KB; row-sized ones made the tally of 200k rows both slower and
# larger (3.2 MiB of temporaries against 0.3).
_TALLY_ROWS = 16384


def _tally(scored, thresholds) -> np.ndarray:
    """Confusion cells tp, fp, tn, fn of every group under each row of
    thresholds (one threshold per group), shape (policies, groups, 4),
    from one blocked pass over the rows.

    Each group's thresholds are sorted and padded with +inf up to a power
    of two W above their count.  A branchless binary search gives each row
    c, the number of its group's thresholds at or below its score, and one
    bincount per block counts the rows by (group, c, label).  A policy
    predicts a row positive exactly when its threshold is at or below the
    score, that is when the row's c is at least the threshold's own, so
    its cells are suffix sums of those counts over c.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    P, k = thresholds.shape
    W = 1 << P.bit_length()
    # every edge twice, so the code (group * W + c) * 2 + label indexes
    # edge c of the row's group and is also the row's bincount cell
    edges = np.full((k, W, 2), np.inf)
    edges[:, :P] = np.sort(thresholds, axis=0).T[..., None]
    edges = edges.ravel()

    def search(code, values):
        """code + 2c for each value: its group's count c of edges at or
        below it, for code at c = 0.  Each step reads edge c + h - 1 < W
        of the group's block, so no index needs a bounds check."""
        h = W // 2
        while h:
            code += (edges[2 * (h - 1):].take(code, mode="clip") <= values) * (2 * h)
            h //= 2
        return code

    counts = np.zeros(2 * k * W, dtype=np.int64)
    for a in range(0, scored.n_rows, _TALLY_ROWS):
        code = scored.groups[a:a + _TALLY_ROWS] * (2 * W)
        code += scored.labels[a:a + _TALLY_ROWS]
        counts += np.bincount(search(code, scored.scores[a:a + _TALLY_ROWS]), minlength=2 * k * W)
    # above[g * W + j]: the group's rows with c >= j, positives then negatives
    above = counts.reshape(k, W, 2)[:, ::-1].cumsum(axis=1)[:, ::-1, ::-1].reshape(k * W, 2)
    # a policy selects the rows whose c is at least its threshold's own
    start = np.zeros((P, 1), dtype=np.int64) + np.arange(0, 2 * k * W, 2 * W)
    selected = above[search(start, thresholds) // 2]  # tp, fp
    return np.concatenate([selected, (above[::W] - selected)[..., ::-1]], axis=-1)


def confusion(scored, policy) -> ConfusionCounts:
    """Tally confusion cells for a scored dataset under a threshold policy:
    the one-policy case of the tally every returned policy gets.

    The policy must name exactly the dataset's groups, in the same order.
    """
    return _confusions(scored, [policy])[0]


def _confusions(scored, policies) -> list[ConfusionCounts]:
    """confusion() of each policy, from one tally of the rows."""
    names = tuple(scored.group_names)
    for policy in policies:
        if tuple(policy.group_names) != names:
            raise DataError(
                "policy groups do not match dataset groups: "
                f"{policy.group_names} vs {scored.group_names}"
            )
    cells = _tally(scored, [policy.thresholds for policy in policies])
    return [ConfusionCounts(*map(tuple, counts), group_names=names)
            for counts in cells.transpose(0, 2, 1).tolist()]


# The one definition of every statistic: its numerator and denominator in
# the confusion cells.  The statistic is UNDEFINED where the denominator is
# 0.  The cells may be ints or numpy arrays of them; group_metrics reads
# the table with None for UNDEFINED, the policy search with NaN.
_RATIOS = {
    "selection_rate": lambda tp, fp, tn, fn: (tp + fp, tp + fp + tn + fn),
    "tpr": lambda tp, fp, tn, fn: (tp, tp + fn),
    "fnr": lambda tp, fp, tn, fn: (fn, tp + fn),
    "tnr": lambda tp, fp, tn, fn: (tn, tn + fp),
    "fpr": lambda tp, fp, tn, fn: (fp, tn + fp),
    "precision": lambda tp, fp, tn, fn: (tp, tp + fp),
    "npv": lambda tp, fp, tn, fn: (tn, tn + fn),
    "accuracy": lambda tp, fp, tn, fn: (tp + tn, tp + fp + tn + fn),
    "fn_fp_ratio": lambda tp, fp, tn, fn: (fn, fp),
}


def _ratio(num: int, den: int) -> float | None:
    if den == 0:
        return None
    return num / den


@dataclass(frozen=True)
class GroupStats:
    """All reported statistics for one group.  None marks UNDEFINED."""

    size: int
    selection_rate: float | None
    tpr: float | None
    fnr: float | None
    tnr: float | None
    fpr: float | None
    precision: float | None
    npv: float | None
    accuracy: float | None
    fn_fp_ratio: float | None

    def get(self, name: str) -> float | None:
        if name not in STATISTIC_DIRECTIONS:
            raise DataError(f"unknown statistic {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class GroupMetrics:
    """Per-group statistics plus group naming, in group id order."""

    stats: tuple[GroupStats, ...]
    group_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.stats) != len(self.group_names):
            raise DataError("stats and group_names must align")

    def for_group(self, gid: int) -> GroupStats:
        return self.stats[gid]

    def values(self, statistic: str) -> tuple[float | None, ...]:
        return tuple(s.get(statistic) for s in self.stats)


def group_metrics(counts: ConfusionCounts) -> GroupMetrics:
    """Derive all per-group statistics from confusion counts.

    Identities tpr + fnr == 1 and tnr + fpr == 1 hold whenever both
    sides are defined.  fn_fp_ratio is UNDEFINED whenever fp == 0 (the
    0/0 and the divide-by-zero case are both unreportable as numbers).
    """
    stats = []
    for g in range(len(counts.group_names)):
        cells = counts.tp[g], counts.fp[g], counts.tn[g], counts.fn[g]
        stats.append(
            GroupStats(
                size=sum(cells),
                **{name: _ratio(*terms(*cells)) for name, terms in _RATIOS.items()},
            )
        )
    return GroupMetrics(stats=tuple(stats), group_names=counts.group_names)


def _pooled_accuracy(metrics: GroupMetrics) -> float:
    """The one pooled accuracy: all groups' correct decisions over all
    their rows, so it equals (sum tp + sum tn) / n of the counts.  A
    group's correct count is round(accuracy * size), exact below 2**51
    rows.  Groups with no rows are skipped; NaN when no group has any."""
    groups = [s for s in metrics.stats if s.size]
    if not groups:
        return float("nan")
    return sum(round(s.accuracy * s.size) for s in groups) / sum(s.size for s in groups)


class FairnessMeasure(enum.Enum):
    DEMOGRAPHIC_PARITY = "demographic_parity"
    EQUAL_OPPORTUNITY = "equal_opportunity"
    PREDICTIVE_PARITY = "predictive_parity"
    FALSE_POSITIVE_ERROR_RATE_BALANCE = "false_positive_error_rate_balance"
    EQUALIZED_ODDS = "equalized_odds"
    CONDITIONAL_USE_ACCURACY_EQUALITY = "conditional_use_accuracy_equality"
    OVERALL_ACCURACY_EQUALITY = "overall_accuracy_equality"
    TREATMENT_EQUALITY = "treatment_equality"


# Statistic(s) a measure equalizes.  The first entry is the measure's
# primary statistic, used when a single tie-break key is needed.
_TRACKED = {
    FairnessMeasure.DEMOGRAPHIC_PARITY: ("selection_rate",),
    FairnessMeasure.EQUAL_OPPORTUNITY: ("tpr",),
    FairnessMeasure.PREDICTIVE_PARITY: ("precision",),
    FairnessMeasure.FALSE_POSITIVE_ERROR_RATE_BALANCE: ("tnr",),
    FairnessMeasure.EQUALIZED_ODDS: ("tpr", "fpr"),
    FairnessMeasure.CONDITIONAL_USE_ACCURACY_EQUALITY: ("precision", "npv"),
    FairnessMeasure.OVERALL_ACCURACY_EQUALITY: ("accuracy",),
    FairnessMeasure.TREATMENT_EQUALITY: ("fn_fp_ratio",),
}


def tracked_statistics(measure: FairnessMeasure) -> tuple[str, ...]:
    return _TRACKED[measure]


@dataclass(frozen=True)
class HarmProfile:
    """What unequal values of a measure cost the worse-off group, and the
    levelling-up remedy that raises them instead of dragging others down.

    remedy_statistics is empty when no defensible remedy direction exists;
    such measures are reportable but not enforceable.
    """

    measure: FairnessMeasure
    justified_use: str
    harm_to_disadvantaged: str
    remedy: str
    remedy_statistics: tuple[str, ...]
    enforceable: bool


_PROFILES = {
    FairnessMeasure.DEMOGRAPHIC_PARITY: HarmProfile(
        measure=FairnessMeasure.DEMOGRAPHIC_PARITY,
        justified_use="Selection should be independent of group membership.",
        harm_to_disadvantaged="Lack of selection.",
        remedy="Increase or decrease the selection rate; the beneficial "
        "direction depends on what selection means in context.",
        remedy_statistics=("selection_rate",),
        enforceable=True,
    ),
    FairnessMeasure.EQUAL_OPPORTUNITY: HarmProfile(
        measure=FairnessMeasure.EQUAL_OPPORTUNITY,
        justified_use="Missing a true positive is the costly mistake.",
        harm_to_disadvantaged="Failure to identify positive cases.",
        remedy="Increase the recall.",
        remedy_statistics=("tpr",),
        enforceable=True,
    ),
    FairnessMeasure.PREDICTIVE_PARITY: HarmProfile(
        measure=FairnessMeasure.PREDICTIVE_PARITY,
        justified_use="A positive prediction should mean the same thing "
        "for every group.",
        harm_to_disadvantaged="Positive predictions are less often correct.",
        remedy="Increase the precision.",
        remedy_statistics=("precision",),
        enforceable=True,
    ),
    FairnessMeasure.FALSE_POSITIVE_ERROR_RATE_BALANCE: HarmProfile(
        measure=FairnessMeasure.FALSE_POSITIVE_ERROR_RATE_BALANCE,
        justified_use="A wrongly positive call is the costly mistake.",
        harm_to_disadvantaged="Failure to identify negative cases.",
        remedy="Increase the true negative rate.",
        remedy_statistics=("tnr",),
        enforceable=True,
    ),
    FairnessMeasure.EQUALIZED_ODDS: HarmProfile(
        measure=FairnessMeasure.EQUALIZED_ODDS,
        justified_use="Error rates of both kinds should not depend on group.",
        harm_to_disadvantaged="More errors of either kind for the group.",
        remedy="Increase the recall and the true negative rate together "
        "(may not be jointly possible).",
        remedy_statistics=("tpr", "tnr"),
        enforceable=True,
    ),
    FairnessMeasure.CONDITIONAL_USE_ACCURACY_EQUALITY: HarmProfile(
        measure=FairnessMeasure.CONDITIONAL_USE_ACCURACY_EQUALITY,
        justified_use="Predictions of either kind should be equally "
        "trustworthy across groups.",
        harm_to_disadvantaged="Predictions are less often correct for the group.",
        remedy="Increase the precision and the negative predictive value "
        "together (may not be jointly possible).",
        remedy_statistics=("precision", "npv"),
        enforceable=True,
    ),
    FairnessMeasure.OVERALL_ACCURACY_EQUALITY: HarmProfile(
        measure=FairnessMeasure.OVERALL_ACCURACY_EQUALITY,
        justified_use="Both error types are equally costly, so groups "
        "should be classified equally well overall.",
        harm_to_disadvantaged="More classification errors for the group.",
        remedy="Increase the overall accuracy for the group.",
        remedy_statistics=("accuracy",),
        enforceable=True,
    ),
    FairnessMeasure.TREATMENT_EQUALITY: HarmProfile(
        measure=FairnessMeasure.TREATMENT_EQUALITY,
        justified_use="Unclear.",
        harm_to_disadvantaged="The mix of error types differs by group; "
        "whether that harms anyone depends on context.",
        remedy="",
        remedy_statistics=(),
        enforceable=False,
    ),
}


def harm_profile(measure: FairnessMeasure) -> HarmProfile:
    return _PROFILES[measure]


def disparity(metrics: GroupMetrics, measure: FairnessMeasure) -> float | None:
    """Max minus min of the tracked statistic across groups.

    For measures tracking two statistics, the larger of the per-statistic
    spreads.  UNDEFINED (None) if any group's tracked statistic is
    UNDEFINED; UNDEFINED propagates, it does not collapse to a number.
    """
    worst = 0.0
    for stat in tracked_statistics(measure):
        vals = metrics.values(stat)
        if any(v is None for v in vals):
            return None
        worst = max(worst, max(vals) - min(vals))
    return worst


def metrics_to_json_dict(metrics: GroupMetrics) -> dict:
    """JSON-ready dict keyed by group display name.

    UNDEFINED statistics serialize as null and are also listed by name
    under the group's "undefined" key so they cannot be mistaken for
    missing data.
    """
    # the fields read directly: dataclasses.asdict deep-copies each value
    keys = [f.name for f in fields(GroupStats)]
    out = {}
    for gid, name in enumerate(metrics.group_names):
        group = metrics.for_group(gid)
        stats = {k: getattr(group, k) for k in keys}
        undefined = sorted(k for k, v in stats.items() if v is None)
        stats["undefined"] = undefined
        out[name] = stats
    return out


def metrics_from_json_dict(payload: dict) -> GroupMetrics:
    """Inverse of metrics_to_json_dict."""
    names = tuple(payload.keys())
    stats = tuple(
        GroupStats(**{k: v for k, v in payload[n].items() if k != "undefined"})
        for n in names
    )
    return GroupMetrics(stats=stats, group_names=names)
