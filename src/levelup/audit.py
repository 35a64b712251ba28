"""Disaggregated before/after comparison of threshold policies.

Reports are always per group and per statistic in absolute terms;
disparities alone can hide a group being dragged down, so they never
appear without the underlying group values next to them.

Flag semantics per (group, statistic):
  "harm"      a higher-is-better statistic fell by more than the tolerance
  "review-decrease" / "review-increase"
              a bidirectional statistic (selection rate) moved by more
              than the tolerance; whether that hurts depends on what a
              positive decision means, so the direction is surfaced and
              judgement is left to the reader
  "indeterminate"
              the statistic is UNDEFINED on either side of the comparison
  ""          nothing notable

levelled_down_groups collects the pairs whose flag is "harm" or
"review-decrease": the cases where a statistic someone could want more of
went down.  Lower-is-better statistics (fpr, fnr) are reported as values
only; their movement is already mirrored by tnr and tpr.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import metrics as M
from .data import DataError, _parse_json_object, _read_text
from .metrics import STATISTIC_DIRECTIONS, FairnessMeasure, GroupMetrics

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_TOLERANCE",
    "AUDITED_STATISTICS",
    "StatDelta",
    "LevellingScan",
    "AuditReport",
    "detect_levelling_down",
    "build_report",
    "report_to_json_dict",
    "report_from_json_dict",
    "save_report",
    "load_report",
    "render_text",
]

SCHEMA_VERSION = 1
DEFAULT_TOLERANCE = 0.005

# Statistics compared in a report, in display order.
AUDITED_STATISTICS = (
    "selection_rate",
    "tpr",
    "tnr",
    "fpr",
    "fnr",
    "precision",
    "npv",
    "accuracy",
    "fn_fp_ratio",
)

# Directional statistics scanned for levelling down by default.
DEFAULT_SCAN_STATISTICS = (
    "selection_rate",
    "tpr",
    "tnr",
    "precision",
    "npv",
    "accuracy",
)


@dataclass(frozen=True)
class StatDelta:
    before: float | None
    after: float | None
    delta: float | None
    flag: str


@dataclass(frozen=True)
class LevellingScan:
    """Outcome of a levelling-down scan.

    flagged holds (group, statistic, delta) triples; indeterminate holds
    (group, statistic) pairs where UNDEFINED blocked the comparison.
    """

    flagged: tuple[tuple[str, str, float], ...]
    indeterminate: tuple[tuple[str, str], ...]


def _classify(stat: str, before: float | None, after: float | None,
              tolerance: float) -> StatDelta:
    if before is None or after is None:
        return StatDelta(before, after, None, "indeterminate")
    delta = after - before
    direction = STATISTIC_DIRECTIONS[stat]
    flag = ""
    if direction == "higher" and delta < -tolerance:
        flag = "harm"
    elif direction == "bidirectional" and delta < -tolerance:
        flag = "review-decrease"
    elif direction == "bidirectional" and delta > tolerance:
        flag = "review-increase"
    return StatDelta(before, after, delta, flag)


def detect_levelling_down(
    baseline: GroupMetrics,
    constrained: GroupMetrics,
    statistics: tuple[str, ...] = DEFAULT_SCAN_STATISTICS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> LevellingScan:
    """Find groups whose beneficial statistics dropped beyond tolerance.

    A drop counts when the statistic is higher-is-better, or bidirectional
    (a selection-rate fall is the levelling-down signature under parity of
    selection).  UNDEFINED on either side lands in ``indeterminate``.
    """
    if baseline.group_names != constrained.group_names:
        raise DataError("baseline and constrained metrics name different groups")
    if not math.isfinite(tolerance) or tolerance < 0:
        raise DataError(f"tolerance must be a finite number >= 0, got {tolerance}")
    flagged = []
    indeterminate = []
    for stat in statistics:
        if STATISTIC_DIRECTIONS.get(stat) not in ("higher", "bidirectional"):
            raise DataError(
                f"{stat!r} has no beneficial direction to scan for drops"
            )
        for gid, name in enumerate(baseline.group_names):
            d = _classify(
                stat,
                baseline.for_group(gid).get(stat),
                constrained.for_group(gid).get(stat),
                tolerance,
            )
            if d.flag == "indeterminate":
                indeterminate.append((name, stat))
            elif d.flag in ("harm", "review-decrease"):
                flagged.append((name, stat, d.delta))
    return LevellingScan(flagged=tuple(flagged), indeterminate=tuple(indeterminate))


@dataclass(frozen=True)
class AuditReport:
    """Full before/after record for one enforcement."""

    baseline: GroupMetrics
    constrained: GroupMetrics
    constraint_description: dict
    split: str
    tolerance: float
    accuracy_before: float
    accuracy_after: float
    per_group_deltas: tuple[tuple[tuple[str, StatDelta], ...], ...]
    levelled_down_groups: tuple[tuple[str, str], ...]
    indeterminate: tuple[tuple[str, str], ...]
    harm_annotations: tuple[tuple[str, str], ...]

    def deltas_for(self, group_name: str) -> dict[str, StatDelta]:
        gid = self.baseline.group_names.index(group_name)
        return dict(self.per_group_deltas[gid])


_HARM_BY_STATISTIC = {
    "selection_rate": FairnessMeasure.DEMOGRAPHIC_PARITY,
    "tpr": FairnessMeasure.EQUAL_OPPORTUNITY,
    "tnr": FairnessMeasure.FALSE_POSITIVE_ERROR_RATE_BALANCE,
    "precision": FairnessMeasure.PREDICTIVE_PARITY,
    "npv": FairnessMeasure.CONDITIONAL_USE_ACCURACY_EQUALITY,
    "accuracy": FairnessMeasure.OVERALL_ACCURACY_EQUALITY,
}


def build_report(
    baseline: GroupMetrics,
    constrained: GroupMetrics,
    constraint_description: dict,
    split: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> AuditReport:
    """Assemble the disaggregated audit of constrained vs baseline.

    ``split`` names the data the comparison was computed on ("train" or
    "eval"); it is carried prominently because error rates measured on
    the data the thresholds were tuned on can flatter the result.
    """
    if baseline.group_names != constrained.group_names:
        raise DataError("baseline and constrained metrics name different groups")
    deltas = tuple(
        tuple((stat, _classify(stat, before.get(stat), after.get(stat), tolerance))
              for stat in AUDITED_STATISTICS)
        for before, after in zip(baseline.stats, constrained.stats)
    )
    scan = detect_levelling_down(
        baseline, constrained, DEFAULT_SCAN_STATISTICS, tolerance
    )
    levelled = tuple((g, s) for g, s, _ in scan.flagged)
    annotations = []
    for stat in dict.fromkeys(s for _, s in levelled):
        profile = M.harm_profile(_HARM_BY_STATISTIC[stat])
        text = profile.harm_to_disadvantaged
        if STATISTIC_DIRECTIONS[stat] == "bidirectional":
            text += (
                " (direction-dependent: whether a lower rate harms depends "
                "on what selection means here)"
            )
        annotations.append((stat, text))
    return AuditReport(
        baseline=baseline,
        constrained=constrained,
        constraint_description=dict(constraint_description),
        split=split,
        tolerance=tolerance,
        accuracy_before=M._pooled_accuracy(baseline),
        accuracy_after=M._pooled_accuracy(constrained),
        per_group_deltas=deltas,
        levelled_down_groups=levelled,
        indeterminate=scan.indeterminate,
        harm_annotations=tuple(annotations),
    )


# ---------------------------------------------------------------------------
# serialization

def report_to_json_dict(report: AuditReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "split": report.split,
        "tolerance": report.tolerance,
        "constraint": dict(report.constraint_description),
        "accuracy_before": report.accuracy_before,
        "accuracy_after": report.accuracy_after,
        "baseline": M.metrics_to_json_dict(report.baseline),
        "constrained": M.metrics_to_json_dict(report.constrained),
        "per_group_deltas": {
            report.baseline.group_names[gid]: {
                stat: {
                    "before": d.before,
                    "after": d.after,
                    "delta": d.delta,
                    "flag": d.flag,
                }
                for stat, d in row
            }
            for gid, row in enumerate(report.per_group_deltas)
        },
        "levelled_down_groups": [list(pair) for pair in report.levelled_down_groups],
        "indeterminate": [list(pair) for pair in report.indeterminate],
        "harm_annotations": {stat: text for stat, text in report.harm_annotations},
    }


def report_from_json_dict(payload: dict) -> AuditReport:
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise DataError(
            f"unsupported audit schema version {payload.get('schema_version')!r}"
        )
    baseline = M.metrics_from_json_dict(payload["baseline"])
    deltas = []
    for name in baseline.group_names:
        row = payload["per_group_deltas"][name]
        deltas.append(
            tuple(
                (stat, StatDelta(
                    before=row[stat]["before"],
                    after=row[stat]["after"],
                    delta=row[stat]["delta"],
                    flag=row[stat]["flag"],
                ))
                for stat in AUDITED_STATISTICS
            )
        )
    return AuditReport(
        baseline=baseline,
        constrained=M.metrics_from_json_dict(payload["constrained"]),
        constraint_description=dict(payload["constraint"]),
        split=payload["split"],
        tolerance=payload["tolerance"],
        accuracy_before=payload["accuracy_before"],
        accuracy_after=payload["accuracy_after"],
        per_group_deltas=tuple(deltas),
        levelled_down_groups=tuple(
            (g, s) for g, s in payload["levelled_down_groups"]
        ),
        indeterminate=tuple((g, s) for g, s in payload["indeterminate"]),
        harm_annotations=tuple(payload["harm_annotations"].items()),
    )


def save_report(report: AuditReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report_to_json_dict(report), handle, indent=2)
        handle.write("\n")


def load_report(path: str | Path) -> AuditReport:
    """Inverse of save_report; a DataError naming the file when it is not
    a UTF-8 JSON audit report."""
    text = _read_text(path, "audit report")
    return _parse_json_object(text, str(path), "audit report", report_from_json_dict)


def render_text(report: AuditReport) -> str:
    """Human-readable rendering of the full report."""
    lines = []
    lines.append(f"audit (computed on the {report.split} split)")
    lines.append(f"constraint: {json.dumps(report.constraint_description)}")
    lines.append(
        f"pooled accuracy: {report.accuracy_before:.4f} -> "
        f"{report.accuracy_after:.4f}"
    )
    lines.append(f"tolerance for flags: {report.tolerance}")
    lines.append("")
    for gid, name in enumerate(report.baseline.group_names):
        size = report.baseline.for_group(gid).size
        lines.append(f"group {name} (n={size})")
        lines.append(f"  {'statistic':<15}{'before':>10}{'after':>10}{'delta':>10}  flag")
        for stat, d in report.per_group_deltas[gid]:
            before = "UNDEF" if d.before is None else f"{d.before:.4f}"
            after = "UNDEF" if d.after is None else f"{d.after:.4f}"
            delta = "" if d.delta is None else f"{d.delta:+.4f}"
            lines.append(
                f"  {stat:<15}{before:>10}{after:>10}{delta:>10}  {d.flag}"
            )
        lines.append("")
    if report.levelled_down_groups:
        lines.append("levelled down:")
        for g, s in report.levelled_down_groups:
            lines.append(f"  {g}: {s}")
        for stat, text in report.harm_annotations:
            lines.append(f"  harm when {stat} falls: {text}")
    else:
        lines.append("levelled down: none detected")
    if report.indeterminate:
        lines.append("indeterminate (UNDEFINED on one side):")
        for g, s in report.indeterminate:
            lines.append(f"  {g}: {s}")
    return "\n".join(lines) + "\n"
