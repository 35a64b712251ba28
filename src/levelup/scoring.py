"""From-scratch logistic scorer and score containers.

The model is deliberately plain: standardized features, L2-regularized
logistic loss, full-batch gradient descent with a fixed summation order,
so a fit is bit-for-bit reproducible on the same platform.  Scores are
clamped to [1e-12, 1 - 1e-12] before they leave this module.

A scored dataset can also be supplied directly as a CSV of
(score, label, group), bypassing the scorer entirely.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataError, LabeledDataset, _frozen, _labels_and_groups, _utf8

__all__ = [
    "SCORE_CLAMP",
    "ScoredDataset",
    "ScorerConfig",
    "Scorer",
    "FitError",
    "fit",
    "predict",
    "loss_and_gradient",
    "CalibrationBin",
    "calibration_table",
    "write_scores_csv",
    "read_scores_csv",
    "scored_from_arrays",
]

SCORE_CLAMP = 1e-12


class FitError(RuntimeError):
    pass


def _own(values, dtype=None) -> np.ndarray:
    """values as an array that owns its data: a view is copied, so writing
    to its base cannot change a dataset."""
    arr = np.asarray(values, dtype=dtype)
    return arr.copy() if arr.base is not None else arr


@dataclass(frozen=True)
class ScoredDataset:
    """Per-row (score, label, group) triples with shared group naming.

    The arrays are read-only and the dataset's own: one given as a view of
    another array is copied."""

    scores: np.ndarray
    labels: np.ndarray
    groups: np.ndarray
    group_names: tuple[str, ...]

    def __post_init__(self):
        scores = _frozen(_own(self.scores, np.float64))
        object.__setattr__(self, "scores", scores)
        n = len(scores)
        if len(self.labels) != n or len(self.groups) != n or n == 0:
            raise DataError("scores, labels, groups must share a nonzero row count")
        if not np.all((scores > 0.0) & (scores < 1.0)):
            raise DataError("scores must lie strictly inside (0, 1) after clamping")
        labels, groups = _labels_and_groups(_own(self.labels), _own(self.groups), self.group_names)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "groups", groups)

    @property
    def n_rows(self) -> int:
        return len(self.scores)

    @property
    def n_groups(self) -> int:
        return len(self.group_names)

    def group_rows(self, gid: int) -> np.ndarray:
        return np.flatnonzero(self.groups == gid)


def scored_from_arrays(scores, labels, groups, group_names) -> ScoredDataset:
    """Build a ScoredDataset, clamping scores away from 0 and 1.

    Scores must already lie in [0, 1]; only the endpoints are clamped.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all((scores >= 0.0) & (scores <= 1.0)):
        raise DataError("scores must lie in [0, 1]")
    scores = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    return ScoredDataset(
        scores=scores,
        labels=np.asarray(labels),
        groups=np.asarray(groups),
        group_names=tuple(group_names),
    )


@dataclass(frozen=True)
class ScorerConfig:
    """Training knobs.

    learning_rate is relative to an internal curvature bound, so 1.0 is a
    stable default for any standardized dataset.  The seed is recorded for
    provenance; the fit itself is deterministic from a zero start.
    """

    learning_rate: float = 1.0
    iterations: int = 5000
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.iterations < 1 or self.l2 < 0:
            raise DataError("invalid scorer config")


@dataclass(frozen=True)
class Scorer:
    """Fitted standardize-then-logistic model."""

    weights: np.ndarray          # per standardized feature
    bias: float
    feature_means: np.ndarray
    feature_scales: np.ndarray
    config: ScorerConfig
    iterations_run: int
    final_loss: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(np.asarray(self.weights, dtype=np.float64)))
        object.__setattr__(self, "feature_means", _frozen(np.asarray(self.feature_means)))
        object.__setattr__(self, "feature_scales", _frozen(np.asarray(self.feature_scales)))


def _standardize_params(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    means = features.mean(axis=0)
    scales = features.std(axis=0)
    scales = np.where(scales == 0.0, 1.0, scales)  # constant feature: scale 1
    return means, scales


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of -|z| never overflows; each branch is the one its sign needs
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def loss_and_gradient(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray, bias: float, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean log loss with L2 penalty on weights (not bias), and its gradient.

    Returns (loss, grad_weights, grad_bias).
    """
    z = x @ weights + bias
    p = _sigmoid(z)
    p = np.clip(p, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    n = len(y)
    loss = -np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)) / n
    loss += 0.5 * l2 * float(weights @ weights)
    resid = p - y
    grad_w = x.T @ resid / n + l2 * weights
    grad_b = float(np.sum(resid)) / n
    return float(loss), grad_w, grad_b


def fit(train: LabeledDataset, config: ScorerConfig = ScorerConfig()) -> Scorer:
    """Fit the scorer by full-batch gradient descent.

    Stops when the loss decrease falls below 1e-8 in one iteration or the
    iteration cap is reached.  Raises FitError on single-class labels or a
    non-finite loss.
    """
    y = train.labels.astype(np.float64)
    if y.min() == y.max():
        raise FitError("training labels are all one class; nothing to fit")
    means, scales = _standardize_params(train.features)
    x = (train.features - means) / scales
    d = x.shape[1]
    w = np.zeros(d)
    b = 0.0
    # Curvature bound for the logistic loss: 0.25 * mean squared row norm.
    bound = 0.25 * float(np.mean(np.sum(x * x, axis=1))) + config.l2
    step = config.learning_rate / max(bound, 1e-12)
    prev_loss = np.inf
    loss = np.inf
    it = 0
    for it in range(1, config.iterations + 1):
        loss, gw, gb = loss_and_gradient(x, y, w, b, config.l2)
        if not np.isfinite(loss):
            raise FitError(f"loss became non-finite at iteration {it}")
        if prev_loss - loss < 1e-8 and it > 1:
            break
        prev_loss = loss
        w = w - step * gw
        b = b - step * gb
    return Scorer(
        weights=w,
        bias=b,
        feature_means=means,
        feature_scales=scales,
        config=config,
        iterations_run=it,
        final_loss=float(loss),
    )


def predict(scorer: Scorer, dataset: LabeledDataset) -> ScoredDataset:
    """Score a dataset with a fitted scorer."""
    if dataset.features.shape[1] != len(scorer.weights):
        raise DataError(
            f"scorer expects {len(scorer.weights)} features, "
            f"dataset has {dataset.features.shape[1]}"
        )
    x = (dataset.features - scorer.feature_means) / scorer.feature_scales
    p = _sigmoid(x @ scorer.weights + scorer.bias)
    return scored_from_arrays(p, dataset.labels, dataset.groups, dataset.group_names)


@dataclass(frozen=True)
class CalibrationBin:
    """One equal-width score bin.  positive_fraction is None when empty."""

    lo: float
    hi: float
    count: int
    mean_score: float | None
    positive_fraction: float | None


def _table_for(scores: np.ndarray, labels: np.ndarray, bins: int) -> list[CalibrationBin]:
    idx = np.minimum((scores * bins).astype(np.int64), bins - 1)
    out = []
    for k in range(bins):
        mask = idx == k
        cnt = int(np.sum(mask))
        if cnt == 0:
            out.append(CalibrationBin(k / bins, (k + 1) / bins, 0, None, None))
        else:
            out.append(
                CalibrationBin(
                    lo=k / bins,
                    hi=(k + 1) / bins,
                    count=cnt,
                    mean_score=float(np.mean(scores[mask])),
                    positive_fraction=float(np.mean(labels[mask])),
                )
            )
    return out


def calibration_table(
    scored: ScoredDataset, bins: int = 10, per_group: bool = False
):
    """Empirical calibration over equal [0, 1) score bins.

    Pooled by default; with per_group=True returns {group_name: table}.
    Empty bins keep count 0 and a None positive fraction rather than a
    made-up number.
    """
    if bins < 1:
        raise DataError("bins must be >= 1")
    if not per_group:
        return _table_for(scored.scores, scored.labels, bins)
    tables = {}
    for gid, name in enumerate(scored.group_names):
        rows = scored.group_rows(gid)
        tables[name] = _table_for(scored.scores[rows], scored.labels[rows], bins)
    return tables


# Rows per block of score-CSV I/O: large enough that the per-block
# overhead vanishes, small enough that a block's text stays a few MB.
_BLOCK_ROWS = 16384


def _record_tail(label: str, name: str) -> str:
    """The text csv.writer puts after the score cell of a record."""
    out = io.StringIO()
    csv.writer(out).writerow(["", label, name])
    return out.getvalue()


def write_scores_csv(scored: ScoredDataset, path: str | Path) -> None:
    """Write rows as a score,label,group CSV.

    The file is UTF-8: the header ``score,label,group``, then one record
    per row in row order, every record (the header too) ended by CRLF.
    The score cell is ``repr`` of the score as a Python float, so it
    reads back to the same float; the label is ``0`` or ``1``; the group
    is its name, quoted by the csv module where it needs quoting (a
    comma, a quote or a line break).  ``read_scores_csv`` reads the same
    scores and labels back; it strips group names and numbers groups in
    the order they first appear, so a group with no rows is not named.
    """
    # Each record is repr(score) followed by one of 2 * n_groups tails,
    # made once by csv.writer, and a block of records is written at once.
    tails = np.array(
        [_record_tail(label, name) for name in scored.group_names for label in "01"],
        dtype=object,
    )
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(["score", "label", "group"])
        for a in range(0, scored.n_rows, _BLOCK_ROWS):
            b = a + _BLOCK_ROWS
            block_tails = tails[scored.groups[a:b] * 2 + scored.labels[a:b]].tolist()
            handle.write(
                "".join(map(operator.add, map(repr, scored.scores[a:b].tolist()), block_tails))
            )


class _LabelCells(dict):
    """Raw label cell -> 0 or 1, or -1 for a cell that is neither."""

    def __missing__(self, cell: str) -> int:
        stripped = cell.strip()
        label = int(stripped) if stripped in ("0", "1") else -1
        self[cell] = label
        return label


class _GroupCells(dict):
    """Raw group cell -> group id, or -1 for a blank cell.  Ids follow the
    order in which the stripped names first appear; ``names`` holds it."""

    def __init__(self):
        super().__init__()
        self.names: dict[str, int] = {}

    def __missing__(self, cell: str) -> int:
        name = cell.strip()
        gid = self.names.setdefault(name, len(self.names)) if name else -1
        self[cell] = gid
        return gid


def _parse_block(block: list[list[str]], labels_of: _LabelCells, groups_of: _GroupCells):
    """Column-wise parse of one block of records: (scores, labels, groups)
    arrays, or None when a check fails somewhere in the block."""
    rows = list(filter(None, block))  # blank records are skipped
    if not rows:
        return np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64)
    if set(map(len, rows)) != {3}:
        return None
    n = len(rows)
    score_cells, label_cells, group_cells = (map(operator.itemgetter(k), rows) for k in range(3))
    try:
        scores = np.fromiter(map(float, score_cells), np.float64, n)
    except ValueError:
        return None
    labels = np.fromiter(map(labels_of.__getitem__, label_cells), np.int64, n)
    groups = np.fromiter(map(groups_of.__getitem__, group_cells), np.int64, n)
    ok = np.all((scores >= 0.0) & (scores <= 1.0)) and labels.min() >= 0 and groups.min() >= 0
    return (scores, labels, groups) if ok else None


def _check_rows(block: list[list[str]], first_rownum: int) -> None:
    """Every check on every record of a block in file order: raises the
    located DataError of the first bad record, if there is one."""
    for rownum, row in enumerate(block, start=first_rownum):
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
        if row[2].strip() == "":
            raise DataError("missing value", row=rownum, column="group")


def read_scores_csv(path: str | Path) -> ScoredDataset:
    """Read a score,label,group CSV written by this package or elsewhere.

    The file is UTF-8, parsed by the csv module's default dialect, so
    cells may be quoted and records may end in LF or CRLF.  The first
    record is the header ``score,label,group`` (each name stripped of
    surrounding whitespace).  Blank records are skipped.  Every other
    record has three cells:

    - score: anything ``float`` parses, whitespace included, in [0, 1];
    - label: ``0`` or ``1`` once stripped;
    - group: a name, stripped, not empty.

    Group ids follow the order in which names first appear.  Scores are
    clamped as by ``scored_from_arrays``.  The first bad record in file
    order raises a DataError with its row (records counted from 1 for the
    header, blank ones included) and, for a bad cell, its column; a file
    that is not UTF-8 raises a DataError naming it, after any bad record
    read before the undecodable byte.
    """
    path = Path(path)
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    with handle, _utf8(path, "scores"):
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} has no header row") from None
        expected = ["score", "label", "group"]
        if [h.strip() for h in header] != expected:
            raise DataError(f"score CSV header must be {','.join(expected)}")
        labels_of, groups_of = _LabelCells(), _GroupCells()
        parts = []
        rownum = 2
        while True:
            block, failure = [], None
            try:
                block.extend(itertools.islice(reader, _BLOCK_ROWS))
            except (csv.Error, ValueError) as exc:
                # A parse or decode error is raised only once the records
                # read before it have passed their checks.
                failure = exc
            part = _parse_block(block, labels_of, groups_of)
            if part is None:
                _check_rows(block, rownum)
                raise RuntimeError("a score CSV block failed a column check but no row check")
            if failure is not None:
                raise failure
            if not block:
                break
            parts.append(part)
            rownum += len(block)
    if not any(len(scores) for scores, _, _ in parts):
        raise DataError(f"{path} has a header but no data rows")
    scores, labels, groups = (np.concatenate(cols) for cols in zip(*parts))
    return scored_from_arrays(scores, labels, groups, tuple(groups_of.names))
