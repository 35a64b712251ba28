"""Dataset loading, validation, splitting, and synthetic generation.

All datasets are immutable after construction: numpy arrays are marked
read-only so downstream code cannot mutate shared state.  Group ids are
dense integers assigned in order of first appearance in the source; the
display names live in ``group_names``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "CsvSchema",
    "LabeledDataset",
    "GroupSpec",
    "SynthSpec",
    "SynthResult",
    "load_csv",
    "save_csv",
    "split",
    "synth_generate",
    "adult_sample_path",
    "adult_sample_schema",
]


class DataError(ValueError):
    """Raised for malformed input data.  Carries row/column location when known."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.row = row
        self.column = column


@contextlib.contextmanager
def _utf8(path, what: str):
    """Turn a UnicodeDecodeError raised in the block, while reading the
    file at path, into a DataError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not UTF-8 text: {exc}") from exc


def _read_text(path, what: str) -> str:
    """The text of the UTF-8 file at path; a DataError naming it when it
    is not UTF-8."""
    with open(path, encoding="utf-8") as handle, _utf8(path, what):
        return handle.read()


def _parse_json_object(text: str, where: str, what: str, parse):
    """parse() of the JSON object in text; a DataError located at where
    when text is not JSON or not the object parse() expects."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: {what} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{where}: {what} is not a JSON object")
    try:
        return parse(payload)
    except KeyError as exc:
        raise DataError(f"{where}: {what} has no key {exc}") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise DataError(f"{where}: malformed {what}: {exc}") from exc


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    arr.setflags(write=False)
    return arr


def _numbers(values, message: str) -> np.ndarray:
    """values as an array of integers or booleans, as given, or else of
    float64; a DataError with message when they are not numbers."""
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        return values
    try:
        return values.astype(np.float64)
    except (TypeError, ValueError):
        raise DataError(message) from None


def _labels_and_groups(labels, groups, group_names) -> tuple[np.ndarray, np.ndarray]:
    """Labels and group ids as read-only int64 arrays, after the checks
    LabeledDataset and ScoredDataset share: every label is 0 or 1, at least
    two group names and no name repeated, and every group id a whole number
    in [0, len(group_names)).  Integer and boolean arrays are checked as
    they are, and int64 ones are not copied; other arrays are read as
    float64, so a label 0.5 or a group id 1.7 is an error, not truncated."""
    labels = _numbers(labels, "labels must be 0 or 1")
    groups = _numbers(groups, "group ids must be whole numbers")
    if not np.all((labels == 0) | (labels == 1)):
        raise DataError("labels must be 0 or 1")
    if len(group_names) < 2:
        raise DataError("fewer than 2 groups named")
    if len(set(group_names)) < len(group_names):
        name = next(n for k, n in enumerate(group_names) if n in group_names[:k])
        raise DataError(f"group name {name!r} is repeated")
    if groups.dtype.kind == "f" and not np.all(groups == np.trunc(groups)):
        raise DataError("group ids must be whole numbers")
    if groups.min() < 0 or groups.max() >= len(group_names):
        raise DataError("group id out of range")
    return (_frozen(labels.astype(np.int64, copy=False)),
            _frozen(groups.astype(np.int64, copy=False)))


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for ``load_csv``.

    ``feature_columns`` lists the columns used as model inputs; numeric
    columns are parsed as reals, non-numeric ones are one-hot encoded
    (one indicator per observed value, no reference level dropped).
    The group column may double as a feature; the label column may not.
    """

    label_column: str
    positive_label_value: str
    group_column: str
    feature_columns: tuple[str, ...]

    def __post_init__(self):
        if not self.feature_columns:
            raise DataError("schema needs at least one feature column")
        if self.label_column in self.feature_columns:
            raise DataError(f"column {self.label_column!r} cannot be both feature and label")
        if self.label_column == self.group_column:
            raise DataError("label column and group column must differ")


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus binary labels and dense group ids.

    Invariants checked on construction: features is 2-D float, labels are
    0/1, group ids are dense in [0, len(group_names)), group names are
    distinct, and at least two distinct groups are present.
    """

    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray
    group_names: tuple[str, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = _frozen(np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "features", feats)
        n = len(self.labels)
        if feats.ndim != 2 or feats.shape[0] != n or len(self.groups) != n:
            raise DataError("features, labels, groups must share row count")
        if feats.shape[1] != len(self.feature_names):
            raise DataError("feature_names length must match feature columns")
        if n == 0:
            raise DataError("dataset is empty")
        if not np.all(np.isfinite(feats)):
            raise DataError("non-finite feature value")
        labels, groups = _labels_and_groups(self.labels, self.groups, self.group_names)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "groups", groups)
        if groups.min() == groups.max():
            raise DataError("fewer than 2 distinct groups present")

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_groups(self) -> int:
        return len(self.group_names)

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.groups, minlength=self.n_groups)

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        idx = np.sort(np.asarray(indices))
        return LabeledDataset(
            features=self.features[idx],
            labels=self.labels[idx],
            groups=self.groups[idx],
            group_names=self.group_names,
            feature_names=self.feature_names,
        )


def load_csv(path: str | Path, schema: CsvSchema) -> LabeledDataset:
    """Load an RFC-4180 CSV with a header row into a LabeledDataset.

    The label is 1 where the cell equals ``schema.positive_label_value``
    and 0 otherwise.  Rows with an empty cell in any named column are
    rejected with a located error; unparseable numeric cells likewise.
    A file that is not UTF-8 raises a DataError naming it, after any bad
    row read before the undecodable byte.
    """
    path = Path(path)
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    with handle, _utf8(path, "data"):
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} has no header row") from None
        col_index = {name: i for i, name in enumerate(header)}
        needed = (schema.label_column, schema.group_column, *schema.feature_columns)
        for name in needed:
            if name not in col_index:
                raise DataError("column missing from header", column=name)
        rows: list[list[str]] = []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"expected {len(header)} cells, found {len(row)}", row=rownum
                )
            for name in needed:
                if row[col_index[name]].strip() == "":
                    raise DataError("missing value", row=rownum, column=name)
            rows.append(row)
    if not rows:
        raise DataError(f"{path} has a header but no data rows")

    feature_names: list[str] = []
    columns: list[np.ndarray] = []
    for name in schema.feature_columns:
        i = col_index[name]
        cells = [r[i].strip() for r in rows]
        # numeric iff every cell parses as a finite float
        try:
            values = np.array([float(c) for c in cells], dtype=np.float64)
        except ValueError:
            values = None
        if values is not None and np.isfinite(values).all():
            feature_names.append(name)
            columns.append(values)
        else:
            levels: list[str] = []
            seen: set[str] = set()
            for c in cells:
                if c not in seen:
                    seen.add(c)
                    levels.append(c)
            arr = np.array(cells)
            for lev in levels:
                feature_names.append(f"{name}={lev}")
                columns.append((arr == lev).astype(np.float64))

    gi = col_index[schema.group_column]
    group_names: list[str] = []
    group_ids: dict[str, int] = {}
    groups = np.empty(len(rows), dtype=np.int64)
    for k, r in enumerate(rows):
        g = r[gi].strip()
        if g not in group_ids:
            group_ids[g] = len(group_names)
            group_names.append(g)
        groups[k] = group_ids[g]
    if len(group_names) < 2:
        raise DataError(
            f"fewer than 2 groups present in column {schema.group_column!r}"
        )

    li = col_index[schema.label_column]
    labels = np.array(
        [1 if r[li].strip() == schema.positive_label_value else 0 for r in rows],
        dtype=np.int64,
    )
    return LabeledDataset(
        features=np.column_stack(columns),
        labels=labels,
        groups=groups,
        group_names=tuple(group_names),
        feature_names=tuple(feature_names),
    )


def save_csv(dataset: LabeledDataset, path: str | Path) -> CsvSchema:
    """Write a dataset back to CSV and return the schema that reloads it.

    Features are written as plain decimals via repr so a reload
    reproduces (labels, groups, features) exactly.
    """
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([*dataset.feature_names, "label", "group"])
        for i in range(dataset.n_rows):
            writer.writerow(
                [
                    *(repr(float(v)) for v in dataset.features[i]),
                    str(int(dataset.labels[i])),
                    dataset.group_names[dataset.groups[i]],
                ]
            )
    return CsvSchema(
        label_column="label",
        positive_label_value="1",
        group_column="group",
        feature_columns=dataset.feature_names,
    )


def split(
    dataset: LabeledDataset, eval_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic stratified split on (group, label) cells.

    Every cell with at least 2 members contributes to both partitions.
    A cell with a single member goes to train with a warning.  Returns
    (train, eval).
    """
    if not 0.0 < eval_fraction < 1.0:
        raise DataError("eval_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    eval_idx: list[np.ndarray] = []
    for g in range(dataset.n_groups):
        for lab in (0, 1):
            cell = np.flatnonzero((dataset.groups == g) & (dataset.labels == lab))
            if len(cell) == 0:
                continue
            if len(cell) == 1:
                warnings.warn(
                    f"(group={dataset.group_names[g]!r}, label={lab}) has a single "
                    "row; assigning it to train",
                    stacklevel=2,
                )
                train_idx.append(cell)
                continue
            perm = rng.permutation(cell)
            k = int(round(eval_fraction * len(cell)))
            k = min(max(k, 1), len(cell) - 1)
            eval_idx.append(perm[:k])
            train_idx.append(perm[k:])
    train = dataset.subset(np.concatenate(train_idx))
    evl = dataset.subset(np.concatenate(eval_idx))
    return train, evl


@dataclass(frozen=True)
class GroupSpec:
    """Generating parameters for one synthetic group."""

    size: int
    positive_base_rate: float
    score_mean_pos: float
    score_mean_neg: float
    score_spread: float
    name: str = ""

    def __post_init__(self):
        if self.size < 1:
            raise DataError("group size must be >= 1")
        if not 0.0 < self.positive_base_rate < 1.0:
            raise DataError("positive_base_rate must lie strictly between 0 and 1")
        if self.score_mean_pos <= self.score_mean_neg:
            raise DataError("score_mean_pos must exceed score_mean_neg")
        if self.score_spread <= 0.0:
            raise DataError("score_spread must be positive")


@dataclass(frozen=True)
class SynthSpec:
    """Seeded synthetic dataset: one Gaussian signal feature per row.

    Positives draw the signal from N(score_mean_pos, spread) and
    negatives from N(score_mean_neg, spread), per group.
    """

    groups: tuple[GroupSpec, ...]
    seed: int

    def __post_init__(self):
        if len(self.groups) < 2:
            raise DataError("synthetic spec needs at least 2 groups")


@dataclass(frozen=True)
class SynthResult:
    """Generated dataset plus the generative posterior P(label=1 | signal).

    ``true_scores`` are exact posteriors under the generating mixture, so
    they are calibrated by construction and usable as classifier scores
    without fitting anything.
    """

    dataset: LabeledDataset
    true_scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "true_scores", _frozen(self.true_scores))


def _gaussian_posterior(x, base_rate, mean_pos, mean_neg, spread):
    # P(y=1|x) for a two-component Gaussian mixture with shared spread.
    lp = -0.5 * ((x - mean_pos) / spread) ** 2
    ln = -0.5 * ((x - mean_neg) / spread) ** 2
    wp = base_rate * np.exp(lp - np.maximum(lp, ln))
    wn = (1.0 - base_rate) * np.exp(ln - np.maximum(lp, ln))
    return wp / (wp + wn)


def synth_generate(spec: SynthSpec) -> SynthResult:
    """Generate a synthetic dataset deterministically from the spec seed."""
    rng = np.random.default_rng(spec.seed)
    feats = []
    labels = []
    groups = []
    scores = []
    names = []
    for gid, g in enumerate(spec.groups):
        names.append(g.name or f"g{gid}")
        lab = (rng.random(g.size) < g.positive_base_rate).astype(np.int64)
        loc = np.where(lab == 1, g.score_mean_pos, g.score_mean_neg)
        x = rng.normal(loc=loc, scale=g.score_spread)
        post = _gaussian_posterior(
            x, g.positive_base_rate, g.score_mean_pos, g.score_mean_neg, g.score_spread
        )
        feats.append(x)
        labels.append(lab)
        groups.append(np.full(g.size, gid, dtype=np.int64))
        scores.append(post)
    dataset = LabeledDataset(
        features=np.concatenate(feats)[:, None],
        labels=np.concatenate(labels),
        groups=np.concatenate(groups),
        group_names=tuple(names),
        feature_names=("signal",),
    )
    eps = 1e-12
    true_scores = np.clip(np.concatenate(scores), eps, 1.0 - eps)
    return SynthResult(dataset=dataset, true_scores=true_scores)


def adult_sample_path() -> Path:
    """Path of the bundled census-style sample CSV."""
    return Path(__file__).parent / "fixtures" / "adult_sample.csv"


def adult_sample_schema(
    include_group_as_feature: bool = False,
) -> CsvSchema:
    """Default schema for the bundled sample.

    The group column (sex) is excluded from the feature set by default;
    pass include_group_as_feature=True to add it.
    """
    features = [
        "age",
        "workclass",
        "education-num",
        "marital-status",
        "capital-gain",
        "hours-per-week",
    ]
    if include_group_as_feature:
        features.append("sex")
    return CsvSchema(
        label_column="income",
        positive_label_value=">50K",
        group_column="sex",
        feature_columns=tuple(features),
    )
