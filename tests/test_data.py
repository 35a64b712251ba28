import numpy as np
import pytest

from levelup import (
    CsvSchema,
    DataError,
    GroupSpec,
    LabeledDataset,
    SynthSpec,
    adult_sample_path,
    adult_sample_schema,
    load_csv,
    save_csv,
    split,
    synth_generate,
)


def make_dataset(labels, groups, group_names=("a", "b")):
    labels = np.asarray(labels, dtype=np.int64)
    features = np.arange(len(labels), dtype=np.float64).reshape(-1, 1)
    return LabeledDataset(features=features, labels=labels,
                          groups=np.asarray(groups, dtype=np.int64),
                          group_names=tuple(group_names),
                          feature_names=("x",))


class TestLabeledDataset:
    def test_basic_properties(self):
        ds = make_dataset([0, 1, 1, 0], [0, 0, 1, 1])
        assert ds.n_rows == 4
        assert ds.n_groups == 2
        assert ds.group_sizes().tolist() == [2, 2]

    def test_arrays_are_read_only(self):
        ds = make_dataset([0, 1], [0, 1])
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_rejects_non_binary_labels(self):
        with pytest.raises(DataError):
            make_dataset([0, 2], [0, 1])

    def test_rejects_single_group(self):
        with pytest.raises(DataError):
            make_dataset([0, 1], [0, 0], group_names=("a",))

    def test_rejects_out_of_range_group_id(self):
        with pytest.raises(DataError):
            make_dataset([0, 1], [0, 2], group_names=("a", "b"))

    def test_rejects_nonfinite_features(self):
        features = np.array([[1.0], [np.nan]])
        with pytest.raises(DataError):
            LabeledDataset(features=features,
                           labels=np.array([0, 1]),
                           groups=np.array([0, 1]),
                           group_names=("a", "b"),
                           feature_names=("x",))

    def test_subset_keeps_group_names(self):
        ds = make_dataset([0, 1, 1, 0], [0, 0, 1, 1])
        sub = ds.subset(np.array([1, 2]))
        assert sub.group_names == ("a", "b")
        assert sub.labels.tolist() == [1, 1]

    def test_subset_to_single_group_rejected(self):
        ds = make_dataset([0, 1, 1, 0], [0, 0, 1, 1])
        with pytest.raises(DataError):
            ds.subset(np.array([2, 3]))


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_numeric_and_categorical_features(self, tmp_path):
        path = self.write(tmp_path,
                          "age,job,grp,y\n"
                          "30,nurse,f,1\n"
                          "40,clerk,m,0\n"
                          "50,nurse,f,1\n")
        schema = CsvSchema(label_column="y", positive_label_value="1",
                           group_column="grp", feature_columns=("age", "job"))
        ds = load_csv(path, schema)
        assert ds.feature_names == ("age", "job=nurse", "job=clerk")
        assert ds.features[:, 0].tolist() == [30.0, 40.0, 50.0]
        # one-hot levels appear in first-appearance order
        assert ds.features[:, 1].tolist() == [1.0, 0.0, 1.0]
        assert ds.group_names == ("f", "m")
        assert ds.labels.tolist() == [1, 0, 1]

    def test_non_finite_cells_keep_a_column_one_hot(self, tmp_path):
        path = self.write(tmp_path,
                          "x,a,b,c,grp,y\n"
                          "0.1,1,2,3,f,1\n"
                          "1e-300,nan,inf,1e999,m,0\n"
                          "-7.5e3,4,5,6,f,1\n")
        schema = CsvSchema(label_column="y", positive_label_value="1",
                           group_column="grp", feature_columns=("x", "a", "b", "c"))
        ds = load_csv(path, schema)
        assert ds.feature_names == ("x", "a=1", "a=nan", "a=4", "b=2", "b=inf", "b=5",
                                    "c=3", "c=1e999", "c=6")
        assert ds.features[:, 0].tolist() == [0.1, 1e-300, -7500.0]
        assert ds.features[:, 1:4].tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_positive_label_value_controls_mapping(self, tmp_path):
        path = self.write(tmp_path,
                          "x,grp,y\n1,a,yes\n2,b,no\n")
        schema = CsvSchema(label_column="y", positive_label_value="no",
                           group_column="grp", feature_columns=("x",))
        ds = load_csv(path, schema)
        assert ds.labels.tolist() == [0, 1]

    def test_missing_column_error_names_column(self, tmp_path):
        path = self.write(tmp_path, "x,grp,y\n1,a,1\n2,b,0\n")
        schema = CsvSchema(label_column="y", positive_label_value="1",
                           group_column="grp", feature_columns=("nope",))
        with pytest.raises(DataError) as info:
            load_csv(path, schema)
        assert "nope" in str(info.value)

    def test_ragged_row_error_names_row(self, tmp_path):
        path = self.write(tmp_path, "x,grp,y\n1,a,1\n2,b\n")
        schema = CsvSchema(label_column="y", positive_label_value="1",
                           group_column="grp", feature_columns=("x",))
        with pytest.raises(DataError) as info:
            load_csv(path, schema)
        assert "2" in str(info.value)

    def test_empty_cell_rejected(self, tmp_path):
        path = self.write(tmp_path, "x,grp,y\n1,a,1\n,b,0\n")
        schema = CsvSchema(label_column="y", positive_label_value="1",
                           group_column="grp", feature_columns=("x",))
        with pytest.raises(DataError):
            load_csv(path, schema)

    def test_not_utf8_is_a_located_data_error(self, tmp_path):
        path = tmp_path / "data.csv"
        schema = CsvSchema(label_column="y", positive_label_value="1",
                           group_column="g", feature_columns=("x",))
        good = b"0.25,0,a\n" * 5000
        # a bad row before the undecodable byte, which lies past the first
        # chunk of text decoded, is reported first
        path.write_bytes(b"x,y,g\n0.5,1,b\n0.5,1\n" + good + b"0.5,1,\xff\n")
        with pytest.raises(DataError) as info:
            load_csv(path, schema)
        assert (info.value.row, info.value.column) == (3, None)
        path.write_bytes(b"x,y,g\n" + good + b"0.5,1,\xff\n")
        with pytest.raises(DataError) as info:
            load_csv(path, schema)
        assert str(info.value).startswith(f"{path}: data is not UTF-8 text: ")
        assert isinstance(info.value.__cause__, UnicodeDecodeError)
        # within the first chunk decoded, before the header is read
        path.write_bytes(b"x,y,g\n0.5,1,\xff\n")
        with pytest.raises(DataError, match="data is not UTF-8 text"):
            load_csv(path, schema)

    def test_round_trip_through_save(self, tmp_path):
        ds = make_dataset([0, 1, 1, 0], [0, 0, 1, 1])
        path = tmp_path / "out.csv"
        schema = save_csv(ds, path)
        back = load_csv(path, schema)
        assert back.labels.tolist() == ds.labels.tolist()
        assert back.group_names == ds.group_names
        assert np.array_equal(back.features, ds.features)


class TestSplit:
    def test_cell_counts(self):
        # per (group, label) cell: round(0.3 * cell size), clipped to keep
        # at least one row on each side
        labels = [1] * 10 + [0] * 10 + [1] * 7 + [0] * 3
        groups = [0] * 20 + [1] * 10
        ds = make_dataset(labels, groups)
        train, eval_part = split(ds, eval_fraction=0.3, seed=0)
        assert eval_part.n_rows == 3 + 3 + 2 + 1
        assert train.n_rows == ds.n_rows - eval_part.n_rows

    def test_disjoint_and_exhaustive(self):
        labels = [1] * 10 + [0] * 10 + [1] * 7 + [0] * 3
        groups = [0] * 20 + [1] * 10
        ds = make_dataset(labels, groups)
        train, eval_part = split(ds, eval_fraction=0.3, seed=5)
        seen = np.concatenate([train.features[:, 0], eval_part.features[:, 0]])
        assert sorted(seen.tolist()) == ds.features[:, 0].tolist()

    def test_deterministic_under_seed(self):
        labels = [1] * 10 + [0] * 10 + [1] * 7 + [0] * 3
        groups = [0] * 20 + [1] * 10
        ds = make_dataset(labels, groups)
        a = split(ds, eval_fraction=0.3, seed=9)
        b = split(ds, eval_fraction=0.3, seed=9)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_singleton_cell_goes_to_train_with_warning(self):
        labels = [1, 0, 0, 1, 1, 0]
        groups = [0, 0, 0, 1, 1, 1]
        ds = make_dataset(labels, groups)
        with pytest.warns(UserWarning):
            train, eval_part = split(ds, eval_fraction=0.5, seed=1)
        # the lone positive of group a stays in train
        mask = (train.groups == 0) & (train.labels == 1)
        assert int(mask.sum()) == 1

    def test_rejects_bad_fraction(self):
        ds = make_dataset([0, 1, 0, 1], [0, 0, 1, 1])
        with pytest.raises(DataError):
            split(ds, eval_fraction=0.0, seed=0)
        with pytest.raises(DataError):
            split(ds, eval_fraction=1.0, seed=0)


class TestSynth:
    def spec(self, seed=3):
        return SynthSpec(
            groups=(GroupSpec(size=1000, positive_base_rate=0.4,
                              score_mean_pos=0.7, score_mean_neg=0.3,
                              score_spread=0.2, name="a"),
                    GroupSpec(size=1000, positive_base_rate=0.2,
                              score_mean_pos=0.7, score_mean_neg=0.3,
                              score_spread=0.2, name="b")),
            seed=seed,
        )

    def test_deterministic(self):
        r1 = synth_generate(self.spec())
        r2 = synth_generate(self.spec())
        assert np.array_equal(r1.dataset.features, r2.dataset.features)
        assert np.array_equal(r1.true_scores, r2.true_scores)

    def test_base_rates_close_to_spec(self):
        ds = synth_generate(self.spec()).dataset
        for gid, name, want in ((0, "a", 0.4), (1, "b", 0.2)):
            rows = ds.groups == gid
            got = float(ds.labels[rows].mean())
            assert abs(got - want) < 0.05, (name, got)

    def test_true_scores_are_calibrated(self):
        # bin rows by posterior and compare to observed positive rate;
        # tolerance is 4 binomial standard deviations per bin
        spec = SynthSpec(
            groups=(GroupSpec(size=20000, positive_base_rate=0.4,
                              score_mean_pos=0.7, score_mean_neg=0.3,
                              score_spread=0.2, name="a"),
                    GroupSpec(size=20000, positive_base_rate=0.2,
                              score_mean_pos=0.7, score_mean_neg=0.3,
                              score_spread=0.2, name="b")),
            seed=12,
        )
        out = synth_generate(spec)
        ds, scores = out.dataset, out.true_scores
        bins = np.minimum((scores * 10).astype(int), 9)
        for b in range(10):
            rows = bins == b
            n = int(rows.sum())
            if n < 100:
                continue
            p = float(scores[rows].mean())
            gap = abs(p - float(ds.labels[rows].mean()))
            assert gap < 4.0 * np.sqrt(p * (1 - p) / n) + 1e-9, (b, gap)

    def test_rejects_degenerate_specs(self):
        with pytest.raises(DataError):
            GroupSpec(size=10, positive_base_rate=0.0, score_mean_pos=0.7,
                      score_mean_neg=0.3, score_spread=0.2, name="a")
        with pytest.raises(DataError):
            GroupSpec(size=10, positive_base_rate=0.5, score_mean_pos=0.3,
                      score_mean_neg=0.7, score_spread=0.2, name="a")
        with pytest.raises(DataError):
            SynthSpec(groups=(GroupSpec(size=10, positive_base_rate=0.5,
                                        score_mean_pos=0.7,
                                        score_mean_neg=0.3,
                                        score_spread=0.2, name="a"),),
                      seed=0)


class TestBundledSample:
    def test_loads_with_default_schema(self, adult_dataset):
        assert adult_dataset.n_rows == 2000
        assert set(adult_dataset.group_names) == {"Male", "Female"}
        assert adult_dataset.n_groups == 2

    def test_group_column_not_in_features(self, adult_dataset):
        joined = " ".join(adult_dataset.feature_names)
        assert "sex" not in joined
        assert "income" not in joined

    def test_schema_can_include_group_as_feature(self):
        schema = adult_sample_schema(include_group_as_feature=True)
        ds = load_csv(adult_sample_path(), schema)
        assert any(name.startswith("sex=") for name in ds.feature_names)


def labeled(features=((0.0,), (1.0,)), labels=(0, 1), groups=(0, 1),
            group_names=("a", "b"), feature_names=("x",)):
    return LabeledDataset(features=np.asarray(features), labels=np.asarray(labels),
                          groups=np.asarray(groups), group_names=group_names,
                          feature_names=feature_names)


def csv_file(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return path


SCHEMA = CsvSchema(label_column="y", positive_label_value="1", group_column="g",
                   feature_columns=("x",))


def group_spec(size=10, spread=0.2):
    return GroupSpec(size=size, positive_base_rate=0.5, score_mean_pos=0.7,
                     score_mean_neg=0.3, score_spread=spread)


@pytest.mark.parametrize("make, message", [
    (lambda _: CsvSchema("y", "1", "g", ()), "schema needs at least one feature column"),
    (lambda _: CsvSchema("y", "1", "g", ("x", "y")),
     "column 'y' cannot be both feature and label"),
    (lambda _: CsvSchema("y", "1", "y", ("x",)), "label column and group column must differ"),
    (lambda _: labeled(labels=(0, 1, 1)), "features, labels, groups must share row count"),
    (lambda _: labeled(groups=(0,)), "features, labels, groups must share row count"),
    (lambda _: labeled(features=((0.0, 1.0), (1.0, 0.0))),
     "feature_names length must match feature columns"),
    (lambda _: labeled(features=np.empty((0, 1)), labels=(), groups=()), "dataset is empty"),
    (lambda _: labeled(labels=(0, 0.5)), "labels must be 0 or 1"),
    (lambda _: labeled(labels=(0.9, 1.0)), "labels must be 0 or 1"),
    (lambda _: labeled(group_names=("a",)), "fewer than 2 groups named"),
    (lambda _: labeled(group_names=("a", "a")), "group name 'a' is repeated"),
    (lambda _: labeled(group_names=("a", "b", "a")), "group name 'a' is repeated"),
    (lambda _: labeled(groups=(0, 1.7)), "group ids must be whole numbers"),
    (lambda _: labeled(groups=(0, np.nan)), "group ids must be whole numbers"),
    (lambda _: labeled(groups=(0, 2)), "group id out of range"),
    (lambda _: labeled(groups=(0, -1)), "group id out of range"),
    (lambda _: labeled(groups=(1, 1)), "fewer than 2 distinct groups present"),
    (lambda tmp: load_csv(tmp / "missing.csv", SCHEMA), "cannot open .*missing.csv"),
    (lambda tmp: load_csv(csv_file(tmp, ""), SCHEMA), "data.csv has no header row"),
    (lambda tmp: load_csv(csv_file(tmp, "x,y,g\n"), SCHEMA),
     "data.csv has a header but no data rows"),
    (lambda tmp: load_csv(csv_file(tmp, "x,y,g\n0.1,1,a\n0.2,0,a\n"), SCHEMA),
     "fewer than 2 groups present in column 'g'"),
    (lambda _: group_spec(size=0), "group size must be >= 1"),
    (lambda _: group_spec(spread=0.0), "score_spread must be positive"),
], ids=[
    "schema-no-features", "schema-label-is-feature", "schema-label-is-group",
    "labels-rows", "groups-rows", "feature-names", "empty", "label-half", "label-fraction",
    "one-name", "repeated-name", "repeated-name-later", "fractional-group", "nan-group",
    "group-too-large", "group-negative", "one-group-present", "csv-missing",
    "csv-no-header", "csv-header-only", "csv-one-group", "spec-size-0", "spec-spread-0",
])
def test_input_errors(tmp_path, make, message):
    with pytest.raises(DataError, match=message):
        make(tmp_path)


def test_int64_labels_and_groups_are_kept_without_a_copy():
    # a bool array is cast to int64, and a float array of whole numbers
    # is read exactly
    labels, groups = np.array([0, 1, 1]), np.array([0, 1, 1])
    ds = labeled(features=((0.0,), (1.0,), (2.0,)), labels=labels, groups=groups)
    assert ds.labels is labels and ds.groups is groups
    ds = labeled(labels=np.array([False, True]), groups=np.array([0.0, 1.0]))
    assert ds.labels.dtype == ds.groups.dtype == np.int64
    assert ds.labels.tolist() == [0, 1] and ds.groups.tolist() == [0, 1]


def test_synth_spec_with_a_repeated_group_name_is_rejected():
    spec = SynthSpec(groups=(GroupSpec(10, 0.5, 0.7, 0.3, 0.2, "a"),
                             GroupSpec(10, 0.5, 0.7, 0.3, 0.2, "b"),
                             GroupSpec(10, 0.5, 0.7, 0.3, 0.2, "a")), seed=0)
    with pytest.raises(DataError, match="group name 'a' is repeated"):
        synth_generate(spec)
