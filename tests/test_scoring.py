import csv

import numpy as np
import pytest

import oracle
from levelup import (
    DataError,
    FitError,
    LabeledDataset,
    ScoredDataset,
    ScorerConfig,
    calibration_table,
    fit,
    predict,
    read_scores_csv,
    scored_from_arrays,
    write_scores_csv,
)
from levelup import scoring as scoring_module
from levelup.scoring import loss_and_gradient


def separable_dataset():
    x = np.array([-2.0, -1.9, -1.8, 1.8, 1.9, 2.0]).reshape(-1, 1)
    y = np.array([0, 0, 0, 1, 1, 1])
    g = np.array([0, 1, 0, 1, 0, 1])
    return LabeledDataset(features=x, labels=y, groups=g,
                          group_names=("a", "b"), feature_names=("x",))


class TestScoredDataset:
    def test_scores_strictly_inside_unit_interval(self):
        s = scored_from_arrays(np.array([0.0, 1.0]), np.array([0, 1]),
                               np.array([0, 1]), ("a", "b"))
        assert s.scores.min() > 0.0
        assert s.scores.max() < 1.0

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(DataError):
            scored_from_arrays(np.array([0.5, 1.2]), np.array([0, 1]),
                               np.array([0, 1]), ("a", "b"))

    def test_group_rows(self):
        s = scored_from_arrays(np.array([0.1, 0.2, 0.3]),
                               np.array([0, 1, 0]),
                               np.array([0, 1, 0]), ("a", "b"))
        assert s.group_rows(0).tolist() == [0, 2]

    def test_views_are_copied_and_owned_arrays_kept(self):
        # columns of a writable 2-D array: writing to it after the build
        # leaves the dataset as it was
        base = np.array([[0.2, 0, 0], [0.7, 1, 1], [0.4, 1, 0]])
        labels, groups = base[:, 1].astype(np.int64), base[:, 2].astype(np.int64)
        s = ScoredDataset(scores=base[:, 0], labels=labels[:], groups=groups[::1],
                          group_names=("a", "b"))
        base[:] = 0.5
        labels[:] = 0
        groups[:] = 1
        assert s.scores.tolist() == [0.2, 0.7, 0.4]
        assert s.labels.tolist() == [0, 1, 1] and s.groups.tolist() == [0, 1, 0]
        assert all(not a.flags.writeable and a.base is None
                   for a in (s.scores, s.labels, s.groups))
        scores, labels, groups = np.array([0.2, 0.7]), np.array([0, 1]), np.array([0, 1])
        s = ScoredDataset(scores=scores, labels=labels, groups=groups, group_names=("a", "b"))
        assert s.scores is scores and s.labels is labels and s.groups is groups


def scored(scores=(0.2, 0.7), labels=(0, 1), groups=(0, 1), names=("a", "b")):
    return ScoredDataset(scores=np.asarray(scores), labels=np.asarray(labels),
                         groups=np.asarray(groups), group_names=names)


@pytest.mark.parametrize("make, message", [
    (lambda: scored(labels=(0, 1, 1)), "scores, labels, groups must share a nonzero row count"),
    (lambda: scored(groups=(0,)), "scores, labels, groups must share a nonzero row count"),
    (lambda: scored((), (), ()), "scores, labels, groups must share a nonzero row count"),
    (lambda: scored(scores=(0.0, 0.7)), r"scores must lie strictly inside \(0, 1\)"),
    (lambda: scored(scores=(0.2, 1.0)), r"scores must lie strictly inside \(0, 1\)"),
    (lambda: scored(labels=(0, 2)), "labels must be 0 or 1"),
    (lambda: scored(names=("a",), groups=(0, 0)), "fewer than 2 groups named"),
    (lambda: scored(names=("a", "a")), "group name 'a' is repeated"),
    (lambda: scored(groups=(0, 2)), "group id out of range"),
    # scored_from_arrays once cast these to 0 and 1 without a word
    (lambda: scored_from_arrays([0.2, 0.7], [0.5, 0.9], [0, 1], ["a", "b"]),
     "labels must be 0 or 1"),
    (lambda: scored_from_arrays([0.2, 0.7], [0, 1], [0, 1.7], ["a", "b"]),
     "group ids must be whole numbers"),
    (lambda: scored_from_arrays([0.2, 0.7], [0, 1], [0, 1], ["a", "a"]),
     "group name 'a' is repeated"),
    # these raised a bare ValueError from the cast
    (lambda: scored_from_arrays([0.2, 0.7], ["no", "yes"], [0, 1], ["a", "b"]),
     "labels must be 0 or 1"),
    (lambda: scored_from_arrays([0.2, 0.7], [0, 1], ["a", "b"], ["a", "b"]),
     "group ids must be whole numbers"),
    (lambda: ScorerConfig(learning_rate=0.0), "invalid scorer config"),
    (lambda: ScorerConfig(iterations=0), "invalid scorer config"),
    (lambda: ScorerConfig(l2=-1.0), "invalid scorer config"),
    (lambda: calibration_table(scored(), bins=0), "bins must be >= 1"),
], ids=[
    "labels-rows", "groups-rows", "empty", "score-0", "score-1", "label-2", "one-name",
    "repeated-name", "group-out-of-range", "fractional-labels", "fractional-group",
    "repeated-name-from-arrays", "string-labels", "string-groups", "learning-rate", "iterations", "l2", "calibration-bins",
])
def test_input_errors(make, message):
    with pytest.raises(DataError, match=message):
        make()


class TestFit:
    def test_separates_separable_data(self):
        ds = separable_dataset()
        scored = predict(fit(ds), ds)
        pred = scored.scores >= 0.5
        assert pred.tolist() == [False, False, False, True, True, True]

    def test_deterministic(self):
        ds = separable_dataset()
        s1 = fit(ds)
        s2 = fit(ds)
        assert np.array_equal(s1.weights, s2.weights)
        assert s1.bias == s2.bias
        assert s1.iterations_run == s2.iterations_run

    def test_loss_decreases_with_training(self):
        ds = separable_dataset()
        short = fit(ds, ScorerConfig(iterations=2))
        long = fit(ds, ScorerConfig(iterations=500))
        assert long.final_loss < short.final_loss

    def test_single_class_labels_raise(self):
        x = np.array([[0.0], [1.0]])
        ds = LabeledDataset(features=x, labels=np.array([1, 1]),
                            groups=np.array([0, 1]), group_names=("a", "b"),
                            feature_names=("x",))
        with pytest.raises(FitError):
            fit(ds)

    def test_constant_feature_is_harmless(self):
        x = np.column_stack([np.array([-2.0, -1.9, -1.8, 1.8, 1.9, 2.0]),
                             np.full(6, 3.0)])
        ds = LabeledDataset(features=x, labels=np.array([0, 0, 0, 1, 1, 1]),
                            groups=np.array([0, 1, 0, 1, 0, 1]),
                            group_names=("a", "b"),
                            feature_names=("x", "const"))
        scorer = fit(ds)
        assert np.isfinite(scorer.final_loss)
        assert scorer.feature_scales[1] == 1.0

    def test_predict_checks_feature_count(self):
        scorer = fit(separable_dataset())
        x = np.ones((4, 2))
        ds = LabeledDataset(features=x, labels=np.array([0, 1, 0, 1]),
                            groups=np.array([0, 0, 1, 1]),
                            group_names=("a", "b"),
                            feature_names=("p", "q"))
        with pytest.raises(DataError):
            predict(scorer, ds)


class TestGradient:
    def test_matches_central_finite_differences(self):
        # analytic gradient against an independent difference quotient
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3))
        y = (rng.random(40) < 0.5).astype(np.float64)
        l2 = 0.01
        h = 1e-6
        for _ in range(5):
            w = rng.normal(size=3)
            b = float(rng.normal())
            _, gw, gb = loss_and_gradient(x, y, w, b, l2)
            for j in range(3):
                bump = np.zeros(3)
                bump[j] = h
                lo, _, _ = loss_and_gradient(x, y, w - bump, b, l2)
                hi, _, _ = loss_and_gradient(x, y, w + bump, b, l2)
                fd = (hi - lo) / (2 * h)
                assert abs(fd - gw[j]) < 1e-4 * max(1.0, abs(fd))
            lo, _, _ = loss_and_gradient(x, y, w, b - h, l2)
            hi, _, _ = loss_and_gradient(x, y, w, b + h, l2)
            fd = (hi - lo) / (2 * h)
            assert abs(fd - gb) < 1e-4 * max(1.0, abs(fd))

    def test_l2_excludes_bias(self):
        x = np.zeros((4, 1))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        loss_a, _, _ = loss_and_gradient(x, y, np.zeros(1), 5.0, l2=0.0)
        loss_b, _, _ = loss_and_gradient(x, y, np.zeros(1), 5.0, l2=10.0)
        # weights are zero, so the penalty adds nothing either way
        assert loss_a == loss_b


def test_sigmoid_equals_the_two_branch_form_bit_for_bit():
    z = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 710.0, -710.0, 745.0, -745.0, 1e-300, -1e-300],
        np.random.default_rng(12).normal(scale=30.0, size=100_000),
    ])
    want = np.empty_like(z)
    pos = z >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    want[~pos] = ez / (1.0 + ez)
    got = scoring_module._sigmoid(z)
    # a NaN stays NaN; only its sign bit, which carries nothing, may differ
    nan = np.isnan(z)
    assert np.isnan(got[nan]).all() and np.isnan(want[nan]).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestCalibrationTable:
    def test_hand_tallied_bins(self):
        s = scored_from_arrays(np.array([0.05, 0.15, 0.15, 0.95]),
                               np.array([0, 0, 1, 1]),
                               np.array([0, 1, 0, 1]), ("a", "b"))
        table = calibration_table(s, bins=10)
        assert len(table) == 10
        assert (table[0].count, table[0].positive_fraction) == (1, 0.0)
        assert (table[1].count, table[1].positive_fraction) == (2, 0.5)
        assert table[1].mean_score == pytest.approx(0.15)
        assert all(b.count == 0 for b in table[2:9])
        assert (table[9].count, table[9].positive_fraction) == (1, 1.0)

    def test_score_one_lands_in_last_bin(self):
        s = scored_from_arrays(np.array([1.0, 0.5]), np.array([1, 0]),
                               np.array([0, 1]), ("a", "b"))
        table = calibration_table(s, bins=10)
        assert table[9].count == 1

    def test_per_group_tables(self):
        s = scored_from_arrays(np.array([0.05, 0.15, 0.15, 0.95]),
                               np.array([0, 0, 1, 1]),
                               np.array([0, 1, 0, 1]), ("a", "b"))
        tables = calibration_table(s, bins=10, per_group=True)
        assert set(tables) == {"a", "b"}
        assert sum(b.count for b in tables["a"]) == 2
        assert sum(b.count for b in tables["b"]) == 2


class TestScoresCsv:
    def test_round_trip(self, tmp_path):
        s = scored_from_arrays(np.array([0.125, 0.5, 0.875]),
                               np.array([0, 1, 1]),
                               np.array([0, 1, 0]), ("a", "b"))
        path = tmp_path / "scores.csv"
        write_scores_csv(s, path)
        back = read_scores_csv(path)
        assert np.array_equal(back.scores, s.scores)
        assert np.array_equal(back.labels, s.labels)
        assert np.array_equal(back.groups, s.groups)
        assert back.group_names == s.group_names

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,grp,label\n0.5,a,1\n")
        with pytest.raises(DataError):
            read_scores_csv(path)

    def test_rejects_score_outside_unit_interval(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,label,group\n1.5,1,a\n0.5,0,b\n")
        with pytest.raises(DataError):
            read_scores_csv(path)


def _write_text(path, text):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)


def _read_outcome(read, path):
    """What a reader makes of a file: its arrays and names, or its error."""
    try:
        scored = read(path)
    except DataError as exc:
        return ("error", str(exc), exc.row, exc.column)
    except csv.Error as exc:
        return ("csv error", str(exc))
    return ("ok", scored.scores.tobytes(), scored.labels.tolist(),
            scored.groups.tolist(), scored.group_names)


class TestScoresCsvErrors:
    """Each kind of bad record raises a DataError located at its row."""

    def _error(self, tmp_path, body):
        path = tmp_path / "scores.csv"
        _write_text(path, "score,label,group\n" + body)
        with pytest.raises(DataError) as info:
            read_scores_csv(path)
        return info.value

    @pytest.mark.parametrize("row, message, column", [
        ("0.5,1", "expected 3 cells", None),
        ("0.5,1,a,x", "expected 3 cells", None),
        ("0.5x,1,a", "unparseable score", "score"),
        (",1,a", "unparseable score", "score"),
        ("1.5,1,a", "score outside [0, 1]", "score"),
        ("-0.1,1,a", "score outside [0, 1]", "score"),
        ("nan,1,a", "score outside [0, 1]", "score"),
        ("inf,1,a", "score outside [0, 1]", "score"),
        ("-inf,1,a", "score outside [0, 1]", "score"),
        ("0.5,2,a", "label must be 0 or 1", "label"),
        ("0.5,,a", "label must be 0 or 1", "label"),
        ("0.5,01,a", "label must be 0 or 1", "label"),
        ("0.5,1,", "missing value", "group"),
        ("0.5,1,  ", "missing value", "group"),
    ])
    def test_located_error(self, tmp_path, row, message, column):
        err = self._error(tmp_path, f"0.25,0,a\n0.75,1,b\n{row}\n0.5,1,b\n")
        assert (err.row, err.column) == (4, column)
        where = "row 4" if column is None else f"row 4, column {column!r}"
        assert str(err) == f"{message} ({where})"

    def test_blank_records_count_in_row_numbers(self, tmp_path):
        err = self._error(tmp_path, "0.25,0,a\n\n\r\n0.75,1,b\n0.5,7,a\n")
        assert (err.row, err.column) == (6, "label")

    def test_first_bad_row_is_reported(self, tmp_path):
        # a later row fails an earlier check; the earlier row still wins
        err = self._error(tmp_path, "0.25,0,a\n0.5,1, \n2.0,1,b\n0.5,1\n")
        assert (err.row, err.column) == (3, "group")

    @pytest.mark.parametrize("bad_row", [16385, 16386, 16387, 20000])
    def test_bad_row_at_and_beyond_the_first_block(self, tmp_path, bad_row):
        # records 2..16385 fill the first block of 16384
        assert scoring_module._BLOCK_ROWS == 16384
        good = ["0.25,0,a", "0.75,1,b"] * 10_000
        good[bad_row - 2] = "0.5,1,"
        err = self._error(tmp_path, "\n".join(good) + "\n")
        assert (err.row, err.column) == (bad_row, "group")
        assert str(err) == f"missing value (row {bad_row}, column 'group')"

    def test_bad_row_before_a_csv_parse_error(self, tmp_path):
        # the csv module fails on the oversized field only after the bad
        # row, so the bad row is reported, as it is row by row
        huge = "x" * (csv.field_size_limit() + 1)
        err = self._error(tmp_path, f"0.25,0,a\n0.5,3,b\n0.5,1,{huge}\n")
        assert (err.row, err.column) == (3, "label")

    def test_bad_row_before_a_decode_error(self, tmp_path):
        # the undecodable byte lies past the first chunk of text decoded
        path = tmp_path / "scores.csv"
        good = b"0.25,0,a\n" * 5000
        path.write_bytes(b"score,label,group\n0.5,1,b\n0.5,1\n" + good + b"0.5,1,\xff\n")
        with pytest.raises(DataError) as info:
            read_scores_csv(path)
        assert (info.value.row, info.value.column) == (3, None)
        path.write_bytes(b"score,label,group\n" + good + b"0.5,1,\xff\n")
        with pytest.raises(DataError) as info:
            read_scores_csv(path)
        assert str(info.value).startswith(f"{path}: scores is not UTF-8 text: ")
        assert isinstance(info.value.__cause__, UnicodeDecodeError)
        # within the first chunk decoded, before the header is read
        path.write_bytes(b"score,label,group\n0.5,1,\xff\n")
        with pytest.raises(DataError, match="scores is not UTF-8 text"):
            read_scores_csv(path)

    def test_csv_parse_error_passes_through(self, tmp_path):
        huge = "x" * (csv.field_size_limit() + 1)
        path = tmp_path / "scores.csv"
        _write_text(path, f"score,label,group\n0.25,0,a\n0.5,1,{huge}\n")
        with pytest.raises(csv.Error):
            read_scores_csv(path)

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\n"])
    def test_header_only(self, tmp_path, body):
        path = tmp_path / "scores.csv"
        _write_text(path, "score,label,group\n" + body)
        with pytest.raises(DataError) as info:
            read_scores_csv(path)
        assert str(info.value) == f"{path} has a header but no data rows"
        assert (info.value.row, info.value.column) == (None, None)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        _write_text(path, "")
        with pytest.raises(DataError) as info:
            read_scores_csv(path)
        assert str(info.value) == f"{path} has no header row"

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(DataError) as info:
            read_scores_csv(path)
        assert str(info.value) == f"cannot open scores {path}: No such file or directory"
        assert (info.value.row, info.value.column) == (None, None)


# Group names that need quoting, or that strip to the same name.
_NAMES = ["a", "b", "g,1", 'say "hi"', " lead", "trail ", "two\nlines",
          "cr\rname", "\u00fcml\u00e4ut", "a b"]


class TestScoresCsvAgainstOracle:
    """The block reader and writer against row-at-a-time oracles."""

    @pytest.mark.parametrize("block_rows", [1, 3, 16384])
    def test_writer_bytes(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(scoring_module, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(block_rows)
        special = np.array([0.0, 1.0, 1e-12, 1.0 - 1e-12, 1e-5, 2.5e-7,
                            1.5e-300, 0.1, 0.5, 0.9999999999999999])
        for trial in range(40):
            n = int(rng.integers(1, 60)) if trial else 1
            k = int(rng.integers(2, len(_NAMES) + 1))
            names = tuple(map(str, rng.permutation(_NAMES)[:k]))
            scores = np.where(rng.random(n) < 0.3, rng.choice(special, n),
                              rng.random(n) ** rng.integers(1, 40))
            scored = scored_from_arrays(scores, rng.integers(0, 2, n),
                                        rng.integers(0, k, n), names)
            mine, theirs = tmp_path / "mine.csv", tmp_path / "theirs.csv"
            write_scores_csv(scored, mine)
            oracle.write_scores_csv(scored, theirs)
            assert mine.read_bytes() == theirs.read_bytes()

    def test_writer_bytes_across_blocks(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 2 * scoring_module._BLOCK_ROWS + 17
        scored = scored_from_arrays(rng.random(n) ** 9, rng.integers(0, 2, n),
                                    rng.integers(0, 4, n), _NAMES[2:6])
        mine, theirs = tmp_path / "mine.csv", tmp_path / "theirs.csv"
        write_scores_csv(scored, mine)
        oracle.write_scores_csv(scored, theirs)
        assert mine.read_bytes() == theirs.read_bytes()

    @staticmethod
    def _random_record(rng):
        score = rng.choice([repr(float(rng.random())), "0", "1", "1.0",
                            " 0.25 ", "5e-3", "0.5\t", "1e-12"])
        label = rng.choice(["0", "1", " 1", "0 ", "\t1", '" 1"'])
        name = str(rng.choice(_NAMES + ["  a", "b  "]))
        if rng.random() < 0.5 or any(c in name for c in ',"\r\n'):
            name = '"' + name.replace('"', '""') + '"'
        return f"{score},{label},{name}"

    _BAD_RECORDS = ["0.5,1", "0.5,1,a,b", "x,1,a", "nan,0,a", "1.01,0,a",
                    "-0.5,1,a", "0.5,2,a", "0.5,,b", "0.5,1,", '0.5,1," "',
                    " ", "0.5,0x1,a"]

    @pytest.mark.parametrize("block_rows", [1, 2, 5, 16384])
    def test_reader_matches_oracle(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(scoring_module, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(100 + block_rows)
        path = tmp_path / "scores.csv"
        outcomes = set()
        for trial in range(150):
            records = []
            for _ in range(int(rng.integers(0, 25))):
                records.append("" if rng.random() < 0.1 else self._random_record(rng))
            if records and rng.random() < 0.4:
                at = int(rng.integers(0, len(records)))
                records[at] = rng.choice(self._BAD_RECORDS)
            newline = rng.choice(["\n", "\r\n"])
            text = newline.join([" score , label,group "] + records)
            if rng.random() < 0.7:
                text += newline
            _write_text(path, text)
            mine = _read_outcome(read_scores_csv, path)
            assert mine == _read_outcome(oracle.read_scores_csv, path)
            outcomes.add(mine[0])
        assert outcomes == {"ok", "error"}

    def test_reader_group_order_across_blocks(self, tmp_path):
        # a new group first appears in each of the three blocks
        n = scoring_module._BLOCK_ROWS
        records = ["0.5,1,b"] * n + ["0.25,0, c"] * 5 + ["0.5,1,a"] * (n - 5)
        records += ['0.75,1,"d,e"', "0.125,0,c "]
        path = tmp_path / "scores.csv"
        _write_text(path, "score,label,group\r\n" + "\r\n".join(records) + "\r\n")
        mine = read_scores_csv(path)
        assert mine.group_names == ("b", "c", "a", "d,e")
        assert _read_outcome(read_scores_csv, path) == _read_outcome(
            oracle.read_scores_csv, path)
