import json

import numpy as np
import pytest

from levelup import (
    DataError,
    Equality,
    FairnessMeasure,
    GroupMetrics,
    MinimumRate,
    Unconstrained,
    build_report,
    confusion,
    detect_levelling_down,
    enforce,
    group_metrics,
    load_report,
    render_text,
    report_from_json_dict,
    report_to_json_dict,
    save_report,
    scored_from_arrays,
)

DP = FairnessMeasure.DEMOGRAPHIC_PARITY


def metrics_for(scored, result):
    return group_metrics(confusion(scored, result.policy))


@pytest.fixture(scope="module")
def gap_pair(gap_scored):
    base = enforce(gap_scored, Unconstrained())
    dp = enforce(gap_scored, Equality(DP, epsilon=0.01))
    return base, dp


class TestDetect:
    def test_identity_comparison_flags_nothing(self, gap_pair):
        base, _ = gap_pair
        scan = detect_levelling_down(base.metrics, base.metrics)
        assert scan.flagged == ()
        assert scan.indeterminate == ()

    def test_parity_enforcement_is_flagged(self, gap_pair):
        # equalizing selection rates pulls the better-off group down
        base, dp = gap_pair
        scan = detect_levelling_down(base.metrics, dp.metrics)
        pairs = {(g, s) for g, s, _ in scan.flagged}
        assert ("a", "selection_rate") in pairs
        for _, _, delta in scan.flagged:
            assert delta < -0.005

    def test_minimum_rate_is_not_flagged(self, gap_scored, gap_pair):
        # raising the floor levels up; no group's statistics drop
        base, _ = gap_pair
        mrc = enforce(gap_scored, MinimumRate("selection_rate", 0.3))
        scan = detect_levelling_down(base.metrics, mrc.metrics)
        drops = {(g, s) for g, s, _ in scan.flagged}
        assert ("a", "selection_rate") not in drops
        assert ("b", "selection_rate") not in drops

    def test_tolerance_suppresses_small_moves(self, gap_pair):
        base, dp = gap_pair
        scan = detect_levelling_down(base.metrics, dp.metrics, tolerance=1.0)
        assert scan.flagged == ()

    def test_undefined_lands_in_indeterminate(self):
        s = scored_from_arrays(np.array([0.2, 0.7, 0.3, 0.8]),
                               np.array([0, 1, 0, 1]),
                               np.array([0, 0, 1, 1]), ("a", "b"))
        base = enforce(s, Unconstrained())
        from levelup import MaximumRate
        rejected = enforce(s, MaximumRate(0.0))
        scan = detect_levelling_down(base.metrics, rejected.metrics)
        assert ("a", "precision") in scan.indeterminate

    def test_rejects_direction_free_statistics(self, gap_pair):
        base, dp = gap_pair
        with pytest.raises(DataError):
            detect_levelling_down(base.metrics, dp.metrics,
                                  statistics=("fpr",))
        with pytest.raises(DataError):
            detect_levelling_down(base.metrics, dp.metrics,
                                  statistics=("fn_fp_ratio",))

    def test_rejects_mismatched_group_names(self, gap_pair):
        base, dp = gap_pair
        from levelup.metrics import GroupMetrics
        renamed = GroupMetrics(stats=dp.metrics.stats, group_names=("x", "y"))
        with pytest.raises(DataError):
            detect_levelling_down(base.metrics, renamed)

    def test_rejects_negative_tolerance(self, gap_pair):
        base, dp = gap_pair
        with pytest.raises(DataError):
            detect_levelling_down(base.metrics, dp.metrics, tolerance=-0.1)

    def test_rejects_nan_tolerance(self, gap_pair):
        base, dp = gap_pair
        with pytest.raises(DataError, match="tolerance"):
            detect_levelling_down(base.metrics, dp.metrics, tolerance=float("nan"))
        with pytest.raises(DataError, match="tolerance"):
            build_report(base.metrics, dp.metrics, {}, split="eval",
                         tolerance=float("nan"))


@pytest.mark.parametrize("make, message", [
    (lambda base, after: build_report(
        base, GroupMetrics(stats=after.stats, group_names=("a", "c")), {}, split="eval"),
     "baseline and constrained metrics name different groups"),
    (lambda base, after: build_report(base, after, {}, split="eval", tolerance=float("nan")),
     "tolerance must be a finite number >= 0, got nan"),
], ids=["different-groups", "nan-tolerance"])
def test_build_report_input_errors(gap_pair, make, message):
    base, dp = gap_pair
    with pytest.raises(DataError, match=message):
        make(base.metrics, dp.metrics)


@pytest.fixture(scope="module")
def dp_report(gap_pair):
    base, dp = gap_pair
    return build_report(base.metrics, dp.metrics,
                        {"constraint": "equality",
                         "measure": "demographic_parity",
                         "epsilon": 0.01},
                        split="eval")


class TestBuildReport:
    @pytest.fixture
    def report(self, dp_report):
        return dp_report

    def test_split_is_carried(self, report):
        assert report.split == "eval"

    def test_every_group_and_statistic_is_covered(self, report):
        assert len(report.per_group_deltas) == 2
        for group_row in report.per_group_deltas:
            assert [s for s, _ in group_row] == [
                "selection_rate", "tpr", "tnr", "fpr", "fnr",
                "precision", "npv", "accuracy", "fn_fp_ratio"]

    def test_levelled_down_groups_match_scan(self, report, gap_pair):
        base, dp = gap_pair
        scan = detect_levelling_down(base.metrics, dp.metrics)
        assert report.levelled_down_groups == tuple(
            (g, s) for g, s, _ in scan.flagged)

    def test_harm_annotations_cover_flagged_statistics(self, report):
        flagged_stats = {s for _, s in report.levelled_down_groups}
        annotated = {s for s, _ in report.harm_annotations}
        assert annotated == flagged_stats
        for stat, text in report.harm_annotations:
            assert text
            if stat == "selection_rate":
                assert "direction-dependent" in text

    def test_accuracy_fields_are_pooled(self, report, gap_pair):
        base, dp = gap_pair
        assert report.accuracy_before == pytest.approx(base.accuracy)
        assert report.accuracy_after == pytest.approx(dp.accuracy)
        assert report.accuracy_after <= report.accuracy_before

    def test_deltas_for_lookup(self, report):
        deltas = report.deltas_for("a")
        d = deltas["selection_rate"]
        assert d.delta == pytest.approx(d.after - d.before)
        assert d.flag == "review-decrease"


class TestSerialization:
    def make_report(self, gap_pair):
        base, dp = gap_pair
        return build_report(base.metrics, dp.metrics,
                            {"constraint": "equality", "epsilon": 0.01},
                            split="train")

    def test_json_round_trip_is_lossless(self, gap_pair):
        report = self.make_report(gap_pair)
        payload = json.loads(json.dumps(report_to_json_dict(report)))
        back = report_from_json_dict(payload)
        assert back == report

    def test_round_trip_preserves_undefined(self):
        s = scored_from_arrays(np.array([0.2, 0.7, 0.3, 0.8]),
                               np.array([0, 1, 0, 1]),
                               np.array([0, 0, 1, 1]), ("a", "b"))
        base = enforce(s, Unconstrained())
        from levelup import MaximumRate
        rejected = enforce(s, MaximumRate(0.0))
        report = build_report(base.metrics, rejected.metrics,
                              {"constraint": "maximum_rate"}, split="eval")
        back = report_from_json_dict(report_to_json_dict(report))
        assert back == report
        assert back.deltas_for("a")["precision"].after is None

    def test_save_and_load(self, gap_pair, tmp_path):
        report = self.make_report(gap_pair)
        path = tmp_path / "audit.json"
        save_report(report, path)
        assert load_report(path) == report

    def test_schema_version_checked(self, gap_pair):
        report = self.make_report(gap_pair)
        payload = report_to_json_dict(report)
        payload["schema_version"] = 99
        with pytest.raises(DataError):
            report_from_json_dict(payload)

    @pytest.mark.parametrize("text, message", [
        ("{not json", "audit report is not valid JSON"),
        ("[1, 2]", "audit report is not a JSON object"),
        ('{"schema_version": 1}', "audit report has no key 'baseline'"),
    ], ids=["not-json", "top-level-list", "missing-key"])
    def test_malformed_file_is_located_data_error(self, tmp_path, text,
                                                  message):
        path = tmp_path / "audit.json"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            load_report(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_file_not_utf8_is_located_data_error(self, gap_pair, tmp_path):
        path = tmp_path / "audit.json"
        path.write_bytes(b"\xff" + json.dumps(
            report_to_json_dict(self.make_report(gap_pair))).encode())
        with pytest.raises(DataError) as info:
            load_report(path)
        assert str(info.value).startswith(f"{path}: audit report is not UTF-8 text")

    def test_wrong_field_type_is_data_error(self, gap_pair, tmp_path):
        payload = report_to_json_dict(self.make_report(gap_pair))
        payload["levelled_down_groups"] = 7
        path = tmp_path / "audit.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed audit report"):
            load_report(path)

    def test_saved_bytes_are_deterministic(self, gap_pair, tmp_path):
        report = self.make_report(gap_pair)
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        save_report(report, p1)
        save_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestRenderText:
    def test_split_identity_is_prominent(self, gap_pair):
        base, dp = gap_pair
        report = build_report(base.metrics, dp.metrics,
                              {"constraint": "equality"}, split="eval")
        text = render_text(report)
        first = text.splitlines()[0]
        assert "eval" in first

    def test_groups_are_reported_separately(self, gap_pair):
        base, dp = gap_pair
        report = build_report(base.metrics, dp.metrics,
                              {"constraint": "equality"}, split="eval")
        text = render_text(report)
        assert "group a" in text
        assert "group b" in text
        assert "levelled down" in text

    def test_undefined_renders_as_undef(self):
        s = scored_from_arrays(np.array([0.2, 0.7, 0.3, 0.8]),
                               np.array([0, 1, 0, 1]),
                               np.array([0, 0, 1, 1]), ("a", "b"))
        base = enforce(s, Unconstrained())
        from levelup import MaximumRate
        rejected = enforce(s, MaximumRate(0.0))
        report = build_report(base.metrics, rejected.metrics,
                              {"constraint": "maximum_rate"}, split="eval")
        text = render_text(report)
        assert "UNDEF" in text
        assert "indeterminate" in text
