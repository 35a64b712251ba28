import json

import numpy as np
import pytest

import oracle
from levelup import (
    REJECT_ALL,
    ConfusionCounts,
    DataError,
    GroupMetrics,
    FairnessMeasure,
    Provenance,
    ThresholdPolicy,
    confusion,
    disparity,
    group_metrics,
    harm_profile,
    metrics_to_json_dict,
    scored_from_arrays,
    tracked_statistics,
)
from levelup import metrics as metrics_module
from levelup.metrics import STATISTIC_DIRECTIONS


def make_policy(thresholds, names):
    return ThresholdPolicy(
        thresholds=tuple(thresholds),
        group_names=tuple(names),
        provenance=Provenance(constraint="fixed", parameters={}, search="none"),
    )


def two_group_scored():
    # group a: scores .1 .4 .6 .7 .2 .9 with labels 0 1 0 1 0 1
    # group b: scores .3 .8 with labels 1 0
    scores = np.array([0.1, 0.4, 0.6, 0.7, 0.2, 0.9, 0.3, 0.8])
    labels = np.array([0, 1, 0, 1, 0, 1, 1, 0])
    groups = np.array([0, 0, 0, 0, 0, 0, 1, 1])
    return scored_from_arrays(scores, labels, groups, ("a", "b"))


class TestConfusion:
    def test_hand_tallied_counts(self):
        # at threshold 0.5 group a selects .6 .7 .9 (labels 0 1 1) and
        # group b selects .8 (label 0)
        counts = confusion(two_group_scored(), make_policy([0.5, 0.5], "ab"))
        assert counts.tp == (2, 0)
        assert counts.fp == (1, 1)
        assert counts.tn == (2, 0)
        assert counts.fn == (1, 1)

    def test_matches_a_per_group_tally(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            scores = np.round(rng.random(n), 2)
            labels = (rng.random(n) < 0.4).astype(int)
            groups = rng.integers(0, 3, n)
            s = scored_from_arrays(scores, labels, groups, "abc")
            thresholds = rng.choice(np.append(s.scores, [0.0, 1.5]), 3)
            counts = confusion(s, make_policy(thresholds.tolist(), "abc"))
            for g in range(3):
                rows = s.groups == g
                tp, fp, fn, tn = oracle.tally(s.scores[rows], s.labels[rows],
                                              thresholds[g])
                assert (counts.tp[g], counts.fp[g], counts.fn[g], counts.tn[g]) == \
                    (tp, fp, fn, tn)

    @pytest.mark.parametrize("block_rows", [7, 16384])
    @pytest.mark.parametrize("policies", [1, 2, 3, 31, 32, 33, 63, 64, 65])
    def test_many_policies_match_a_per_group_tally(self, policies, block_rows, monkeypatch):
        # the padded threshold count crosses powers of two; blocks of 7
        # rows split groups, whose rows come in shuffled order
        monkeypatch.setattr(metrics_module, "_TALLY_ROWS", block_rows)
        rng = np.random.default_rng(policies)
        sizes = [1, int(rng.integers(2, 80)), int(rng.integers(2, 80)), 1]
        groups = rng.permutation(np.repeat(np.arange(4), sizes))
        scores = np.round(rng.random(len(groups)), 2)
        labels = (rng.random(len(groups)) < 0.4).astype(int)
        s = scored_from_arrays(scores, labels, groups, "abcd")
        # scores as thresholds, so some rows sit exactly on theirs, and a
        # small pool, so policies repeat thresholds
        pool = np.append(rng.choice(s.scores, 5), [0.0, REJECT_ALL])
        thresholds = rng.choice(pool, (policies, 4))
        cells = metrics_module._tally(s, thresholds)
        assert cells.shape == (policies, 4, 4)
        for p in range(policies):
            for g in range(4):
                rows = s.groups == g
                tp, fp, fn, tn = oracle.tally(s.scores[rows], s.labels[rows],
                                              thresholds[p, g])
                assert tuple(cells[p, g].tolist()) == (tp, fp, tn, fn)

    def test_group_size(self):
        counts = confusion(two_group_scored(), make_policy([0.5, 0.5], "ab"))
        assert counts.group_size(0) == 6
        assert counts.group_size(1) == 2

    def test_policy_group_mismatch_raises(self):
        with pytest.raises(DataError):
            confusion(two_group_scored(), make_policy([0.5, 0.5], ("a", "c")))

    def test_negative_count_rejected(self):
        with pytest.raises(DataError):
            ConfusionCounts(tp=(1, -1), fp=(0, 0), tn=(0, 0), fn=(0, 0),
                            group_names=("a", "b"))


class TestGroupStats:
    def stats(self):
        counts = confusion(two_group_scored(), make_policy([0.5, 0.5], "ab"))
        return group_metrics(counts)

    def test_hand_tallied_group_a(self):
        a = self.stats().for_group(0)
        assert a.size == 6
        assert a.selection_rate == pytest.approx(0.5)
        assert a.tpr == pytest.approx(2 / 3)
        assert a.fnr == pytest.approx(1 / 3)
        assert a.tnr == pytest.approx(2 / 3)
        assert a.fpr == pytest.approx(1 / 3)
        assert a.precision == pytest.approx(2 / 3)
        assert a.npv == pytest.approx(2 / 3)
        assert a.accuracy == pytest.approx(2 / 3)
        assert a.fn_fp_ratio == pytest.approx(1.0)

    def test_hand_tallied_group_b(self):
        b = self.stats().for_group(1)
        assert b.size == 2
        assert b.selection_rate == pytest.approx(0.5)
        assert b.tpr == 0.0
        assert b.tnr == 0.0
        assert b.accuracy == 0.0
        assert b.fn_fp_ratio == pytest.approx(1.0)

    def test_rate_identities_on_random_data(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(4, 40))
            scored = scored_from_arrays(rng.random(n),
                                        (rng.random(n) < 0.5).astype(int),
                                        rng.integers(0, 2, n), ("a", "b"))
            t = float(rng.random())
            m = group_metrics(confusion(scored, make_policy([t, t], "ab")))
            for g in range(2):
                s = m.for_group(g)
                if s.tpr is not None:
                    assert s.tpr + s.fnr == pytest.approx(1.0)
                if s.tnr is not None:
                    assert s.tnr + s.fpr == pytest.approx(1.0)

    def test_undefined_statistics_are_none(self):
        # group a has no negatives; group b rejects everything
        scored = scored_from_arrays(np.array([0.6, 0.7, 0.2, 0.3]),
                                    np.array([1, 1, 0, 1]),
                                    np.array([0, 0, 1, 1]), ("a", "b"))
        m = group_metrics(confusion(scored, make_policy([0.5, 1.0], "ab")))
        a = m.for_group(0)
        assert a.tnr is None and a.fpr is None
        assert a.fn_fp_ratio is None  # fp == 0
        b = m.for_group(1)
        assert b.precision is None  # nothing selected
        assert b.fn_fp_ratio is None

    def test_get_rejects_unknown_statistic(self):
        with pytest.raises(DataError):
            self.stats().for_group(0).get("recall")

    def test_values_ordering(self):
        m = self.stats()
        assert m.values("selection_rate") == (0.5, 0.5)


def counts(tp=(1, 1), fp=(0, 0), tn=(0, 0), fn=(0, 0)):
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn, group_names=("a", "b"))


@pytest.mark.parametrize("make, message", [
    (lambda: counts(tp=(1,)), "tp must have one entry per group"),
    (lambda: counts(fn=(0, 0, 0)), "fn must have one entry per group"),
    (lambda: counts(fp=(0, -1)), "negative count in fp"),
    (lambda: GroupMetrics(stats=group_metrics(counts()).stats, group_names=("a",)),
     "stats and group_names must align"),
    (lambda: group_metrics(counts()).for_group(0).get("recall"), "unknown statistic 'recall'"),
], ids=["tp-length", "fn-length", "negative-fp", "metrics-names", "unknown-statistic"])
def test_input_errors(make, message):
    with pytest.raises(DataError, match=message):
        make()


class TestPooledAccuracy:
    """One pooled accuracy, read from each group's size and accuracy."""

    @staticmethod
    def pooled(counts):
        return metrics_module._pooled_accuracy(group_metrics(counts))

    def test_equals_the_counts_accuracy(self):
        # groups of up to 2**40 rows; some groups have no rows
        rng = np.random.default_rng(8)
        for trial in range(2000):
            k = int(rng.integers(1, 6))
            cells = rng.integers(0, [2**38, 100][trial % 2], size=(4, k))
            cells[:, rng.random(k) < 0.2] = 0
            tp, fp, tn, fn = (tuple(row) for row in cells.tolist())
            counts = ConfusionCounts(tp, fp, tn, fn, tuple(f"g{g}" for g in range(k)))
            n = sum(map(sum, (tp, fp, tn, fn)))
            if n:
                assert self.pooled(counts) == (sum(tp) + sum(tn)) / n
            else:
                assert np.isnan(self.pooled(counts))

    def test_groups_near_2_to_the_40_rows(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            cells = 2**38 - rng.integers(0, 2**20, size=(4, 3))
            tp, fp, tn, fn = (tuple(row) for row in cells.tolist())
            counts = ConfusionCounts(tp, fp, tn, fn, ("a", "b", "c"))
            assert self.pooled(counts) == (sum(tp) + sum(tn)) / int(cells.sum())

    def test_a_group_with_no_rows_is_skipped(self):
        counts = ConfusionCounts((3, 0), (1, 0), (2, 0), (4, 0), ("a", "b"))
        assert group_metrics(counts).for_group(1).accuracy is None
        assert self.pooled(counts) == 0.5

    def test_no_rows_at_all_is_nan(self):
        assert np.isnan(self.pooled(ConfusionCounts((0, 0), (0, 0), (0, 0), (0, 0), ("a", "b"))))


class TestDisparity:
    def metrics(self):
        counts = confusion(two_group_scored(), make_policy([0.5, 0.5], "ab"))
        return group_metrics(counts)

    def test_hand_tallied_disparities(self):
        m = self.metrics()
        assert disparity(m, FairnessMeasure.DEMOGRAPHIC_PARITY) == 0.0
        assert disparity(m, FairnessMeasure.EQUAL_OPPORTUNITY) == pytest.approx(2 / 3)
        assert disparity(m, FairnessMeasure.PREDICTIVE_PARITY) == pytest.approx(2 / 3)
        assert disparity(m, FairnessMeasure.EQUALIZED_ODDS) == pytest.approx(2 / 3)
        assert disparity(m, FairnessMeasure.OVERALL_ACCURACY_EQUALITY) == pytest.approx(2 / 3)
        assert disparity(m, FairnessMeasure.TREATMENT_EQUALITY) == 0.0

    def test_two_statistic_measure_takes_worse_spread(self):
        m = self.metrics()
        tpr_spread = m.values("tpr")[0] - m.values("tpr")[1]
        fpr_spread = abs(m.values("fpr")[0] - m.values("fpr")[1])
        want = max(tpr_spread, fpr_spread)
        assert disparity(m, FairnessMeasure.EQUALIZED_ODDS) == pytest.approx(want)

    def test_undefined_propagates(self):
        scored = scored_from_arrays(np.array([0.6, 0.7, 0.2, 0.3]),
                                    np.array([1, 1, 0, 1]),
                                    np.array([0, 0, 1, 1]), ("a", "b"))
        m = group_metrics(confusion(scored, make_policy([0.5, 0.5], "ab")))
        assert disparity(m, FairnessMeasure.FALSE_POSITIVE_ERROR_RATE_BALANCE) is None
        assert disparity(m, FairnessMeasure.EQUALIZED_ODDS) is None
        # selection rate is always defined
        assert disparity(m, FairnessMeasure.DEMOGRAPHIC_PARITY) is not None


class TestMeasureTaxonomy:
    def test_tracked_statistics(self):
        T = tracked_statistics
        assert T(FairnessMeasure.DEMOGRAPHIC_PARITY) == ("selection_rate",)
        assert T(FairnessMeasure.EQUAL_OPPORTUNITY) == ("tpr",)
        assert T(FairnessMeasure.PREDICTIVE_PARITY) == ("precision",)
        assert T(FairnessMeasure.FALSE_POSITIVE_ERROR_RATE_BALANCE) == ("tnr",)
        assert T(FairnessMeasure.EQUALIZED_ODDS) == ("tpr", "fpr")
        assert T(FairnessMeasure.CONDITIONAL_USE_ACCURACY_EQUALITY) == ("precision", "npv")
        assert T(FairnessMeasure.OVERALL_ACCURACY_EQUALITY) == ("accuracy",)
        assert T(FairnessMeasure.TREATMENT_EQUALITY) == ("fn_fp_ratio",)

    def test_every_measure_has_a_harm_profile(self):
        for measure in FairnessMeasure:
            profile = harm_profile(measure)
            assert profile.measure is measure
            assert profile.harm_to_disadvantaged

    def test_only_treatment_equality_is_not_enforceable(self):
        for measure in FairnessMeasure:
            profile = harm_profile(measure)
            if measure is FairnessMeasure.TREATMENT_EQUALITY:
                assert not profile.enforceable
                assert profile.remedy_statistics == ()
                assert profile.justified_use == "Unclear."
            else:
                assert profile.enforceable
                assert profile.remedy_statistics
                assert profile.remedy

    def test_statistic_directions(self):
        assert STATISTIC_DIRECTIONS["selection_rate"] == "bidirectional"
        assert STATISTIC_DIRECTIONS["tpr"] == "higher"
        assert STATISTIC_DIRECTIONS["fpr"] == "lower"
        assert STATISTIC_DIRECTIONS["fn_fp_ratio"] == "unclear"


class TestJson:
    def test_undefined_serializes_as_null_and_is_listed(self):
        scored = scored_from_arrays(np.array([0.6, 0.7, 0.2, 0.3]),
                                    np.array([1, 1, 0, 1]),
                                    np.array([0, 0, 1, 1]), ("a", "b"))
        m = group_metrics(confusion(scored, make_policy([0.5, 0.5], "ab")))
        payload = json.loads(json.dumps(metrics_to_json_dict(m)))
        assert payload["a"]["tnr"] is None
        assert "tnr" in payload["a"]["undefined"]
        assert "fpr" in payload["a"]["undefined"]
        # group b selects nothing, so the selected-conditioned stats are out
        assert "precision" in payload["b"]["undefined"]

    def test_fully_defined_group_has_empty_undefined_list(self):
        m = group_metrics(confusion(two_group_scored(),
                                    make_policy([0.5, 0.5], "ab")))
        payload = metrics_to_json_dict(m)
        assert payload["a"]["undefined"] == []
        assert payload["b"]["undefined"] == []

    def test_defined_values_round_trip(self):
        m = group_metrics(confusion(two_group_scored(),
                                    make_policy([0.5, 0.5], "ab")))
        payload = metrics_to_json_dict(m)
        assert payload["a"]["tpr"] == 2 / 3
        assert payload["a"]["size"] == 6
