import json

import numpy as np
import pytest

import oracle
from levelup import (
    REJECT_ALL,
    DataError,
    Equality,
    FairnessMeasure,
    InfeasibleConstraintError,
    MaximumRate,
    MinimumRate,
    Provenance,
    ThresholdPolicy,
    Unconstrained,
    candidate_thresholds,
    disparity,
    enforce,
    full_level_up,
    harm_profile,
    partial_level_up,
    policy_from_json_dict,
    policy_to_json_dict,
    scored_from_arrays,
)
from conftest import random_small_scored

DP = FairnessMeasure.DEMOGRAPHIC_PARITY
EO = FairnessMeasure.EQUAL_OPPORTUNITY
ODDS = FairnessMeasure.EQUALIZED_ODDS
PP = FairnessMeasure.PREDICTIVE_PARITY
FPERB = FairnessMeasure.FALSE_POSITIVE_ERROR_RATE_BALANCE
CUAE = FairnessMeasure.CONDITIONAL_USE_ACCURACY_EQUALITY
OAE = FairnessMeasure.OVERALL_ACCURACY_EQUALITY
ENFORCEABLE = [m for m in FairnessMeasure if harm_profile(m).enforceable]


def scored_of(rows):
    """rows: list of (score, label, group_name) with names in id order."""
    names = []
    for _, _, g in rows:
        if g not in names:
            names.append(g)
    scores = np.array([r[0] for r in rows])
    labels = np.array([r[1] for r in rows])
    groups = np.array([names.index(r[2]) for r in rows])
    return scored_from_arrays(scores, labels, groups, tuple(names))


class TestCandidateThresholds:
    def test_two_distinct_scores(self):
        s = scored_of([(0.2, 0, "a"), (0.6, 1, "a"), (0.5, 1, "b")])
        cands = candidate_thresholds(s, 0)
        assert cands.tolist() == [0.0, pytest.approx(0.4), REJECT_ALL]

    def test_duplicate_scores_collapse(self):
        s = scored_of([(0.3, 0, "a"), (0.3, 1, "a"), (0.8, 1, "a"),
                       (0.5, 1, "b")])
        cands = candidate_thresholds(s, 0)
        assert cands.tolist() == [0.0, pytest.approx(0.55), REJECT_ALL]

    def test_each_candidate_realizes_a_distinct_outcome(self):
        rng = np.random.default_rng(0)
        s = random_small_scored(rng)
        for g in range(2):
            rows = s.groups == g
            outcomes = set()
            for t in candidate_thresholds(s, g):
                pred = s.scores[rows] >= t
                outcomes.add(tuple(pred.tolist()))
            assert len(outcomes) == len(candidate_thresholds(s, g))

    def test_adjacent_floats_guarded(self):
        # when the midpoint of two adjacent floats rounds back onto the
        # lower score, the upper score itself is the candidate
        lo = 0.1
        hi = np.nextafter(lo, 1.0)
        s = scored_from_arrays(np.array([lo, hi, 0.5]), np.array([0, 1, 1]),
                               np.array([0, 0, 1]), ("a", "b"))
        cands = candidate_thresholds(s, 0)
        assert len(cands) == 3
        mid = cands[1]
        assert mid > lo
        # the mid candidate separates the two rows
        assert (np.array([lo, hi]) >= mid).tolist() == [False, True]


class TestConstraintValidation:
    def test_threshold_range(self):
        prov = Provenance(constraint="fixed", parameters={}, search="none")
        with pytest.raises(DataError):
            ThresholdPolicy(thresholds=(0.5, 1.2), group_names=("a", "b"),
                            provenance=prov)
        policy = ThresholdPolicy(thresholds=(0.5, REJECT_ALL),
                                 group_names=("a", "b"), provenance=prov)
        assert policy.threshold_for("b") == REJECT_ALL

    def test_equality_rejects_negative_epsilon(self):
        with pytest.raises(DataError):
            Equality(DP, epsilon=-0.1)

    def test_equality_rejects_non_finite_epsilon(self):
        for eps in (float("nan"), float("inf")):
            with pytest.raises(DataError):
                Equality(DP, epsilon=eps)

    def test_equality_rejects_unenforceable_measure(self):
        with pytest.raises(DataError):
            Equality(FairnessMeasure.TREATMENT_EQUALITY, epsilon=0.1)

    def test_minimum_rate_statistics(self):
        with pytest.raises(DataError):
            MinimumRate(statistic="fpr", tau=0.5)
        with pytest.raises(DataError):
            MinimumRate(statistic="selection_rate", tau=1.5)

    def test_maximum_rate_is_selection_rate_only(self):
        with pytest.raises(DataError):
            MaximumRate(kappa=0.5, statistic="tpr")
        with pytest.raises(DataError):
            MaximumRate(kappa=-0.2)


class TestTieBreaks:
    def symmetric(self):
        # in each group, accepting everything and rejecting everything tie
        # on correctness
        return scored_of([(0.4, 1, "a"), (0.6, 0, "a"),
                          (0.4, 1, "b"), (0.6, 0, "b")])

    def test_unconstrained_prefers_lowest_thresholds(self):
        result = enforce(self.symmetric(), Unconstrained())
        assert result.policy.thresholds == (0.0, 0.0)
        assert result.accuracy == 0.5

    def test_equality_tie_goes_to_higher_group_minimum(self):
        # (0, 0) and (reject, reject) both have zero selection disparity
        # and tie on correctness; the higher minimum selection rate wins
        result = enforce(self.symmetric(), Equality(DP, epsilon=1.0))
        assert result.policy.thresholds == (0.0, 0.0)
        vals = result.metrics.values("selection_rate")
        assert vals == (1.0, 1.0)

    def test_enforce_is_deterministic(self, gap_scored):
        a = enforce(gap_scored, Equality(DP, epsilon=0.02))
        b = enforce(gap_scored, Equality(DP, epsilon=0.02))
        assert a.policy.thresholds == b.policy.thresholds
        assert a.accuracy == b.accuracy


class TestOracleAgreement:
    def constraints(self, rng):
        return [
            Unconstrained(),
            Equality(DP, epsilon=0.0),
            Equality(DP, epsilon=float(rng.uniform(0.0, 0.2))),
            Equality(EO, epsilon=float(rng.uniform(0.0, 0.2))),
            Equality(ODDS, epsilon=float(rng.uniform(0.05, 0.3))),
            Equality(ODDS, epsilon=float(rng.choice([0.1, 0.25, 0.5]))),
            Equality(PP, epsilon=float(rng.uniform(0.0, 0.3))),
            Equality(FPERB, epsilon=float(rng.uniform(0.0, 0.2))),
            Equality(CUAE, epsilon=float(rng.uniform(0.05, 0.4))),
            Equality(OAE, epsilon=float(rng.uniform(0.0, 0.2))),
            MinimumRate("selection_rate", float(rng.uniform(0.0, 0.8))),
            MinimumRate("tpr", float(rng.uniform(0.0, 0.9))),
            MinimumRate("tnr", float(rng.uniform(0.0, 0.9))),
            MinimumRate("precision", float(rng.uniform(0.0, 0.7))),
            MaximumRate(float(rng.uniform(0.1, 0.9))),
        ]

    def check(self, scored, constraint):
        want = oracle.brute_force_enforce(scored, constraint)
        if want is None:
            with pytest.raises(InfeasibleConstraintError) as info:
                enforce(scored, constraint)
            if isinstance(constraint, Equality):
                d = oracle.brute_force_min_disparity(scored, constraint.measure)
                if d is None:
                    message = "tracked statistic is undefined for every candidate policy"
                else:
                    message = (f"no candidate policy reaches disparity <= "
                               f"{constraint.epsilon}; minimum achievable "
                               f"disparity is {d:.6g}")
                assert str(info.value) == message
            return
        got = enforce(scored, constraint)
        assert got.policy.thresholds == want[0], constraint
        assert got.accuracy == want[2], constraint

    def test_two_groups(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            scored = random_small_scored(rng)
            for constraint in self.constraints(rng):
                self.check(scored, constraint)

    def test_three_groups(self):
        rng = np.random.default_rng(200)
        for _ in range(6):
            scored = random_small_scored(rng, n_groups=3, max_distinct=6)
            for constraint in [Unconstrained(),
                               Equality(DP, epsilon=0.0),
                               Equality(DP, epsilon=0.1),
                               Equality(EO, epsilon=0.15),
                               Equality(PP, epsilon=0.1),
                               Equality(FPERB, epsilon=0.1),
                               Equality(ODDS, epsilon=0.2),
                               Equality(CUAE, epsilon=0.25),
                               Equality(OAE, epsilon=0.1),
                               MinimumRate("selection_rate", 0.3),
                               MaximumRate(0.5)]:
                self.check(scored, constraint)

    def test_four_groups_separable_still_exact(self):
        rng = np.random.default_rng(300)
        for _ in range(4):
            scored = random_small_scored(rng, n_groups=4, max_distinct=6)
            for constraint in [Unconstrained(),
                               MinimumRate("selection_rate", 0.4),
                               MinimumRate("tpr", 0.5),
                               MaximumRate(0.6)]:
                self.check(scored, constraint)

    def test_four_group_equality_is_exact(self):
        rng = np.random.default_rng(400)
        scored = random_small_scored(rng, n_groups=4, max_distinct=6)
        constraint = Equality(DP, epsilon=0.2)
        provenance = enforce(scored, constraint).policy.provenance
        assert provenance.search == "exact-grid"
        assert not provenance.approximate
        self.check(scored, constraint)

    def test_epsilon_boundary_follows_the_disparity_subtraction(self):
        # 5/6 - 1/3 == 0.5 in floating point although 1/3 + 0.5 < 5/6,
        # and 4/5 - 1/2 > 0.3 although 1/2 + 0.3 == 4/5
        include = scored_of([(0.2, 0, "a"), (0.4, 0, "a"), (0.9, 1, "a"),
                             (0.1, 0, "b")]
                            + [(s, 1, "b") for s in (0.3, 0.4, 0.5, 0.6, 0.7)])
        exclude = scored_of([(0.3, 0, "a"), (0.8, 1, "a"), (0.1, 0, "b")]
                            + [(s, 1, "b") for s in (0.3, 0.5, 0.7, 0.9)])
        assert enforce(include, Equality(DP, 0.5)).accuracy == 1.0
        assert enforce(exclude, Equality(DP, 0.3)).accuracy < 1.0
        self.check(include, Equality(DP, 0.5))
        self.check(exclude, Equality(DP, 0.3))

    @pytest.mark.parametrize("n_groups, max_distinct, datasets",
                             [(4, 5, 3), (5, 4, 1)])
    def test_equality_at_four_and_five_groups(self, n_groups, max_distinct,
                                              datasets):
        rng = np.random.default_rng(500 + n_groups)
        for _ in range(datasets):
            scored = random_small_scored(rng, n_groups=n_groups,
                                         max_distinct=max_distinct)
            for measure in ENFORCEABLE:
                for eps in (0.0, float(rng.uniform(0.05, 0.3))):
                    self.check(scored, Equality(measure, eps))


def smallest_spread(value_lists):
    """Smallest max - min over picks of one value per list (sliding window)."""
    merged = sorted((v, g) for g, vals in enumerate(value_lists) for v in vals)
    count = [0] * len(value_lists)
    covered, left, best = 0, 0, None
    for v, g in merged:
        count[g] += 1
        covered += count[g] == 1
        while covered == len(value_lists):
            low, low_g = merged[left]
            best = v - low if best is None else min(best, v - low)
            count[low_g] -= 1
            covered -= count[low_g] == 0
            left += 1
    return best


class TestSeparableTiePlateau:
    def test_plateau_reaches_minimum_disparity(self):
        # Labels alternate along each group's scores, so every odd
        # candidate index ties on correctness: 5 * 7 * 9 * 13 * 17 * 25 > 1M
        # tied combos, all of which the tie-break must rank.  Every group
        # can select exactly half its rows, so the plateau reaches zero
        # disparity; the lowest tied thresholds alone do not.
        sizes = [10, 14, 18, 26, 34, 50]
        scores = np.concatenate([np.linspace(0.02, 0.98, n) for n in sizes])
        labels = np.concatenate([np.arange(n) % 2 for n in sizes])
        groups = np.concatenate([np.full(n, g) for g, n in enumerate(sizes)])
        scored = scored_from_arrays(scores, labels, groups,
                                    tuple(f"g{g}" for g in range(len(sizes))))
        result = enforce(scored, MaximumRate(1.0))
        assert result.accuracy == enforce(scored, Unconstrained()).accuracy
        plateau = [[(n - k) / n for k in range(1, n, 2)] for n in sizes]
        assert disparity(result.metrics, DP) == smallest_spread(plateau)


class TestMinimumRateSemantics:
    def test_tau_one_selects_everything(self, gap_scored):
        result = enforce(gap_scored, MinimumRate("selection_rate", 1.0))
        assert result.policy.thresholds == (0.0, 0.0)
        assert result.accuracy == pytest.approx(gap_scored.labels.mean())

    def test_low_tau_reduces_to_unconstrained(self, gap_scored):
        base = enforce(gap_scored, Unconstrained())
        low = enforce(gap_scored, MinimumRate("selection_rate", 0.0))
        assert low.policy.thresholds == base.policy.thresholds
        assert low.accuracy == base.accuracy

    def test_no_group_drops_below_unconstrained(self, gap_scored):
        # the levelling-up floor: tightening tau never drags a group under
        # its unconstrained value
        base = enforce(gap_scored, Unconstrained())
        base_vals = base.metrics.values("selection_rate")
        for tau in np.linspace(0.0, 0.9, 10):
            try:
                result = enforce(gap_scored, MinimumRate("selection_rate",
                                                         float(tau)))
            except InfeasibleConstraintError:
                continue
            vals = result.metrics.values("selection_rate")
            for got, floor in zip(vals, base_vals):
                assert got >= floor - 1e-12

    def test_undefined_statistic_is_infeasible(self):
        # group b has no positives, so tpr is undefined at every threshold
        s = scored_of([(0.2, 0, "a"), (0.7, 1, "a"),
                       (0.3, 0, "b"), (0.6, 0, "b")])
        with pytest.raises(InfeasibleConstraintError) as info:
            enforce(s, MinimumRate("tpr", 0.5))
        assert info.value.blocking_group == "b"
        assert "undefined" in str(info.value)

    def test_unreachable_bound_names_best_achievable(self):
        # group b's top score is a negative, so precision never reaches 1
        s = scored_of([(0.8, 1, "a"), (0.3, 0, "a"),
                       (0.9, 0, "b"), (0.5, 1, "b")])
        with pytest.raises(InfeasibleConstraintError) as info:
            enforce(s, MinimumRate("precision", 0.999))
        assert info.value.blocking_group == "b"
        assert "0.5" in str(info.value)


class TestMaximumRateSemantics:
    def test_kappa_zero_rejects_everything(self, gap_scored):
        result = enforce(gap_scored, MaximumRate(0.0))
        assert result.policy.thresholds == (REJECT_ALL, REJECT_ALL)
        assert result.accuracy == pytest.approx(1.0 - gap_scored.labels.mean())

    def test_kappa_one_is_vacuous(self, gap_scored):
        base = enforce(gap_scored, Unconstrained())
        result = enforce(gap_scored, MaximumRate(1.0))
        assert result.accuracy == base.accuracy


class TestLevellingUp:
    def test_partial_keeps_best_group_threshold(self, gap_scored):
        base = enforce(gap_scored, Unconstrained())
        eq = enforce(gap_scored, Equality(DP, epsilon=0.01))
        part = partial_level_up(gap_scored, DP, epsilon=0.01)
        base_vals = base.metrics.values("selection_rate")
        top = int(np.argmax(base_vals))
        other = 1 - top
        # the better-off group is untouched, bit for bit
        assert part.policy.thresholds[top] == base.policy.thresholds[top]
        # the worse-off group reaches the level equality would have set
        assert part.metrics.values("selection_rate")[other] == pytest.approx(
            eq.metrics.values("selection_rate")[other], abs=1e-9)
        # and never falls below its own unconstrained value
        assert part.metrics.values("selection_rate")[other] >= base_vals[other] - 1e-12

    def test_partial_on_already_level_groups_is_a_no_op(self):
        rows = [(0.2, 0, "a"), (0.7, 1, "a"), (0.2, 0, "b"), (0.7, 1, "b")]
        s = scored_of(rows)
        base = enforce(s, Unconstrained())
        part = partial_level_up(s, DP)
        assert part.policy.thresholds == base.policy.thresholds
        assert "already level" in part.policy.provenance.note

    def test_full_raises_worse_group_to_best_level(self, gap_scored):
        base = enforce(gap_scored, Unconstrained())
        full = full_level_up(gap_scored, "selection_rate")
        base_vals = base.metrics.values("selection_rate")
        top = int(np.argmax(base_vals))
        other = 1 - top
        target = base_vals[top]
        assert full.policy.thresholds[top] == base.policy.thresholds[top]
        got = full.metrics.values("selection_rate")[other]
        # reaches the target up to one grid step, never losing ground
        assert got >= base_vals[other] - 1e-12
        cands = candidate_thresholds(gap_scored, other)
        step_vals = []
        for t in cands:
            rows = gap_scored.groups == other
            step_vals.append(float((gap_scored.scores[rows] >= t).mean()))
        reachable = [v for v in step_vals if v >= target - 1e-12]
        if reachable:
            assert got >= target - 1e-12

    def test_full_records_residual_gap_when_target_unreachable(self):
        s = scored_of([(0.8, 1, "a"), (0.3, 0, "a"),
                       (0.9, 0, "b"), (0.5, 1, "b")])
        full = full_level_up(s, "precision")
        assert "residual gap" in full.policy.provenance.note
        assert "b" in full.policy.provenance.note

    def test_level_up_rejects_two_statistic_measures(self, gap_scored):
        with pytest.raises(DataError):
            partial_level_up(gap_scored, ODDS)

    def test_level_up_rejects_direction_free_statistics(self, gap_scored):
        with pytest.raises(DataError):
            full_level_up(gap_scored, "fpr")
        with pytest.raises(DataError):
            partial_level_up(gap_scored, FairnessMeasure.TREATMENT_EQUALITY)


class TestSerialization:
    def test_round_trip(self, gap_scored):
        policy = enforce(gap_scored, Equality(DP, epsilon=0.05)).policy
        payload = json.loads(json.dumps(policy_to_json_dict(policy)))
        back = policy_from_json_dict(payload)
        assert back.thresholds == policy.thresholds
        assert back.group_names == policy.group_names
        assert back.provenance == policy.provenance

    def test_thresholds_keyed_by_group_name(self, gap_scored):
        policy = enforce(gap_scored, Unconstrained()).policy
        payload = policy_to_json_dict(policy)
        assert list(payload["thresholds"]) == list(policy.group_names)
