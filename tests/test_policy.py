import functools
import gc
import json
import math
import tracemalloc
import types
import weakref
from dataclasses import replace

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
    equality_frontier,
    full_level_up,
    harm_profile,
    mrc_frontier,
    partial_level_up,
    policy_from_json_dict,
    policy_to_json_dict,
    scored_from_arrays,
    write_scores_csv,
)
from conftest import random_small_scored
from test_invariants import arrays as synth_arrays
from levelup import metrics as metrics_module
from levelup import policy as policy_module
from levelup.cli import main
from levelup.metrics import STATISTIC_DIRECTIONS, tracked_statistics
from levelup.scoring import SCORE_CLAMP

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


def members_or_none(scored, measure):
    """The window search's member set of the measure; None when some
    group has no candidate at which every tracked statistic is defined."""
    try:
        return policy_module._members(policy_module._Problem(scored), tracked_statistics(measure))
    except InfeasibleConstraintError:
        return None


@pytest.mark.parametrize("make, message", [
    (lambda s: ThresholdPolicy((0.5,), ("a", "b"), Provenance("none", {}, "exact-grid")),
     "one threshold per group required"),
    (lambda s: ThresholdPolicy((0.5, 1.2), ("a", "b"), Provenance("none", {}, "exact-grid")),
     "threshold 1.2 outside \\[0, 1\\] and not the reject-all sentinel"),
    (lambda s: candidate_thresholds(s, 2), "no group with id 2"),
    (lambda s: candidate_thresholds(s, -1), "no group with id -1"),
    (lambda s: enforce(s, DP), "unknown constraint <FairnessMeasure.DEMOGRAPHIC_PARITY"),
], ids=["threshold-count", "threshold-range", "group-id-2", "group-id-negative",
        "not-a-constraint"])
def test_input_errors(make, message):
    s = scored_of([(0.2, 0, "a"), (0.7, 1, "a"), (0.4, 1, "b"), (0.6, 0, "b")])
    with pytest.raises(DataError, match=message):
        make(s)


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

    def test_matches_loop_reference_on_adjacent_floats(self):
        # runs of adjacent floats, where (a + b) / 2 can round onto a and
        # the upper score itself has to be the candidate
        rng = np.random.default_rng(3)
        base = rng.random(60) * 0.9 + 0.05
        runs = [base]
        for _ in range(3):
            runs.append(np.nextafter(runs[-1], 1.0))
        scores = np.concatenate(runs + [rng.random(60) * 0.9 + 0.05])
        labels = (rng.random(len(scores)) < scores).astype(int)
        groups = rng.integers(0, 2, len(scores))
        s = scored_from_arrays(scores, labels, groups, ("a", "b"))
        for g in range(2):
            own = s.scores[s.groups == g]
            distinct = np.unique(own)
            assert any(not a < (a + b) / 2.0 for a, b in zip(distinct, distinct[1:]))
            assert candidate_thresholds(s, g).tolist() == oracle.candidate_grid(own)


class TestCandidateTables:
    """Every group's table equals the oracle's grid and row tallies."""

    @staticmethod
    def check(scored):
        tables = policy_module._build_tables(scored)
        assert len(tables) == scored.n_groups
        problem = policy_module._Problem(scored)
        for g, table in enumerate(tables):
            rows = scored.groups == g
            s, y = scored.scores[rows], scored.labels[rows]
            assert table.thresholds.tolist() == oracle.candidate_grid(s)
            tallies = [oracle.tally(s, y, t) for t in table.thresholds]
            assert table.tp.tolist() == [tp for tp, _, _, _ in tallies]
            assert table.fp.tolist() == [fp for _, fp, _, _ in tallies]
            pos = int(np.sum(y == 1))
            assert (table.pos, table.neg) == (pos, len(s) - pos)
            # the problem's arrays: NaN exactly where the oracle's statistic
            # is None, the oracle's value (==) everywhere else
            assert problem.correct(g).tolist() == [tp + tn for tp, _, _, tn in tallies]
            for name in STATISTIC_DIRECTIONS:
                got = [None if np.isnan(v) else v for v in problem.stat(g, name).tolist()]
                assert got == [oracle.stat_from_counts(c, name) for c in tallies], name

    @pytest.mark.parametrize("decimals", [1, 2, 3])
    def test_tied_scores(self, decimals):
        rng = np.random.default_rng(40 + decimals)
        for _ in range(4):
            n, n_groups = int(rng.integers(20, 200)), int(rng.integers(2, 5))
            scores = np.round(rng.random(n), decimals)
            labels = (rng.random(n) < scores).astype(int)
            groups = np.concatenate([np.arange(n_groups),
                                     rng.integers(0, n_groups, n - n_groups)])
            self.check(scored_from_arrays(scores, labels, groups,
                                          tuple(f"g{g}" for g in range(n_groups))))

    def test_runs_of_adjacent_floats(self):
        rng = np.random.default_rng(44)
        runs = [rng.random(30) * 0.9 + 0.05]
        for _ in range(4):
            runs.append(np.nextafter(runs[-1], 1.0))
        scores = np.concatenate(runs)
        labels = rng.integers(0, 2, len(scores))
        groups = rng.integers(0, 3, len(scores))
        self.check(scored_from_arrays(scores, labels, groups, ("a", "b", "c")))

    def test_clamped_scores(self):
        # 0 and 1 clamp onto SCORE_CLAMP and 1 - SCORE_CLAMP, the extreme
        # scores a dataset holds, next to values one float away from them
        low, high = SCORE_CLAMP, 1.0 - SCORE_CLAMP
        scores = [0.0, 0.0, low, np.nextafter(low, 1.0), 0.5, 1.0, 1.0, high,
                  np.nextafter(high, 0.0), 0.0, 1.0, 0.5, low, high]
        labels = [0, 1, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1]
        groups = [0] * 9 + [1] * 5
        scored = scored_from_arrays(scores, labels, groups, ("a", "b"))
        assert {low, high} <= set(scored.scores.tolist())
        self.check(scored)

    def test_one_row_all_positive_and_all_negative_groups(self):
        scored = scored_of([(0.3, 1, "one"),
                            (0.2, 1, "pos"), (0.6, 1, "pos"), (0.6, 1, "pos"),
                            (0.1, 0, "neg"), (0.9, 0, "neg"), (0.9, 0, "neg"),
                            (0.4, 0, "mixed"), (0.7, 1, "mixed")])
        self.check(scored)

    def test_one_group_built_alone(self):
        # a group's thresholds do not need the other groups' rows
        scored = scored_from_arrays([0.2, 0.7, 0.4, 0.9], [0, 1, 0, 1],
                                    [0, 0, 1, 1], ["a", "b", "c"])
        assert candidate_thresholds(scored, 0).tolist() == oracle.candidate_grid([0.2, 0.7])
        with pytest.raises(DataError, match="group 'c' has no rows"):
            candidate_thresholds(scored, 2)


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

    def test_pooled_accuracy_is_the_result_accuracy(self):
        # the oracle cases of test_two_groups: the audit's pooled accuracy
        # of a result's metrics is its accuracy
        rng = np.random.default_rng(100)
        for _ in range(20):
            scored = random_small_scored(rng)
            for constraint in self.constraints(rng):
                try:
                    got = enforce(scored, constraint)
                except InfeasibleConstraintError:
                    continue
                assert metrics_module._pooled_accuracy(got.metrics) == got.accuracy

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

    def test_tie_heavy_plateaus(self):
        # Few distinct scores with labels alternating along them put many
        # combinations on one accuracy plateau, so the tie-break decides.
        rng = np.random.default_rng(600)
        levels = np.round(np.linspace(0.1, 0.9, 6), 3)
        for _ in range(14):
            n_groups = int(rng.integers(2, 7))
            distinct = rng.integers(1, 4, n_groups)
            while np.prod(distinct + 1) > 400:
                distinct = rng.integers(1, 4, n_groups)
            rows = []
            for g, k in enumerate(distinct):
                values = np.sort(rng.choice(levels, k, replace=False))
                scores = np.sort(np.concatenate(
                    [values, rng.choice(values, int(rng.integers(1, 6)))]))
                rows += [(s, i % 2, f"g{g}") for i, s in enumerate(scores)]
            scored = scored_of(rows)
            constraints = [Equality(m, eps) for m in ENFORCEABLE
                           for eps in (float(rng.uniform(0.3, 0.6)), 1.0)]
            constraints += [MinimumRate(s, float(rng.uniform(0.0, 0.9)))
                            for s in ("selection_rate", "tpr", "tnr", "precision")]
            constraints += [MaximumRate(float(rng.uniform(0.2, 1.0)))]
            for constraint in constraints:
                self.check(scored, constraint)

    @pytest.mark.parametrize("rows, epsilon", [
        # the least disparity is reached at two second-statistic anchors,
        # and the smaller one holds the smaller thresholds
        ("0.1 0 a, 0.1 1 a, 0.2 0 a, 0.6 0 a, 0.6 0 a, 0.7 0 a, 0.7 1 a,"
         " 0.8 1 a, 0.1 1 b, 0.3 0 b, 0.3 1 b, 0.3 0 b, 0.3 1 b, 0.6 1 b,"
         " 0.7 0 b, 0.8 1 b, 0.8 0 b, 0.9 0 b, 0.4 1 c, 0.4 1 c, 0.4 0 c,"
         " 0.4 1 c, 0.4 1 c, 0.5 0 c, 0.5 1 c, 0.5 0 c, 0.7 1 c, 0.7 0 c,"
         " 0.8 0 c, 0.8 1 c", 0.2),
        # the best-holding member with the least second-statistic offset
        # is not the one with the least offset over both statistics
        ("0.1 0 a, 0.1 1 a, 0.42 1 a, 0.42 1 a, 0.42 0 a, 0.58 0 a,"
         " 0.58 1 a, 0.74 1 a, 0.74 1 a, 0.1 0 b, 0.26 1 b, 0.42 0 b,"
         " 0.74 1 b, 0.74 0 b, 0.1 0 c, 0.1 0 c, 0.1 1 c, 0.42 1 c,"
         " 0.42 0 c, 0.74 0 c, 0.74 1 c, 0.9 1 c, 0.9 1 c", 0.7),
    ], ids=["every-inner-anchor", "larger-offset"])
    def test_two_statistic_tie_break(self, rows, epsilon):
        scored = scored_of([(float(s), int(y), g) for s, y, g in
                            (row.split() for row in rows.split(","))])
        self.check(scored, Equality(CUAE, epsilon))

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


class TestChunkBoundaries:
    """The two-statistic search answers its first-statistic anchors in
    chunks, and where a chunk ends must not change a result.  A budget of
    one window member puts one anchor in each chunk; 2**40 lifts the
    member cap, so chunks take 2, 4, 8, ... anchors."""

    BUDGETS = pytest.mark.parametrize("budget", [1, 2**40], ids=["one-anchor", "no-cap"])

    @staticmethod
    def chunked(monkeypatch, budget):
        """Set the budget; the anchors of every chunk searched are recorded."""
        sizes = []
        inner = policy_module._chunk_search

        def recorded(members, outer, *args):
            sizes.append(len(outer))
            return inner(members, outer, *args)

        monkeypatch.setattr(policy_module, "_CHUNK_MEMBERS", budget)
        monkeypatch.setattr(policy_module, "_chunk_search", recorded)
        return sizes

    @staticmethod
    def check_sizes(sizes, budget):
        if budget == 1:
            assert max(sizes) == 1
        else:
            assert max(sizes) >= 4

    @BUDGETS
    def test_enforce_equals_brute_force(self, budget, monkeypatch):
        sizes = self.chunked(monkeypatch, budget)
        rng = np.random.default_rng(1000)
        for n_groups in (2, 2, 3, 4, 5):
            scored = random_small_scored(rng, n_groups=n_groups,
                                         max_distinct=(12, 7, 5, 4)[n_groups - 2])
            for measure in (ODDS, CUAE):
                for eps in (0.0, float(rng.uniform(0.05, 0.4)), 1.0):
                    TestOracleAgreement().check(scored, Equality(measure, eps))
        self.check_sizes(sizes, budget)

    @BUDGETS
    @pytest.mark.parametrize("measure", [ODDS, CUAE], ids=lambda m: m.value)
    def test_frontier_equals_point_by_point(self, budget, measure, monkeypatch):
        rng = np.random.default_rng(1100)
        cases = []
        for _ in range(3):
            rows = []
            for g in range(int(rng.integers(2, 4))):
                grid = np.round(np.sort(rng.random(int(rng.integers(10, 40)))), 3)
                scores = rng.choice(np.clip(grid, 0.001, 0.999), int(rng.integers(40, 150)))
                rows += [(float(s), int(rng.random() < s), f"g{g}") for s in scores]
            cases.append(scored_of(rows))
        # the point-by-point frontiers at the default budget
        want = [oracle.equality_frontier(scored, measure, 12) for scored in cases]
        sizes = self.chunked(monkeypatch, budget)
        for scored, expected in zip(cases, want):
            got = equality_frontier(scored, measure, 12)
            assert got == expected
            assert got.skipped == expected.skipped
        self.check_sizes(sizes, budget)


class TestSearchAnswers:
    """The equality search reads its answers off the window search: with
    one statistic the minimum disparity comes from the member set's
    layout, with two from a bisection that keeps each feasible scan's d,
    and a pick's d is the disparity the pick reaches.  Each equals the
    brute-force figure exactly, at every group count from 2 to 5."""

    @staticmethod
    def cases(measure):
        rng = np.random.default_rng(900)
        for i in range(16):
            n_groups = 2 + i % 4
            # at most 4 ** 5 combinations, so the brute force stays quick
            scored = random_small_scored(rng, n_groups=n_groups,
                                         max_distinct={2: 8, 3: 5, 4: 4, 5: 3}[n_groups])
            members = members_or_none(scored, measure)
            if members is None:
                assert oracle.brute_force_min_disparity(scored, measure) is None
                continue
            yield rng, scored, members

    @pytest.mark.parametrize("measure", ENFORCEABLE, ids=lambda m: m.value)
    def test_min_disparity_equals_brute_force(self, measure):
        for _, scored, members in self.cases(measure):
            got = policy_module._min_disparity(members)
            assert got == oracle.brute_force_min_disparity(scored, measure)

    @pytest.mark.parametrize("measure", ENFORCEABLE, ids=lambda m: m.value)
    def test_d_is_the_disparity_of_the_pick(self, measure):
        for rng, scored, members in self.cases(measure):
            least = oracle.brute_force_min_disparity(scored, measure)
            for eps in (least, least + float(rng.uniform(0.0, 0.3)), 1.0):
                top, d, _ = policy_module._window_search(members, eps)
                assert top >= 0
                result = enforce(scored, Equality(measure, eps))
                assert d == disparity(result.metrics, measure)

    @pytest.mark.parametrize("n_groups, rows", [(2, 1200), (4, 2000)], ids=["2x1200", "4x2000"])
    def test_bisection_scans_few_steps(self, monkeypatch, n_groups, rows):
        # each feasible step sets the bisection's upper end to the scan's d,
        # a disparity some combination reaches, not to the step's eps; each
        # infeasible step sets the lower end to the least candidate
        # difference above its eps, not to the next float
        scored = scored_from_arrays(*synth_arrays(n_groups, rows, 3))
        scans, prunes, inside = [0], [0], [0]
        box_scan, prune, least = policy_module._box_scan, policy_module._prune, policy_module._min_disparity

        def counted_scan(members, ends):
            scans[0] += inside[0]
            return box_scan(members, ends)

        def counted_prune(members, ends):
            prunes[0] += inside[0]
            return prune(members, ends)

        def counted_least(members):
            inside[0] += 1
            try:
                return least(members)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(policy_module, "_box_scan", counted_scan)
        monkeypatch.setattr(policy_module, "_prune", counted_prune)
        monkeypatch.setattr(policy_module, "_min_disparity", counted_least)
        with pytest.raises(InfeasibleConstraintError, match="minimum achievable disparity is"):
            enforce(scored, Equality(CUAE, 0.0))
        assert 1 <= scans[0] <= 8
        assert 1 <= prunes[0] <= 40


class TestWindowLayouts:
    """What a member set's windows need that no epsilon moves is built
    once per member set: prefix counts whose gathers are the windows'
    ends, and the survivors of _prune at one epsilon start it at a
    smaller one."""

    @staticmethod
    def searchsorted_windows(members, s, ends):
        """The windows by binary search over the sorted keys group * K + rank."""
        K = len(members.values[s])
        key = members.group * K + members.rank[s]
        order = np.argsort(key, kind="stable")
        key, base = key[order], np.arange(members.n_groups)[:, None] * K
        anchors = np.flatnonzero(np.bincount(members.rank[s], minlength=K))
        return anchors, order, np.searchsorted(key, base + anchors), np.searchsorted(key, base + ends[anchors])

    @staticmethod
    def random_members(rng, sizes, K):
        """Members of len(sizes) groups with ranks of two statistics among K
        values; a group's ranks are drawn from a few, so most anchors find
        some group without a member at their rank."""
        group = np.repeat(np.arange(len(sizes)), sizes)
        rank = np.stack([np.concatenate([rng.choice(rng.integers(0, K, 3), n) for n in sizes])
                         for _ in range(2)])
        keep = np.lexsort((rank[1], rank[0], group))
        values = [np.arange(K) / K] * 2
        return policy_module._Members(
            len(sizes), group[keep], keep, np.stack([v[r] for v, r in zip(values, rank[:, keep])]),
            rank[:, keep], values, rng.integers(0, 5, len(keep)))

    def test_prefix_gathers_equal_binary_search(self):
        rng = np.random.default_rng(17)
        for i in range(300):
            K = 1 if i % 10 == 0 else int(rng.integers(2, 30))
            sizes = rng.integers(1, 12, int(rng.integers(1, 6)))
            sizes[rng.integers(len(sizes))] = 1  # a single-member group
            members = self.random_members(rng, sizes, K)
            for s in range(2):
                # any non-decreasing ends past their own rank
                ends = np.maximum.accumulate(np.maximum(rng.integers(1, K + 1, K), np.arange(1, K + 1)))
                got = policy_module._windows(members, s, ends)
                want = self.searchsorted_windows(members, s, ends)
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)

    def test_distinct_values_equal_np_unique(self, gap_scored):
        # member statistics with repeats: rounded rates, and every statistic
        # of a problem's candidates, whose runs of equal values are long
        rng = np.random.default_rng(29)
        problem = policy_module._Problem(gap_scored)
        samples = [np.round(rng.random(int(rng.integers(1, 200))), int(rng.integers(1, 3)))
                   for _ in range(50)]
        samples += [v[~np.isnan(v)] for v in (problem.stat(g, name) for g in range(2)
                                              for name in policy_module.MIN_RATE_STATISTICS)]
        samples += [rng.integers(0, 30, 100)]
        for v in samples:
            got, want = policy_module._distinct(v), np.unique(v)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_min_disparity_equals_the_zero_correct_search(self):
        # with one statistic, _min_disparity reads the layout; the window
        # search without a disparity bound on a copy whose members all count
        # zero correct, so every combination ties, must find the same d
        rng = np.random.default_rng(43)
        for n in range(1, 130):  # every power of two up to 128
            K = 1 if n % 10 == 0 else int(rng.integers(2, 30))
            G = min(int(rng.integers(1, 6)), n)
            sizes = np.ones(G, dtype=np.int64)  # group 0 has a single member
            if G > 1:
                sizes[1:] += rng.multinomial(n - G, [1 / (G - 1)] * (G - 1))
            else:
                sizes[0] = n
            two = self.random_members(rng, sizes, K)
            members = replace(two, stats=two.stats[:1], rank=two.rank[:1], values=two.values[:1])
            zero = replace(members, correct=np.zeros_like(members.correct))  # nothing cached
            assert policy_module._min_disparity(members) == policy_module._window_search(zero, math.inf)[1]

    @pytest.mark.parametrize("measure", [ODDS, CUAE], ids=lambda m: m.value)
    def test_warm_prune_equals_cold_prune(self, measure):
        rng = np.random.default_rng(31)
        compared = warm_from_fewer = 0
        for i in range(60):
            scored = random_small_scored(rng, n_groups=2 + i % 4, max_distinct=10)
            members = members_or_none(scored, measure)
            if members is None:
                continue
            for _ in range(4):
                small, large = np.sort(rng.choice([0.0, *rng.uniform(0.0, 1.0, 3)], 2))
                ends = [[policy_module._ends(v, eps) for v in members.values] for eps in (small, large)]
                cold = policy_module._prune(members, ends[0])
                start = policy_module._prune(members, ends[1])
                warm = None if start is None else policy_module._prune(start, ends[0])
                assert (cold is None) == (warm is None)
                if cold is not None:
                    compared += 1
                    warm_from_fewer += len(start.idx) < len(members.idx)
                    for a, b in zip([*policy_module._windows(cold, 0, ends[0][0]), cold.idx, cold.group],
                                    [*policy_module._windows(warm, 0, ends[0][0]), warm.idx, warm.group]):
                        np.testing.assert_array_equal(a, b)
        assert compared >= 50
        assert warm_from_fewer >= 20

    @pytest.mark.parametrize("measure", [DP, OAE, ODDS, CUAE], ids=lambda m: m.value)
    def test_frontier_builds_each_layout_once_per_member_set(self, gap_scored, monkeypatch, measure):
        # on the small set, OAE and CUAE frontiers skip points, so the
        # minimum disparity is searched too
        small = measure in (OAE, CUAE)
        scored = random_small_scored(np.random.default_rng(24), max_distinct=6) if small else gap_scored
        want = oracle.equality_frontier(scored, measure, 50)
        built = {}
        for name in ("layouts", "run_keys", "sparse"):
            def counted(members, func=getattr(policy_module._Members, name).func, name=name):
                built.setdefault(name, []).append(members)
                return func(members)
            prop = functools.cached_property(counted)
            prop.__set_name__(policy_module._Members, name)
            monkeypatch.setattr(policy_module._Members, name, prop)
        got = equality_frontier(scored, measure, 50)
        assert got == want
        assert len(got.skipped) >= small
        for sets in built.values():
            assert len({id(m) for m in sets}) == len(sets)
        if len(tracked_statistics(measure)) == 1:
            # one member set; the minimum disparity reads its layouts
            assert len(built["layouts"]) == 1


class TestMemberSort:
    """_members orders and ranks the members by stable sorts of the
    statistics and of the integer (group, ranks) key; every field equals
    the member set a lexsort, np.unique and np.searchsorted build.  The
    sparse table keeps the rows the largest group's windows need."""

    MEASURES = [DP, EO, PP, ODDS, CUAE]

    @staticmethod
    def reference(problem, stat_names):
        """The member set built by lexsort, np.unique and searchsorted."""
        parts = [(np.full(t.m, g), np.arange(t.m), problem.correct(g),
                  *(problem.stat(g, name) for name in stat_names))
                 for g, t in enumerate(problem.tables)]
        group, idx, correct, *stats = map(np.concatenate, zip(*parts))
        keep = np.flatnonzero(~np.isnan(stats).any(axis=0))
        keep = keep[np.lexsort((*(v[keep] for v in stats[::-1]), group[keep]))]
        group, idx, stats, correct = group[keep], idx[keep], np.stack(stats)[:, keep], correct[keep]
        empty = np.flatnonzero(np.bincount(group, minlength=len(parts)) == 0)
        if len(empty):
            raise InfeasibleConstraintError(
                "tracked statistic is undefined for every candidate policy",
                blocking_group=problem.scored.group_names[empty[0]])
        values = [np.unique(v) for v in stats]
        rank = np.stack([np.searchsorted(u, v) for u, v in zip(values, stats)])
        return policy_module._Members(len(parts), group, idx, stats, rank, values, correct)

    @staticmethod
    def random_sets(seed, count):
        """count sets of 2 to 128 groups of 1 to 300 rows, scores rounded
        to 1 to 3 decimals.  In every other set some groups may lack
        positives or negatives; in the rest every group has both."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            G = int(rng.integers(2, 129))
            both = i % 2 == 0
            sizes = rng.integers(2 if both else 1, rng.integers(3, 301), G, endpoint=True)
            scores = np.round(rng.random(sizes.sum()), int(rng.integers(1, 4)))
            rates = rng.random(G)
            labels = (rng.random(sizes.sum()) < np.repeat(rates, sizes)).astype(np.int64)
            starts = np.cumsum(sizes) - sizes
            if both:
                labels[starts], labels[starts + 1] = 1, 0
            groups = np.repeat(np.arange(G), sizes)
            yield scored_from_arrays(scores, labels, groups, tuple(f"g{g}" for g in range(G)))

    def test_members_equal_the_lexsort_reference(self):
        built = raised = 0
        for scored in self.random_sets(61, 24):
            problem = policy_module._Problem(scored)
            for measure in self.MEASURES:
                names = tracked_statistics(measure)
                try:
                    want = self.reference(problem, names)
                except InfeasibleConstraintError as exc:
                    with pytest.raises(InfeasibleConstraintError) as info:
                        policy_module._members(problem, names)
                    assert str(info.value) == str(exc)
                    assert info.value.blocking_group == exc.blocking_group
                    raised += 1
                    continue
                got = policy_module._members(problem, names)
                built += 1
                assert got.n_groups == want.n_groups
                for field in ("group", "idx", "stats", "rank", "correct"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and a.shape == b.shape, field
                    assert (a == b).all(), field
                assert len(got.values) == len(want.values)
                for a, b in zip(got.values, want.values):
                    assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()
        assert built >= 60 and raised >= 20

    def test_totals_equal_a_direct_max_over_every_window(self):
        windows = largest = 0
        for scored in self.random_sets(67, 16):
            members = members_or_none(scored, DP)
            sizes = np.bincount(members.group)
            largest = max(largest, sizes.max())
            assert len(members.sparse) == int(sizes.max()).bit_length()
            # every window [l, r) inside a group's block, the empty ones too
            for start, n in zip(np.cumsum(sizes) - sizes, sizes):
                correct = members.correct[start:start + n]
                l, r = np.triu_indices(n + 1)
                # running[l, r - 1] = max(correct[l:r])
                running = np.maximum.accumulate(
                    np.where(np.triu(np.ones((n, n), dtype=bool)), correct, -1), axis=1)
                want = np.where(r > l, running[np.minimum(l, n - 1), np.maximum(r - 1, 0)], -1)
                best, _ = policy_module._totals(members, start + l[None, :], start + r[None, :])
                np.testing.assert_array_equal(best[0], want)
                windows += len(l)
        assert windows >= 1_000_000 and largest >= 128


class TestScanWithoutPrune:
    """The two-statistic window search scans the whole member set.  _prune
    only drops members no feasible combination uses, so the scan over its
    survivors gives the same answer, and only _min_disparity's bisection
    runs it."""

    @staticmethod
    def rounded_scored(seed):
        """2 to 4 groups of 20 to 120 rows, scores rounded to 2 decimals."""
        rng = np.random.default_rng(seed)
        G = 2 + seed % 3
        sizes = rng.integers(20, 120, G)
        scores = np.round(rng.random(sizes.sum()), 2)
        labels = (rng.random(sizes.sum()) < scores).astype(np.int64)
        return scored_from_arrays(scores, labels, np.repeat(np.arange(G), sizes),
                                  tuple(f"g{g}" for g in range(G)))

    @pytest.mark.parametrize("measure", [ODDS, CUAE], ids=lambda m: m.value)
    def test_scan_of_all_members_equals_scan_of_survivors(self, measure):
        rng = np.random.default_rng(57)
        compared = dropped = infeasible = 0
        for i in range(60):
            G = 2 + i % 4
            if i % 3:
                scored = random_small_scored(rng, n_groups=G, max_distinct=int(rng.integers(3, 16)))
            else:
                scored = self.rounded_scored(int(rng.integers(1000)))
            members = members_or_none(scored, measure)
            if members is None:
                continue
            least = policy_module._min_disparity(members)
            below = [float(np.nextafter(least, -np.inf))] if least > 0 else []
            for eps in (0.0, least, float(np.nextafter(least, np.inf)), *below,
                        float(rng.uniform(0.0, 0.5))):
                ends = [policy_module._ends(v, eps) for v in members.values]
                survivors = policy_module._prune(members, ends)
                got = policy_module._box_scan(members, ends)
                compared += 1
                infeasible += eps < least
                assert (got[0] >= 0) == (eps >= least)
                if survivors is None:
                    assert got == (-1, math.inf, None)
                    continue
                dropped += len(survivors.idx) < len(members.idx)
                assert got == policy_module._box_scan(survivors, ends)
        assert compared >= 200
        assert dropped >= 60
        # selecting every row gives each group tpr 1 and tnr 0, so eodds
        # is feasible at every eps >= 0
        assert infeasible >= (20 if measure is CUAE else 0)

    @pytest.mark.parametrize("seed, measure, skips", [
        (0, ODDS, False), (0, CUAE, False), (1, CUAE, True)], ids=["eodds", "cuae", "cuae-skips"])
    def test_frontier_prunes_only_for_the_minimum_disparity(self, monkeypatch, seed, measure, skips):
        scored = self.rounded_scored(seed)
        want = oracle.equality_frontier(scored, measure, 50)
        calls, inside = [], [0]
        prune, least = policy_module._prune, policy_module._min_disparity

        def counted_prune(members, ends):
            calls.append(inside[0])
            return prune(members, ends)

        def counted_least(members):
            inside[0] += 1
            try:
                return least(members)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(policy_module, "_prune", counted_prune)
        monkeypatch.setattr(policy_module, "_min_disparity", counted_least)
        got = equality_frontier(scored, measure, 50)
        assert got == want
        assert bool(got.skipped) == skips
        if skips:
            # the bisection's steps, and no other
            assert calls and all(calls)
        else:
            assert calls == []


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
        # tied combos, which the tie-break settles without listing.  Every group
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


class TestSeparableTieBreak:
    """Every finalist of a group holds the group's best correct count, so
    the separable tie-break is read off the groups' sorted finalist values
    in closed form, never through the window search."""

    @staticmethod
    def constraints(rng):
        for stat in policy_module.MIN_RATE_STATISTICS:
            yield MinimumRate(stat, float(rng.choice([0.0, 0.25, 0.5, 0.75])))
        yield MaximumRate(float(rng.choice([0.25, 0.5, 0.75, 1.0])))

    def test_equals_brute_force(self, monkeypatch):
        tied = []
        inner = policy_module._tie_break

        def counted(problem, finalist_sets, stat):
            tied.append(sum(len(s) > 1 for s in finalist_sets) >= 2)
            return inner(problem, finalist_sets, stat)

        monkeypatch.setattr(policy_module, "_tie_break", counted)
        rng = np.random.default_rng(41)
        for i in range(60):
            n_groups = 2 + i % 4
            # groups of 2 to 10 rows scored on a grid of a few values, so
            # that finalists tie; at most 4 ** 5 combinations
            grid = np.linspace(0.1, 0.9, {2: 7, 3: 4, 4: 3, 5: 3}[n_groups])
            groups = np.repeat(np.arange(n_groups), rng.integers(2, 11, n_groups))
            scored = scored_from_arrays(rng.choice(grid, len(groups)), rng.integers(0, 2, len(groups)),
                                        groups, tuple(f"g{g}" for g in range(n_groups)))
            for constraint in self.constraints(rng):
                want = oracle.brute_force_enforce(scored, constraint)
                if want is None:
                    with pytest.raises(InfeasibleConstraintError):
                        enforce(scored, constraint)
                    continue
                got = enforce(scored, constraint)
                assert (got.policy.thresholds, got.accuracy) == (want[0], want[2]), constraint
        # multi-finalist tie-breaks with at least two tied groups happened
        assert sum(tied) >= 10

    def test_equals_the_window_search(self):
        rng = np.random.default_rng(43)
        for i in range(400):
            G = int(rng.integers(2, 9))
            # each group's candidate values drawn from a few shared ones
            grid = np.round(rng.random(int(rng.integers(1, 12))), int(rng.integers(1, 3)))
            tables = [rng.choice(grid, int(rng.integers(1, 15))) for _ in range(G)]
            sets = [np.sort(rng.choice(len(v), int(rng.integers(1, len(v) + 1)), replace=False))
                    for v in tables]
            problem = types.SimpleNamespace(stat=lambda g, _: tables[g])
            # the finalists as members by (group, value), each group holding
            # one correct count
            group = np.concatenate([np.full(len(s), g) for g, s in enumerate(sets)])
            idx = np.concatenate(sets)
            value = np.concatenate([v[s] for v, s in zip(tables, sets)])
            keep = np.lexsort((value, group))
            values = policy_module._distinct(value)
            members = policy_module._Members(
                G, group[keep], idx[keep], value[None, keep],
                np.searchsorted(values, value[keep])[None], [values],
                rng.integers(0, 50, G)[group[keep]])
            assert policy_module._tie_break(problem, sets, "s") == \
                policy_module._window_search(members, math.inf)[2]


class TestEqualityTiePlateau:
    @staticmethod
    def plateau_enforce(sizes, measure):
        """Equality(measure, 0.5) on groups of these sizes whose labels
        alternate along the scores, with its tracemalloc peak."""
        scores = np.concatenate([np.linspace(0.02, 0.98, n) for n in sizes])
        labels = np.concatenate([np.arange(n) % 2 for n in sizes])
        groups = np.concatenate([np.full(n, g) for g, n in enumerate(sizes)])
        scored = scored_from_arrays(scores, labels, groups,
                                    tuple(f"g{g}" for g in range(len(sizes))))
        tracemalloc.start()
        try:
            result = enforce(scored, Equality(measure, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return scored, result, peak

    @pytest.mark.parametrize("measure", [DP, ODDS])
    def test_plateau_is_settled_without_listing_ties(self, measure):
        # Alternating labels tie every odd candidate index on correctness,
        # about 1.6M accuracy-tied combinations at epsilon 0.5; the pick
        # has every group select its top half.
        sizes = [10, 14, 18, 22, 26, 30]
        scored, result, peak = self.plateau_enforce(sizes, measure)
        assert peak < 5 * 2**20
        assert result.policy.thresholds == tuple(
            float(candidate_thresholds(scored, g)[n // 2])
            for g, n in enumerate(sizes))
        assert result.accuracy == enforce(scored, Unconstrained()).accuracy
        assert set(result.metrics.values("selection_rate")) == {0.5}

    def test_two_statistic_plateau_stays_small(self):
        # Every first-statistic anchor's bound reaches the best total, so
        # every anchor is searched; the chunks' member cap keeps the
        # memory of batching them bounded.
        _, result, peak = self.plateau_enforce([50, 70, 90, 110, 130, 150], ODDS)
        assert peak < 8 * 2**20
        assert result.policy.thresholds == (
            0.3040816326530612, 0.3052173913043478, 0.3058426966292135,
            0.3062385321100917, 0.3065116279069767, 0.3067114093959732)


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


class TestEqualityUndefinedStatistic:
    """A group with no candidate at which every tracked statistic is
    defined makes Equality infeasible, and the error names it."""

    @pytest.mark.parametrize("measure, rows", [
        # group b has no positives, so tpr is undefined at every threshold
        (EO, [(0.2, 0, "a"), (0.7, 1, "a"), (0.3, 0, "b"), (0.6, 0, "b")]),
        # group b has one distinct score: accepting all leaves npv
        # undefined, rejecting all precision
        (CUAE, [(0.2, 0, "a"), (0.7, 1, "a"), (0.4, 0, "b"), (0.4, 1, "b")]),
        # groups b and c both lack positives; b comes first
        (EO, [(0.2, 0, "a"), (0.7, 1, "a"), (0.3, 0, "b"), (0.5, 0, "c")]),
    ], ids=["eo-no-positives", "cuae-one-score", "first-of-two"])
    def test_blocking_group_is_named(self, measure, rows):
        with pytest.raises(InfeasibleConstraintError) as info:
            enforce(scored_of(rows), Equality(measure, 0.5))
        assert str(info.value) == "tracked statistic is undefined for every candidate policy"
        assert info.value.blocking_group == "b"


class TestMaximumRateSemantics:
    def test_kappa_zero_rejects_everything(self, gap_scored):
        result = enforce(gap_scored, MaximumRate(0.0))
        assert result.policy.thresholds == (REJECT_ALL, REJECT_ALL)
        assert result.accuracy == pytest.approx(1.0 - gap_scored.labels.mean())

    def test_kappa_one_is_vacuous(self, gap_scored):
        base = enforce(gap_scored, Unconstrained())
        result = enforce(gap_scored, MaximumRate(1.0))
        assert result.accuracy == base.accuracy


def count_tallies(monkeypatch):
    """Replace metrics._tally with a wrapper recording how many policies
    each call tallies."""
    calls = []
    inner = metrics_module._tally

    def counted(scored, thresholds):
        calls.append(len(thresholds))
        return inner(scored, thresholds)

    monkeypatch.setattr(metrics_module, "_tally", counted)
    return calls


class TestOneTally:
    """A sweep or a CLI enforce passes over the rows once for all the
    policies it returns, a sweep's unconstrained point included."""

    @pytest.mark.parametrize("sweep", [
        lambda s: equality_frontier(s, DP, resolution=20),
        lambda s: equality_frontier(s, FairnessMeasure.EQUALIZED_ODDS, resolution=20),
        lambda s: mrc_frontier(s, "selection_rate", resolution=20),
        lambda s: mrc_frontier(s, "tpr", resolution=20),
    ], ids=["dp", "eodds", "min-rate-selection", "min-rate-tpr"])
    def test_frontier_tallies_once(self, gap_scored, monkeypatch, sweep):
        calls = count_tallies(monkeypatch)
        result = sweep(gap_scored)
        assert calls == [21 - len(result.skipped)]

    def test_cli_enforce_tallies_once(self, gap_scored, tmp_path, monkeypatch):
        # the constraint's policy and its Unconstrained baseline together
        path = tmp_path / "scores.csv"
        write_scores_csv(gap_scored, path)
        calls = count_tallies(monkeypatch)
        assert main(["enforce", "--scores", str(path), "--constraint", "dp",
                     "--epsilon", "0.02", "--out", str(tmp_path / "out")]) == 0
        assert calls == [2]

    def test_cli_audit_tallies_once(self, gap_scored, tmp_path, monkeypatch):
        # the audited policy and its baseline together, whether the
        # baseline is the Unconstrained fit or a policy file
        path = tmp_path / "scores.csv"
        write_scores_csv(gap_scored, path)
        files = {}
        for name, constraint in (("audited", Equality(DP, 0.02)), ("baseline", MinimumRate("tpr", 0.7))):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(policy_to_json_dict(enforce(gap_scored, constraint).policy)))
        calls = count_tallies(monkeypatch)
        for extra in ([], ["--baseline-policy", str(files["baseline"])]):
            calls.clear()
            assert main(["audit", "--scores", str(path), "--policy", str(files["audited"]),
                         "--out", str(tmp_path / f"out{len(extra)}"), *extra]) == 0
            assert calls == [2]


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

    def test_partial_tallies_the_rows_once(self, gap_scored, monkeypatch):
        # the equality targets come from the search's picks; only the
        # returned policy is tallied
        calls = count_tallies(monkeypatch)
        part = partial_level_up(gap_scored, DP, epsilon=0.01)
        assert "already level" not in part.policy.provenance.note
        assert calls == [1]

    def test_partial_on_already_level_groups_is_a_no_op(self):
        rows = [(0.2, 0, "a"), (0.7, 1, "a"), (0.2, 0, "b"), (0.7, 1, "b")]
        s = scored_of(rows)
        base = enforce(s, Unconstrained())
        part = partial_level_up(s, DP)
        assert part.policy.thresholds == base.policy.thresholds
        assert "already level" in part.policy.provenance.note

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan")])
    def test_partial_rejects_a_bad_epsilon_on_level_groups(self, epsilon):
        s = scored_of([(0.2, 0, "a"), (0.7, 1, "a"), (0.2, 0, "b"), (0.7, 1, "b")])
        with pytest.raises(DataError, match="epsilon must be"):
            partial_level_up(s, DP, epsilon)

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

    @pytest.mark.parametrize("stat, rows", [
        # group b has no positive row, so tpr is undefined at every candidate
        ("tpr", [(0.8, 1, "a"), (0.3, 0, "a"), (0.6, 0, "b"), (0.4, 0, "b")]),
        # b's negatives outscore its positive, so its unconstrained pick
        # rejects every row, where precision is 0/0
        ("precision", [(0.8, 1, "a"), (0.3, 0, "a"),
                       (0.9, 0, "b"), (0.8, 0, "b"), (0.2, 1, "b")]),
    ], ids=["tpr-no-positives", "precision-reject-all"])
    def test_full_names_the_group_undefined_at_its_unconstrained_pick(self, stat, rows):
        s = scored_of(rows)
        if stat == "precision":
            assert enforce(s, Unconstrained()).policy.thresholds[1] == REJECT_ALL
        with pytest.raises(DataError, match=f"^{stat} is undefined for group 'b' "
                           "under the unconstrained policy$"):
            full_level_up(s, stat)

    def test_level_up_rejects_two_statistic_measures(self, gap_scored):
        with pytest.raises(DataError):
            partial_level_up(gap_scored, ODDS)

    def test_level_up_rejects_direction_free_statistics(self, gap_scored):
        with pytest.raises(DataError):
            full_level_up(gap_scored, "fpr")
        with pytest.raises(DataError):
            partial_level_up(gap_scored, FairnessMeasure.TREATMENT_EQUALITY)


class TestLevelSingleGroup:
    def test_matches_the_outward_scan(self):
        # coarse values give ties at equal distance; NaN stretches and
        # unreachable targets exercise the fallback; a level-up walk has
        # at least one defined value, its start's
        rng = np.random.default_rng(11)
        for _ in range(3000):
            m = int(rng.integers(1, 14))
            vals = rng.integers(0, 5, m) / 4.0
            if rng.random() < 0.6:
                a = int(rng.integers(0, m))
                vals[a:a + int(rng.integers(1, m + 1))] = np.nan
            start = int(rng.integers(0, m))
            if np.isnan(vals).all():
                continue
            target = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, 1.25]))
            target += float(rng.choice([0.0, 1e-13, -1e-13, 1e-11]))
            assert policy_module._level_single_group(vals, start, target) == \
                oracle.level_single_group(vals, start, target)

    def test_a_value_just_below_the_target_does_not_reach_it(self):
        vals = np.array([0.1, 0.5 - 5e-13, 0.6])
        assert policy_module._level_single_group(vals, 0, 0.5) == (2, False)


class TestEmptyGroup:
    """A named group without rows is a DataError that names it."""

    @pytest.mark.parametrize("run", [
        lambda s: enforce(s, Unconstrained()),
        lambda s: enforce(s, MinimumRate("selection_rate", 0.3)),
        lambda s: enforce(s, MaximumRate(0.5)),
        lambda s: enforce(s, Equality(DP, 0.1)),
        lambda s: partial_level_up(s, DP),
        lambda s: full_level_up(s, "tpr"),
        lambda s: equality_frontier(s, DP, 5),
        lambda s: mrc_frontier(s, "selection_rate", 5),
    ], ids=["unconstrained", "min-rate", "max-rate", "equality", "partial",
            "full", "equality-frontier", "mrc-frontier"])
    def test_named_group_without_rows(self, run):
        s = scored_from_arrays([0.2, 0.7, 0.4, 0.9], [0, 1, 0, 1], [0, 0, 1, 1],
                               ["a", "b", "c"])
        with pytest.raises(DataError, match="group 'c' has no rows"):
            run(s)


class TestTableReuse:
    """A sweep, and a partial level-up with its inner Equality, build the
    candidate tables once, and calls on one live dataset share them."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = policy_module._build_tables

        def counted(scored):
            calls.append(scored)
            return build(scored)

        monkeypatch.setattr(policy_module, "_build_tables", counted)
        return calls

    def test_equality_frontier(self, builds, gap_scored):
        equality_frontier(gap_scored, DP, resolution=6)
        assert len(builds) == 1

    def test_mrc_frontier(self, builds, gap_scored):
        mrc_frontier(gap_scored, "tpr", resolution=6)
        assert len(builds) == 1

    def test_partial_level_up(self, builds, gap_scored):
        part = partial_level_up(gap_scored, DP, epsilon=0.01)
        assert "already level" not in part.policy.provenance.note
        assert len(builds) == 1

    @staticmethod
    def fresh(seed, n_groups=3):
        return random_small_scored(np.random.default_rng(seed), n_groups)

    def test_calls_on_one_dataset_build_each_table_once(self, monkeypatch):
        calls = []
        group_table = policy_module._group_table

        def counted(scored, gid):
            calls.append(gid)
            return group_table(scored, gid)

        monkeypatch.setattr(policy_module, "_group_table", counted)
        scored = self.fresh(0)
        enforce(scored, Equality(DP, 0.1))
        enforce(scored, MinimumRate("tpr", 0.6))
        full_level_up(scored, "selection_rate")
        mrc_frontier(scored, "selection_rate", 5)
        assert sorted(calls) == list(range(scored.n_groups))

    def test_another_dataset_frees_the_first_ones_tables(self, monkeypatch):
        first, second = self.fresh(1), self.fresh(2)
        tp = weakref.ref(policy_module._build_tables(first)[0].tp)
        enforce(first, Unconstrained())
        assert tp() is not None
        freed = []
        group_table = policy_module._group_table

        def watched(scored, gid):
            freed.append(tp() is None)
            return group_table(scored, gid)

        monkeypatch.setattr(policy_module, "_group_table", watched)
        enforce(second, Unconstrained())
        # freed before the second dataset's first table is built
        assert freed == [True] * second.n_groups
        gc.collect()
        assert tp() is None
        assert policy_module._last_tables[0]() is second
        assert first.n_rows  # the first dataset is still alive

    def test_a_dead_dataset_empties_the_slot(self):
        scored = self.fresh(3)
        enforce(scored, Unconstrained())
        assert policy_module._last_tables[0]() is scored
        del scored
        gc.collect()
        assert policy_module._last_tables is None

    def test_a_dead_dataset_leaves_a_newer_slot(self):
        first, second = self.fresh(4), self.fresh(5)
        ref = weakref.ref(first, policy_module._forget_tables)
        enforce(second, Unconstrained())
        slot = policy_module._last_tables
        del first
        gc.collect()
        assert ref() is None and slot[0]() is second
        assert policy_module._last_tables is slot

    def test_shared_tables_are_read_only(self):
        scored = self.fresh(6)
        tables = policy_module._build_tables(scored)
        assert isinstance(tables, tuple)
        for table in tables:
            with pytest.raises(AttributeError):
                table.pos = 0
            for arr in (table.thresholds, table.tp, table.fp):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0
        # candidate_thresholds hands out a fresh array the caller may write
        fresh = candidate_thresholds(scored, 0)
        assert fresh.flags.writeable and fresh is not tables[0].thresholds
        assert fresh.tolist() == tables[0].thresholds.tolist()

    def test_warm_results_equal_cold_ones(self, monkeypatch):
        def outcomes(scored, cold):
            found = []
            for run in (
                    lambda: enforce(scored, Unconstrained()),
                    lambda: enforce(scored, Equality(DP, 0.05)),
                    lambda: enforce(scored, Equality(ODDS, 0.1)),
                    lambda: enforce(scored, MinimumRate("tpr", 0.7)),
                    lambda: enforce(scored, MaximumRate(0.3)),
                    lambda: partial_level_up(scored, EO, 0.01),
                    lambda: full_level_up(scored, "selection_rate"),
                    lambda: equality_frontier(scored, DP, 6),
                    lambda: mrc_frontier(scored, "tpr", 6)):
                if cold:
                    monkeypatch.setattr(policy_module, "_last_tables", None)
                try:
                    found.append(run())
                except (DataError, InfeasibleConstraintError) as exc:
                    found.append(str(exc))
            return found

        rng = np.random.default_rng(9)
        for _ in range(12):
            scored = random_small_scored(rng, int(rng.integers(2, 5)), int(rng.integers(3, 15)))
            cold = outcomes(scored, cold=True)
            assert outcomes(scored, cold=False) == cold


class TestProblem:
    """One problem per call or sweep computes each group's correct counts
    and each statistic array the constraint reads once, and no other."""

    @pytest.fixture
    def computed(self, monkeypatch):
        calls = []
        stat_array, correct_array = policy_module._stat_array, policy_module._correct_array

        def counted_stat(table, name):
            calls.append((table, name))
            return stat_array(table, name)

        def counted_correct(table):
            calls.append((table, "correct"))
            return correct_array(table)

        monkeypatch.setattr(policy_module, "_stat_array", counted_stat)
        monkeypatch.setattr(policy_module, "_correct_array", counted_correct)
        return calls

    @staticmethod
    def assert_once_each(calls, names, n_groups):
        arrays = [(id(table), name) for table, name in calls]
        assert len(arrays) == len(set(arrays))
        assert sorted(name for _, name in calls) == sorted(["correct", *names] * n_groups)

    @pytest.mark.parametrize("run, names", [
        (lambda s: mrc_frontier(s, "selection_rate", 20), ["selection_rate"]),
        (lambda s: mrc_frontier(s, "tpr", 20), ["tpr"]),
        (lambda s: equality_frontier(s, DP, 20), ["selection_rate"]),
        (lambda s: equality_frontier(s, ODDS, 20), ["tpr", "fpr"]),
        (lambda s: full_level_up(s, "tpr"), ["tpr"]),
        (lambda s: partial_level_up(s, DP, 0.01), ["selection_rate"]),
        (lambda s: partial_level_up(s, EO, 0.01), ["tpr"]),
    ], ids=["mrc-frontier-rate", "mrc-frontier-tpr", "equality-frontier-dp",
            "equality-frontier-eodds", "full-level-up", "partial-level-up-dp",
            "partial-level-up-eo"])
    def test_each_array_computed_once(self, computed, gap_scored, run, names):
        run(gap_scored)
        self.assert_once_each(computed, names, gap_scored.n_groups)

    @pytest.mark.parametrize("constraint, names", [
        (["dp", "--epsilon", "0.02"], ["selection_rate"]),
        (["eodds", "--epsilon", "0.05"], ["tpr", "fpr"]),
        (["min-rate", "--stat", "tpr", "--tau", "0.6"], ["tpr"]),
        (["max-rate", "--kappa", "0.3"], ["selection_rate"]),
    ], ids=["dp", "eodds", "min-rate", "max-rate"])
    def test_cli_enforce_computes_each_array_once(self, computed, gap_scored, tmp_path,
                                                  constraint, names):
        # the constraint and its Unconstrained baseline share one problem
        path = tmp_path / "scores.csv"
        write_scores_csv(gap_scored, path)
        assert main(["enforce", "--scores", str(path), "--constraint", *constraint,
                     "--out", str(tmp_path / "out")]) == 0
        self.assert_once_each(computed, names, gap_scored.n_groups)

    def test_finish_compares_every_confusion_cell(self, gap_scored):
        problem = policy_module._Problem(gap_scored)
        finish = policy_module._finish
        specs = [policy_module._choose(problem, c) for c in (
            Unconstrained(), Equality(DP, 0.05), MinimumRate("tpr", 0.8), MaximumRate(0.3))]
        alone = [finish(problem, [spec])[0] for spec in specs]
        assert alone[0] == enforce(gap_scored, Unconstrained())
        assert finish(problem, specs) == alone
        # one more true and one more false positive, at one point's pick,
        # leave the correct count; the problem gets an altered copy of the
        # shared, read-only table
        bad = specs[2][0][1]
        table = problem.tables[1]
        tp, fp = table.tp.copy(), table.fp.copy()
        tp[bad] += 1
        fp[bad] += 1
        table = replace(table, tp=tp, fp=fp)
        problem.tables = (problem.tables[0], table, *problem.tables[2:])
        assert problem.correct(1)[bad] == table.tp[bad] + table.neg - table.fp[bad]
        with pytest.raises(RuntimeError, match="group 'b': candidate table counts"):
            finish(problem, [specs[2]])
        with pytest.raises(RuntimeError, match="group 'b': candidate table counts"):
            finish(problem, specs)
        # the policies without the changed cell still finish as they did alone
        good = [k for k, spec in enumerate(specs) if spec[0][1] != bad]
        assert len(good) >= 2
        assert finish(problem, [specs[k] for k in good]) == [alone[k] for k in good]


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
