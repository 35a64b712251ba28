import json
import tracemalloc

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
            assert (table.n, table.pos, table.neg) == (len(s), pos, len(s) - pos)
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
    """The equality search reads its answers off one window search: the
    minimum disparity is that search's d when every combination ties,
    and a pick's d is the disparity the pick reaches.  Both equal the
    brute-force figures exactly."""

    @staticmethod
    def cases(measure):
        rng = np.random.default_rng(900)
        for i in range(16):
            n_groups = 2 + i % 2
            scored = random_small_scored(rng, n_groups=n_groups,
                                         max_distinct=8 if n_groups == 2 else 5)
            problem = policy_module._Problem(scored)
            members = policy_module._members(problem, tracked_statistics(measure))
            if any(len(mb.idx) == 0 for mb in members):
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

    def test_partial_tallies_the_rows_once(self, gap_scored, monkeypatch):
        # the equality targets come from the search's picks; only the
        # returned policy is tallied
        calls = []
        confusion = metrics_module.confusion

        def counted(*args):
            calls.append(args)
            return confusion(*args)

        monkeypatch.setattr(metrics_module, "confusion", counted)
        part = partial_level_up(gap_scored, DP, epsilon=0.01)
        assert "already level" not in part.policy.provenance.note
        assert len(calls) == 1

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


class TestLevelSingleGroup:
    def test_matches_the_outward_scan(self):
        # coarse values give ties at equal distance; NaN stretches and
        # unreachable targets exercise the fallback
        rng = np.random.default_rng(11)
        for _ in range(3000):
            m = int(rng.integers(1, 14))
            vals = rng.integers(0, 5, m) / 4.0
            if rng.random() < 0.6:
                a = int(rng.integers(0, m))
                vals[a:a + int(rng.integers(1, m + 1))] = np.nan
            start = int(rng.integers(0, m))
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
    candidate tables once."""

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
        picks = problem.uncon
        result = policy_module._finish(problem, picks, "unconstrained", {}, "exact-grid")
        assert result == enforce(gap_scored, Unconstrained())
        # one more true and one more false positive leave the correct count
        table = problem.tables[1]
        table.tp[picks[1]] += 1
        table.fp[picks[1]] += 1
        assert problem.correct(1)[picks[1]] == table.tp[picks[1]] + table.neg - table.fp[picks[1]]
        with pytest.raises(RuntimeError, match="group 'b': candidate table counts"):
            policy_module._finish(problem, picks, "unconstrained", {}, "exact-grid")


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
