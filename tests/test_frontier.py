from dataclasses import replace

import numpy as np
import pytest

import oracle
from conftest import random_small_scored
from levelup import (
    DataError,
    Equality,
    FairnessMeasure,
    FrontierPoint,
    InfeasibleConstraintError,
    MaximumRate,
    MinimumRate,
    Unconstrained,
    enforce,
    equality_frontier,
    frontier_from_jsonl,
    frontier_to_jsonl,
    frontier_to_tsv,
    harm_profile,
    mrc_frontier,
    pareto_prune,
    scored_from_arrays,
)
from levelup import frontier as frontier_module
from levelup import policy as policy_module

DP = FairnessMeasure.DEMOGRAPHIC_PARITY
CUAE = FairnessMeasure.CONDITIONAL_USE_ACCURACY_EQUALITY
ENFORCEABLE = [m for m in FairnessMeasure if harm_profile(m).enforceable]
MIN_RATE_STATISTICS = policy_module.MIN_RATE_STATISTICS


def cloud(rng, n):
    # discretized values so ties and duplicates actually happen
    acc = np.round(rng.random(n) * 20) / 20
    obj = np.round(rng.random(n) * 10) / 10
    return [FrontierPoint(policy=None, accuracy=float(a),
                          objective_value=float(o), constraint_value=None,
                          per_group=None)
            for a, o in zip(acc, obj)]


class TestParetoPrune:
    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pts = cloud(rng, int(rng.integers(1, 60)))
            for direction in ("min", "max"):
                got = pareto_prune(pts, direction)
                keep = oracle.brute_force_pareto(
                    [p.accuracy for p in pts],
                    [p.objective_value for p in pts], direction)
                want = sorted((pts[k].objective_value, pts[k].accuracy)
                              for k in keep)
                have = sorted((p.objective_value, p.accuracy) for p in got)
                assert have == want

    def test_equal_points_survive_together(self):
        a = FrontierPoint(policy=None, accuracy=0.8, objective_value=0.1,
                          constraint_value=None, per_group=None)
        b = FrontierPoint(policy=None, accuracy=0.8, objective_value=0.1,
                          constraint_value=None, per_group=None)
        kept = pareto_prune([a, b], "min")
        assert len(kept) == 2

    def test_sorted_by_objective(self):
        rng = np.random.default_rng(9)
        pts = cloud(rng, 40)
        got = pareto_prune(pts, "min")
        objs = [p.objective_value for p in got]
        assert objs == sorted(objs)

    def test_direction_validated(self):
        with pytest.raises(DataError):
            pareto_prune([], "down")

    @pytest.mark.parametrize("field", ["objective_value", "accuracy"])
    @pytest.mark.parametrize("direction", ["min", "max"])
    def test_a_nan_is_an_error_naming_the_point(self, field, direction):
        # a NaN objective once left its tie group empty, and a NaN
        # accuracy was kept or dropped by the order of the points
        pts = cloud(np.random.default_rng(10), 6)
        pts[3] = replace(pts[3], **{field: float("nan")})
        what = field.replace("_", " ")
        for points, k in ((pts, 3), (pts[::-1], 2)):
            with pytest.raises(DataError, match=f"^point {k} has a NaN {what}$"):
                pareto_prune(points, direction)

    def test_empty_input(self):
        assert pareto_prune([], "min") == []


@pytest.fixture(scope="module")
def eq_frontier(gap_scored):
    return equality_frontier(gap_scored, DP, resolution=20)


@pytest.fixture(scope="module")
def rate_frontier(gap_scored):
    return mrc_frontier(gap_scored, "selection_rate", resolution=20)


class TestEqualityFrontier:
    @pytest.fixture
    def frontier(self, eq_frontier):
        return eq_frontier

    def test_objective_bookkeeping(self, frontier):
        assert frontier.objective == "disparity:demographic_parity"
        assert frontier.objective_direction == "min"
        assert frontier.skipped == ()

    def test_contains_a_perfectly_fair_point(self, frontier):
        # equal group sizes make exact parity achievable
        assert frontier.perfectly_fair_point_exists
        assert min(p.objective_value for p in frontier.points) == 0.0

    def test_accuracy_trades_off_monotonically(self, frontier):
        pts = frontier.points
        for a, b in zip(pts, pts[1:]):
            assert a.objective_value < b.objective_value or (
                a.objective_value == b.objective_value
                and a.accuracy == b.accuracy)
            assert a.accuracy <= b.accuracy

    def test_unconstrained_endpoint_has_top_accuracy(self, frontier,
                                                     gap_scored):
        from levelup import Unconstrained, enforce
        base = enforce(gap_scored, Unconstrained())
        assert max(p.accuracy for p in frontier.points) == base.accuracy
        endpoint = frontier.points[-1]
        assert endpoint.constraint_value is None

    def test_per_group_metrics_ride_along(self, frontier, gap_scored):
        for p in frontier.points:
            assert p.per_group.group_names == gap_scored.group_names
            vals = p.per_group.values("selection_rate")
            assert max(vals) - min(vals) == pytest.approx(p.objective_value)

    def test_resolution_validated(self, gap_scored):
        with pytest.raises(DataError):
            equality_frontier(gap_scored, DP, resolution=1)

    @pytest.mark.parametrize("sweep", [
        lambda s: equality_frontier(s, DP, resolution=2.5),
        lambda s: mrc_frontier(s, "selection_rate", resolution=2.5),
    ], ids=["equality", "min-rate"])
    def test_fractional_resolution_is_data_error(self, gap_scored, sweep):
        with pytest.raises(DataError, match="resolution must be an integer"):
            sweep(gap_scored)

    def test_undefined_unconstrained_disparity_raises(self):
        # group b has no negatives, so the true negative rate has no value
        s = scored_from_arrays(np.array([0.2, 0.7, 0.6, 0.8]),
                               np.array([0, 1, 1, 1]),
                               np.array([0, 0, 1, 1]), ("a", "b"))
        with pytest.raises(DataError):
            equality_frontier(
                s, FairnessMeasure.FALSE_POSITIVE_ERROR_RATE_BALANCE,
                resolution=5)

    def test_undefined_start_names_the_group(self):
        # group b has no positives, so its true positive rate has no value
        s = scored_from_arrays(np.array([0.2, 0.7, 0.6, 0.8]),
                               np.array([0, 1, 0, 0]),
                               np.array([0, 0, 1, 1]), ("a", "b"))
        message = "^tpr is undefined for group 'b' under the unconstrained policy; no frontier exists$"
        for sweep in (lambda: mrc_frontier(s, "tpr", 5),
                      lambda: equality_frontier(s, FairnessMeasure.EQUAL_OPPORTUNITY, 5),
                      lambda: oracle.equality_frontier(s, FairnessMeasure.EQUAL_OPPORTUNITY, 5)):
            with pytest.raises(DataError, match=message):
                sweep()


def medium_scored(rng):
    """Two groups of 20-150 rows over 5-40 distinct scores, labels drawn
    with probability equal to the score."""
    scores, labels, groups = [], [], []
    for g in range(2):
        n = int(rng.integers(20, 150))
        grid = np.round(np.sort(rng.random(int(rng.integers(5, 40)))), 3)
        s = rng.choice(grid, n)
        scores.append(s)
        labels.append((rng.random(n) < s).astype(np.int64))
        groups.append(np.full(n, g))
    return scored_from_arrays(np.concatenate(scores), np.concatenate(labels),
                              np.concatenate(groups), ("a", "b"))


def count_calls(monkeypatch, name):
    """Replace policy.<name>, and frontier's import of it, with a wrapper
    that counts its calls."""
    calls = []
    inner = getattr(policy_module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    for module in (policy_module, frontier_module):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


class TestEqualitySweep:
    """The sweep runs from the loose end and carries state between points;
    its result must equal a fresh enforce at every point."""

    def test_matches_point_by_point_oracle(self):
        rng = np.random.default_rng(2024)
        compared = with_tail = 0
        for i in range(140):
            scored = random_small_scored(rng, n_groups=int(rng.integers(2, 5)),
                                         max_distinct=int(rng.integers(3, 9)))
            measure = ENFORCEABLE[i % len(ENFORCEABLE)]
            resolution = int(rng.integers(2, 31))
            try:
                want = oracle.equality_frontier(scored, measure, resolution)
            except DataError as exc:
                with pytest.raises(DataError) as info:
                    equality_frontier(scored, measure, resolution)
                assert str(info.value) == str(exc)
                continue
            got = equality_frontier(scored, measure, resolution)
            assert got == want
            assert got.skipped == want.skipped
            assert got.perfectly_fair_point_exists == want.perfectly_fair_point_exists
            compared += 1
            with_tail += len(got.skipped) >= 2
        assert compared >= 80
        assert with_tail >= 10

    @pytest.mark.parametrize("measure", [FairnessMeasure.EQUALIZED_ODDS, CUAE])
    def test_two_statistic_sweep_matches_oracle(self, measure):
        # Tens of distinct scores per group, so the sweep's searches run
        # many chunks of first-statistic anchors and often reuse the last
        # picks.  On these seeds, any bound on an anchor's total carried
        # from a search over fewer members would fall below the true total.
        for seed in (43, 45, 47, 49, 56, 115):
            scored = medium_scored(np.random.default_rng(seed))
            want = oracle.equality_frontier(scored, measure, 30)
            assert equality_frontier(scored, measure, 30) == want

    def test_search_in_any_epsilon_order_equals_fresh_enforce(self):
        # a sweep takes its constraints in any order, repeats included;
        # state carried between its points must never leak into a looser one
        rng = np.random.default_rng(77)
        skips = 0
        for i in range(30):
            scored = random_small_scored(rng, n_groups=int(rng.integers(2, 4)),
                                         max_distinct=8)
            measure = ENFORCEABLE[i % len(ENFORCEABLE)]
            problem = policy_module._Problem(scored)
            eps_list = rng.permutation(rng.choice(np.linspace(0.0, 0.6, 13), size=12)).tolist()
            specs, skipped = policy_module._sweep(problem, [Equality(measure, eps) for eps in eps_list])
            assert sorted([spec[2]["epsilon"] for spec in specs] + [eps for eps, _ in skipped]) == \
                sorted(eps_list)
            for spec in specs:
                want = enforce(scored, Equality(measure, spec[2]["epsilon"]))
                assert policy_module._finish(problem, [spec])[0] == want
            for eps, exc in skipped:
                with pytest.raises(InfeasibleConstraintError) as info:
                    enforce(scored, Equality(measure, eps))
                assert str(exc) == str(info.value)
            skips += len(skipped)
        assert skips

    @pytest.mark.parametrize("measure", [DP, FairnessMeasure.EQUALIZED_ODDS])
    def test_members_built_once(self, gap_scored, monkeypatch, measure):
        calls = count_calls(monkeypatch, "_members")
        equality_frontier(gap_scored, measure, resolution=20)
        assert len(calls) == 1

    def test_min_disparity_runs_at_most_once(self, monkeypatch):
        scored = random_small_scored(np.random.default_rng(24), max_distinct=6)
        want = oracle.equality_frontier(scored, CUAE, 10)
        calls = count_calls(monkeypatch, "_min_disparity")
        got = equality_frontier(scored, CUAE, 10)
        assert len(got.skipped) >= 2
        assert len(calls) == 1
        assert got == want

    def test_carried_points_skip_the_search(self, monkeypatch):
        scored = random_small_scored(np.random.default_rng(3), max_distinct=5)
        want = oracle.equality_frontier(scored, DP, 20)
        calls = count_calls(monkeypatch, "_window_search")
        got = equality_frontier(scored, DP, 20)
        assert got.skipped == ()
        assert len(calls) < 20
        assert got == want

    def test_carried_point_records_its_own_epsilon(self, monkeypatch):
        # every point of the sweep, before pruning, keeps its epsilon
        scored = random_small_scored(np.random.default_rng(3), max_distinct=5)
        seen = []
        inner = frontier_module._finish

        def recorded(problem, specs):
            seen.extend(parameters for _, _, parameters, _, _ in specs)
            return inner(problem, specs)

        monkeypatch.setattr(frontier_module, "_finish", recorded)
        equality_frontier(scored, DP, 20)
        eps = [p["epsilon"] for p in seen if "epsilon" in p]
        assert len(eps) == len(set(eps)) == 20


class TestMrcFrontier:
    @pytest.fixture
    def frontier(self, rate_frontier):
        return rate_frontier

    def test_objective_bookkeeping(self, frontier):
        assert frontier.objective == "min_group:selection_rate"
        assert frontier.objective_direction == "max"
        assert not frontier.perfectly_fair_point_exists

    def test_reaches_full_selection(self, frontier):
        assert max(p.objective_value for p in frontier.points) == 1.0

    def test_accuracy_trades_off_monotonically(self, frontier):
        pts = frontier.points  # sorted by objective descending
        for a, b in zip(pts, pts[1:]):
            assert a.objective_value >= b.objective_value
            assert a.accuracy <= b.accuracy

    def test_objective_is_the_achieved_group_minimum(self, frontier):
        for p in frontier.points:
            vals = p.per_group.values("selection_rate")
            assert min(vals) == pytest.approx(p.objective_value)

    def test_never_below_the_unconstrained_minimum(self, frontier,
                                                   gap_scored):
        base = enforce(gap_scored, Unconstrained())
        lo = min(base.metrics.values("selection_rate"))
        for p in frontier.points:
            assert p.objective_value >= lo - 1e-12

    @staticmethod
    def rounded_sets():
        """Scores on a grid of 6 values, so accuracy-tied finalists are
        common, at 2 to 8 groups of 5 to 40 rows; every third set's last
        group has no positives, so its unconstrained pick rejects all,
        where precision is undefined, and tpr is undefined everywhere.

        First, a set where only the levelling-up floor binds: group a is
        as accurate accepting all as rejecting all, so at tau 0 it stays
        at its unconstrained acceptance only by the floor, while the
        tie-break alone would move it to rejection, matching group b."""
        yield scored_from_arrays(np.array([0.41, 0.41, 0.41, 0.05, 0.05, 0.05]),
                                 np.array([0, 1, 0, 1, 0, 0]),
                                 np.array([0, 0, 0, 0, 1, 1]), ("a", "b"))
        rng = np.random.default_rng(20)
        grid = np.linspace(0.05, 0.95, 6)
        for n_groups in range(2, 9):
            for k in range(3):
                groups = np.repeat(np.arange(n_groups), rng.integers(5, 41, n_groups))
                base = rng.uniform(0.2, 0.8, n_groups)[groups]
                labels = (rng.random(len(groups)) < base).astype(np.int64)
                if k == 2:
                    labels[groups == n_groups - 1] = 0
                scores = grid[(6 * (0.3 * labels + 0.7 * rng.random(len(groups)))).astype(int)]
                yield scored_from_arrays(scores, labels, groups,
                                         tuple(f"g{g}" for g in range(n_groups)))

    @pytest.mark.parametrize("stat", MIN_RATE_STATISTICS)
    def test_sweep_equals_fresh_enforces(self, stat):
        frontiers, skips = 0, 0
        for s in self.rounded_sets():
            uncon = enforce(s, Unconstrained()).metrics.values(stat)
            if None in uncon:
                with pytest.raises(DataError, match="no frontier exists"):
                    mrc_frontier(s, stat, 23)
                continue
            result = mrc_frontier(s, stat, 23)
            frontiers += 1
            fresh, skipped = {}, []
            for tau in np.linspace(min(uncon), 1.0, 23):
                tau = float(tau)
                try:
                    fresh[tau] = enforce(s, MinimumRate(stat, tau))
                except InfeasibleConstraintError as exc:
                    skipped.append(f"tau={tau:.6g}: {exc}")
            assert result.skipped == tuple(skipped)
            skips += len(skipped)
            for p in result.points:
                if p.constraint_value is None:
                    continue
                want = fresh[p.constraint_value]
                assert (p.policy, p.accuracy, p.per_group) == \
                    (want.policy, want.accuracy, want.metrics)
        assert frontiers
        if stat == "precision":
            assert skips

    @pytest.mark.parametrize("stat, cap", [(s, cap) for cap in (False, True) for s in MIN_RATE_STATISTICS],
                             ids=[*MIN_RATE_STATISTICS, *(f"{s}-cap" for s in MIN_RATE_STATISTICS)])
    def test_pass_finalists_equal_a_scan_of_the_rows(self, stat, cap):
        # each group's finalists at every tau, not only the frontier's, and
        # at its unconstrained value, where the floor is tau, against the
        # rows: the candidates whose statistic reaches max(tau, the
        # unconstrained pick's value) that hold the most correct rows.  A
        # cap kappa is the floor tau = -kappa on the negated statistic,
        # with no levelling-up floor.
        sign = -1.0 if cap else 1.0
        tied = 0
        for s in self.rounded_sets():
            problem = policy_module._Problem(s)
            for g in range(s.n_groups):
                rows = s.groups == g
                counts = [oracle.tally(s.scores[rows], s.labels[rows], t)
                          for t in oracle.candidate_grid(s.scores[rows])]
                correct = [tp + tn for tp, _, _, tn in counts]
                vals = [oracle.stat_from_counts(c, stat) for c in counts]
                vals = [None if v is None else sign * v for v in vals]
                floor = None if cap else vals[correct.index(max(correct))]
                taus = np.union1d(sign * np.linspace(0.0, 1.0, 23), [] if floor is None else [floor])
                first, ties = policy_module._separable_pass(
                    problem, g, problem.stat(g, stat),
                    taus if floor is None else np.maximum(taus, floor), sign)
                for t, tau in enumerate(taus):
                    need = tau if floor is None else max(tau, floor)
                    feasible = [i for i, v in enumerate(vals) if v is not None and v >= need]
                    most = max((correct[i] for i in feasible), default=None)
                    want = [i for i in feasible if correct[i] == most]
                    got = ties[t].tolist() if t in ties else [int(first[t])]
                    assert got == (want or [-1]), (g, tau)
                tied += len(ties)
        assert tied

    def test_separable_picks_never_reach_the_window_search(self, monkeypatch):
        ties = count_calls(monkeypatch, "_tie_break")
        members = count_calls(monkeypatch, "_members")
        searches = count_calls(monkeypatch, "_window_search")
        for s in self.rounded_sets():
            for stat in MIN_RATE_STATISTICS:
                try:
                    mrc_frontier(s, stat, 12)
                except DataError:
                    pass
            for kappa in (0.3, 0.6, 1.0):
                try:
                    enforce(s, MaximumRate(kappa))
                except InfeasibleConstraintError:
                    pass
        # multi-finalist tie-breaks happened, and none searched windows
        assert any(sum(len(f) > 1 for f in args[1]) >= 2 for args in ties)
        assert members == searches == []

    @pytest.mark.parametrize("stat, message", [
        ("bogus", "unknown statistic 'bogus'"),
        ("accuracy", "minimum rate statistic must be one of"),
    ])
    def test_bad_statistic_is_data_error(self, gap_scored, stat, message):
        with pytest.raises(DataError, match=message):
            mrc_frontier(gap_scored, stat, 20)

    @pytest.mark.parametrize("stat", MIN_RATE_STATISTICS)
    def test_one_pass_per_group_and_no_per_tau_search(self, gap_scored, stat, monkeypatch):
        calls = []
        monkeypatch.setattr(policy_module, "_separable_pass",
                            lambda *args, _f=policy_module._separable_pass: calls.append(args[1])
                            or _f(*args))
        result = mrc_frontier(gap_scored, stat, 20)
        assert len(result.points) > 1
        assert calls == list(range(gap_scored.n_groups))
        # enforce is the sweep at one tau
        enforce(gap_scored, MinimumRate(stat, 0.0))
        assert calls == 2 * list(range(gap_scored.n_groups))
        # and a cap is the same pass
        enforce(gap_scored, MaximumRate(1.0))
        assert calls == 3 * list(range(gap_scored.n_groups))


class TestOneSweep:
    """Every constrained pick is one _sweep: enforce sweeps its one
    constraint, a frontier all its points, and Unconstrained none."""

    def test_one_sweep_per_enforce_and_per_frontier(self, gap_scored, monkeypatch):
        calls = count_calls(monkeypatch, "_sweep")
        enforce(gap_scored, Unconstrained())
        assert calls == []
        for constraint in (Equality(DP, 0.05), Equality(FairnessMeasure.EQUALIZED_ODDS, 0.05),
                           MinimumRate("tpr", 0.5), MaximumRate(0.5)):
            enforce(gap_scored, constraint)
            assert [args[1] for args in calls] == [[constraint]]
            calls.clear()
        for frontier, target in ((equality_frontier, DP), (mrc_frontier, "tpr")):
            frontier(gap_scored, target, 20)
            assert len(calls) == 1 and len(calls[0][1]) == 20
            calls.clear()


class TestSerialization:
    def test_jsonl_round_trip(self, gap_scored, tmp_path):
        result = equality_frontier(gap_scored, DP, resolution=8)
        path = tmp_path / "frontier.jsonl"
        frontier_to_jsonl(result, path)
        back = frontier_from_jsonl(path)
        assert back.objective == result.objective
        assert back.objective_direction == result.objective_direction
        assert back.perfectly_fair_point_exists == result.perfectly_fair_point_exists
        assert back.skipped == result.skipped
        assert len(back.points) == len(result.points)
        for p, q in zip(back.points, result.points):
            assert p.accuracy == q.accuracy
            assert p.objective_value == q.objective_value
            assert p.constraint_value == q.constraint_value
            assert p.policy.thresholds == q.policy.thresholds
            for g in range(2):
                assert p.per_group.for_group(g) == q.per_group.for_group(g)

    def test_jsonl_preserves_undefined_stats(self, tmp_path):
        # a frontier over data where rejected groups lose precision values
        s = scored_from_arrays(np.array([0.2, 0.7, 0.3, 0.8]),
                               np.array([0, 1, 0, 1]),
                               np.array([0, 0, 1, 1]), ("a", "b"))
        result = mrc_frontier(s, "selection_rate", resolution=4)
        path = tmp_path / "frontier.jsonl"
        frontier_to_jsonl(result, path)
        back = frontier_from_jsonl(path)
        for p, q in zip(back.points, result.points):
            for g in range(2):
                assert p.per_group.for_group(g) == q.per_group.for_group(g)

    def test_tsv_shape(self, gap_scored, tmp_path):
        result = mrc_frontier(gap_scored, "selection_rate", resolution=8)
        path = tmp_path / "frontier.tsv"
        frontier_to_tsv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "objective\taccuracy"
        assert len(lines) == 1 + len(result.points)

    @pytest.mark.parametrize("lines, where, message", [
        (["{not json"], "line 1", "frontier header is not valid JSON"),
        (['[{"objective": "disparity:demographic_parity"}]'], "line 1",
         "frontier header is not a JSON object"),
        (['{"objective": "disparity:demographic_parity"}'], "line 1",
         "frontier header has no key 'objective_direction'"),
        ([None, "", '{"accuracy": 0.5}'], "line 3",
         "frontier point has no key 'policy'"),
        ([None, "[0.5]"], "line 2", "frontier point is not a JSON object"),
        ([None, "{bad"], "line 2", "frontier point is not valid JSON"),
    ], ids=["not-json", "top-level-list", "header-key", "point-key",
            "point-list", "point-not-json"])
    def test_malformed_jsonl_names_the_line(self, gap_scored, tmp_path,
                                            lines, where, message):
        good = tmp_path / "good.jsonl"
        frontier_to_jsonl(equality_frontier(gap_scored, DP, resolution=4), good)
        header = good.read_text().splitlines()[0]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(header if x is None else x for x in lines) + "\n")
        with pytest.raises(DataError) as info:
            frontier_from_jsonl(path)
        assert str(info.value).startswith(f"{path} {where}: {message}")

    @pytest.mark.parametrize("text", ["", "\n \n\n"], ids=["empty", "blank-lines"])
    def test_empty_file_is_data_error(self, tmp_path, text):
        path = tmp_path / "frontier.jsonl"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            frontier_from_jsonl(path)
        assert str(info.value) == f"{path} is empty"

    def test_malformed_point_policy_names_the_line(self, gap_scored, tmp_path):
        path = tmp_path / "frontier.jsonl"
        frontier_to_jsonl(equality_frontier(gap_scored, DP, resolution=4), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"thresholds"', '"cutoffs"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"line 2: malformed frontier point: "
                                            r"malformed policy payload"):
            frontier_from_jsonl(path)

    def test_file_not_utf8_is_located_data_error(self, gap_scored, tmp_path):
        path = tmp_path / "frontier.jsonl"
        frontier_to_jsonl(equality_frontier(gap_scored, DP, resolution=4), path)
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(DataError) as info:
            frontier_from_jsonl(path)
        assert str(info.value).startswith(f"{path}: frontier is not UTF-8 text")

    def test_truncated_file_is_data_error(self, adult_scored_train, tmp_path):
        path = tmp_path / "frontier.jsonl"
        frontier_to_jsonl(equality_frontier(adult_scored_train, DP), path)
        lines = path.read_text().splitlines()
        assert len(lines) > 5
        path.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(DataError) as info:
            frontier_from_jsonl(path)
        assert str(info.value) == (f"{path}: header gives {len(lines) - 1} "
                                   "points, file has 4")

    def test_writes_are_byte_identical(self, gap_scored, tmp_path):
        result = equality_frontier(gap_scored, DP, resolution=6)
        p1 = tmp_path / "one.jsonl"
        p2 = tmp_path / "two.jsonl"
        frontier_to_jsonl(result, p1)
        frontier_to_jsonl(result, p2)
        assert p1.read_bytes() == p2.read_bytes()
