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
from levelup import policy as policy_module

DP = FairnessMeasure.DEMOGRAPHIC_PARITY
CUAE = FairnessMeasure.CONDITIONAL_USE_ACCURACY_EQUALITY
ENFORCEABLE = [m for m in FairnessMeasure if harm_profile(m).enforceable]


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
    """Replace policy.<name> with a wrapper that counts its calls."""
    calls = []
    inner = getattr(policy_module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(policy_module, name, counted)
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
        # state carried between calls must never leak into a looser epsilon
        rng = np.random.default_rng(77)
        for i in range(30):
            scored = random_small_scored(rng, n_groups=int(rng.integers(2, 4)),
                                         max_distinct=8)
            measure = ENFORCEABLE[i % len(ENFORCEABLE)]
            search = policy_module._EqualitySearch(policy_module._Problem(scored),
                                                   Equality(measure, 1.0))
            for eps in rng.choice(np.linspace(0.0, 0.6, 13), size=12):
                eps = float(eps)
                try:
                    want = enforce(scored, Equality(measure, eps))
                except InfeasibleConstraintError as exc:
                    with pytest.raises(InfeasibleConstraintError) as info:
                        search.enforce(eps)
                    assert str(info.value) == str(exc)
                    continue
                assert search.enforce(eps) == want

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
        inner = policy_module._finish

        def recorded(*args, **kwargs):
            seen.append(args[3])
            return inner(*args, **kwargs)

        monkeypatch.setattr(policy_module, "_finish", recorded)
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
        from levelup import Unconstrained, enforce
        base = enforce(gap_scored, Unconstrained())
        lo = min(base.metrics.values("selection_rate"))
        for p in frontier.points:
            assert p.objective_value >= lo - 1e-12


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
