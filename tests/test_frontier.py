import numpy as np
import pytest

import oracle
from levelup import (
    DataError,
    FairnessMeasure,
    FrontierPoint,
    equality_frontier,
    frontier_from_jsonl,
    frontier_to_jsonl,
    frontier_to_tsv,
    mrc_frontier,
    pareto_prune,
    scored_from_arrays,
)

DP = FairnessMeasure.DEMOGRAPHIC_PARITY


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

    def test_writes_are_byte_identical(self, gap_scored, tmp_path):
        result = equality_frontier(gap_scored, DP, resolution=6)
        p1 = tmp_path / "one.jsonl"
        p2 = tmp_path / "two.jsonl"
        frontier_to_jsonl(result, p1)
        frontier_to_jsonl(result, p2)
        assert p1.read_bytes() == p2.read_bytes()
