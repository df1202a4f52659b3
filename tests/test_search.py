"""Tests for regression-guided heuristic search."""

import numpy as np
import pytest

from repro.designspace import DesignSpace, Parameter
from repro.studies import search


@pytest.fixture(scope="module")
def toy_space():
    return DesignSpace(
        [
            Parameter(name="x", values=tuple(range(0, 11))),
            Parameter(name="y", values=tuple(range(0, 11))),
        ]
    )


def quadratic_objective(points):
    """Peak at (7, 3)."""
    return np.array(
        [-((p["x"] - 7) ** 2) - (p["y"] - 3) ** 2 for p in points], dtype=float
    )


class TestNeighbors:
    def test_interior_point_has_four(self, toy_space):
        point = toy_space.point(x=5, y=5)
        assert len(search._neighbors(toy_space, point)) == 4

    def test_corner_point_has_two(self, toy_space):
        point = toy_space.point(x=0, y=0)
        assert len(search._neighbors(toy_space, point)) == 2

    def test_neighbors_one_step_away(self, toy_space):
        point = toy_space.point(x=5, y=5)
        for neighbor in search._neighbors(toy_space, point):
            difference = sum(
                abs(neighbor[n] - point[n]) for n in point.names
            )
            assert difference == 1


class TestSteepestDescent:
    def test_finds_global_optimum_of_convex_objective(self, toy_space):
        result = search.steepest_descent(
            toy_space, quadratic_objective, start=toy_space.point(x=0, y=10)
        )
        assert result.best_point == toy_space.point(x=7, y=3)
        assert result.best_value == 0.0

    def test_trajectory_is_monotone(self, toy_space):
        result = search.steepest_descent(
            toy_space, quadratic_objective, start=toy_space.point(x=0, y=0)
        )
        assert result.trajectory == sorted(result.trajectory)

    def test_evaluation_count_is_tracked(self, toy_space):
        result = search.steepest_descent(
            toy_space, quadratic_objective, start=toy_space.point(x=6, y=3)
        )
        assert result.evaluations >= 1
        assert result.evaluations < len(toy_space)

    def test_stops_at_start_if_optimal(self, toy_space):
        result = search.steepest_descent(
            toy_space, quadratic_objective, start=toy_space.point(x=7, y=3)
        )
        assert result.best_point == toy_space.point(x=7, y=3)


class TestGenetic:
    def test_finds_near_optimum(self, toy_space):
        result = search.genetic_search(
            toy_space, quadratic_objective, population=20, generations=15, seed=1
        )
        assert result.best_value >= -2.0

    def test_deterministic_with_seed(self, toy_space):
        a = search.genetic_search(toy_space, quadratic_objective, seed=3)
        b = search.genetic_search(toy_space, quadratic_objective, seed=3)
        assert a.best_value == b.best_value
        assert a.best_point == b.best_point

    def test_rejects_odd_population(self, toy_space):
        with pytest.raises(ValueError):
            search.genetic_search(toy_space, quadratic_objective, population=7)

    def test_trajectory_monotone_best_so_far(self, toy_space):
        result = search.genetic_search(toy_space, quadratic_objective, seed=2)
        assert result.trajectory == sorted(result.trajectory)


class TestComparison:
    def test_compare_on_real_models(self, ctx):
        comparison = search.compare_search_strategies(ctx, "gzip")
        assert comparison.exhaustive_evaluations == ctx.scale.exploration_limit
        assert comparison.descent.evaluations < comparison.exhaustive_evaluations
        # heuristics on the *models* should reach most of the exhaustive
        # predicted optimum (descent may stop in a local optimum)
        assert comparison.descent_quality > 0.5
        assert comparison.genetic_quality > 0.5

    def test_objective_matches_prediction(self, ctx):
        objective = search.efficiency_objective(ctx, "gzip")
        point = ctx.baseline
        table = ctx.predict_points("gzip", [point])
        assert objective([point])[0] == pytest.approx(float(table.efficiency[0]))
