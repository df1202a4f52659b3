"""Tests for datasets and campaign assembly."""

import numpy as np
import pytest

from repro.designspace import exploration_space, sample_uar
from repro.harness import Dataset, DatasetError
from repro.simulator import Simulator, config_from_point
from repro.workloads import generate_trace, get_profile


@pytest.fixture(scope="module")
def space():
    return exploration_space()


@pytest.fixture(scope="module")
def small_dataset(space):
    simulator = Simulator()
    trace = generate_trace(get_profile("gzip"), 1000, seed=1)
    points = sample_uar(space, 6, seed=4)
    results = simulator.simulate(
        trace, [config_from_point(space, p) for p in points]
    )
    return Dataset.from_results("gzip", space, points, results)


class TestConstruction:
    def test_from_results_lengths(self, small_dataset):
        assert len(small_dataset) == 6
        assert small_dataset.metrics["bips"].shape == (6,)
        assert small_dataset.metrics["watts"].shape == (6,)

    def test_from_results_length_mismatch(self, space):
        with pytest.raises(DatasetError):
            Dataset.from_results("x", space, [space.point_at(0)], [])

    def test_metric_length_mismatch(self, space):
        with pytest.raises(DatasetError):
            Dataset(
                benchmark="x",
                space=space,
                points=[space.point_at(0)],
                metrics={"bips": np.zeros(3)},
            )

    def test_requires_power(self, space):
        simulator = Simulator()
        trace = generate_trace(get_profile("gzip"), 500, seed=1)
        (result,) = simulator.simulate(
            trace, [config_from_point(space, space.point_at(0))]
        )
        result.watts = None
        with pytest.raises(DatasetError, match="PowerModel"):
            Dataset.from_results("gzip", space, [space.point_at(0)], [result])


class TestColumns:
    def test_predictor_columns_match_encoding(self, small_dataset, space):
        columns = small_dataset.predictor_columns()
        assert set(columns) == set(space.names)
        # width is log2-encoded
        widths = [p["width"] for p in small_dataset.points]
        assert columns["width"] == pytest.approx(np.log2(widths))

    def test_columns_include_metrics(self, small_dataset):
        columns = small_dataset.columns()
        assert "bips" in columns and "watts" in columns
        assert "depth" in columns

    def test_metric_name_collision_rejected(self, space):
        with pytest.raises(DatasetError, match="collide"):
            Dataset(
                benchmark="x",
                space=space,
                points=[space.point_at(0)],
                metrics={"depth": np.zeros(1)},
            ).columns()


class TestSubset:
    def test_subset_selects_rows(self, small_dataset):
        subset = small_dataset.subset([0, 2])
        assert len(subset) == 2
        assert subset.points[1] == small_dataset.points[2]
        assert subset.metrics["bips"][1] == small_dataset.metrics["bips"][2]

    def test_subset_preserves_benchmark(self, small_dataset):
        assert small_dataset.subset([0]).benchmark == "gzip"
