"""Tests for K-means clustering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import KMeansError, kmeans, lloyd_iteration


def blob_data(seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    points = np.vstack(
        [center + 0.3 * rng.standard_normal((20, 2)) for center in centers]
    )
    return points, centers


class TestBasics:
    def test_k1_centroid_is_mean(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        result = kmeans(points, 1, seed=0)
        assert result.centroids[0] == pytest.approx([1.0, 1.0])

    def test_k_equals_n_zero_inertia(self):
        points, _ = blob_data()
        result = kmeans(points[:5], 5, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_recovers_separated_blobs(self):
        points, centers = blob_data()
        result = kmeans(points, 3, seed=0)
        found = sorted(result.centroids.tolist())
        expected = sorted(centers.tolist())
        for f, e in zip(found, expected):
            assert f == pytest.approx(e, abs=0.5)

    def test_assignments_shape_and_range(self):
        points, _ = blob_data()
        result = kmeans(points, 3, seed=0)
        assert result.assignments.shape == (60,)
        assert set(result.assignments.tolist()) == {0, 1, 2}

    def test_members(self):
        points, _ = blob_data()
        result = kmeans(points, 3, seed=0)
        total = sum(result.members(j).size for j in range(3))
        assert total == 60

    def test_deterministic_with_seed(self):
        points, _ = blob_data()
        a = kmeans(points, 3, seed=42)
        b = kmeans(points, 3, seed=42)
        assert (a.assignments == b.assignments).all()
        assert a.inertia == b.inertia


class TestInertia:
    def test_inertia_matches_definition(self):
        points, _ = blob_data()
        result = kmeans(points, 3, seed=0)
        manual = sum(
            ((points[i] - result.centroids[result.assignments[i]]) ** 2).sum()
            for i in range(len(points))
        )
        assert result.inertia == pytest.approx(manual)


class TestLloyd:
    def test_converges_flag(self):
        points, centers = blob_data()
        result = lloyd_iteration(points, centers.copy(), max_iterations=50)
        assert result.converged

    def test_single_iteration_cap(self):
        points, _ = blob_data()
        start = points[:3].copy()
        result = lloyd_iteration(points, start, max_iterations=1)
        assert result.iterations == 1


class TestErrors:
    def test_k_zero(self):
        with pytest.raises(KMeansError):
            kmeans(np.zeros((5, 2)), 0)

    def test_k_exceeds_n(self):
        with pytest.raises(KMeansError):
            kmeans(np.zeros((3, 2)), 4)

    def test_one_dimensional_points(self):
        with pytest.raises(KMeansError):
            kmeans(np.zeros(5), 2)

    def test_bad_restarts(self):
        with pytest.raises(KMeansError):
            kmeans(np.zeros((5, 2)), 2, restarts=0)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=4,
            max_size=40,
        ),
        st.integers(1, 4),
    )
    def test_every_point_assigned_to_nearest_centroid(self, raw_points, k):
        points = np.array(raw_points)
        k = min(k, len(points))
        result = kmeans(points, k, seed=0, restarts=3)
        distances = ((points[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
        best = distances.min(axis=1)
        chosen = distances[np.arange(len(points)), result.assignments]
        assert chosen == pytest.approx(best)
