"""Tests for design point encoders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.designspace import (
    DesignEncoder,
    DesignPoint,
    DesignSpace,
    NormalizedEncoder,
    Parameter,
    ParameterError,
    PointSet,
    exploration_space,
    sample_uar,
    sample_uar_indices,
)


@pytest.fixture(scope="module")
def space():
    return DesignSpace(
        [
            Parameter(name="depth", values=(12, 18, 24)),
            Parameter(name="width", values=(2, 4, 8), log2_encode=True),
            Parameter(name="l2", values=(0.25, 1.0, 4.0), log2_encode=True),
        ]
    )


class TestDesignEncoder:
    def test_encode_point_shape_and_values(self, space):
        encoder = DesignEncoder(space)
        vector = encoder.encode_point(space.point(depth=18, width=8, l2=1.0))
        assert vector.tolist() == [18.0, 3.0, 0.0]

    def test_encode_many(self, space):
        encoder = DesignEncoder(space)
        matrix = encoder.encode([space.point_at(0), space.point_at(5)])
        assert matrix.shape == (2, 3)

    def test_encode_empty(self, space):
        assert DesignEncoder(space).encode([]).shape == (0, 3)

    def test_rejects_foreign_point(self, space):
        with pytest.raises(ParameterError):
            DesignEncoder(space).encode_point(DesignPoint(("depth",), (12,)))

    def test_decode_round_trip(self, space):
        encoder = DesignEncoder(space)
        for point in space:
            assert encoder.decode_vector(encoder.encode_point(point)) == point

    def test_decode_snaps(self, space):
        encoder = DesignEncoder(space)
        point = encoder.decode_vector([17.0, 2.9, -1.9])
        assert point["depth"] == 18
        assert point["width"] == 8
        assert point["l2"] == 0.25

    def test_decode_wrong_length(self, space):
        with pytest.raises(ParameterError):
            DesignEncoder(space).decode_vector([1.0, 2.0])

    def test_feature_names_in_parameter_order(self, space):
        assert DesignEncoder(space).feature_names == ["depth", "width", "l2"]


class TestNormalizedEncoder:
    def test_unit_interval(self, space):
        encoder = NormalizedEncoder(space)
        for point in space:
            vector = encoder.encode_point(point)
            assert (vector >= 0).all() and (vector <= 1).all()

    def test_extremes_map_to_0_and_1(self, space):
        encoder = NormalizedEncoder(space)
        low = encoder.encode_point(space.point(depth=12, width=2, l2=0.25))
        high = encoder.encode_point(space.point(depth=24, width=8, l2=4.0))
        assert low.tolist() == [0.0, 0.0, 0.0]
        assert high.tolist() == [1.0, 1.0, 1.0]

    def test_log2_midpoint(self, space):
        encoder = NormalizedEncoder(space)
        vector = encoder.encode_point(space.point(depth=12, width=4, l2=1.0))
        assert vector[1] == pytest.approx(0.5)
        assert vector[2] == pytest.approx(0.5)

    def test_weights_scale_coordinates(self, space):
        encoder = NormalizedEncoder(space, weights={"depth": 2.0})
        vector = encoder.encode_point(space.point(depth=24, width=2, l2=0.25))
        assert vector[0] == pytest.approx(2.0)

    def test_zero_weight_removes_dimension(self, space):
        encoder = NormalizedEncoder(space, weights={"width": 0.0})
        a = encoder.encode_point(space.point(depth=12, width=2, l2=0.25))
        b = encoder.encode_point(space.point(depth=12, width=8, l2=0.25))
        assert np.allclose(a, b)

    def test_unknown_weight_rejected(self, space):
        with pytest.raises(ParameterError):
            NormalizedEncoder(space, weights={"bogus": 1.0})

    def test_negative_weight_rejected(self, space):
        with pytest.raises(ParameterError):
            NormalizedEncoder(space, weights={"depth": -1.0})

    def test_decode_round_trip(self, space):
        encoder = NormalizedEncoder(space)
        for point in space:
            assert encoder.decode_vector(encoder.encode_point(point)) == point

    def test_pinned_parameter_encodes_as_zero(self, space):
        pinned = space.restrict({"width": [4]})
        encoder = NormalizedEncoder(pinned)
        vector = encoder.encode_point(pinned.point(depth=12, width=4, l2=0.25))
        assert vector[1] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_round_trip_on_paper_space(self, seed):
        space = exploration_space()
        encoder = NormalizedEncoder(space)
        for point in sample_uar(space, 3, seed=seed):
            assert encoder.decode_vector(encoder.encode_point(point)) == point


class TestVectorizedEncode:
    """``encode`` gathers through level tables; ``encode_point`` is the oracle."""

    @staticmethod
    def stacked(encoder, points):
        return np.vstack([encoder.encode_point(point) for point in points])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 300))
    def test_bitwise_equal_to_encode_point(self, seed, count):
        space = exploration_space()
        indices = sample_uar_indices(space, count, seed=seed)
        points = list(PointSet(space, indices))
        for encoder in (
            DesignEncoder(space),
            NormalizedEncoder(space, weights={"depth": 2.0, "width": 0.0}),
        ):
            expected = self.stacked(encoder, points).tobytes()
            assert encoder.encode(points).tobytes() == expected
            assert encoder.encode(PointSet(space, indices)).tobytes() == expected

    def test_pinned_parameter_matches_encode_point(self, space):
        pinned = space.restrict({"width": [4]})
        encoder = NormalizedEncoder(pinned)
        points = list(pinned)
        expected = self.stacked(encoder, points).tobytes()
        assert encoder.encode(points).tobytes() == expected

    def test_off_grid_error_names_the_first_bad_point(self, space):
        encoder = DesignEncoder(space)
        good = space.point(depth=12, width=2, l2=0.25)
        points = [
            good,
            DesignPoint(space.names, (12, 3, 0.25)),
            DesignPoint(space.names, (13, 2, 0.25)),
        ]
        with pytest.raises(ParameterError) as expected:
            encoder.encode_point(points[1])
        with pytest.raises(ParameterError) as got:
            encoder.encode(points)
        assert str(got.value) == str(expected.value)

    def test_foreign_names_rejected(self, space):
        foreign = DesignPoint(("depth", "width", "l3"), (12, 2, 0.25))
        with pytest.raises(ParameterError, match="do not match"):
            DesignEncoder(space).encode([space.point_at(0), foreign])

    def test_names_checked_by_value_not_identity(self, space):
        """The names check runs once per distinct names object: an equal
        copy of the space's names passes, and a foreign names object
        behind many shared ones is still caught, with the per-point
        error."""
        encoder = DesignEncoder(space)
        shared = [space.point_at(i) for i in range(5)]
        copied = DesignPoint(list(space.names), shared[1].values)
        assert copied.names is not space.names
        assert encoder.encode(shared + [copied]).tobytes() == (
            encoder.encode(shared + [shared[1]]).tobytes()
        )
        foreign = DesignPoint(("depth", "width", "l3"), (12, 2, 0.25))
        with pytest.raises(ParameterError) as expected:
            encoder.encode_point(foreign)
        with pytest.raises(ParameterError) as got:
            encoder.encode(shared + [foreign] + shared)
        assert str(got.value) == str(expected.value)
