"""Unit tests for DesignSpace and DesignPoint."""

import pytest
from hypothesis import given, strategies as st

from repro.designspace import DesignPoint, DesignSpace, Parameter, ParameterError


@pytest.fixture
def space():
    return DesignSpace(
        [
            Parameter(name="depth", values=(9, 12, 15), unit="FO4"),
            Parameter(
                name="width",
                values=(2, 4),
                log2_encode=True,
                derived={"fu": (1, 2)},
            ),
            Parameter(name="l2", values=(0.25, 0.5, 1.0), log2_encode=True),
        ],
        name="toy",
    )


class TestSize:
    def test_len_is_cartesian_product(self, space):
        assert len(space) == 3 * 2 * 3

    def test_repr_mentions_dims(self, space):
        assert "3 x 2 x 3" in repr(space)

    def test_requires_parameters(self):
        with pytest.raises(ParameterError):
            DesignSpace([])


class TestPointAddressing:
    def test_point_at_zero_is_all_first_levels(self, space):
        point = space.point_at(0)
        assert point.values == (9, 2, 0.25)

    def test_point_at_last(self, space):
        point = space.point_at(len(space) - 1)
        assert point.values == (15, 4, 1.0)

    def test_round_trip_all_indices(self, space):
        for index in range(len(space)):
            assert space.index_of(space.point_at(index)) == index

    def test_out_of_range_raises(self, space):
        with pytest.raises(IndexError):
            space.point_at(len(space))
        with pytest.raises(IndexError):
            space.point_at(-1)

    def test_iteration_yields_distinct_points(self, space):
        points = list(space)
        assert len(points) == len(space)
        assert len(set(points)) == len(space)

    @given(st.integers(0, 17))
    def test_round_trip_property(self, index):
        space = DesignSpace(
            [
                Parameter(name="a", values=(1, 2, 3)),
                Parameter(name="b", values=(1, 2, 3)),
                Parameter(name="c", values=(1, 2)),
            ]
        )
        assert space.index_of(space.point_at(index)) == index


class TestPointConstruction:
    def test_point_by_keywords(self, space):
        point = space.point(depth=12, width=4, l2=0.5)
        assert point["depth"] == 12
        assert point["l2"] == 0.5

    def test_point_missing_parameter(self, space):
        with pytest.raises(ParameterError, match="missing"):
            space.point(depth=12, width=4)

    def test_point_unknown_parameter(self, space):
        with pytest.raises(ParameterError, match="unknown"):
            space.point(depth=12, width=4, l2=0.5, bogus=1)

    def test_point_invalid_level(self, space):
        with pytest.raises(ParameterError):
            space.point(depth=13, width=4, l2=0.5)

    def test_snap_to_nearest_levels(self, space):
        point = space.snap(depth=13.4, width=3, l2=0.6)
        assert point.values == (12, 2, 0.5)

    def test_contains(self, space):
        assert space.point(depth=9, width=2, l2=0.25) in space
        stranger = DesignPoint(("depth",), (9,))
        assert stranger not in space


class TestDesignPoint:
    def test_getitem_unknown_raises_keyerror(self, space):
        point = space.point_at(0)
        with pytest.raises(KeyError):
            point["bogus"]

    def test_replace(self, space):
        point = space.point_at(0).replace(depth=15)
        assert point["depth"] == 15
        assert point["width"] == 2

    def test_replace_unknown_raises(self, space):
        with pytest.raises(KeyError):
            space.point_at(0).replace(bogus=1)

    def test_hashable(self, space):
        assert len({space.point_at(0), space.point_at(0), space.point_at(1)}) == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParameterError):
            DesignPoint(("a", "b"), (1,))

    def test_str_mentions_values(self, space):
        assert "depth=9" in str(space.point_at(0))


class TestMachineSettings:
    def test_includes_derived(self, space):
        settings = space.machine_settings(space.point(depth=9, width=4, l2=1.0))
        assert settings == {"depth": 9, "width": 4, "fu": 2, "l2": 1.0}

    def test_rejects_foreign_point(self, space):
        with pytest.raises(ParameterError):
            space.machine_settings(DesignPoint(("depth",), (9,)))


class TestRestriction:
    def test_restrict_shrinks_space(self, space):
        smaller = space.restrict({"depth": (9, 12)})
        assert len(smaller) == 2 * 2 * 3

    def test_restrict_keeps_derived_alignment(self, space):
        smaller = space.restrict({"width": (4,)})
        settings = smaller.machine_settings(smaller.point(depth=9, width=4, l2=0.25))
        assert settings["fu"] == 2

    def test_restrict_unknown_parameter(self, space):
        with pytest.raises(ParameterError):
            space.restrict({"bogus": (1,)})

    def test_restrict_invalid_level(self, space):
        with pytest.raises(ParameterError):
            space.restrict({"depth": (13,)})

    def test_fix_pins_single_values(self, space):
        pinned = space.restrict({"depth": [12], "width": [2]})
        assert len(pinned) == 3
        for point in pinned:
            assert point["depth"] == 12
            assert point["width"] == 2

    def test_sweep_varies_one_parameter(self, space):
        base = space.point(depth=9, width=2, l2=0.25)
        points = space.sweep("depth", base)
        assert [p["depth"] for p in points] == [9, 12, 15]
        assert all(p["width"] == 2 for p in points)

    def test_parameter_lookup_error_lists_names(self, space):
        with pytest.raises(ParameterError, match="depth"):
            space.parameter("bogus")
