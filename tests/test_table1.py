"""Tests pinning the paper's Table 1 space."""

import pytest

from repro.designspace import (
    DEPTH,
    EXPLORATION_DEPTHS,
    WIDTH,
    exploration_space,
    extended_space,
    sampling_space,
)
from repro.simulator import baseline_point


class TestSamplingSpace:
    def test_size_matches_paper(self):
        assert len(sampling_space()) == 375_000

    def test_seven_parameter_groups(self):
        assert len(sampling_space().parameters) == 7

    def test_group_cardinalities(self):
        cards = [p.cardinality for p in sampling_space().parameters]
        assert cards == [10, 3, 10, 10, 5, 5, 5]

    def test_depth_levels(self):
        assert DEPTH.values == (9, 12, 15, 18, 21, 24, 27, 30, 33, 36)

    def test_width_derived_settings(self):
        assert WIDTH.derived["ls_queue"] == (15, 30, 45)
        assert WIDTH.derived["store_queue"] == (14, 28, 42)
        assert WIDTH.derived["functional_units"] == (1, 2, 4)

    def test_register_scaling_matches_table1(self):
        space = sampling_space()
        settings = space.machine_settings(
            space.point(
                depth=9, width=2, gpr_phys=130, br_resv=6,
                il1_kb=16, dl1_kb=8, l2_mb=0.25,
            )
        )
        assert settings["fpr_phys"] == 112
        assert settings["spr_phys"] == 96

    def test_reservation_scaling_matches_table1(self):
        space = sampling_space()
        settings = space.machine_settings(
            space.point(
                depth=9, width=2, gpr_phys=40, br_resv=15,
                il1_kb=16, dl1_kb=8, l2_mb=0.25,
            )
        )
        assert settings["fx_resv"] == 28
        assert settings["fp_resv"] == 14

    def test_cache_ranges(self):
        space = sampling_space()
        assert space.parameter("il1_kb").values == (16, 32, 64, 128, 256)
        assert space.parameter("dl1_kb").values == (8, 16, 32, 64, 128)
        assert space.parameter("l2_mb").values == (0.25, 0.5, 1.0, 2.0, 4.0)


class TestExplorationSpace:
    def test_size_matches_paper(self):
        assert len(exploration_space()) == 262_500

    def test_depths_are_12_to_30(self):
        assert exploration_space().parameter("depth").values == EXPLORATION_DEPTHS
        assert EXPLORATION_DEPTHS == (12, 15, 18, 21, 24, 27, 30)

    def test_exploration_is_subset_of_sampling(self):
        sampling = sampling_space()
        for point in [exploration_space().point_at(i) for i in (0, 1000, 262_499)]:
            # every exploration point is a valid sampling-space point
            values = dict(zip(point.names, point.values))
            assert sampling.point(**values) in sampling

    def test_baseline_point_snaps_table3(self):
        point = baseline_point(exploration_space())
        assert point["depth"] == 18  # 19 FO4 snapped to grid
        assert point["width"] == 4
        assert point["gpr_phys"] == 80
        assert point["il1_kb"] == 64
        assert point["dl1_kb"] == 32
        assert point["l2_mb"] == 2.0


class TestExtendedSpace:
    def test_adds_two_parameters(self):
        assert len(extended_space().parameters) == 9

    def test_size(self):
        assert len(extended_space()) == 375_000 * 4 * 2

    def test_associativity_levels(self):
        assert extended_space().parameter("dl1_assoc").values == (1, 2, 4, 8)

    def test_in_order_flag(self):
        assert extended_space().parameter("in_order").values == (0, 1)
