"""Tests for machine configuration resolution."""

import pytest

from repro.designspace import exploration_space, extended_space
from repro.simulator import (
    ARCHITECTED_GPR,
    ConfigError,
    MachineConfig,
    baseline_config,
    baseline_point,
    config_columns,
    config_from_point,
    configs_from_points,
)
from repro.workloads.trace import OP_FP, OP_FP_DIV, OP_INT


class TestBaseline:
    def test_table3_values(self):
        config = baseline_config()
        assert config.depth_fo4 == 19.0
        assert config.width == 4
        assert config.gpr_phys == 80
        assert config.fpr_phys == 72
        assert config.il1_kb == 64.0
        assert config.dl1_kb == 32.0
        assert config.l2_mb == 2.0

    def test_dispatch_rate_is_9_per_table3(self):
        assert baseline_config().dispatch_rate == 9

    def test_l2_latency_near_9_cycles(self):
        # Table 3: 9-cycle L2 at 19 FO4
        assert baseline_config().l2_latency == pytest.approx(10, abs=1)

    def test_memory_latency_near_77_cycles(self):
        assert baseline_config().memory_latency == pytest.approx(79, abs=3)

    def test_rename_registers(self):
        config = baseline_config()
        assert config.gpr_rename == 80 - ARCHITECTED_GPR
        assert config.fpr_rename == 72 - 32


class TestValidation:
    def test_rejects_too_few_physical_registers(self):
        with pytest.raises(ConfigError, match="rename"):
            baseline_config().with_overrides(gpr_phys=ARCHITECTED_GPR)

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigError):
            baseline_config().with_overrides(width=0)

    def test_rejects_zero_queue(self):
        with pytest.raises(ConfigError):
            baseline_config().with_overrides(ls_queue=0)

    def test_rejects_impossible_depth(self):
        with pytest.raises(Exception):
            baseline_config().with_overrides(depth_fo4=2.0)


class TestLatencies:
    def test_op_latency_scales_with_depth(self):
        shallow = baseline_config().with_overrides(depth_fo4=30.0)
        deep = baseline_config().with_overrides(depth_fo4=12.0)
        assert deep.op_latency(OP_FP) > shallow.op_latency(OP_FP)

    def test_int_is_single_cycle_at_12_fo4_or_deeper(self):
        assert baseline_config().with_overrides(depth_fo4=12.0).op_latency(OP_INT) == 1

    def test_divide_is_long(self):
        config = baseline_config()
        assert config.op_latency(OP_FP_DIV) >= 3 * config.op_latency(OP_FP)

    def test_data_latency_ordering(self):
        config = baseline_config()
        assert (
            config.data_latency("l1")
            < config.data_latency("l2")
            < config.data_latency("mem")
        )

    def test_data_latency_unknown_level(self):
        with pytest.raises(ConfigError):
            baseline_config().data_latency("l3")

    def test_fetch_penalty_zero_on_hit(self):
        assert baseline_config().fetch_penalty("l1") == 0

    def test_fetch_penalty_ordering(self):
        config = baseline_config()
        assert 0 < config.fetch_penalty("l2") < config.fetch_penalty("mem")

    def test_cache_latency_grows_with_size(self):
        small = baseline_config().with_overrides(dl1_kb=8.0)
        large = baseline_config().with_overrides(dl1_kb=128.0)
        assert large.dl1_latency >= small.dl1_latency


class TestConfigColumns:
    def test_columns_are_the_scalar_properties(self):
        """Each derived column is its config's property, bitwise."""
        from repro.designspace import sample_uar

        space = extended_space()
        configs = configs_from_points(space, sample_uar(space, 30, seed=8))
        columns = config_columns(configs)
        assert config_columns(columns) is columns
        assert list(columns) == configs
        for b, config in enumerate(configs):
            assert columns.width[b] == config.width
            assert columns.frequency_ghz[b] == config.frequency_ghz
            for name in (
                "frontend_stages", "total_stages", "dispatch_rate",
                "gpr_rename", "fpr_rename", "dl1_latency", "l2_latency",
                "memory_latency",
            ):
                assert getattr(columns, name)[b] == getattr(config, name), name
            for op, column in columns.op_latency.items():
                assert column[b] == config.op_latency(op)

    def test_empty_block_is_rejected(self):
        with pytest.raises(ConfigError):
            config_columns([])


class TestFromPoint:
    def test_resolves_derived_settings(self):
        space = exploration_space()
        point = space.point(
            depth=12, width=8, gpr_phys=130, br_resv=15,
            il1_kb=256, dl1_kb=128, l2_mb=4.0,
        )
        config = config_from_point(space, point)
        assert config.functional_units == 4
        assert config.ls_queue == 45
        assert config.fpr_phys == 112
        assert config.fx_resv == 28

    def test_overrides_win(self):
        space = exploration_space()
        config = config_from_point(space, baseline_point(space)).with_overrides(
            in_order=True
        )
        assert config.in_order is True

    def test_extended_space_parameters_honoured(self):
        space = extended_space()
        point = space.point(
            depth=12, width=2, gpr_phys=40, br_resv=6,
            il1_kb=16, dl1_kb=8, l2_mb=0.25, dl1_assoc=8, in_order=1,
        )
        config = config_from_point(space, point)
        assert config.dl1_assoc == 8
        assert config.in_order is True

    def test_block_resolution_matches_one_point_at_a_time(self):
        """Resolving a block converts each level's settings once; every
        config still equals (and hashes like) the point's own config."""
        from repro.designspace import sample_uar

        space = extended_space()
        points = sample_uar(space, 40, seed=3)
        block = configs_from_points(space, points)
        for config, point in zip(block, points):
            single = config_from_point(space, point)
            assert config == single and hash(config) == hash(single)
            assert type(config.depth_fo4) is float
            assert type(config.width) is int
            assert type(config.in_order) is bool

    def test_block_resolution_rejects_what_one_point_rejects(self):
        from repro.designspace import ParameterError

        space = exploration_space()
        good = baseline_point(space)
        off_grid = good.replace(width=5)
        with pytest.raises(ParameterError) as single:
            space.machine_settings(off_grid)
        with pytest.raises(ParameterError) as block:
            configs_from_points(space, [good, off_grid])
        assert str(block.value) == str(single.value)
        foreign = extended_space().point(
            depth=12, width=2, gpr_phys=40, br_resv=6,
            il1_kb=16, dl1_kb=8, l2_mb=0.25, dl1_assoc=8, in_order=1,
        )
        with pytest.raises(ParameterError, match="do not match space"):
            configs_from_points(space, [foreign])

    def test_describe_keys(self):
        summary = baseline_config().describe()
        for key in ("depth_fo4", "width", "frequency_ghz", "l2_mb", "memory_latency"):
            assert key in summary
