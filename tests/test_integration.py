"""Cross-module integration tests.

These exercise the whole toolchain end-to-end at test scale and pin the
reproduction's headline properties: model accuracy in the paper's band,
frontier-error consistency, benchmark-character preservation, and
agreement between the two memory models where they should agree.
"""

import numpy as np
import pytest

from repro.regression import error_table, validate_model
from repro.simulator import Simulator, baseline_config
from repro.studies import heterogeneity, pareto
from repro.workloads import generate_trace, get_profile


class TestModelAccuracy:
    def test_validation_errors_in_paper_band(self, ctx):
        """Figure 1's headline: single-digit-ish median errors."""
        perf, power = [], []
        for benchmark in ctx.benchmarks:
            data = ctx.campaign.dataset(benchmark, "validation").columns()
            perf.append(validate_model(ctx.model(benchmark, "bips"), data, benchmark))
            power.append(validate_model(ctx.model(benchmark, "watts"), data, benchmark))
        perf_overall = error_table(perf)["overall"]
        power_overall = error_table(power)["overall"]
        # paper: 7.2% / 5.4%; generous ceiling for the tiny test scale
        assert perf_overall < 15.0
        assert power_overall < 12.0

    def test_power_model_more_accurate_than_performance(self, ctx):
        """The paper's consistent observation across Figures 1 and 4."""
        perf, power = [], []
        for benchmark in ctx.benchmarks:
            data = ctx.campaign.dataset(benchmark, "validation").columns()
            perf.append(validate_model(ctx.model(benchmark, "bips"), data, benchmark))
            power.append(validate_model(ctx.model(benchmark, "watts"), data, benchmark))
        assert error_table(power)["overall"] < error_table(perf)["overall"] + 2.0

    def test_frontier_errors_consistent_with_random_validation(self, ctx):
        """Section 4.3: pareto optima are no less predictable."""
        validation = pareto.validate_frontier(ctx, "ammp")
        # loose factor: tiny validation sets at test scale
        assert validation.power_errors.stats.median < 0.25


class TestBenchmarkCharacter:
    def test_mcf_optimum_has_largest_l2(self, ctx):
        optima = heterogeneity.benchmark_optima(ctx)
        l2 = {name: row.point["l2_mb"] for name, row in optima.items()}
        assert l2["mcf"] >= max(l2["gzip"], l2["applu"])

    def test_mcf_is_slowest_per_instruction(self, ctx):
        optima = heterogeneity.benchmark_optima(ctx)
        bips = {name: row.predicted_bips for name, row in optima.items()}
        assert bips["mcf"] == min(bips.values())

    def test_optima_are_diverse(self, ctx):
        """Table 2's point: optima come from diverse regions of the space."""
        optima = heterogeneity.benchmark_optima(ctx)
        depths = {row.point["depth"] for row in optima.values()}
        l2s = {row.point["l2_mb"] for row in optima.values()}
        assert len(depths) >= 2
        assert len(l2s) >= 2


class TestMemoryModelAgreement:
    def test_gzip_stays_off_memory(self):
        """gzip's defining signature: its ~192KB working set is
        L2-resident, so the steady-state model sends almost no traffic to
        memory."""
        trace = generate_trace(get_profile("gzip"), 4000, seed=7)
        result = Simulator().simulate(trace, baseline_config())
        assert result.counts.memory_accesses / len(trace) < 0.01


class TestDeterminism:
    def test_full_pipeline_reproducible(self, ctx):
        table_a = ctx.predict_points("gzip", [ctx.baseline])
        table_b = ctx.predict_points("gzip", [ctx.baseline])
        assert table_a.bips[0] == table_b.bips[0]

    def test_simulation_reproducible(self, ctx):
        a = ctx.simulate("gzip", ctx.baseline)
        b = ctx.simulate("gzip", ctx.baseline)
        assert a.cycles == b.cycles
        assert a.watts == pytest.approx(b.watts)


class TestExtensionParameters:
    def test_in_order_machines_simulate(self):
        trace = generate_trace(get_profile("gzip"), 1200, seed=3)
        ooo = Simulator().simulate(trace, baseline_config())
        ino = Simulator().simulate(
            trace, baseline_config().with_overrides(in_order=True)
        )
        assert ino.bips < ooo.bips
