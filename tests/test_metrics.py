"""Tests for power-performance metrics."""

import numpy as np
import pytest

from repro.metrics import (
    MetricError,
    bips3_per_watt,
    delay_seconds,
)


class TestDelay:
    def test_scalar(self):
        assert delay_seconds(2.0, 4e9) == pytest.approx(2.0)

    def test_array(self):
        delays = delay_seconds(np.array([1.0, 2.0]), 2e9)
        assert delays == pytest.approx([2.0, 1.0])

    def test_rejects_zero_bips(self):
        with pytest.raises(MetricError):
            delay_seconds(0.0, 1e9)

    def test_rejects_zero_ref(self):
        with pytest.raises(MetricError):
            delay_seconds(1.0, 0.0)


class TestEfficiency:
    def test_formula(self):
        assert bips3_per_watt(2.0, 8.0) == pytest.approx(1.0)

    def test_array(self):
        values = bips3_per_watt(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        assert values == pytest.approx([1.0, 8.0])

    def test_rejects_zero_watts(self):
        with pytest.raises(MetricError):
            bips3_per_watt(1.0, 0.0)

    def test_rejects_negative_bips(self):
        with pytest.raises(MetricError):
            bips3_per_watt(-1.0, 1.0)

    def test_cubic_performance_sensitivity(self):
        # 10% performance gain at equal power is ~33% efficiency gain
        gain = bips3_per_watt(1.1, 10.0) / bips3_per_watt(1.0, 10.0)
        assert gain == pytest.approx(1.331)
