"""Power-performance metrics."""

from .metrics import (
    MetricError,
    bips3_per_watt,
    block_metrics,
    delay_seconds,
)

__all__ = [
    "bips3_per_watt",
    "block_metrics",
    "delay_seconds",
    "MetricError",
]
