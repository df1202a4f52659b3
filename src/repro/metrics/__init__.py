"""Power-performance metrics."""

from .metrics import (
    MetricError,
    bips3_per_watt,
    delay_seconds,
)

__all__ = [
    "bips3_per_watt",
    "delay_seconds",
    "MetricError",
]
