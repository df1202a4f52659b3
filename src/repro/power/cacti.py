"""CACTI-style cache array scaling (Shivakumar & Jouppi [21]).

The paper scales cache latency and power with array size "according to
CACTI".  We implement compact analytical fits with the same qualitative
form CACTI produces for this size range:

- access time grows with the square root of capacity (wordline/bitline
  lengths) plus a small per-way comparator cost;
- access energy likewise grows ~sqrt(capacity), with an associativity
  surcharge for reading multiple ways;
- leakage grows near-linearly with capacity.

Constants are chosen for a 90nm-class technology so the POWER4-like
baseline (Table 3) lands at its documented latencies: ~1-2 cycle 32KB L1
and a 9-cycle 2MB L2 at 19 FO4, with ~60ns DRAM (77 cycles).
"""

from __future__ import annotations

import math


class CactiError(ValueError):
    """Raised for non-physical array queries."""


#: Fixed DRAM access latency in nanoseconds.
MEMORY_LATENCY_NS = 60.0

#: Energy per DRAM access in nanojoules (interface + array).
MEMORY_ACCESS_ENERGY_NJ = 12.0

_T_BASE_NS = 0.35
_T_SQRT_NS_PER_SQRT_KB = 0.16
_T_PER_WAY_NS = 0.02

_E_BASE_NJ = 0.05
_E_SQRT_NJ_PER_SQRT_KB = 0.018
_E_WAY_FACTOR = 0.15

_LEAK_W_PER_KB = 0.0016
_LEAK_EXPONENT = 0.97



def _check(size_kb: float, assoc: int) -> None:
    if size_kb <= 0:
        raise CactiError(f"size must be positive, got {size_kb}KB")
    if assoc < 1:
        raise CactiError(f"associativity must be >= 1, got {assoc}")


def access_time_ns(size_kb: float, assoc: int = 1) -> float:
    """Array access time in nanoseconds."""
    _check(size_kb, assoc)
    return (
        _T_BASE_NS
        + _T_SQRT_NS_PER_SQRT_KB * math.sqrt(size_kb)
        + _T_PER_WAY_NS * assoc
    )


def access_energy_nj(size_kb: float, assoc: int = 1) -> float:
    """Energy per access in nanojoules."""
    _check(size_kb, assoc)
    return (_E_BASE_NJ + _E_SQRT_NJ_PER_SQRT_KB * math.sqrt(size_kb)) * (
        1.0 + _E_WAY_FACTOR * assoc
    )


def leakage_w(size_kb: float) -> float:
    """Standby leakage power in watts."""
    _check(size_kb, 1)
    return _LEAK_W_PER_KB * size_kb**_LEAK_EXPONENT
