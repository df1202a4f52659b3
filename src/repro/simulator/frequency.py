"""Pipeline depth, clock frequency and stage counts.

The paper specifies pipeline depth as FO4 inverter delays per stage
(Section 5): *smaller* FO4 per stage means a *deeper* pipeline running at a
*higher* clock.  This module fixes the technology constants that map FO4
depth onto clock period and stage counts:

- one FO4 delay is ``FO4_PS`` picoseconds (90nm-class device);
- each stage loses ``LATCH_OVERHEAD_FO4`` to latch setup/skew, so the
  usable logic per stage is ``depth - LATCH_OVERHEAD_FO4``;
- the front end (fetch through dispatch) comprises
  ``FRONTEND_LOGIC_FO4`` of logic and the whole pipeline
  ``TOTAL_LOGIC_FO4``; stage counts follow by division.

A 19 FO4 design (the POWER4-like baseline of Table 3) lands at ~1.3 GHz
with an 8-stage front end, consistent with the machines of that era.
"""

from __future__ import annotations

import math

#: Picoseconds per FO4 delay (90nm-class technology).
FO4_PS = 40.0

#: FO4 delays per stage consumed by latch overhead and clock skew.
LATCH_OVERHEAD_FO4 = 3.0

#: Logic depth (FO4) of the front end: fetch, decode, rename, dispatch.
FRONTEND_LOGIC_FO4 = 120.0

#: Logic depth (FO4) of the full pipeline (front end + issue/execute/retire).
TOTAL_LOGIC_FO4 = 240.0


class FrequencyError(ValueError):
    """Raised for physically meaningless depths."""


def _check_depth(depth_fo4: float) -> None:
    if depth_fo4 <= LATCH_OVERHEAD_FO4:
        raise FrequencyError(
            f"depth {depth_fo4} FO4 leaves no logic per stage "
            f"(latch overhead is {LATCH_OVERHEAD_FO4} FO4)"
        )


def cycle_time_ps(depth_fo4: float) -> float:
    """Clock period in picoseconds for a given FO4 depth per stage."""
    _check_depth(depth_fo4)
    return depth_fo4 * FO4_PS


def frequency_ghz(depth_fo4: float) -> float:
    """Clock frequency in GHz."""
    return 1000.0 / cycle_time_ps(depth_fo4)


def stages_for_logic(logic_fo4: float, depth_fo4: float) -> int:
    """Pipeline stages needed to fit ``logic_fo4`` of logic."""
    _check_depth(depth_fo4)
    usable = depth_fo4 - LATCH_OVERHEAD_FO4
    return max(1, math.ceil(logic_fo4 / usable))


def frontend_stages(depth_fo4: float) -> int:
    """Stages from fetch to dispatch; the bulk of the mispredict penalty."""
    return stages_for_logic(FRONTEND_LOGIC_FO4, depth_fo4)


def total_stages(depth_fo4: float) -> int:
    """Total pipeline stages; drives latch count and hence clock power."""
    return stages_for_logic(TOTAL_LOGIC_FO4, depth_fo4)


def latency_cycles(logic_fo4: float, depth_fo4: float) -> int:
    """Cycles to evaluate ``logic_fo4`` of logic on a ``depth_fo4`` machine.

    Used for functional-unit latencies: a fixed amount of logic takes more
    cycles on a deeper (higher-frequency) pipeline.  At least 1.
    """
    _check_depth(depth_fo4)
    return max(1, math.ceil(logic_fo4 / depth_fo4))


def ns_to_cycles(latency_ns: float, depth_fo4: float) -> int:
    """Cycles to cover a fixed wall-clock latency (cache arrays, DRAM).

    At least 1.
    """
    period_ns = cycle_time_ps(depth_fo4) / 1000.0
    return max(1, math.ceil(latency_ns / period_ns))
