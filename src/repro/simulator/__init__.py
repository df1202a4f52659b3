"""Cycle-approximate out-of-order superscalar simulator (Turandot's role).

Import order matters here: :mod:`repro.power` imports
``repro.simulator.frequency`` while :mod:`repro.simulator.config` imports
``repro.power.cacti``, so ``frequency`` must be bound on this package
before ``config`` is loaded.
"""

from . import frequency  # noqa: F401  (must precede config; see docstring)
from .branch import OneBitBHT
from .config import (
    ARCHITECTED_FPR,
    ARCHITECTED_GPR,
    BASELINE_SETTINGS,
    ConfigColumns,
    ConfigError,
    MachineConfig,
    ROB_SIZE,
    baseline_config,
    baseline_point,
    config_columns,
    config_from_point,
    configs_from_points,
)
from .batch import run_pipeline_batch
from .memory import StackDistanceMemory, associativity_factor
from .pipeline import PipelineOutcome, run_pipeline
from .resources import OccupancyWindow, ResourceError, ThroughputLimiter
from .results import ActivityCounts, SimulationResult
from .simulator import Simulator

__all__ = [
    "frequency",
    "Simulator",
    "MachineConfig",
    "ConfigError",
    "config_from_point",
    "configs_from_points",
    "config_columns",
    "ConfigColumns",
    "baseline_config",
    "baseline_point",
    "BASELINE_SETTINGS",
    "ARCHITECTED_GPR",
    "ARCHITECTED_FPR",
    "ROB_SIZE",
    "run_pipeline",
    "run_pipeline_batch",
    "PipelineOutcome",
    "SimulationResult",
    "ActivityCounts",
    "OneBitBHT",
    "OccupancyWindow",
    "ThroughputLimiter",
    "ResourceError",
    "StackDistanceMemory",
    "associativity_factor",
]
