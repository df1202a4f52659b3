"""Experiment harness: campaigns, datasets, caching, scale, resilience,
rendering."""

from .artifacts import (
    ArtifactError,
    cache_dir,
    cached_campaign,
    load_campaign,
    quarantine_artifact,
    save_campaign,
)
from .campaign import Campaign, fit_campaign_models, run_campaign
from .dataset import Dataset, DatasetError
from .resilience import (
    ChunkFailure,
    ChunkTask,
    CorruptResultError,
    ResilienceConfig,
    ResilienceError,
    RunReport,
    run_chunks,
)
from .figures import (
    Series,
    ascii_scatter,
    render_boxplot,
    render_boxplot_panel,
    render_series,
)
from .report import generate_report, write_report
from .scale import PRESETS, ScaleError, ScalePreset, get_scale
from .sweep import (
    BlockPredictor,
    CollectReducer,
    GroupedMetricReducer,
    ParetoFrontierReducer,
    SweepBlock,
    SweepError,
    SweepReducer,
    SweepReport,
    TopKReducer,
    discretized_frontier,
    pareto_indices,
    predict_source,
    run_sweep,
)
from .tables import render_design_point, render_table

__all__ = [
    "Campaign",
    "run_campaign",
    "fit_campaign_models",
    "Dataset",
    "DatasetError",
    "cached_campaign",
    "save_campaign",
    "load_campaign",
    "cache_dir",
    "quarantine_artifact",
    "ArtifactError",
    "ResilienceConfig",
    "ResilienceError",
    "RunReport",
    "ChunkTask",
    "ChunkFailure",
    "CorruptResultError",
    "run_chunks",
    "ScalePreset",
    "ScaleError",
    "PRESETS",
    "get_scale",
    "BlockPredictor",
    "SweepBlock",
    "SweepReducer",
    "SweepReport",
    "SweepError",
    "ParetoFrontierReducer",
    "TopKReducer",
    "GroupedMetricReducer",
    "CollectReducer",
    "pareto_indices",
    "discretized_frontier",
    "run_sweep",
    "predict_source",
    "render_table",
    "render_design_point",
    "Series",
    "render_series",
    "render_boxplot",
    "render_boxplot_panel",
    "ascii_scatter",
    "generate_report",
    "write_report",
]
