"""Artifact persistence: campaign caching.

Simulation campaigns are the expensive phase of every experiment, and the
benchmarks for different figures share one campaign.  Campaigns are
serialized to JSON keyed by a digest of everything that determines them
(scale knobs, space shape, benchmark list, library version), so repeated
bench/test invocations pay once.

The cache directory defaults to ``.repro_cache`` under the current
working directory; override via ``REPRO_CACHE_DIR``.  Delete the directory
to invalidate.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from ..designspace import DesignPoint, DesignSpace, sampling_space
from ..obs.metrics import get_registry
from ..obs.tracing import get_tracer
from ..simulator import Simulator
from ..workloads import BENCHMARK_NAMES
from .campaign import Campaign, run_campaign
from .dataset import Dataset
from .resilience import ResilienceConfig
from .scale import ScalePreset, get_scale

logger = logging.getLogger(__name__)

#: Bump to invalidate caches when simulator/workload semantics change.
CACHE_VERSION = 5


class ArtifactError(RuntimeError):
    """Raised for unreadable or mismatched artifacts."""


def cache_dir() -> Path:
    """Artifact cache directory (``REPRO_CACHE_DIR`` or ``.repro_cache``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def _campaign_key(
    scale: ScalePreset, space: DesignSpace, benchmarks: Sequence[str],
    memory_mode: str,
) -> str:
    payload = {
        "version": CACHE_VERSION,
        "scale": {
            "trace_length": scale.trace_length,
            "n_train": scale.n_train,
            "n_validation": scale.n_validation,
            "seed": scale.seed,
        },
        "space": {
            "name": space.name,
            "parameters": [
                [p.name, list(p.values)] for p in space.parameters
            ],
        },
        "benchmarks": list(benchmarks),
        "memory_mode": memory_mode,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:16]


def save_campaign(campaign: Campaign, path: Path) -> None:
    """Serialize a campaign (points + metric columns) to JSON."""
    with get_tracer().span("artifacts.save", path=str(path)):
        _save_campaign(campaign, path)


def _save_campaign(campaign: Campaign, path: Path) -> None:
    payload = {
        "version": CACHE_VERSION,
        "space": campaign.space.name,
        "scale": campaign.scale.name,
        "benchmarks": list(campaign.benchmarks),
        "train_points": [list(p.values) for p in campaign.train_points],
        "validation_points": [list(p.values) for p in campaign.validation_points],
        "metrics": {
            split: {
                bench: {
                    name: getattr(campaign, split)[bench].metrics[name].tolist()
                    for name in ("bips", "watts")
                }
                for bench in campaign.benchmarks
            }
            for split in ("train", "validation")
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # Crash safety: stage in a unique temp file in the same directory,
    # fsync, then atomically rename — an interrupt at any instant leaves
    # either the old artifact or the new one, never a truncated file.
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            logger.debug("could not remove temp artifact %s", tmp_name)
        raise


def load_campaign(
    path: Path, space: DesignSpace, scale: ScalePreset
) -> Campaign:
    """Deserialize a campaign; raises ArtifactError on any mismatch."""
    with get_tracer().span("artifacts.load", path=str(path)):
        return _load_campaign(path, space, scale)


def _load_campaign(
    path: Path, space: DesignSpace, scale: ScalePreset
) -> Campaign:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ArtifactError(f"unreadable campaign artifact {path}: {error}")
    if not isinstance(payload, dict):
        raise ArtifactError(
            f"malformed campaign artifact {path}: expected a JSON object, "
            f"got {type(payload).__name__}"
        )
    if payload.get("version") != CACHE_VERSION:
        raise ArtifactError(
            f"artifact version {payload.get('version')} != {CACHE_VERSION}"
        )

    def fetch(table, key, where: str):
        """Index into the payload; malformed shapes become ArtifactError."""
        try:
            return table[key]
        except (KeyError, TypeError, IndexError) as error:
            raise ArtifactError(
                f"malformed campaign artifact {path}: missing or malformed "
                f"key {key!r} in {where} ({type(error).__name__}: {error})"
            ) from error

    def rebuild(key) -> list:
        raw_points = fetch(payload, key, "payload")
        try:
            return [
                DesignPoint(space.names, tuple(values))
                for values in raw_points
            ]
        except (TypeError, ValueError) as error:
            raise ArtifactError(
                f"malformed campaign artifact {path}: bad point data under "
                f"{key!r}: {error}"
            ) from error

    train_points = rebuild("train_points")
    validation_points = rebuild("validation_points")
    benchmarks = tuple(fetch(payload, "benchmarks", "payload"))
    campaign = Campaign(
        space=space,
        scale=scale,
        benchmarks=benchmarks,
        train_points=train_points,
        validation_points=validation_points,
    )
    all_metrics = fetch(payload, "metrics", "payload")
    for split, points in (
        ("train", train_points),
        ("validation", validation_points),
    ):
        split_metrics = fetch(all_metrics, split, "'metrics'")
        for bench in benchmarks:
            metrics = fetch(split_metrics, bench, f"'metrics'/{split!r}")
            columns = {}
            for name in ("bips", "watts"):
                raw = fetch(metrics, name, f"'metrics'/{split!r}/{bench!r}")
                try:
                    column = np.asarray(raw, dtype=float)
                except (TypeError, ValueError) as error:
                    raise ArtifactError(
                        f"malformed campaign artifact {path}: non-numeric "
                        f"{name!r} column for {bench!r}/{split}: {error}"
                    ) from error
                if column.ndim != 1 or len(column) != len(points):
                    raise ArtifactError(
                        f"malformed campaign artifact {path}: {name!r} column "
                        f"for {bench!r}/{split} has shape {column.shape}, "
                        f"expected ({len(points)},)"
                    )
                columns[name] = column
            getattr(campaign, split)[bench] = Dataset(
                benchmark=bench,
                space=space,
                points=points,
                metrics=columns,
            )
    return campaign


def quarantine_artifact(path: Path, reason: str) -> Optional[Path]:
    """Move a bad artifact aside to ``<name>.corrupt`` for post-mortems.

    Returns the quarantine path, or None when the rename itself failed
    (the artifact is then left in place and will be overwritten).
    """
    target = path.with_suffix(path.suffix + ".corrupt")
    get_registry().increment("artifacts.quarantined")
    get_tracer().event(
        "artifacts.quarantine", path=str(path), reason=reason
    )
    try:
        os.replace(path, target)
    except OSError as error:
        logger.warning(
            "could not quarantine bad artifact %s (%s); it will be "
            "overwritten on regeneration", path, error,
        )
        return None
    logger.warning(
        "quarantined bad campaign artifact %s -> %s (%s); regenerating",
        path, target.name, reason,
    )
    return target


def cached_campaign(
    simulator: Optional[Simulator] = None,
    scale: Optional[ScalePreset] = None,
    space: Optional[DesignSpace] = None,
    benchmarks: Optional[Sequence[str]] = None,
    refresh: bool = False,
    workers: int = 1,
    resilience: Optional[ResilienceConfig] = None,
    batch_size: Optional[int] = None,
) -> Campaign:
    """Load the matching cached campaign or run and cache a fresh one.

    ``batch_size`` tunes the batched timing kernel on every run; it
    never changes results, so it is absent from the cache key.

    A cached file that fails to load (truncated, stale version, missing
    keys) is quarantined to ``<name>.corrupt`` with a logged reason, then
    regenerated.  When ``resilience`` asks for resume without naming a
    journal, the journal lives next to the artifact
    (``<name>.journal.jsonl``) so an interrupted regeneration continues
    from completed chunks.
    """
    simulator = simulator or Simulator()
    scale = scale or get_scale()
    space = space or sampling_space()
    names = tuple(benchmarks or BENCHMARK_NAMES)
    key = _campaign_key(scale, space, names, simulator.memory_mode)
    path = cache_dir() / f"campaign-{scale.name}-{key}.json"
    registry = get_registry()
    if path.exists() and not refresh:
        try:
            campaign = load_campaign(path, space, scale)
        except ArtifactError as error:
            quarantine_artifact(path, str(error))
        else:
            registry.increment("artifacts.cache.hits")
            return campaign
    registry.increment("artifacts.cache.misses")
    if resilience is not None and resilience.journal_path is None:
        journal_path = path.with_suffix(".journal.jsonl")
        resilience = ResilienceConfig(
            policy=resilience.policy,
            journal_path=journal_path,
            resume=resilience.resume,
            faults=resilience.faults,
            backend=resilience.backend,
            distributed=resilience.distributed,
        )
        if refresh and journal_path.exists():
            journal_path.unlink()
    campaign = run_campaign(
        simulator,
        scale=scale,
        space=space,
        benchmarks=names,
        workers=workers,
        resilience=resilience,
        batch_size=batch_size,
    )
    save_campaign(campaign, path)
    return campaign
