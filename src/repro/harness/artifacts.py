"""Artifact persistence: one cached file per campaign benchmark.

Simulation campaigns are the expensive phase of every experiment, and the
benchmarks for different figures share one campaign.  Each benchmark's
result — its ``bips``/``watts`` columns over the campaign's sampled
points, in sampling order — is one JSON file keyed by a digest of the
campaign description with the benchmark list cut to that benchmark
(scale knobs, space shape, benchmark, cache version).  The points
themselves are not stored: the scale's seed redraws them.

A file is written atomically as soon as its benchmark finishes, so an
interrupted campaign keeps every finished benchmark, and a campaign over
a subset or superset of the benchmarks reuses the files it shares with
earlier runs.

The cache directory defaults to ``.repro_cache`` under the current
working directory; override via ``REPRO_CACHE_DIR``.  Delete the directory
to invalidate.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..designspace import DesignSpace
from ..obs.metrics import get_registry
from ..obs.tracing import get_tracer
from ..simulator import Simulator
from .campaign import (
    Campaign,
    _assemble,
    _campaign_description,
    _new_campaign,
    _simulate_benchmarks,
)
from .resilience import ResilienceConfig
from .scale import ScalePreset

logger = logging.getLogger(__name__)

#: Bump to invalidate caches when simulator/workload semantics change.
CACHE_VERSION = 6

#: The metric columns each artifact holds, in (bips, watts) pair order.
_COLUMNS = ("bips", "watts")


class ArtifactError(RuntimeError):
    """Raised for unreadable or mismatched artifacts."""


def cache_dir() -> Path:
    """Artifact cache directory (``REPRO_CACHE_DIR`` or ``.repro_cache``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def _digest(payload: dict) -> str:
    """Stable short digest of a JSON-representable description."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def _campaign_key(scale: ScalePreset, space: DesignSpace, benchmark: str) -> str:
    """Digest of everything that determines one benchmark's results."""
    return _digest(
        {
            "version": CACHE_VERSION,
            **_campaign_description(scale, space, [benchmark]),
        }
    )


def _artifact_path(campaign: Campaign, benchmark: str) -> Path:
    key = _campaign_key(campaign.scale, campaign.space, benchmark)
    return cache_dir() / f"campaign-{campaign.scale.name}-{benchmark}-{key}.json"


def save_campaign(campaign: Campaign, benchmark: str) -> None:
    """Write one assembled benchmark of ``campaign`` to its cache file."""
    path = _artifact_path(campaign, benchmark)
    with get_tracer().span("artifacts.save", path=str(path)):
        train = campaign.dataset(benchmark, "train").metrics
        validation = campaign.dataset(benchmark, "validation").metrics
        payload = {"version": CACHE_VERSION, "benchmark": benchmark}
        for name in _COLUMNS:
            payload[name] = train[name].tolist() + validation[name].tolist()
        _write_atomically(path, json.dumps(payload))


def _write_atomically(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # Crash safety: stage in a unique temp file in the same directory,
    # fsync, then atomically rename — an interrupt at any instant leaves
    # either the old artifact or the new one, never a truncated file.
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            logger.debug("could not remove temp artifact %s", tmp_name)
        raise


def load_campaign(campaign: Campaign, benchmark: str) -> None:
    """Assemble one benchmark of ``campaign`` from its cache file.

    Raises ArtifactError when the file is missing or unreadable, has
    another cache version, names another benchmark, or does not hold
    one numeric ``bips`` and ``watts`` value per sampled point.
    """
    path = _artifact_path(campaign, benchmark)
    size = len(campaign.train_points) + len(campaign.validation_points)
    with get_tracer().span("artifacts.load", path=str(path)):
        _assemble(campaign, benchmark, _read_pairs(path, benchmark, size))


def _read_pairs(path: Path, benchmark: str, size: int) -> List[Tuple]:
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
    for key in ("benchmark",) + _COLUMNS:
        if key not in payload:
            raise ArtifactError(
                f"malformed campaign artifact {path}: missing key {key!r}"
            )
    if payload["benchmark"] != benchmark:
        raise ArtifactError(
            f"malformed campaign artifact {path}: holds benchmark "
            f"{payload['benchmark']!r}, expected {benchmark!r}"
        )
    columns = []
    for name in _COLUMNS:
        try:
            column = np.asarray(payload[name], dtype=float)
        except (TypeError, ValueError) as error:
            raise ArtifactError(
                f"malformed campaign artifact {path}: non-numeric "
                f"{name!r} column: {error}"
            ) from error
        if column.ndim != 1 or len(column) != size:
            raise ArtifactError(
                f"malformed campaign artifact {path}: {name!r} column has "
                f"shape {column.shape}, expected ({size},)"
            )
        columns.append(column)
    return list(zip(*columns))


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


def _load_cached(campaign: Campaign, benchmark: str) -> bool:
    """Assemble ``benchmark`` from its cache file if a valid one exists.

    A file that fails to load is quarantined, so only its benchmark is
    simulated again.
    """
    path = _artifact_path(campaign, benchmark)
    if not path.exists():
        return False
    try:
        load_campaign(campaign, benchmark)
    except ArtifactError as error:
        quarantine_artifact(path, str(error))
        return False
    return True


def cached_campaign(
    simulator: Optional[Simulator] = None,
    scale: Optional[ScalePreset] = None,
    space: Optional[DesignSpace] = None,
    benchmarks: Optional[Sequence[str]] = None,
    refresh: bool = False,
    workers: int = 1,
    resilience: Optional[ResilienceConfig] = None,
) -> Campaign:
    """Load each benchmark's cached artifact; simulate and cache the rest.

    Benchmarks without a valid file (or all of them, with ``refresh``)
    are simulated as in :func:`repro.harness.campaign.run_campaign`, and
    each one's file is written as soon as its chunk completes — so
    rerunning an interrupted campaign simulates only what is missing.
    ``artifacts.cache.hits``/``.misses`` count benchmarks loaded and
    simulated; ``run_report`` covers the simulated ones.
    """
    campaign = _new_campaign(scale, space, benchmarks)
    registry = get_registry()
    missing = []
    for benchmark in campaign.benchmarks:
        if not refresh and _load_cached(campaign, benchmark):
            registry.increment("artifacts.cache.hits")
        else:
            registry.increment("artifacts.cache.misses")
            missing.append(benchmark)
    _simulate_benchmarks(
        simulator or Simulator(),
        campaign,
        missing,
        workers,
        resilience,
        on_benchmark=functools.partial(save_campaign, campaign),
    )
    return campaign
