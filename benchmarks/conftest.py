"""Benchmark fixtures.

The ``bench_*.py`` files time the substrate and gate its fast paths:
component throughput, the sweep engine, the batch kernel and tracing
overhead.  Paper artifacts are regenerated, with their seconds, by
``repro run <id>``; ``tests/golden/test.json`` pins all of them.  The
shared phase — the simulation campaign and model fit — is built once per
session through the shared study context and cached on disk, so benches
that need a fitted model do not time it.

Scale: ``REPRO_SCALE`` (ci/default/paper); benches default to ``ci`` so the
whole suite runs in seconds.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import shared_context
from repro.harness import get_scale


@pytest.fixture(scope="session")
def bench_scale():
    return get_scale(os.environ.get("REPRO_SCALE", "ci"))


@pytest.fixture(scope="session")
def ctx(bench_scale):
    context = shared_context(bench_scale)
    # Force the campaign + model fit ahead of any timed bench.
    context.models
    return context
