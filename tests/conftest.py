"""Shared fixtures.

The expensive artifacts — simulation campaign, fitted models — are built
once per session at a tiny scale and shared by every study/experiment
test through a single :class:`StudyContext`.
"""

from __future__ import annotations

import os

import pytest

from repro.harness import get_scale
from repro.simulator import Simulator, baseline_config
from repro.studies import StudyContext
from repro.workloads import generate_trace, get_profile


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/test.json from this run's experiment "
        "outputs instead of checking against it",
    )


#: Scale used by the test suite: even smaller than "ci" so the full suite
#: stays fast; statistical assertions are calibrated to these knobs.
TEST_SCALE = get_scale("ci").with_overrides(
    name="test",
    trace_length=1500,
    n_train=70,
    n_validation=15,
    exploration_limit=800,
    per_depth_designs=100,
    frontier_validations=3,
    depth_validations=2,
)


@pytest.fixture(scope="session")
def test_scale():
    return TEST_SCALE


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache(tmp_path_factory):
    """Point the campaign cache at a session-temporary directory."""
    cache = tmp_path_factory.mktemp("repro-cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    yield cache
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture(scope="session")
def simulator():
    return Simulator()


@pytest.fixture(scope="session")
def ctx(test_scale, simulator):
    """Session-wide study context (one campaign + one model fit)."""
    return StudyContext(scale=test_scale, simulator=simulator)


@pytest.fixture(scope="session")
def baseline():
    return baseline_config()


@pytest.fixture(scope="session")
def small_traces():
    """Short traces for a few representative benchmarks."""
    return {
        name: generate_trace(get_profile(name), 1500, seed=3)
        for name in ("ammp", "mcf", "gzip")
    }
