"""Golden digests of every experiment's rendered output at test scale.

Each experiment's ``result.text`` is hashed (sha256) on a fresh study
context and compared with ``tests/golden/test.json``, so a refactor that
moves any rendered number fails here.  The context is built in this
module rather than shared: the shared one memoizes sweep results whose
rounding can depend on the block size an earlier test swept with.

X6 prints wall-clock fit times, so its ``\\d+ms`` cells are masked and
the runs of spaces and dashes their width moves are collapsed before
hashing — the mask the end-to-end benchmark's reference applies.

Regenerate with ``pytest tests/test_golden.py --update-golden`` and give
the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.studies import StudyContext

GOLDEN_PATH = Path(__file__).parent / "golden" / "test.json"

_FIT_TIME = re.compile(r"\d+ms")
_PADDING = re.compile(r"( |-)+")


def text_digest(experiment_id: str, text: str) -> str:
    """sha256 of an experiment's text, with X6's timings masked."""
    if experiment_id == "X6":
        text = _PADDING.sub(r"\1", _FIT_TIME.sub("<ms>", text))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden_ctx(test_scale):
    return StudyContext(scale=test_scale)


@pytest.fixture(scope="module")
def golden(request):
    """``(expected, fresh)`` digest maps; ``--update-golden`` writes ``fresh``."""
    update = request.config.getoption("--update-golden")
    stored = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    fresh: dict = {}
    yield (None if update else stored), fresh
    if update and fresh:
        merged = {**stored, **fresh}
        ordered = {key: merged[key] for key in EXPERIMENTS if key in merged}
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(ordered, indent=2) + "\n")


def test_text_digest_masks_only_x6_timings():
    assert text_digest("X6", "fit  12ms --- ok") == text_digest(
        "X6", "fit 345ms - ok"
    )
    assert text_digest("X5", "fit 12ms") != text_digest("X5", "fit 345ms")


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_experiment_text_matches_golden(golden_ctx, golden, experiment_id):
    expected, fresh = golden
    result = run_experiment(experiment_id, ctx=golden_ctx)
    fresh[experiment_id] = text_digest(experiment_id, result.text)
    if expected is None:
        pytest.skip("--update-golden: digest recorded")
    assert experiment_id in expected, (
        f"no golden digest for {experiment_id}; run with --update-golden"
    )
    assert fresh[experiment_id] == expected[experiment_id], (
        f"{experiment_id}'s rendered output changed; if intended, rerun "
        "with --update-golden and give the reason in CHANGES.md"
    )
