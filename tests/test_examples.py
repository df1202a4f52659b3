"""Smoke tests keeping the examples runnable.

All examples must at least compile, and every one except the pool-killing
resilience smoke is executed end-to-end in subprocesses at CI scale
(sharing the session's temporary campaign cache through
``REPRO_CACHE_DIR``).
"""

import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: Every example except ``resilience_smoke.py``, which SIGKILLs a worker
#: pool and runs in CI only.
RUNNABLE = tuple(
    path.name for path in ALL_EXAMPLES if path.name != "resilience_smoke.py"
)


def test_examples_directory_populated():
    names = {path.name for path in ALL_EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 8


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("name", RUNNABLE)
def test_example_runs(name):
    env = dict(os.environ)
    env.setdefault("REPRO_SCALE", "ci")
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=str(EXAMPLES_DIR.parent),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{name} produced no output"


def test_examples_have_module_docstrings():
    for path in ALL_EXAMPLES:
        source = path.read_text()
        assert source.lstrip().startswith('"""'), f"{path.name} lacks a docstring"
