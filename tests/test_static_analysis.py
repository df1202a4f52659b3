"""The static-analysis gate: ``src/`` must stay clean.

This is the enforcement point wired into CI: every rule runs over the
whole ``src/`` tree and any non-baselined finding fails the build.  New
violations must either be fixed or explicitly justified with a reason
string in ``analysis-baseline.json``.
"""

from pathlib import Path

import pytest

from repro.analysis import Baseline, analyze_paths, render_text

REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / "analysis-baseline.json"


@pytest.fixture(scope="module")
def report():
    """One analysis of ``src/`` against the baseline, shared by the gates."""
    return analyze_paths(
        [REPO / "src"], root=REPO, baseline=Baseline.load(BASELINE)
    )


def test_src_tree_has_no_findings(report):
    assert report.findings == [], "\n" + render_text(report)


def test_baseline_has_no_stale_entries(report):
    stale = [f"{e.rule} {e.path}" for e in report.stale_baseline]
    assert stale == [], f"stale baseline entries: {stale}"


def test_baseline_entries_all_carry_reasons():
    baseline = Baseline.load(BASELINE)
    for entry in baseline.entries:
        assert entry.reason and "TODO" not in entry.reason, (
            f"baseline entry {entry.rule} at {entry.path} needs a real "
            "reason string"
        )


def test_gate_catches_an_injected_violation(tmp_path):
    """End-to-end: a fresh violation in a src-like tree fails the gate."""
    bad = tmp_path / "src" / "repro" / "metrics" / "sneaky.py"
    bad.parent.mkdir(parents=True)
    bad.write_text('"""Doc."""\n\nimport numpy as np\n\nnp.random.seed(0)\n')
    report = analyze_paths([tmp_path / "src"], root=tmp_path)
    assert [f.rule for f in report.findings] == ["DET001"]
    assert report.exit_code() == 1
