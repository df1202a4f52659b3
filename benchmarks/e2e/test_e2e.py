"""Tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload once untraced and once traced with a one-second
window (one iteration, or one untraced and one traced), about a minute
in all.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import trace_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{(workload, trace): (printed result, record)} for every workload."""
    record = tmp_path_factory.mktemp("e2e") / "runs.jsonl"
    results = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            done = _run(
                ROOT,
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--record", str(record),
            )
            assert done.returncode == 0, done.stderr
            results[workload, int(trace)] = json.loads(done.stdout.splitlines()[-1])
    for line in record.read_text().splitlines():
        entry = json.loads(line)
        key = (entry["workload"], entry["trace"])
        results[key] = (results[key], entry)
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_exactly_the_benchmark_metrics(runs, workload, trace):
    printed, record = runs[workload, trace]
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] is True, record["failures"]
    assert printed["failed"] == 0 and printed["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in section}
    assert {n: m["unit"] for n, m in printed["metrics"].items()} == expected
    for name, metric in printed["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_the_traced_root(runs, workload):
    _, record = runs[workload, 1]
    traced = [it for it in record["iterations"] if it["traced"]]
    assert traced
    for iteration in traced:
        assert set(iteration["layers"]) == set(trace_layers.LAYERS)
        assert min(iteration["layers"].values()) >= 0.0
        total = sum(iteration["layers"].values())
        assert total == pytest.approx(iteration["root_s"], rel=0.01)
        assert iteration["restored"] is True
    assert record["metrics"]["trace.overhead_ratio"] > 0


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in WORKLOADS:
        printed, _ = runs[workload, 0]
        assert all(m["value"] > 0 for m in printed["metrics"].values()), workload


def _repro_attributes():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and module is not None
        for attr, value in vars(module).items()
    }


def test_tracer_restores_every_patched_attribute():
    from repro import experiments

    before = _repro_attributes()
    methods = {
        (module, attribute): trace_layers._resolve(module, attribute)[2]
        for _, module, attribute in trace_layers.TARGETS
        if "." in attribute
    }
    tracer = trace_layers.LayerTracer()
    tracer.install()
    assert sys.modules["repro.experiments"].render_table is not before[
        ("repro.experiments", "render_table")
    ]
    tracer.run(lambda: experiments.run_experiment("T1", ctx=object()))
    tracer.uninstall()

    names = {span[0] for span in tracer.spans}
    assert {"root", "run_experiment", "render_table"} <= names
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.root_s())
    after = _repro_attributes()
    assert all(after[key] is value for key, value in before.items())
    for (module, attribute), original in methods.items():
        assert trace_layers._resolve(module, attribute)[2] is original


def test_tracer_skips_targets_the_package_no_longer_has(monkeypatch):
    gone = ("render.text", "repro.harness.tables", "render_gone")
    monkeypatch.setattr(trace_layers, "TARGETS", trace_layers.TARGETS + (gone,))
    tracer = trace_layers.LayerTracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["repro.harness.tables.render_gone"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", "experiments.glue", 0.0, 10.0, -1, None),
        ("a", "sweep.run", 1.0, 4.0, 0, None),
        ("b", "regression.fit", 2.0, 3.0, 1, None),
        ("c", "render.text", 5.0, 6.0, 0, None),
    ]
    times = trace_layers.self_times(spans)
    assert times["experiments.glue"] == pytest.approx(6.0)
    assert times["sweep.run"] == pytest.approx(2.0)
    assert times["regression.fit"] == pytest.approx(1.0)
    assert times["render.text"] == pytest.approx(1.0)
    assert sum(times.values()) == pytest.approx(10.0)


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([v * 0.8 for v in BASE], "lower", "improved"),
        ([v * 1.2 for v in BASE], "lower", "worse"),
        ([v * 1.2 for v in BASE], "higher", "improved"),
        ([v * 1.02 for v in BASE], "lower", "unchanged"),
        ([5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 8.0, 12.0, 10.0], "lower",
         "unresolved"),
    ],
)
def test_compare_verdicts(change, better, expected):
    assert compare.verdict(BASE, change, 0.1, better) == expected


def test_compare_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    def record(seed, wall):
        metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        metrics["wall_s"] = wall
        return {"workload": "studies-warm", "seed": seed, "trace": 0,
                "metrics": metrics, "iterations": []}

    base, change = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path, wall in ((base, 10.0), (change, 13.0)):
        path.write_text(
            "".join(json.dumps(record(s, wall + s / 100)) + "\n" for s in range(10))
        )
    assert compare.main([str(base), str(change)]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()[1:] if line]
    assert len(rows) == len(SPEC["end_to_end"])
    verdicts = {row.split()[1]: row.split()[-1] for row in rows}
    assert verdicts["wall_s"] == "worse"
    assert verdicts["setup_s"] == "unchanged"


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, "--workload", "campaign-cold", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
