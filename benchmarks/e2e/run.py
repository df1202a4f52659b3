"""End-to-end benchmark of reproduction runs.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload studies-warm --seed 7 --trace 0

One run measures one workload for ``--seconds`` (default: ``run_seconds``
of ``BENCHMARK.json``): it starts ``workload.py`` in a fresh interpreter
(``PYTHONPATH=src``, BLAS pinned to one thread) again and again until
the time is up, one process after the other (a closed loop with one
client).  Each process is one iteration; the run reports medians over
its iterations.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics, measured by wrapping each layer's public entry points
from outside the package (``trace_layers.py``).

Every output is checked: experiment texts and the campaign's bips/watts
columns are digested and compared with ``reference/seed<N>.json`` when
it exists, and otherwise across the run's iterations.  The campaign
workloads also compare their campaign with one built on the serial path
for the same seed, so ``campaign-cold`` and ``campaign-pool`` must agree
on every seed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run
(every iteration, every layer's self time) is appended to
``--record`` (default ``.bench_e2e/results.jsonl``) for ``compare.py``.
Work files live under ``.bench_e2e/`` in the checkout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_e2e"
REFERENCE = HERE / "reference"

#: Workloads that load the seed's campaign from disk instead of running it.
WARM = ("studies-warm", "predict-exhaustive")

#: Longest a single iteration may take before it is killed.
ITERATION_TIMEOUT_S = 120.0

#: No iteration starts after this much of the run has passed.
RUN_BUDGET_S = 140.0

#: Time ``workload.speed_probe`` takes on the calibration host when it is
#: quiet.  Times are rescaled by ``PROBE_REFERENCE_S`` over the probe's
#: time in the same process: set-up by the probe run right after it, the
#: timed region by the mean of the probes just before and after it.  They
#: then read as seconds at that reference speed, and the shared host's
#: own slowdowns cancel out.
PROBE_REFERENCE_S = 0.4


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(args, cache_dir: Path) -> dict:
    """Run ``workload.py`` with ``args``; returns its last JSON line.

    The child gets its own process group, so a timed-out iteration is
    killed together with any pool workers it started, and its temporary
    files stay inside the checkout.
    """
    scratch = WORK / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(cache_dir),
        TMPDIR=str(scratch),
    )
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    command = [sys.executable, str(HERE / "workload.py"), *args]
    process = subprocess.Popen(
        command,
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=ITERATION_TIMEOUT_S)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if process.returncode != 0:
        raise BenchmarkError(
            f"{' '.join(args)} exited with {process.returncode}:\n{err.strip()}"
        )
    lines = out.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{' '.join(args)} printed nothing:\n{err.strip()}")
    return json.loads(lines[-1])


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """Short digest of the package source; keys the warm campaign cache."""
    digest = hashlib.sha256()
    package = ROOT / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def seed_cache(seed: int) -> Path:
    return WORK / "cache" / source_digest() / f"seed{seed}"


def serial_campaign_digest(seed: int) -> str:
    """Digest of the seed's campaign built on the serial path (cached)."""
    cache = seed_cache(seed)
    marker = cache / "digest.json"
    if not marker.exists():
        cache.mkdir(parents=True, exist_ok=True)
        result = run_child(["--prepare", "--seed", str(seed)], cache)
        marker.write_text(json.dumps(result))
    return json.loads(marker.read_text())["campaign"]


def load_reference(seed: int):
    path = REFERENCE / f"seed{seed}.json"
    return json.loads(path.read_text()) if path.exists() else None


def run_iterations(workload: str, seed: int, seconds: float, trace: bool):
    """Run iterations until ``seconds`` have passed; returns their results.

    With ``trace``, iterations alternate untraced and traced (starting
    untraced) and at least one of each runs.
    """
    iterations = []
    started = time.monotonic()
    spans_dir = WORK / "spans"
    while True:
        traced = trace and len(iterations) % 2 == 1
        if workload in WARM:
            cache = seed_cache(seed)
        else:
            cache = WORK / "tmp" / f"{workload}-{os.getpid()}-{len(iterations)}"
            shutil.rmtree(cache, ignore_errors=True)
            cache.mkdir(parents=True)
        args = ["--workload", workload, "--seed", str(seed)]
        if traced:
            spans_dir.mkdir(parents=True, exist_ok=True)
            spans = spans_dir / f"{workload}-seed{seed}-{len(iterations)}.jsonl"
            args += ["--trace", str(spans)]
        try:
            result = run_child(args + ["--launched", repr(time.monotonic())], cache)
        finally:
            if workload not in WARM:
                shutil.rmtree(cache, ignore_errors=True)
        result["traced"] = traced
        iterations.append(result)
        elapsed = time.monotonic() - started
        enough = not trace or len(iterations) >= 2
        if enough and (elapsed >= seconds or elapsed >= RUN_BUDGET_S):
            return iterations


def check(workload: str, iterations, serial_digest, reference):
    """(attempted, failures) over every output of every iteration."""
    attempted = 0
    failures = []
    expected_steps = (reference or {}).get("outputs", {}).get(workload)
    expected_campaign = (reference or {}).get("campaign") or serial_digest
    first = iterations[0]
    for number, result in enumerate(iterations):
        tag = f"iteration {number}"
        failures += [f"{tag}: {failure}" for failure in result["failures"]]
        attempted += len(result["steps"]) + 1
        for step, digest in result["digests"].items():
            want = (expected_steps or first["digests"]).get(step)
            if digest != want:
                failures.append(
                    f"{tag}: {step} output digest {digest[:16]} != {str(want)[:16]}"
                )
        want = expected_campaign or first["campaign"]
        if result["campaign"] != want:
            failures.append(
                f"{tag}: campaign digest {result['campaign'][:16]} != {want[:16]}"
            )
        if result["traced"]:
            attempted += 1
            if not result["restored"]:
                failures.append(f"{tag}: traced entry points were not restored")
    return attempted, failures


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(iterations) -> dict:
    """The end-to-end metrics of a run's iterations, at reference speed.

    ``wall_s`` is the sum over steps of each step's median time: a burst
    of host noise that slows one step in one iteration and another step
    in the next is discarded both times, where a median of iteration
    totals would keep it.
    """

    def rescaled(r, step):
        return r["seconds"][step] * 2 * PROBE_REFERENCE_S / sum(r["probes_s"])

    wall = sum(
        _median(rescaled(r, step) for r in iterations)
        for step in iterations[0]["steps"]
    )
    return {
        "setup_s": _median(
            r["setup_s"] * PROBE_REFERENCE_S / r["probes_s"][0] for r in iterations
        ),
        "wall_s": wall,
        "sims_per_s": _median(r["sims"] for r in iterations) / wall,
        "predictions_per_s": _median(r["predictions"] for r in iterations) / wall,
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in iterations),
    }


def per_layer(iterations) -> dict:
    traced = [r for r in iterations if r["traced"]]
    plain = [r for r in iterations if not r["traced"]]
    metrics = {
        name: _median(r["per_layer"][name] for r in traced)
        for name in traced[0]["per_layer"]
    }
    metrics["trace.overhead_ratio"] = _median(r["wall_s"] for r in traced) / _median(
        r["wall_s"] for r in plain
    )
    return metrics


def layer_table(iterations) -> str:
    """Human-readable self-time breakdown of the median traced iteration."""
    traced = sorted(
        (r for r in iterations if r["traced"]), key=lambda r: r["root_s"]
    )
    median = traced[len(traced) // 2]
    root = median["root_s"]
    lines = [f"traced root {root:.3f} s; self time by layer:"]
    for layer, seconds in sorted(median["layers"].items(), key=lambda kv: -kv[1]):
        if seconds > 0:
            lines.append(f"  {layer:28s} {seconds:9.4f} s {100 * seconds / root:6.2f}%")
    return "\n".join(lines)


def update_reference(workload: str, seed: int, iterations) -> None:
    path = REFERENCE / f"seed{seed}.json"
    reference = load_reference(seed) or {"campaign": None, "outputs": {}}
    reference["campaign"] = iterations[0]["campaign"]
    reference["outputs"][workload] = iterations[0]["digests"]
    REFERENCE.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        type=Path,
        default=WORK / "results.jsonl",
        help="JSONL file the run's full record is appended to",
    )
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help="store this run's digests as reference/seed<N>.json",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}

    serial_digest = None
    if args.workload != "campaign-cold" or seed_cache(args.seed).exists():
        serial_digest = serial_campaign_digest(args.seed)
    iterations = run_iterations(args.workload, args.seed, seconds, bool(args.trace))
    if args.update_reference:
        update_reference(args.workload, args.seed, iterations)
    attempted, failures = check(
        args.workload, iterations, serial_digest, load_reference(args.seed)
    )
    metrics = per_layer(iterations) if args.trace else end_to_end(iterations)
    if set(metrics) != set(units):
        raise BenchmarkError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        print(layer_table(iterations), file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": seconds,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "iterations": iterations,
    }
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with open(args.record, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        sys.exit(1)
