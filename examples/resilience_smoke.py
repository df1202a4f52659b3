"""Kill-and-rerun check: an interrupted campaign resumes bit-identically.

A campaign caches each benchmark as soon as it finishes, so a rerun of
an interrupted campaign simulates only what is missing.  This example
checks that with a real kill, end to end:

1. simulate a clean serial reference campaign in-process (ci scale, all
   nine benchmarks);
2. start ``repro run F1 --scale ci --workers 2`` in a child process in
   its own session, on a fresh temporary ``REPRO_CACHE_DIR``;
3. once k benchmark artifacts exist (1 <= k < 9), SIGKILL the child's
   whole process group, so no pool worker outlives it;
4. rerun the campaign in-process on the same cache: it must simulate
   exactly the 9 - k missing benchmarks, and all nine must be bitwise
   equal to the reference.

Run:  python examples/resilience_smoke.py   (POSIX only: it uses
process groups).  Exits non-zero if the rerun diverges or simulates
the wrong benchmarks.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.harness import cached_campaign, get_scale, run_campaign
from repro.simulator import Simulator
from repro.workloads import BENCHMARK_NAMES


def assert_campaigns_equal(reference, candidate):
    for bench in reference.benchmarks:
        for split in ("train", "validation"):
            ours = reference.dataset(bench, split).metrics
            theirs = candidate.dataset(bench, split).metrics
            for metric in ("bips", "watts"):
                if not np.array_equal(ours[metric], theirs[metric]):
                    raise SystemExit(f"FAIL: {bench}/{split}/{metric} diverged")


def artifacts(cache: Path) -> list:
    return sorted(cache.glob("campaign-*.json"))


def wait_for_group_exit(pgid: int, timeout: float = 10.0) -> None:
    """Return once no process of group ``pgid`` is left."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise SystemExit(f"FAIL: processes of group {pgid} outlived the kill")


def start_and_kill(cache: Path) -> int:
    """Run the pool campaign in a child; SIGKILL it after a benchmark.

    Returns k, the number of benchmark artifacts the killed run left.
    """
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache), REPRO_SCALE="ci")
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "F1", "--scale", "ci",
         "--workers", "2"],
        env=env,
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        while not artifacts(cache):
            if child.poll() is not None:
                raise SystemExit(
                    f"FAIL: campaign exited ({child.returncode}) before "
                    "caching a benchmark"
                )
            time.sleep(0.002)
    finally:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        wait_for_group_exit(child.pid)
    return len(artifacts(cache))


def main() -> None:
    scale = get_scale("ci")
    n = len(BENCHMARK_NAMES)
    print(f"Reference: clean serial campaign ({scale.n_train}+"
          f"{scale.n_validation} designs x {n} benchmarks)")
    reference = run_campaign(Simulator(), scale=scale)

    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp)
        print("Kill: pool campaign SIGKILLed after its first cached benchmark")
        k = start_and_kill(cache)
        print(f"  {k} of {n} benchmarks cached; no process of the run left")
        if not 1 <= k < n:
            raise SystemExit(f"FAIL: the kill left {k} benchmarks, need 1..{n - 1}")

        os.environ["REPRO_CACHE_DIR"] = tmp
        resumed = cached_campaign(Simulator(), scale=scale)
        report = resumed.run_report
        print(f"Rerun: {report.summary()}")
        if report.total_chunks != n - k:
            raise SystemExit(
                f"FAIL: rerun simulated {report.total_chunks} benchmarks, "
                f"expected the {n - k} missing ones"
            )
    assert_campaigns_equal(reference, resumed)
    print(f"  OK: all {n} benchmarks bitwise-identical to the serial reference")
    print()
    print("resilience smoke passed: a killed campaign resumes exactly")


if __name__ == "__main__":
    main()
