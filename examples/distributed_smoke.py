"""Distributed smoke: work-stealing must survive a SIGKILLed worker bitwise.

Exercises the journal-coordinated work-stealing backend end-to-end:

1. run a clean serial campaign as the reference;
2. rerun distributed with 3 spawned workers coordinating through a
   shared run directory; a monitor thread SIGKILLs one worker once the
   run is underway, survivors steal its leased work, and the final
   datasets must be bitwise-identical to the serial reference;
3. rerun with a deterministic zombie fault (a worker keeps writing
   after its lease expired and was stolen) and assert the fencing-token
   merge discards the stale record: the duplicate is visible in the run
   report and the results are again bitwise-identical.

Run:  python examples/distributed_smoke.py

Exits non-zero if any distributed run diverges from the serial
reference — CI uses this as the distributed-executor acceptance gate.
"""

import os
import signal
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.harness import (
    DistributedConfig,
    Fault,
    FaultPlan,
    ResilienceConfig,
    get_scale,
    run_campaign,
    workers_status,
)
from repro.simulator import Simulator
from repro.workloads import BENCHMARK_NAMES

KILL_TIMEOUT_S = 120.0


def assert_campaigns_equal(reference, candidate, benchmarks, label):
    for bench in benchmarks:
        for split in ("train", "validation"):
            ours = reference.dataset(bench, split).metrics
            theirs = candidate.dataset(bench, split).metrics
            for metric in ("bips", "watts"):
                if not np.array_equal(ours[metric], theirs[metric]):
                    raise SystemExit(
                        f"FAIL [{label}]: {bench}/{split}/{metric} diverged"
                    )
    print(f"  OK [{label}]: bitwise-identical to the clean serial run")


def counter_total(report, prefix):
    return sum(
        value
        for name, value in report.metrics["counters"].items()
        if name.startswith(prefix)
    )


def kill_one_worker(run_dir: Path, killed: dict) -> None:
    """SIGKILL a worker while it holds a lease, leaving stealable work."""
    deadline = time.monotonic() + KILL_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            status = workers_status(run_dir)
        except Exception:
            time.sleep(0.05)
            continue
        alive = {
            w["worker"]: w for w in status["workers"] if w.get("alive")
        }
        # Strike a worker that currently owns a lease (it is mid-chunk,
        # so its claim must be stolen) while a survivor is still running.
        leased = [l for l in status["leases"] if l["worker"] in alive]
        if leased and len(alive) >= 2:
            victim = alive[leased[0]["worker"]]
            try:
                os.kill(victim["pid"], signal.SIGKILL)
            except ProcessLookupError:
                continue
            killed["worker"] = victim["worker"]
            killed["pid"] = victim["pid"]
            return
        total = status["tasks"]["total"]
        if total is not None and status["tasks"]["done"] >= total:
            return
        time.sleep(0.02)


def main() -> None:
    # A campaign is one chunk per benchmark: all nine benchmarks on
    # 3,000-instruction traces keep every worker leasing chunks long
    # enough for the monitor to strike one mid-lease.
    scale = get_scale("ci").with_overrides(
        name="distributed-smoke", trace_length=3000, n_train=8, n_validation=4
    )
    benchmarks = list(BENCHMARK_NAMES)

    print(f"Reference: clean serial campaign ({scale.n_train}+"
          f"{scale.n_validation} designs x {len(benchmarks)} benchmarks)")
    reference = run_campaign(
        Simulator(), scale=scale, benchmarks=benchmarks
    )

    # -- 3 workers, one SIGKILLed mid-run ------------------------------------
    print("Distributed: 3 workers, SIGKILL one mid-run, survivors steal")
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "kill-run"
        killed = {}
        monitor = threading.Thread(
            target=kill_one_worker, args=(run_dir, killed), daemon=True
        )
        monitor.start()
        survived = run_campaign(
            Simulator(),
            scale=scale,
            benchmarks=benchmarks,
            resilience=ResilienceConfig(
                backend="distributed",
                distributed=DistributedConfig(
                    run_dir=run_dir,
                    spawn=3,
                    lease_ttl=2.0,
                    heartbeat_interval=0.25,
                ),
            ),
        )
        monitor.join(timeout=5.0)
    report = survived.run_report
    if not killed:
        raise SystemExit(
            "FAIL: run finished before the monitor could SIGKILL a worker"
        )
    print(f"  killed worker {killed['worker']} (pid {killed['pid']})")
    stolen = counter_total(report, "distributed.chunks_stolen")
    expired = counter_total(report, "distributed.chunks_expired")
    print(f"  execution: {report.summary()}")
    print(f"  lease protocol: {stolen} stolen, {expired} expired")
    if report.failure is not None:
        raise SystemExit("FAIL: distributed run reported a failure")
    if stolen + expired == 0:
        raise SystemExit(
            "FAIL: killed worker's leased chunk was never stolen"
        )
    assert_campaigns_equal(reference, survived, benchmarks, "SIGKILL + steal")

    # -- deterministic zombie: stale writer fenced off by the token ----------
    print("Distributed: zombie writer fenced off after lease expiry")
    with tempfile.TemporaryDirectory() as tmp:
        fenced = run_campaign(
            Simulator(),
            scale=scale,
            benchmarks=benchmarks,
            resilience=ResilienceConfig(
                backend="distributed",
                distributed=DistributedConfig(
                    run_dir=Path(tmp) / "zombie-run",
                    spawn=2,
                    lease_ttl=1.0,
                    heartbeat_interval=0.2,
                ),
                faults=FaultPlan([Fault(chunk=1, kind="zombie")]),
            ),
        )
    report = fenced.run_report
    duplicates = [
        event for event in report.events
        if event["name"] == "distributed.duplicate"
    ]
    print(f"  execution: {report.summary()}")
    if not duplicates:
        raise SystemExit("FAIL: zombie write left no duplicate to merge out")
    attrs = duplicates[0]["attrs"]
    print(f"  duplicate on chunk {attrs['chunk']} resolved at "
          f"token {attrs['winner_token']}")
    if attrs["winner_token"] < 2:
        raise SystemExit("FAIL: winning record carries an unfenced token")
    assert_campaigns_equal(reference, fenced, benchmarks, "zombie + fencing")

    print()
    print("distributed smoke passed: kill and zombie runs bitwise-identical")


if __name__ == "__main__":
    main()
