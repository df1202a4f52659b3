"""Resilience smoke: fault-injected campaigns must match clean runs bitwise.

Exercises the fault-tolerant execution layer end-to-end:

1. run a clean serial campaign as the reference;
2. rerun in parallel with injected worker exceptions on two chunks and
   assert bitwise-identical bips/watts arrays;
3. kill a worker mid-campaign (a real ``os._exit`` in the child) so the
   cached run aborts with the finished benchmarks already on disk, then
   rerun it: only the missing benchmark is simulated, and the results
   are again bitwise-identical.

Run:  python examples/resilience_smoke.py

Exits non-zero if any recovered run diverges from its clean reference —
CI uses this as the resilience acceptance gate.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from repro.harness import (
    ChunkFailure,
    Fault,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
    cached_campaign,
    get_scale,
    run_campaign,
)
from repro.simulator import Simulator


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


def main() -> None:
    scale = get_scale("ci").with_overrides(
        name="resilience-smoke", trace_length=600, n_train=8, n_validation=4
    )
    # One chunk per benchmark: three give both faults below a real chunk.
    benchmarks = ["gzip", "mcf", "mesa"]
    simulator = Simulator()

    print(f"Reference: clean serial campaign ({scale.n_train}+"
          f"{scale.n_validation} designs x {len(benchmarks)} benchmarks)")
    reference = run_campaign(simulator, scale=scale, benchmarks=benchmarks)

    # -- transient worker exceptions on two chunks ---------------------------
    print("Fault injection: transient worker exceptions on chunks 0 and 2")
    faulty = run_campaign(
        Simulator(),
        scale=scale,
        benchmarks=benchmarks,
        workers=2,
        resilience=ResilienceConfig(
            faults=FaultPlan(
                [
                    Fault(chunk=0, kind="transient", attempts=(1,)),
                    Fault(chunk=2, kind="transient", attempts=(1,)),
                ]
            )
        ),
    )
    print(f"  execution: {faulty.run_report.summary()}")
    if faulty.run_report.retried != 2:
        raise SystemExit("FAIL: expected exactly 2 retried chunks")
    assert_campaigns_equal(reference, faulty, benchmarks, "transient faults")

    # -- kill a worker mid-run, then rerun from the cached benchmarks ---------
    print("Fault injection: worker killed mid-campaign, rerun from the cache")
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            cached_campaign(
                Simulator(),
                scale=scale,
                benchmarks=benchmarks,
                workers=2,
                # Two attempts: a chunk in flight when the pool dies still
                # finishes in-process after the run degrades to serial.
                resilience=ResilienceConfig(
                    policy=RetryPolicy(max_attempts=2, max_pool_restarts=0),
                    faults=FaultPlan(
                        [Fault(chunk=2, kind="kill", attempts=())]
                    ),
                ),
            )
            raise SystemExit("FAIL: killed campaign unexpectedly completed")
        except ChunkFailure as failure:
            print(f"  aborted as expected: {failure.report.summary()}")
        for bench in benchmarks[:2]:
            if not list(Path(tmp).glob(f"campaign-*-{bench}-*.json")):
                raise SystemExit(f"FAIL: finished benchmark {bench} not cached")

        resumed = cached_campaign(
            Simulator(), scale=scale, benchmarks=benchmarks, workers=2
        )
        print(f"  execution: {resumed.run_report.summary()}")
        if resumed.run_report.total_chunks != 1:
            raise SystemExit("FAIL: rerun did not simulate only the killed chunk")
    assert_campaigns_equal(reference, resumed, benchmarks, "kill + rerun")

    print()
    print("resilience smoke passed: all recovery paths bitwise-identical")


if __name__ == "__main__":
    main()
