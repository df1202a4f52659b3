"""Resilience smoke: fault-injected campaigns must match clean runs bitwise.

Exercises the fault-tolerant execution layer end-to-end:

1. run a clean serial campaign as the reference;
2. rerun in parallel with injected worker exceptions on two chunks and
   assert bitwise-identical bips/watts arrays;
3. kill a worker mid-campaign (a real ``os._exit`` in the child) so the
   run aborts, then resume from the on-disk journal and again assert
   bitwise-identical results.

Run:  python examples/resilience_smoke.py

Exits non-zero if any recovered run diverges from its clean reference —
CI uses this as the resilience acceptance gate.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.harness import (
    ChunkFailure,
    Fault,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
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

    # -- kill a worker mid-run, then resume from the journal -----------------
    print("Fault injection: worker killed mid-campaign, resume from journal")
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "campaign.journal.jsonl"
        try:
            run_campaign(
                Simulator(),
                scale=scale,
                benchmarks=benchmarks,
                workers=2,
                resilience=ResilienceConfig(
                    policy=RetryPolicy(max_attempts=1, max_pool_restarts=0),
                    journal_path=journal,
                    faults=FaultPlan(
                        [Fault(chunk=2, kind="kill", attempts=())]
                    ),
                ),
            )
            raise SystemExit("FAIL: killed campaign unexpectedly completed")
        except ChunkFailure as failure:
            print(f"  aborted as expected: {failure.report.summary()}")
        if not journal.exists():
            raise SystemExit("FAIL: no journal left behind by aborted run")

        resumed = run_campaign(
            Simulator(),
            scale=scale,
            benchmarks=benchmarks,
            workers=2,
            resilience=ResilienceConfig(journal_path=journal, resume=True),
        )
        print(f"  execution: {resumed.run_report.summary()}")
        if resumed.run_report.resumed == 0:
            raise SystemExit("FAIL: resume restored nothing from the journal")
    assert_campaigns_equal(reference, resumed, benchmarks, "kill + resume")

    print()
    print("resilience smoke passed: all recovery paths bitwise-identical")


if __name__ == "__main__":
    main()
