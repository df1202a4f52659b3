"""Resilience smoke: fault-injected campaigns must match clean runs bitwise.

Exercises the fault-tolerant execution layer end-to-end:

1. run a clean serial campaign as the reference;
2. rerun in parallel with injected worker exceptions on two chunks and
   assert bitwise-identical bips/watts arrays;
3. kill a worker mid-campaign (a real ``os._exit`` in the child) so the
   run aborts, then resume from the on-disk journal and again assert
   bitwise-identical results;
4. sweep the exploration set with injected faults and compare streaming
   reducer results against a fault-free serial sweep.

Run:  python examples/resilience_smoke.py

Exits non-zero if any recovered run diverges from its clean reference —
CI uses this as the resilience acceptance gate.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.harness import (
    ChunkFailure,
    CollectReducer,
    Fault,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
    TopKReducer,
    get_scale,
    run_campaign,
)
from repro.designspace import exploration_space
from repro.harness.campaign import fit_campaign_models
from repro.harness.sweep import BlockPredictor, SpaceSweepSource, run_sweep
from repro.simulator import Simulator
from repro.workloads import get_profile


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

    # -- fault-injected sweep vs clean serial sweep --------------------------
    print("Fault injection: sweep with a transient and a corrupt chunk")
    # model fitting needs more observations than the 12-design campaign
    # above: run a slightly larger (still serial, still fast) one
    fit_scale = scale.with_overrides(
        name="resilience-smoke-fit", n_train=40, n_validation=5
    )
    fit_campaign = run_campaign(simulator, scale=fit_scale, benchmarks=["gzip"])
    models = fit_campaign_models(fit_campaign)["gzip"]
    predictor = BlockPredictor(
        benchmark="gzip",
        bips_model=models["bips"],
        watts_model=models["watts"],
        ref_instructions=get_profile("gzip").ref_instructions,
    )
    source = SpaceSweepSource(exploration_space())

    def reducers():
        return [
            CollectReducer(metrics=("bips", "watts")),
            TopKReducer(metric="efficiency", k=3),
        ]

    clean = run_sweep(predictor, source, reducers(), block_size=16384)
    faulted = run_sweep(
        predictor,
        source,
        reducers(),
        block_size=16384,
        workers=2,
        resilience=ResilienceConfig(
            faults=FaultPlan(
                [
                    Fault(chunk=1, kind="transient", attempts=(1,)),
                    Fault(chunk=3, kind="corrupt", attempts=(1,)),
                ]
            )
        ),
    )
    print(f"  execution: {faulted.run_report.summary()}")
    clean_cols, clean_best = clean.results
    fault_cols, fault_best = faulted.results
    for metric in ("bips", "watts"):
        if not np.array_equal(
            clean_cols.metric(metric), fault_cols.metric(metric)
        ):
            raise SystemExit(f"FAIL: sweep {metric} diverged under faults")
    if not np.array_equal(clean_best.indices, fault_best.indices):
        raise SystemExit("FAIL: sweep top-k diverged under faults")
    print("  OK [sweep faults]: reducer results identical to serial sweep")

    print()
    print("resilience smoke passed: all recovery paths bitwise-identical")


if __name__ == "__main__":
    main()
