"""A pinned digest of simulated cycles and watts.

The batch ≡ scalar tests compare two kernels of one tree; this digest
compares the tree with a fixed record.  It hashes the cycles, the watts
and the eight power components of sampled blocks on all nine
benchmarks, drawn from the sampling space and from the extended space
(d-L1 associativity, in-order issue), each with next-line prefetch off
and on.  Every block runs both kernels: its first ``SCALAR_BLOCK_MAX``
configs one at a time on the scalar pipeline, the rest in one batched
call.  A change that moves any simulated number by one bit fails here.
"""

import hashlib
import struct

from repro.designspace import extended_space, sample_uar, sampling_space
from repro.simulator import Simulator, config_from_point
from repro.simulator.simulator import SCALAR_BLOCK_MAX
from repro.workloads import BENCHMARK_NAMES, get_profile

#: sha256 over every (cycles, watts, components) record, in block order.
EXPECTED = "c0ec5441176dad9a24757a7f1da8da951b7c148bae3b346466ee63f1dc904815"

TRACE_LENGTH = 500
BLOCK = 7
COMPONENTS = (
    "clock", "frontend", "regfile", "issue_queues", "lsq",
    "functional_units", "caches", "base_leakage",
)


def simulated_digest() -> str:
    digest = hashlib.sha256()
    simulator = Simulator()
    for space_seed, space in enumerate((sampling_space(), extended_space())):
        for index, benchmark in enumerate(BENCHMARK_NAMES):
            trace = simulator.trace_for(
                get_profile(benchmark), TRACE_LENGTH, seed=index
            )
            points = sample_uar(space, BLOCK, seed=100 * space_seed + index)
            configs = [config_from_point(space, point) for point in points]
            for prefetch in (False, True):
                block = [c.with_overrides(prefetch=prefetch) for c in configs]
                results = simulator.simulate(
                    trace, block[:SCALAR_BLOCK_MAX]
                ) + simulator.simulate(trace, block[SCALAR_BLOCK_MAX:])
                for result in results:
                    digest.update(struct.pack("<q", result.cycles))
                    digest.update(struct.pack("<d", result.watts))
                    for name in COMPONENTS:
                        digest.update(
                            struct.pack("<d", result.power_breakdown[name])
                        )
    return digest.hexdigest()


def test_sampled_blocks_match_the_pinned_digest():
    assert simulated_digest() == EXPECTED
