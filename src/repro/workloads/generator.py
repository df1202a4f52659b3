"""Synthetic trace generation.

Realizes a :class:`~repro.workloads.profile.WorkloadProfile` as a concrete
:class:`~repro.workloads.trace.Trace`.  Generation is deterministic given
(profile, length, seed): the paper replays the *same* trace of each
benchmark across all sampled designs, and reproducing that protocol
requires the trace to be a pure function of its inputs.

The generator models:

- **op mix** — multinomial draw per the profile's mix;
- **register dependences** — geometric producer distances whose mean sets
  the workload's inherent instruction-level parallelism, with optional
  load-to-load chaining for pointer-chasing codes;
- **data locality** — every memory access carries an LRU stack distance
  drawn from the profile's reuse strata (the benchmark's cacheability
  signature, consumed by the stack-distance memory model) *and* a concrete
  block id from a Zipf-popularity walk (its sequential runs drive the
  next-line prefetcher);
- **instruction locality** — fetch-block boundary events with their own
  reuse distances, plus a loop-walk block id stream;
- **branch behaviour** — static sites whose outcomes follow a Markov
  persistence process: a biased site repeats its previous outcome with
  probability ``branch_bias`` (so a 1-bit BHT achieves exactly that
  accuracy on it), while unpredictable sites are coin flips.
"""

from __future__ import annotations

import zlib

import numpy as np

from .profile import ReuseStrata, WorkloadProfile
from .trace import (
    NO_DATA,
    NO_FETCH,
    OP_BRANCH,
    OP_CODES,
    OP_LOAD,
    OP_STORE,
    Trace,
)

#: Instructions per 128-byte instruction block (4-byte fixed-width ISA).
INSTRUCTIONS_PER_BLOCK = 32

#: Multiplier for scattering popularity ranks over the block address space.
_SCATTER_PRIME = 2654435761  # Knuth's multiplicative hash constant


def _profile_seed(profile: WorkloadProfile, seed: int) -> int:
    """Stable per-profile seed: the same benchmark always gets the same trace."""
    return (zlib.crc32(profile.name.encode("utf-8")) ^ (seed * 0x9E3779B1)) & 0x7FFFFFFF


def _zipf_cdf(footprint: int, exponent: float) -> np.ndarray:
    """Cumulative popularity distribution over ranks 1..footprint."""
    ranks = np.arange(1, footprint + 1, dtype=float)
    weights = ranks ** (-exponent) if exponent > 0 else np.ones(footprint)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def _scatter(rank: np.ndarray, footprint: int) -> np.ndarray:
    """Map popularity ranks to scattered block ids (stable hash)."""
    return (rank * _SCATTER_PRIME) % footprint


def sample_reuse_distances(
    rng: np.random.Generator, strata: ReuseStrata, size: int
) -> np.ndarray:
    """Draw ``size`` reuse distances from (weight, limit) strata.

    A draw picks a stratum by weight, then a distance log-uniformly
    between the previous stratum's limit and its own.
    """
    if size == 0:
        return np.empty(0, dtype=np.int64)
    weights = np.array([w for w, _ in strata], dtype=float)
    weights = weights / weights.sum()
    limits = np.array([limit for _, limit in strata], dtype=float)
    lows = np.concatenate(([1.0], limits[:-1]))
    choices = rng.choice(len(strata), size=size, p=weights)
    lo = lows[choices]
    hi = limits[choices]
    if (lo <= 0).any() or (hi < lo).any():
        raise ValueError("reuse-distance strata must be positive and ordered")
    u = rng.random(size)
    distances = lo * np.exp(u * np.log(hi / lo))
    return np.maximum(1, distances).astype(np.int64)


class TraceGenerator:
    """Deterministic synthetic trace generator for one profile."""

    def __init__(self, profile: WorkloadProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed

    def generate(self, length: int) -> Trace:
        """Generate a trace of ``length`` dynamic instructions."""
        if length < 1:
            raise ValueError(f"trace length must be positive, got {length}")
        profile = self.profile
        rng = np.random.default_rng(_profile_seed(profile, self.seed))

        ops = self._draw_ops(rng, length)
        src1, src2 = self._draw_dependences(rng, ops)
        mem_block, data_reuse = self._draw_data_stream(rng, ops)
        iblock, instr_reuse = self._draw_instruction_stream(rng, length)
        taken, branch_site = self._draw_branches(rng, ops)

        return Trace(
            name=profile.name,
            op=ops,
            src1=src1,
            src2=src2,
            mem_block=mem_block,
            data_reuse=data_reuse,
            iblock=iblock,
            instr_reuse=instr_reuse,
            taken=taken,
            branch_site=branch_site,
            ref_instructions=profile.ref_instructions,
            metadata={"seed": float(self.seed), "length": float(length)},
        )

    # -- components ----------------------------------------------------------

    def _draw_ops(self, rng: np.random.Generator, length: int) -> np.ndarray:
        classes = sorted(self.profile.mix, key=lambda name: OP_CODES[name])
        codes = np.array([OP_CODES[name] for name in classes], dtype=np.uint8)
        probabilities = np.array([self.profile.mix[name] for name in classes])
        probabilities = probabilities / probabilities.sum()
        return rng.choice(codes, size=length, p=probabilities)

    def _draw_dependences(self, rng, ops: np.ndarray):
        """Producer distances; geometric with the profile's mean."""
        profile = self.profile
        n = len(ops)
        p = min(1.0, 1.0 / profile.dep_distance_mean)
        src1 = rng.geometric(p, size=n).astype(np.int32)
        src2 = rng.geometric(p, size=n).astype(np.int32)
        # Only a fraction of instructions carry a second register source.
        src2[rng.random(n) >= profile.second_operand_rate] = 0
        # Pointer chasing: a chained load's address comes from the previous
        # load, serializing the memory stream.
        if profile.load_chain_rate > 0:
            load_positions = np.flatnonzero(ops == OP_LOAD)
            if load_positions.size > 1:
                chained = rng.random(load_positions.size - 1) < profile.load_chain_rate
                followers = load_positions[1:][chained]
                producers = load_positions[:-1][chained]
                src1[followers] = (followers - producers).astype(np.int32)
        # Clip distances so no dependence reaches before the trace start.
        positions = np.arange(n, dtype=np.int32)
        np.minimum(src1, positions, out=src1)
        np.minimum(src2, positions, out=src2)
        return src1, src2

    def _draw_data_stream(self, rng, ops: np.ndarray):
        """Reuse distances + block ids for loads and stores."""
        profile = self.profile
        n = len(ops)
        mem_block = np.full(n, -1, dtype=np.int64)
        data_reuse = np.full(n, NO_DATA, dtype=np.int64)
        mem_positions = np.flatnonzero((ops == OP_LOAD) | (ops == OP_STORE))
        count = mem_positions.size
        if count == 0:
            return mem_block, data_reuse

        data_reuse[mem_positions] = sample_reuse_distances(
            rng, profile.data_reuse_strata, count
        )

        # Concrete block ids: Zipf popularity with geometric sequential
        # runs (the next-line prefetcher's input).
        footprint = profile.data_footprint_blocks
        cdf = _zipf_cdf(footprint, profile.data_zipf)
        uniforms = rng.random(count)
        run_draws = rng.geometric(1.0 / profile.sequential_run_mean, size=count)
        ranks = np.searchsorted(cdf, uniforms, side="left") + 1
        scattered = _scatter(ranks.astype(np.int64), footprint)

        blocks = np.empty(count, dtype=np.int64)
        run_remaining = 0
        current = 0
        for i in range(count):
            if run_remaining > 0:
                current = (current + 1) % footprint
                run_remaining -= 1
            else:
                current = int(scattered[i])
                run_remaining = int(run_draws[i]) - 1
            blocks[i] = current
        mem_block[mem_positions] = blocks
        return mem_block, data_reuse

    def _draw_instruction_stream(self, rng, length: int):
        """Fetch-block events with reuse distances, plus a block walk."""
        profile = self.profile

        # Fetch-boundary events: geometric run lengths of straight-line
        # fetch between block changes.
        instr_reuse = np.full(length, NO_FETCH, dtype=np.int64)
        positions = []
        position = 0
        while position < length:
            positions.append(position)
            position += int(rng.geometric(1.0 / profile.ifetch_run_mean))
        events = np.array(positions, dtype=np.int64)
        instr_reuse[events] = sample_reuse_distances(
            rng, profile.instr_reuse_strata, events.size
        )

        # Concrete instruction blocks: loop walk.
        footprint = profile.instr_footprint_blocks
        n_blocks = (length + INSTRUCTIONS_PER_BLOCK - 1) // INSTRUCTIONS_PER_BLOCK
        starts = rng.integers(0, footprint, size=n_blocks + 1)
        lengths = rng.geometric(1.0 / profile.loop_length_mean, size=n_blocks + 1)
        iterations = rng.geometric(
            1.0 / profile.loop_iterations_mean, size=n_blocks + 1
        )
        block_sequence = np.empty(n_blocks, dtype=np.int32)
        loop = 0
        start = int(starts[0])
        body = int(lengths[0])
        remaining_iters = int(iterations[0])
        offset = 0
        for i in range(n_blocks):
            block_sequence[i] = (start + offset) % footprint
            offset += 1
            if offset >= body:
                offset = 0
                remaining_iters -= 1
                if remaining_iters <= 0:
                    loop = min(loop + 1, n_blocks)
                    start = int(starts[loop])
                    body = int(lengths[loop])
                    remaining_iters = int(iterations[loop])
        iblock = np.repeat(block_sequence, INSTRUCTIONS_PER_BLOCK)[:length].astype(
            np.int32
        )
        return iblock, instr_reuse

    def _draw_branches(self, rng, ops: np.ndarray):
        """Branch sites and Markov-persistent outcomes.

        Each dynamic branch is assigned a static site; a site repeats its
        previous outcome with its persistence probability (``branch_bias``
        for biased sites, 0.5 for unpredictable ones), so a last-outcome
        predictor's per-site accuracy equals the site's persistence.
        """
        profile = self.profile
        n = len(ops)
        taken = np.zeros(n, dtype=bool)
        branch_site = np.full(n, -1, dtype=np.int32)
        branch_positions = np.flatnonzero(ops == OP_BRANCH)
        count = branch_positions.size
        if count == 0:
            return taken, branch_site

        n_sites = profile.static_branches
        sites = rng.integers(0, n_sites, size=count).astype(np.int32)
        branch_site[branch_positions] = sites

        site_rng = np.random.default_rng(_profile_seed(profile, self.seed) + 1)
        unpredictable = site_rng.random(n_sites) < profile.unpredictable_rate
        persistence = np.where(unpredictable, 0.5, profile.branch_bias)
        state = site_rng.random(n_sites) < 0.6  # initial outcomes, mostly taken

        stay = rng.random(count)
        outcomes = np.empty(count, dtype=bool)
        state_list = state.tolist()
        persistence_list = persistence.tolist()
        sites_list = sites.tolist()
        stay_list = stay.tolist()
        for k in range(count):
            site = sites_list[k]
            previous = state_list[site]
            flips = stay_list[k] >= persistence_list[site]
            outcome = not previous if flips else previous
            outcomes[k] = outcome
            state_list[site] = outcome
        taken[branch_positions] = outcomes
        return taken, branch_site


def generate_trace(
    profile: WorkloadProfile, length: int, seed: int = 0
) -> Trace:
    """Convenience wrapper: ``TraceGenerator(profile, seed).generate(length)``."""
    return TraceGenerator(profile, seed).generate(length)
