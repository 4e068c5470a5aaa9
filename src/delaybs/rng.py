"""Keyed Gaussian streams for reproducible parallel simulation.

Every draw is a pure function of (seed, stream_id, block, substep).
Stream ids come in groups of GROUP consecutive ids; each (seed, block,
substep, group) keys its own SFC64 generator, whose ziggurat normals
fill the group's ids in order.  The ziggurat rejects, so a stream's
position in its generator's output is not fixed: a range that starts
inside a group draws and discards the group's prefix.  Slices of
streams can therefore be produced by any worker in any order and still
agree bit-for-bit with a single-threaded run.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

__all__ = ["check_seed", "normals"]

# Default seed used by the CLI when none is given; fixed so that runs
# are reproducible out of the box.
DEFAULT_SEED = 20240613

# Seeds are 64-bit, split into two 32-bit key words: 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 1 << 64
# Stream ids per generator; divides parallel.CHUNK_SIZE and
# paths.CONVERGENCE_CHUNK, so their chunks start on a group.
GROUP = 1 << 14


def check_seed(seed):
    """Raise :class:`ContractError` unless 0 <= seed < 2**64."""
    if not 0 <= seed < SEED_LIMIT:
        raise ContractError(f"seed must be in [0, 2**64), got {seed}")


def normals(seed, block, substep, lo, hi):
    """Standard normals for stream ids lo..hi-1 at one (block, substep).

    The result is a slice of a single logical sequence, so any partition
    into [lo, hi) ranges reproduces the same numbers.
    """
    if hi <= lo:
        return np.empty(0)
    check_seed(seed)
    if block < 0 or substep < 0:
        raise ValueError("block and substep must be non-negative")
    if block >= 1 << 32 or substep >= 1 << 32:
        raise ValueError("block/substep out of the 32-bit substream range")
    out = np.empty(hi - lo)
    for group in range(lo // GROUP, (hi - 1) // GROUP + 1):
        # Fixed-width words: SeedSequence splits a Python int into as many
        # 32-bit words as its value needs and pads short keys with zeros,
        # so [2**32, 0, 0] and [0, 1, 0] would seed one state.
        words = np.array([seed & 0xFFFFFFFF, seed >> 32, block, substep, group], dtype=np.uint32)
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))
        start = group * GROUP
        first = max(lo, start)
        if first > start:
            gen.standard_normal(first - start)  # the group's prefix
        gen.standard_normal(out=out[first - lo : min(hi, start + GROUP) - lo])
    return out
