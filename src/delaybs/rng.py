"""Counter-based Gaussian streams for reproducible parallel simulation.

Every draw is a pure function of (seed, stream_id, block, substep): a
Philox generator is keyed on (seed, block, substep) and the stream_id
selects a fixed position inside its output sequence.  Slices of streams
can therefore be produced by any worker in any order and still agree
bit-for-bit with a single-threaded run.

Gaussians come from the inverse normal CDF applied to the counter-based
uniforms; unlike rejection sampling, the draw count per stream is fixed,
which keeps substreams aligned.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import ContractError

__all__ = ["check_seed", "normals"]

# Default seed used by the CLI when none is given; fixed so that runs
# are reproducible out of the box.
DEFAULT_SEED = 20240613

# Seeds are exact 64-bit Philox key words: 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 1 << 64
_U_MIN = 2.0**-54  # keep uniforms strictly inside (0, 1) before ndtri


def check_seed(seed):
    """Raise :class:`ContractError` unless 0 <= seed < 2**64."""
    if not 0 <= seed < SEED_LIMIT:
        raise ContractError(f"seed must be in [0, 2**64), got {seed}")


def _key(seed, block, substep):
    check_seed(seed)
    if block < 0 or substep < 0:
        raise ValueError("block and substep must be non-negative")
    if block >= 1 << 32 or substep >= 1 << 32:
        raise ValueError("block/substep out of the 32-bit substream range")
    # An integer array, not a list: numpy casts a list of large Python
    # ints through float64, which aliases seeds above 2**53.
    return np.array([seed, (block << 32) | substep], dtype=np.uint64)


def normals(seed, block, substep, lo, hi):
    """Standard normals for stream ids lo..hi-1 at one (block, substep).

    The result is a slice of a single logical sequence, so any partition
    into [lo, hi) ranges reproduces the same numbers.
    """
    if hi <= lo:
        return np.empty(0)
    bg = np.random.Philox(key=_key(seed, block, substep))
    # Philox advances in counter blocks of four 64-bit draws; align down.
    start = lo & ~3
    if start:
        bg.advance(start >> 2)
    u = np.random.Generator(bg).random(hi - start)[lo - start :]
    np.maximum(u, _U_MIN, out=u)
    return ndtri(u, out=u)

