"""Deterministic fan-out over path chunks.

Monte Carlo work is split into fixed-size chunks of stream ids.  Chunks
may be computed by any number of workers, but partial results are always
combined sequentially in chunk-index order, so estimates are bit-identical
across worker counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ContractError, NumericalError

CHUNK_SIZE = 1 << 16


def chunk_ranges(n, chunk_size=CHUNK_SIZE):
    return [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]


def map_chunks(fn, n, workers=1, chunk_size=CHUNK_SIZE):
    """Apply fn(lo, hi) to every chunk; return results in chunk order."""
    ranges = chunk_ranges(n, chunk_size)
    if workers <= 1 or len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in ranges]
        return [f.result() for f in futures]


def accumulate_moments(fn, n, workers=1, chunk_size=CHUNK_SIZE):
    """Mean and standard error of per-path statistics, chunk by chunk.

    fn(lo, hi) must return a 1-d array of per-path statistics for the
    chunk; the chunks' moments are combined by :func:`reduce_moments`.
    Returns (mean, standard_error, n); a mean or standard error that is
    not finite raises :class:`NumericalError`.
    """
    return accumulate_joint_moments(lambda lo, hi: (fn(lo, hi),), n, workers, chunk_size)[0]


def accumulate_joint_moments(fn, n, workers=1, chunk_size=CHUNK_SIZE):
    """:func:`accumulate_moments` of several statistics from one pass.

    fn(lo, hi) returns a sequence of 1-d arrays, one per statistic;
    returns a list with one (mean, standard_error, n) per statistic, each
    with the bits :func:`accumulate_moments` gives for that statistic
    alone.
    """
    out = []
    for _, total, m2 in reduce_moments(fn, n, workers, chunk_size):
        mean = total / n
        var = m2 / (n - 1) if n > 1 else 0.0
        se = (var / n) ** 0.5
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise NumericalError(
                f"Monte Carlo mean {mean} or standard error {se} is not finite"
            )
        out.append((mean, se, n))
    return out


def reduce_moments(fn, n, workers=1, chunk_size=CHUNK_SIZE):
    """(count, sum, M2) over all n paths of each statistic fn returns.

    fn(lo, hi) returns an iterable of 1-d arrays, one per statistic, each
    reduced to its :func:`moments` as it comes, so a generator can free
    one before it makes the next.  Each chunk's moments are merged in
    chunk order by the pairwise update of Chan, Golub & LeVeque (1979),
    so the variance does not cancel when the mean is large next to the
    spread, and every result has the same bits at any worker count.
    """
    if n < 1:
        raise ContractError(f"need at least one path, got {n}")
    per_chunk = map_chunks(
        lambda lo, hi: [moments(values) for values in fn(lo, hi)], n, workers, chunk_size
    )
    merged = []
    for partials in zip(*per_chunk):
        count, total, m2 = partials[0]
        for c, s, q in partials[1:]:
            delta = s / c - total / count
            m2 += q + delta * delta * (count * c / (count + c))
            count += c
            total += s
        merged.append((count, total, m2))
    return merged


def moments(values):
    """(count, sum, M2) of a 1-d array, M2 taken about its own mean.

    Overflow gives an infinite or NaN sum, reported by the caller.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(values.sum())
        dev = values - total / len(values)
        return len(values), total, float((dev * dev).sum())
