"""Deterministic fan-out over path chunks.

Monte Carlo work is split into fixed-size chunks of stream ids.  Chunks
may be computed by any number of workers, but partial results are always
combined sequentially in chunk-index order, so estimates are bit-identical
across worker counts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from .errors import ContractError

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
    """Sum per-chunk (sum, sum_of_squares) pairs in deterministic order.

    fn(lo, hi) must return a 1-d array of per-path statistics for the
    chunk.  Returns (mean, standard_error, n).
    """
    if n < 1:
        raise ContractError(f"need at least one path, got {n}")
    partials = map_chunks(lambda lo, hi: _sums(fn(lo, hi)), n, workers, chunk_size)
    total = 0.0
    total_sq = 0.0
    for s, s2 in partials:
        total += s
        total_sq += s2
    mean = total / n
    if n > 1:
        var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    else:
        var = 0.0
    return mean, (var / n) ** 0.5, n


def _sums(values):
    return float(values.sum()), float((values * values).sum())
