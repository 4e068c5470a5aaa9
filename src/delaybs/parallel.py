"""Deterministic fan-out over path chunks.

Monte Carlo work is split into fixed-size chunks of stream ids.  Chunks
may be computed by any number of workers, but partial results are always
combined sequentially in chunk-index order, so estimates are bit-identical
across worker counts.
"""

from __future__ import annotations

import functools
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
    [(_, total, m2)] = reduce_moments(lambda lo, hi: (fn(lo, hi),), n, workers, chunk_size)
    return _estimate(total / n, m2, n - 1, n)


def accumulate_controlled_moments(fn, control_mean, n, workers=1, chunk_size=CHUNK_SIZE):
    """Mean and standard error of Y with a control variate X of known mean.

    fn(lo, hi) returns the chunk's per-path values (y, x) of Y and of X,
    whose exact mean is ``control_mean`` (mu).  The estimate is
    Ybar - beta * (Xbar - mu) with beta = S_xy / S_xx, and its variance is
    the residual variance (S_yy - beta * S_xy) / (n - 2) over n, where the
    S are the co-moments :func:`reduce_moments` merges (Glasserman 2004,
    section 4.1).  With n <= 2 no residual degree of freedom is left, and
    with S_xx = 0 X carries no information: then beta = 0, and the result
    has the bits :func:`accumulate_moments` gives for y.  A residual sum
    below 1e-12 * S_yy is rounding, not spread, and counts as 0: a Y
    linear in X is then exact, with standard error 0.  Returns
    (mean, standard_error, n); a mean or standard error that is not finite
    raises :class:`NumericalError`.
    """
    return accumulate_controlled_pair(fn, control_mean, n, workers, chunk_size)[0]


def accumulate_controlled_pair(fn, control_mean, n, workers=1, chunk_size=CHUNK_SIZE):
    """:func:`accumulate_controlled_moments` of Y, and X's plain estimate.

    Returns two (mean, standard_error, n) from the one reduction: the
    controlled estimate of Y's mean, and X's sample mean with the bits
    :func:`accumulate_moments` gives for x alone.
    """
    [(_, (sum_y, sum_x), (s_yy, s_xx, s_xy))] = reduce_moments(
        lambda lo, hi: (fn(lo, hi),), n, workers, chunk_size
    )
    if n <= 2 or s_xx == 0.0:
        controlled = _estimate(sum_y / n, s_yy, n - 1, n)
    else:
        beta = s_xy / s_xx
        # Rounding leaves about eps * S_yy in the residual sum, of either
        # sign: below 1e-12 * S_yy Y is linear in X on every path.
        residual = s_yy - beta * s_xy
        if residual <= 1e-12 * s_yy:
            residual = 0.0
        controlled = _estimate(sum_y / n - beta * (sum_x / n - control_mean), residual, n - 2, n)
    return controlled, _estimate(sum_x / n, s_xx, n - 1, n)


def _estimate(mean, ss, dof, n):
    """(mean, standard_error, n) from a sum of squares over dof degrees of freedom."""
    var = ss / dof if dof > 0 else 0.0
    se = (var / n) ** 0.5
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NumericalError(
            f"Monte Carlo mean {mean} or standard error {se} is not finite"
        )
    return mean, se, n


def reduce_moments(fn, n, workers=1, chunk_size=CHUNK_SIZE):
    """(count, sum, M2) over all n paths of each statistic fn returns.

    fn(lo, hi) returns an iterable of statistics, each reduced to its
    :func:`moments` as it comes, so a generator can free one before it
    makes the next.  A statistic is a 1-d array, or a pair (y, x) of
    arrays whose cross co-moment is wanted too.  Each chunk's moments are
    merged in chunk order by the pairwise update of Chan, Golub & LeVeque
    (1979), extended to co-moments as in Pebay (SAND2008-6212), so the
    variance does not cancel when the mean is large next to the spread,
    and every result has the same bits at any worker count.
    """
    if n < 1:
        raise ContractError(f"need at least one path, got {n}")
    per_chunk = map_chunks(
        lambda lo, hi: [moments(values) for values in fn(lo, hi)], n, workers, chunk_size
    )
    return [functools.reduce(_merge, partials) for partials in zip(*per_chunk)]


def _merge(a, b):
    """The moments of two disjoint sets of paths pooled, a's first."""
    (count, total, m2), (c, s, q) = a, b
    w = count * c / (count + c)
    if isinstance(total, tuple):  # a (y, x) pair
        dy, dx = s[0] / c - total[0] / count, s[1] / c - total[1] / count
        return count + c, (total[0] + s[0], total[1] + s[1]), (
            m2[0] + (q[0] + dy * dy * w),
            m2[1] + (q[1] + dx * dx * w),
            m2[2] + (q[2] + dy * dx * w),
        )
    delta = s / c - total / count
    return count + c, total + s, m2 + (q + delta * delta * w)


def moments(values):
    """(count, sum, M2) of a 1-d array, M2 taken about its own mean.

    For a pair (y, x) of arrays the sum is (sum_y, sum_x) and M2 is
    (S_yy, S_xx, S_xy), the co-moments about the pair's own means; S_yy
    has the bits of the M2 of y alone.  Overflow gives an infinite or NaN
    sum, reported by the caller.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if not isinstance(values, tuple):
            total, dev = _centred(values)
            return len(values), total, float((dev * dev).sum())
        (sum_y, dy), (sum_x, dx) = map(_centred, values)
        prod = dy * dy
        s_yy = float(prod.sum())
        s_xx = float(np.multiply(dx, dx, out=prod).sum())
        s_xy = float(np.multiply(dy, dx, out=prod).sum())
        return len(dx), (sum_y, sum_x), (s_yy, s_xx, s_xy)


def _centred(values):
    total = float(values.sum())
    return total, values - total / len(values)
