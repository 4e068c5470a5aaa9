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
    with ThreadPoolExecutor(max_workers=min(workers, len(ranges))) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in ranges]
        return [f.result() for f in futures]


def accumulate_moments(fn, n, workers):
    """Mean and standard error of per-path statistics, chunk by chunk.

    fn(lo, hi) must return a 1-d array of per-path statistics for the
    chunk; the moments of the chunks of CHUNK_SIZE paths are combined by
    :func:`reduce_moments`.  Returns (mean, standard_error, n), checked
    by :func:`finite`.  Kept for the ``perfbench`` tracer; the program
    reads such estimates from :func:`accumulate_controlled_pair`.
    """
    [(_, (total,), (m2,))] = reduce_moments(lambda lo, hi: ((fn(lo, hi),),), n, workers, CHUNK_SIZE)
    return finite(_estimate(total / n, m2, n - 1, n))


def accumulate_controlled_pair(fn, means, n, workers=1):
    """Mean and standard error of Y with controls of known mean, and the
    plain estimate of each control, from one reduction.

    fn(lo, hi) returns the chunk's per-path values (y, *controls), 1-d
    arrays, of Y and of each control, whose exact means are ``means``, in
    order.  Control 2, when a control follows it, is the twin, which
    approximates Y; :func:`pricing.price_semi` and
    :func:`pricing.price_mc_joint` list theirs.
    The estimate is Ybar - sum_j beta_j (Xbar_j - mu_j) (Glasserman 2004,
    section 4.1), the betas swept from the co-moments
    :func:`reduce_moments` merges, in that order.  The j-th control enters
    only if it leaves a residual degree of freedom with all before it in
    (n >= j + 2: the third never at n <= 4, the fifth never at n <= 6)
    and its residual spread after the earlier controls exceeds 1e-12 of
    its own; a control after the third, which could only fit rounding,
    also stays out once Y's residual sum is at rounding.  The variance is Y's
    residual sum over n - 1 - (controls entered), over n.  With none
    entered the result has the bits :func:`accumulate_moments` gives for
    y.  A residual sum below 1e-12 * S_yy is rounding and counts as 0: a
    Y linear in the controls is exact, with standard error 0.  A twin
    that the sample cannot tell from control 1 (every path on one side of
    the strike, say) enters at coefficient 1 instead, as the difference
    estimator mean(Y - twin) + twin's mean, so a Y equal to its twin on
    every path is exact at any strike.

    Returns (mean, standard_error, n) for the controlled estimate of Y's
    mean, checked by :func:`finite`, then for the sample mean of each
    control, with the bits :func:`accumulate_moments` gives for it alone,
    unchecked, so that a statistic whose spread overflows fails only a
    caller that reads it.
    """
    [(_, sums, flat)] = reduce_moments(lambda lo, hi: (fn(lo, hi),), n, workers, CHUNK_SIZE)
    m = len(sums)
    s = [[0.0] * m for _ in range(m)]  # the co-moments, swept in place
    for value, (i, j) in zip(flat, _pairs(m)):
        s[i][j] = s[j][i] = value
    dev = [sums[0] / n] + [sums[j] / n - mu for j, mu in enumerate(means, 1)]
    entered = 0
    for j in range(1, m):
        if n < j + 2:  # with every earlier control in, it would leave no residual dof
            break
        if j > 3 and s[0][0] <= 1e-12 * flat[0]:  # Y is exact already: it would fit rounding
            break
        own = flat[j]
        if s[j][j] > 1e-12 * own:
            entered += 1
            later = [0, *range(j + 1, m)]
            for i in later:
                beta = s[i][j] / s[j][j]
                dev[i] -= beta * dev[j]
                for k in later:
                    s[i][k] -= beta * s[j][k]
        elif j == 2 < m - 1 and math.isfinite(own):  # the twin, at coefficient 1
            dev[0] -= dev[j]
    # Rounding leaves about eps * S_yy in the residual sum, of either
    # sign: below 1e-12 * S_yy Y is linear in the controls on every path.
    residual = s[0][0]
    if entered and residual <= 1e-12 * flat[0]:
        residual = 0.0
    controlled = _estimate(dev[0], residual, n - 1 - entered, n)
    return finite(controlled), *(_estimate(sums[j] / n, flat[j], n - 1, n) for j in range(1, m))


def _estimate(mean, ss, dof, n):
    """(mean, standard_error, n) from a sum of squares over dof degrees of freedom."""
    var = ss / dof if dof > 0 else 0.0
    return mean, (var / n) ** 0.5, n


def finite(estimate):
    """The (mean, standard_error, n) estimate, or :class:`NumericalError`
    if its mean or standard error is not finite."""
    mean, se, _ = estimate
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NumericalError(
            f"Monte Carlo mean {mean} or standard error {se} is not finite"
        )
    return estimate


def reduce_moments(fn, n, workers=1, chunk_size=CHUNK_SIZE):
    """(count, sum, M2) over all n paths of each statistic fn returns.

    fn(lo, hi) returns an iterable of statistics, each reduced to its
    :func:`moments` as it comes, so a generator can free one before it
    makes the next.  A statistic is a tuple (y, x, ...) of 1-d arrays,
    whose cross co-moments come too; a single array is the 1-tuple
    (y,), whose sum and M2 are 1-tuples.  Each chunk's moments are
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
    d = [si / c - ti / count for si, ti in zip(s, total)]
    return count + c, tuple(ti + si for ti, si in zip(total, s)), tuple(
        m + (qq + d[i] * d[j] * w) for m, qq, (i, j) in zip(m2, q, _pairs(len(d)))
    )


@functools.cache
def _pairs(m):
    """Index pairs of the co-moments of m statistics: the m squares, then
    the cross terms (i, j), i < j, row by row."""
    return [(i, i) for i in range(m)] + [(i, j) for i in range(m) for j in range(i + 1, m)]


def moments(values):
    """(count, sums, M2) of a tuple (y, x, ...) of 1-d arrays.

    The sums are the tuple of each array's sum and M2 the co-moments
    about the statistics' own means, ordered as :func:`_pairs`: (S_yy,)
    for one array, (S_yy, S_xx, S_xy) for a pair.  Each square has the
    bits of the M2 of its statistic alone.  Overflow gives an infinite
    or NaN sum, reported by the caller.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = tuple(float(v.sum()) for v in values)
        devs = [v - total / len(v) for v, total in zip(values, sums)]
        prod = np.empty_like(devs[0])  # one buffer for every product
        m2 = tuple(
            float(np.multiply(devs[i], devs[j], out=prod).sum()) for i, j in _pairs(len(devs))
        )
        return len(prod), sums, m2
