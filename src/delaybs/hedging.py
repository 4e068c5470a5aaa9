"""Replication of a call in the final delay block.

The closed-form hedge holds Phi(beta_plus) units of stock, with
beta_plus from the pricing kernel :func:`delaybs.pricing.bs_betas` at
the closed form's variance and rate integral, and carries the rest of
the wealth as cash.  The discrete-rebalancing harness starts from the
closed-form value at the final block boundary, rebalances on an equal
grid, accrues the cash with exact discount factors, and reports the
terminal replication error against the payoff.

The block price is the constant ``s_star``, so every rebalance's
variance and rate integral are scalars, planned once per ``replicate``
call and shared by all chunks, which update their path buffers in
place.  The stock steps come from the exact block sampler,
:func:`delaybs.paths.exact_steps`, whose block integrals are scalars
too while its block price is ``s_star``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ContractError
from .model import MAX_TIME_STEPS, discount_factor
from .parallel import reduce_moments
from .paths import exact_steps
from .pricing import (
    MarketState,
    _final_block_variance,
    bs_betas,
    final_block_start,
    log_ratio,
    price_closed,
)


@dataclass(frozen=True)
class ReplicationReport:
    n_rebalance: int
    mean_error: float
    rmse: float
    n_paths: int


@dataclass(frozen=True)
class _Rebalance:
    """The scalars of one rebalance at time t for the block price s_star.

    lam and v are the rate integral and the variance over [t, T], which
    fix the hedge; over [t, t_next] cash is divided by ``discount``.
    """

    lam: float
    v: float
    discount: float


def _plan(market, s_star, grid):
    """One _Rebalance per interval [t_i, t_{i+1}] of grid; each variance
    must be positive, as the hedge weights divide by its root."""
    plan = []
    for t_i, t_next in zip(grid[:-1], grid[1:]):
        v = _final_block_variance(market, s_star, t_i)
        lam = market.rate.integral(t_i, market.T)
        plan.append(_Rebalance(lam=lam, v=v, discount=discount_factor(market.rate, t_i, t_next)))
    return plan


def _delta(s, strike, step):
    """The closed-form stock delta Phi(beta_plus) at the rebalance step
    for a vector of prices s, in a fresh array."""
    bp, _ = bs_betas(log_ratio(s, strike), step.lam, step.v)
    return ndtr(bp, out=bp)


def replicate(
    market,
    option,
    n_rebalance,
    n_paths,
    seed,
    workers=1,
    s_star=None,
):
    """Discrete replication over the final block.

    Paths start at the final block boundary with block price ``s_star``
    (default: the market's initial price).  Wealth starts at the
    closed-form value, rebalances to the closed-form hedge at each grid
    time, and the report gives the mean and RMS terminal error against
    the call payoff.
    """
    if option.kind != "call":
        raise ContractError("replication is stated for calls")
    if n_paths < 1:
        raise ContractError(f"need at least one path, got {n_paths}")
    if n_rebalance < 1:
        raise ContractError(f"need at least one rebalance, got {n_rebalance}")
    if n_rebalance > MAX_TIME_STEPS:
        raise ContractError(f"need at most {MAX_TIME_STEPS} rebalances, got {n_rebalance}")
    t_star = final_block_start(market)
    if s_star is None:
        s_star = market.s0
    grid = np.linspace(t_star, market.T, n_rebalance + 1)
    v0 = price_closed(market, option, MarketState(t_star, float(s_star))).value
    plan = _plan(market, s_star, grid)
    strike = option.strike

    def chunk(lo, hi):
        """The terminal error and its square over streams lo..hi-1."""
        n = hi - lo
        s = np.full(n, float(s_star))
        wealth = np.full(n, v0)
        held = np.empty(n)
        steps = exact_steps(market, "Q", seed, lo, hi, t_star, s_star, s_star, grid[1:])
        for step, s_next in zip(plan, steps):
            pi_s = _delta(s, strike, step)
            wealth -= np.multiply(pi_s, s, out=held)  # the cash
            s = s_next
            wealth /= step.discount
            wealth += np.multiply(pi_s, s, out=held)
        s -= strike
        wealth -= np.maximum(s, 0.0, out=s)  # the terminal error
        return (wealth,), (wealth * wealth,)

    (_, (err_sum,), _), (_, (err_sq,), _) = reduce_moments(chunk, n_paths, workers)
    mean = err_sum / n_paths
    rmse = math.sqrt(err_sq / n_paths)
    return ReplicationReport(
        n_rebalance=n_rebalance, mean_error=mean, rmse=rmse, n_paths=n_paths
    )
