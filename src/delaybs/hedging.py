"""Replication of a call in the final delay block.

The closed-form hedge holds Phi(beta_plus) units of stock and carries
the rest of the wealth as cash; the bond leg, -K Phi(beta_minus)
e^{-lambda}, is fixed by the portfolio identity with the closed-form
price and is formed explicitly only when that identity is asserted
(``identity_tol``); both legs take the closed form's arguments from
the kernel :func:`delaybs.pricing.bs_betas`.  The discrete-rebalancing
harness starts from the closed-form value at the final block boundary,
rebalances on an equal grid, accrues the cash with exact discount
factors, and reports the terminal replication error against the payoff.

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

    t: float
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
        plan.append(_Rebalance(
            t=t_i, lam=lam, v=v, discount=discount_factor(market.rate, t_i, t_next),
        ))
    return plan


def _weights(s, strike, step, with_bond):
    """Closed-form hedge at step.t for a vector of prices s.

    Returns the stock delta Phi(beta_plus) in a fresh array, and the
    bond leg's value -K Phi(beta_minus) e^{-lam} when with_bond is set
    (None otherwise).
    """
    bp, bm = bs_betas(log_ratio(s, strike), step.lam, step.v)
    bond_value = -strike * ndtr(bm) * math.exp(-step.lam) if with_bond else None
    return ndtr(bp, out=bp), bond_value


def replicate(
    market,
    option,
    n_rebalance,
    n_paths,
    seed,
    workers=1,
    s_star=None,
    identity_tol=None,
):
    """Discrete replication over the final block.

    Paths start at the final block boundary with block price ``s_star``
    (default: the market's initial price).  Wealth starts at the
    closed-form value, rebalances to the closed-form hedge at each grid
    time, and the report gives the mean and RMS terminal error against
    the call payoff.  When identity_tol is set, the portfolio identity
    bond + delta * S = closed-form value is asserted at every rebalance,
    with the delta the loop trades.
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
            pi_s, bond_value = _weights(s, strike, step, identity_tol is not None)
            if identity_tol is not None:
                vals = pi_s * s + bond_value
                ref = np.array([
                    price_closed(market, option, MarketState(step.t, si, s_star)).value
                    for si in s[: min(n, 64)]
                ])
                gap = np.max(np.abs(vals[: ref.size] - ref))
                if gap > identity_tol:
                    raise ContractError(
                        f"portfolio identity violated by {gap} at t={step.t}"
                    )
            wealth -= np.multiply(pi_s, s, out=held)  # the cash
            s = s_next
            wealth /= step.discount
            wealth += np.multiply(pi_s, s, out=held)
        s -= strike
        wealth -= np.maximum(s, 0.0, out=s)  # the terminal error
        return wealth, wealth * wealth

    (_, err_sum, _), (_, err_sq, _) = reduce_moments(chunk, n_paths, workers)
    mean = err_sum / n_paths
    rmse = math.sqrt(err_sq / n_paths)
    return ReplicationReport(
        n_rebalance=n_rebalance, mean_error=mean, rmse=rmse, n_paths=n_paths
    )
