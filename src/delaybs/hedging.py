"""Replication of a call in the final delay block.

The closed-form hedge holds Phi(beta_plus) units of stock; the bond leg
is fixed by the portfolio identity with the closed-form price.  The
discrete-rebalancing harness starts from the closed-form value at the
final block boundary, rebalances on an equal grid, accrues the bond leg
with exact discount factors, and reports the terminal replication error
against the payoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import rng
from .errors import ContractError
from .model import MAX_TIME_STEPS, block_index, discount_factor
from .parallel import map_chunks
from .pricing import (
    DEFAULT_N,
    MarketState,
    _final_block_variance,
    final_block_start,
    log_ratio_vec,
    price_closed,
)
from .quadrature import block_integrals_vec


@dataclass(frozen=True)
class ReplicationReport:
    n_rebalance: int
    mean_error: float
    rmse: float
    n_paths: int


def _weights_vec(market, option, t, s_t, s_block, quad_n=DEFAULT_N):
    """Closed-form hedge at one time: stock delta Phi(beta_plus) and the
    bond leg's value, from the strike term, for a vector of prices."""
    v, _, lam = block_integrals_vec(market, s_block, t, market.T, quad_n)
    sq = np.sqrt(v)
    bp = (log_ratio_vec(s_t, option.strike) + lam + 0.5 * v) / sq
    bm = bp - sq
    pi_s = ndtr(bp)
    bond_value = -option.strike * ndtr(bm) * math.exp(-lam)  # pi_xi * xi(t)
    return pi_s, bond_value


def replicate(
    market,
    option,
    n_rebalance,
    n_paths,
    seed,
    workers=1,
    s_star=None,
    quad_n=DEFAULT_N,
    identity_tol=None,
):
    """Discrete replication over the final block.

    Paths start at the final block boundary with block price ``s_star``
    (default: the market's initial price).  Wealth starts at the
    closed-form value, rebalances to the closed-form hedge at each grid
    time, and the report gives the mean and RMS terminal error against
    the call payoff.  When identity_tol is set, the portfolio identity
    bond + delta * S = closed-form value is asserted at every rebalance.
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
    # Every hedge weight divides by the root of a final-block variance.
    _final_block_variance(market, s_star, t_star, quad_n)
    k = block_index(t_star, market.h)
    grid = np.linspace(t_star, market.T, n_rebalance + 1)
    v0 = price_closed(market, option, MarketState(t_star, float(s_star)), quad_n).value

    def chunk(lo, hi):
        """Sums of the terminal error and of its square over streams lo..hi-1."""
        n = hi - lo
        s = np.full(n, float(s_star))
        wealth = np.full(n, v0)
        for i in range(n_rebalance):
            t_i, t_next = grid[i], grid[i + 1]
            pi_s, bond_value = _weights_vec(market, option, t_i, s, s_star, quad_n)
            if identity_tol is not None:
                vals = pi_s * s + bond_value
                ref = np.array(
                    [
                        price_closed(
                            market, option, MarketState(t_i, si, s_star), quad_n
                        ).value
                        for si in s[: min(n, 64)]
                    ]
                )
                gap = np.max(np.abs(vals[: ref.size] - ref))
                if gap > identity_tol:
                    raise ContractError(
                        f"portfolio identity violated by {gap} at t={t_i}"
                    )
            cash = wealth - pi_s * s
            # advance the stock with one exact sub-block step
            g2, _, lam_int = block_integrals_vec(market, s_star, t_i, t_next, quad_n)
            z = rng.normals(seed, k, i, lo, hi)
            s = s * np.exp(lam_int - 0.5 * g2 + np.sqrt(g2) * z)
            cash = cash / discount_factor(market.rate, t_i, t_next)
            wealth = cash + pi_s * s
        err = wealth - np.maximum(s - option.strike, 0.0)
        return float(err.sum()), float((err * err).sum())

    err_sum = err_sq = 0.0
    # An explicit fold in chunk order: sum() compensates from Python 3.12.
    for part_sum, part_sq in map_chunks(chunk, n_paths, workers):
        err_sum += part_sum
        err_sq += part_sq
    mean = err_sum / n_paths
    rmse = math.sqrt(err_sq / n_paths)
    return ReplicationReport(
        n_rebalance=n_rebalance, mean_error=mean, rmse=rmse, n_paths=n_paths
    )
