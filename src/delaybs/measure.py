"""Equivalent-martingale-measure machinery.

The change of measure removes the drift mismatch (f - lambda) from the
price dynamics.  Its log-density is driven by the same Brownian
increments as the price, so the two are sampled jointly per block as a
bivariate Gaussian: I1 = integral of g dW (price), I2 = integral of
theta dW (density), with covariance integral of g*theta = f - lambda.

Within a block theta is evaluated from the frozen block-start price
only, which is what makes the density increment measurable at the block
start.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .errors import NumericalError
from .model import block_index, block_schedule, discount_factor
from .parallel import accumulate_moments
from .quadrature import DEFAULT_N, block_integrals_vec

# Relative tolerance below which the residual variance of the density
# increment given the price increment is treated as exactly zero.
DEGENERATE_TOL = 1e-12


def _joint_increments(g2, f_int, lam_int, theta_sq, z1, z2):
    """Correlated (I1, I2) from independent standard normals.

    I1 ~ N(0, g2), I2 ~ N(0, theta_sq), Cov(I1, I2) = f_int - lam_int.
    Degenerate residual variance collapses to perfect correlation, which
    is exact whenever theta is proportional to g within the block.
    """
    c = f_int - lam_int
    i1 = np.sqrt(g2) * z1
    # theta_sq == 0 means no drift mismatch; any nonzero c there is
    # quadrature roundoff, tolerated up to the same relative budget.
    zero = theta_sq <= 1e-24
    cross = c * c / g2
    bad = np.where(
        zero,
        cross > DEGENERATE_TOL * np.maximum(g2, 1.0),
        cross > (1.0 + 1e-9) * np.maximum(theta_sq, 1e-300),
    )
    if np.any(bad):
        raise NumericalError(
            "block covariance is not positive semidefinite; "
            "quadrature of v, c, theta_sq is inconsistent"
        )
    resid = np.maximum(theta_sq - cross, 0.0)
    resid = np.where(resid <= DEGENERATE_TOL * theta_sq, 0.0, resid)
    i2 = np.where(zero, 0.0, c / np.sqrt(g2) * z1 + np.sqrt(resid) * z2)
    return i1, i2


def _p_terminal_with_density(market, seed, lo, hi, quad_n=DEFAULT_N):
    """Vectorized full-horizon P-simulation with joint density sampling.

    Returns (terminal prices, rho_T) for stream ids lo..hi-1.
    """
    n = hi - lo
    s = np.full(n, market.s0)
    sb = s.copy()
    log_rho = np.zeros(n)
    knots = block_schedule(market.T, market.h)
    for a, b in zip(knots[:-1], knots[1:]):
        k = block_index(a, market.h)
        g2, f_int, lam_int, theta_sq = block_integrals_vec(
            market, sb, a, b, quad_n, with_theta=True
        )
        z1 = rng.normals(seed, k, 0, lo, hi)
        z2 = rng.normals(seed, k, 1, lo, hi)
        i1, i2 = _joint_increments(g2, f_int, lam_int, theta_sq, z1, z2)
        s = s * np.exp(f_int - 0.5 * g2 + i1)
        log_rho = log_rho - i2 - 0.5 * theta_sq
        sb = s.copy()
    return s, np.exp(log_rho)


def density_mean_check(market, n_paths, seed, workers=1, quad_n=DEFAULT_N):
    """Sample mean and standard error of rho_T over full P-paths.

    The mean should be 1 within Monte Carlo error; it is exactly 1 with
    zero variance when f coincides with the riskless rate.
    """
    mean, se, _ = accumulate_moments(
        lambda lo, hi: _p_terminal_with_density(market, seed, lo, hi, quad_n)[1],
        n_paths,
        workers,
    )
    return mean, se


def importance_price(market, option, n_paths, seed, workers=1, quad_n=DEFAULT_N):
    """Price at time 0 by P-simulation weighted with the Girsanov density.

    Estimates discount * E_P[rho_T * payoff(S(T))]; agrees with the
    direct Q estimator within combined Monte Carlo error.
    """
    from .pricing import PricingResult

    disc = discount_factor(market.rate, 0.0, market.T)

    def chunk(lo, hi):
        s_T, rho = _p_terminal_with_density(market, seed, lo, hi, quad_n)
        return rho * option.payoff(s_T)

    mean, se, _ = accumulate_moments(chunk, n_paths, workers)
    return PricingResult(
        value=disc * mean, std_error=disc * se, n_paths=n_paths, method="importance"
    )
