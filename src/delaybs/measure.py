"""Equivalent-martingale-measure estimators.

Both read full P-paths and their Girsanov density rho_T = dQ/dP from
the exact block sampler, :func:`delaybs.paths.exact_values_vec` with
``density=True``; :func:`delaybs.paths.exact_steps` documents how the
two are sampled jointly.
"""

from __future__ import annotations

from .model import discount_factor
from .parallel import accumulate_moments
from .paths import exact_values_vec
from .quadrature import DEFAULT_N


def density_mean_check(market, n_paths, seed, workers=1, quad_n=DEFAULT_N):
    """Sample mean and standard error of rho_T over full P-paths.

    The mean should be 1 within Monte Carlo error; it is exactly 1 with
    zero variance when f coincides with the riskless rate.
    """

    def chunk(lo, hi):
        return exact_values_vec(
            market, "P", seed, lo, hi, 0.0, market.s0, market.s0, [market.T], quad_n,
            density=True,
        )[1]

    mean, se, _ = accumulate_moments(chunk, n_paths, workers)
    return mean, se


def importance_price(market, option, n_paths, seed, workers=1, quad_n=DEFAULT_N):
    """Price at time 0 by P-simulation weighted with the Girsanov density.

    Estimates discount * E_P[rho_T * payoff(S(T))]; agrees with the
    direct Q estimator within combined Monte Carlo error.
    """
    from .pricing import PricingResult

    disc = discount_factor(market.rate, 0.0, market.T)

    def chunk(lo, hi):
        values, rho = exact_values_vec(
            market, "P", seed, lo, hi, 0.0, market.s0, market.s0, [market.T], quad_n,
            density=True,
        )
        return rho * option.payoff(values[:, 0])

    mean, se, _ = accumulate_moments(chunk, n_paths, workers)
    return PricingResult(
        value=disc * mean, std_error=disc * se, n_paths=n_paths, method="importance"
    )
