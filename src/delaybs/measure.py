"""Equivalent-martingale-measure estimators.

Both read full P-paths and their Girsanov density rho_T = dQ/dP from
the exact block sampler, :func:`delaybs.paths.exact_values_vec` with
``density=True``; :func:`delaybs.paths.exact_steps` documents how the
two are sampled jointly.  One simulation gives the importance price and
the plain mean of rho_T.
"""

from __future__ import annotations

from .model import OptionSpec
from .parallel import finite
from .pricing import MarketState, price_mc_joint


def density_mean_check(market, n_paths, seed, workers):
    """Sample mean and standard error of rho_T over full P-paths: the
    density estimate of :func:`importance_price` at strike s0, checked by
    :func:`delaybs.parallel.finite`.  Kept for the ``perfbench`` tracer;
    ``check`` reads the estimate from its importance price.

    The mean should be 1 within Monte Carlo error; it is exactly 1 with
    zero variance when f coincides with the riskless rate.
    """
    mean, se, _ = finite(importance_price(market, OptionSpec(market.s0), n_paths, seed, workers)[1])
    return mean, se


def importance_price(market, option, n_paths, seed, workers=1):
    """Price at time 0 by P-simulation weighted with the Girsanov density,
    and rho_T's plain (mean, standard_error, n) from the same paths.

    This is :func:`delaybs.pricing.price_mc_joint` under P from time 0:
    discount * E_P[rho_T * payoff(S(T))], controlled by rho_T * S(T) and
    by the Black-Scholes twin's call payoff.  It agrees with the direct Q
    estimator within combined Monte Carlo error, and equals it when f
    coincides with the riskless rate (rho_T = 1).
    """
    return price_mc_joint(market, "P", option, MarketState(0.0, market.s0), n_paths, seed, workers)
