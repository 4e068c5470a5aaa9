"""Equivalent-martingale-measure estimators.

Both read full P-paths and their Girsanov density rho_T = dQ/dP from
the exact block sampler, :func:`delaybs.paths.exact_values_vec` with
``density=True``; :func:`delaybs.paths.exact_steps` documents how the
two are sampled jointly.  The importance-sampled price controls its
mean with the weighted terminal price rho_T * S(T), whose P-mean the
martingale measure fixes, and with the call payoff of the paths'
Black-Scholes twin.
"""

from __future__ import annotations

from .model import discount_factor
from .parallel import accumulate_controlled_pair, accumulate_moments
from .paths import exact_values_vec
from .pricing import MarketState, PricingResult, twin_call, twin_call_payoff


def density_mean_check(market, n_paths, seed, workers=1):
    """Sample mean and standard error of rho_T over full P-paths.

    The mean should be 1 within Monte Carlo error; it is exactly 1 with
    zero variance when f coincides with the riskless rate.
    """

    def chunk(lo, hi):
        return exact_values_vec(
            market, "P", seed, lo, hi, 0.0, market.s0, market.s0, [market.T],
            density=True,
        )[1]

    mean, se, _ = accumulate_moments(chunk, n_paths, workers)
    return mean, se


def importance_price(market, option, n_paths, seed, workers=1):
    """Price at time 0 by P-simulation weighted with the Girsanov density.

    Estimates discount * E_P[rho_T * payoff(S(T))], with rho_T * S(T) as
    a control variate: its P-mean is E_Q[S(T)] = s0 * e^{R(0,T)} exactly,
    because the discounted price is a Q-martingale.  The Black-Scholes
    twin's call payoff, built from the P paths' price normals with the
    riskless drift and not weighted by rho_T, is a second control: its
    P-mean is the closed form :func:`delaybs.pricing.twin_call` gives.
    The estimate is that of :func:`delaybs.parallel.accumulate_controlled_pair`;
    it agrees with the direct Q estimator within combined Monte Carlo
    error, and equals it when f coincides with the riskless rate
    (rho_T = 1).
    """
    disc = discount_factor(market.rate, 0.0, market.T)
    twin_v, twin_mean = twin_call(market, MarketState(0.0, market.s0), option.strike)

    def chunk(lo, hi):
        values, rho, w = exact_values_vec(
            market, "P", seed, lo, hi, 0.0, market.s0, market.s0, [market.T],
            density=True, twin=twin_v,
        )
        s_T = values[:, 0]
        y, x = rho * option.payoff(s_T), rho * s_T
        if twin_mean is None:
            return y, x
        return y, x, twin_call_payoff(market.s0, w, option.strike)

    (mean, se, _), _ = accumulate_controlled_pair(
        chunk, market.s0 / disc, n_paths, workers, twin_mean=twin_mean
    )
    return PricingResult(
        value=disc * mean, std_error=disc * se, n_paths=n_paths, method="importance"
    )
