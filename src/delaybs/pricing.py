"""Option valuation for the variable-delay market.

Four routes:

* ``price_closed`` — the closed form valid once the final block's
  volatility is known (valuation time at or after the final block start);
* ``price_semi`` — simulate the block-start state to the final block
  boundary t*, then apply the conditional-expectation kernel
  ``_h_value_vec``, with the discounted block-start price as a control
  variate: its Q-mean is known exactly, because the discounted price is
  a Q-martingale and the exact sampler draws S(t*) without bias;
* ``price_mc`` — direct discounted-payoff Monte Carlo under Q, with the
  discounted terminal price as a control variate on the same grounds;
* ``price_classical`` — the constant-coefficient Black-Scholes reference,
  an independent code path used as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ContractError, DomainError
from .model import block_index, discount_factor, is_positive
from .parallel import accumulate_controlled_moments, accumulate_controlled_pair
from .paths import exact_values_vec
from .quadrature import DEFAULT_N, block_integrals_vec


@dataclass(frozen=True)
class PricingResult:
    value: float
    std_error: float = 0.0
    n_paths: int = 0
    method: str = "closed"  # closed | semi | mc | classical | importance


@dataclass(frozen=True)
class MarketState:
    """The observable data a pricer consumes at valuation time t."""

    t: float
    s_t: float
    s_block: float = None

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ContractError(f"valuation time must be finite, got {self.t}")
        if not is_positive(self.s_t):
            raise ContractError(f"price must be positive, got {self.s_t}")
        if self.s_block is None:
            object.__setattr__(self, "s_block", self.s_t)
        if not is_positive(self.s_block):
            raise ContractError(f"block price must be positive, got {self.s_block}")


def norm_cdf(x):
    """Standard normal CDF, accurate to ~1e-16 over the real line."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def final_block_start(market):
    """Start time k*h of the block containing maturity, as in
    ``block_schedule(T, h)[-2]``.

    When maturity falls exactly on a boundary the final block is the one
    of positive length ending at T.
    """
    k = block_index(market.T, market.h)
    if market.T - k * market.h <= 1e-12 * max(market.T, 1.0):
        k = max(k - 1, 0)
    return k * market.h


def _final_block_variance(market, s_block, t, quad_n=DEFAULT_N):
    """Integral of g(u, s_block)^2 over [t, T], the n = 1 block integral.

    Raises :class:`DomainError` unless the variance is finite and positive.
    """
    v = float(block_integrals_vec(market, s_block, t, market.T, quad_n)[0])
    if not is_positive(v):
        raise DomainError(f"final-block variance must be finite and positive, got {v}")
    return v


def _log_ratio(x, y):
    """log(x / y) for positive x and y, also where x / y underflows to 0."""
    ratio = x / y
    if ratio > 0.0:
        return math.log(ratio)
    return math.log(x) - math.log(y)


def log_ratio_vec(x, y):
    """Elementwise log(x / y) for positive x and y, bit for bit, except
    that it is log x - log y where x / y underflows to 0 or overflows."""
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        out = np.log(x / y)
        lost = np.isinf(out)
        if lost.any():
            out = np.where(lost, np.log(x) - np.log(y), out)
    return out


def beta_pm(market, option, state, quad_n=DEFAULT_N):
    """The two closed-form arguments; their difference is the total vol."""
    t_star = final_block_start(market)
    if state.t < t_star - 1e-12 * max(market.T, 1.0):
        raise ContractError(
            f"closed form needs t >= {t_star}, got t={state.t}"
        )
    if state.t >= market.T:
        raise DomainError("zero remaining variance at expiry")
    v = _final_block_variance(market, state.s_block, state.t, quad_n)
    lam = market.rate.integral(state.t, market.T)
    log_m = _log_ratio(state.s_t, option.strike)
    sq = math.sqrt(v)
    beta_plus = (log_m + lam + 0.5 * v) / sq
    beta_minus = beta_plus - sq
    return beta_plus, beta_minus


def price_closed(market, option, state, quad_n=DEFAULT_N):
    """Closed-form call value in the final block; puts via parity.

    At maturity the value is the payoff; a valuation time past maturity
    raises :class:`ContractError`.
    """
    if state.t > market.T + 1e-12 * max(market.T, 1.0):
        raise ContractError(f"valuation time {state.t} is past maturity {market.T}")
    if state.t >= market.T - 1e-15:
        return PricingResult(value=float(option.payoff(state.s_t)), method="closed")
    bp, bm = beta_pm(market, option, state, quad_n)
    disc = discount_factor(market.rate, state.t, market.T)
    call = state.s_t * norm_cdf(bp) - option.strike * norm_cdf(bm) * disc
    value = call if option.kind == "call" else put_price(call, state, option, market)
    return PricingResult(value=value, method="closed")


def _h_value_vec(x, v, strike, rate_integral_0T):
    """Conditional-expectation kernel mapping discounted block-start states
    x, with final-block variance v, to their option value contributions."""
    sq = np.sqrt(v)
    log_m = log_ratio_vec(x, strike) + rate_integral_0T - 0.5 * v
    alpha1 = (log_m + v) / sq
    alpha2 = log_m / sq
    return x * ndtr(alpha1) - strike * ndtr(alpha2) * math.exp(-rate_integral_0T)


def price_semi(market, option, state, n_paths, seed, workers=1, quad_n=DEFAULT_N):
    """Semi-analytic pricer: simulate to the final block boundary t*, then
    integrate the last block in closed form.  Conditioning on the final
    block state removes the within-block noise, so the standard error is
    below the direct Monte Carlo estimator's.

    The mean of the per-path values Y is controlled by X = e^{-R(0,t*)}
    S(t*), whose Q-mean is mu = e^{-R(0,t)} S(t): the estimate is
    Ybar - beta * (Xbar - mu), with beta = S_xy / S_xx fitted on the same
    paths, and its standard error comes from the residual variance over
    n - 2 degrees of freedom.  With two paths or fewer, or with no spread
    in X, beta is 0 and the estimate is the plain mean of Y.  Estimating
    beta adds a bias of order 1/n.  See
    :func:`parallel.accumulate_controlled_moments`.
    """
    if market.T <= market.h:
        raise ContractError("semi-analytic route needs T > h; use price_closed")
    t_star = final_block_start(market)
    tol = 1e-12 * max(market.T, 1.0)
    if state.t > t_star + tol:
        raise ContractError(f"semi-analytic route needs t <= {t_star}; use price_closed")
    if option.kind == "put":
        call = price_semi(
            market,
            option.__class__(option.strike, "call"),
            state, n_paths, seed, workers, quad_n,
        )
        return PricingResult(
            value=put_price(call.value, state, option, market),
            std_error=call.std_error,
            n_paths=call.n_paths,
            method="semi",
        )
    grow_t = math.exp(market.rate.integral(0.0, state.t))
    R_T = market.rate.integral(0.0, market.T)
    if abs(state.t - t_star) <= tol:
        # degenerate expectation: the final block state is known
        x = state.s_t * math.exp(-market.rate.integral(0.0, t_star))
        v = _final_block_variance(market, state.s_t, t_star, quad_n)
        if not x > 0.0:
            raise DomainError("x and strike must be positive")
        h = _h_value_vec(np.array([x]), v, option.strike, R_T)
        return PricingResult(value=grow_t * float(h[0]), method="semi")
    disc_to_star = math.exp(-market.rate.integral(0.0, t_star))

    def chunk(lo, hi):
        s_star = exact_values_vec(
            market, "Q", seed, lo, hi, state.t, state.s_t, state.s_block,
            [t_star], quad_n,
        )[:, 0]
        v = block_integrals_vec(market, s_star, t_star, market.T, quad_n)[0]
        x = s_star * disc_to_star
        return _h_value_vec(x, v, option.strike, R_T), x

    mean, se, _ = accumulate_controlled_moments(chunk, state.s_t / grow_t, n_paths, workers)
    return PricingResult(
        value=grow_t * mean, std_error=grow_t * se, n_paths=n_paths, method="semi"
    )


def price_mc(market, option, state, n_paths, seed, workers=1, quad_n=DEFAULT_N):
    """Direct Q-measure Monte Carlo: the discounted payoff's mean, with the
    discounted terminal price as a control variate."""
    return price_mc_joint(market, option, state, n_paths, seed, workers, quad_n)[0]


def price_mc_joint(market, option, state, n_paths, seed, workers=1, quad_n=DEFAULT_N):
    """:func:`price_mc` and the plain mean of its control, from one
    simulation of the terminal prices S(T).

    The payoff's mean is controlled by X = e^{-R(t,T)} S(T), whose Q-mean
    is S(t) exactly (the discounted price is a Q-martingale and the exact
    sampler draws S(T) without bias): the price is
    disc * (Ybar - beta * (Xbar - S(t))), with beta and the standard
    error from :func:`parallel.accumulate_controlled_moments`.  Y shares
    no code with :func:`price_semi`'s conditional kernel, so the two still
    check each other.  Returns the price_mc result and X's uncontrolled
    (mean, standard_error, n), the martingale check's statistic.
    """
    if state.t >= market.T:
        raise ContractError("valuation time must be before maturity")
    disc = discount_factor(market.rate, state.t, market.T)

    def chunk(lo, hi):
        s_T = exact_values_vec(
            market, "Q", seed, lo, hi, state.t, state.s_t, state.s_block,
            [market.T], quad_n,
        )[:, 0]
        return option.payoff(s_T), disc * s_T

    (mean, se, _), discounted = accumulate_controlled_pair(chunk, state.s_t, n_paths, workers)
    result = PricingResult(
        value=disc * mean, std_error=disc * se, n_paths=n_paths, method="mc"
    )
    return result, discounted


def price_classical(s, strike, rate_integral, total_variance):
    """Constant-coefficient Black-Scholes call with aggregate inputs.

    Independent of the closed-form route above: no shared beta
    computation, so the two can oracle each other.
    """
    if s <= 0.0 or strike <= 0.0:
        raise DomainError("spot and strike must be positive")
    if total_variance <= 0.0:
        raise DomainError("total variance must be positive")
    sigma = math.sqrt(total_variance)
    d1 = (_log_ratio(s, strike) + rate_integral) / sigma + 0.5 * sigma
    d2 = d1 - sigma
    return s * norm_cdf(d1) - strike * math.exp(-rate_integral) * norm_cdf(d2)


def put_price(call_value, state, option, market):
    """European put from the call at the same state, by parity."""
    disc = discount_factor(market.rate, state.t, market.T)
    return call_value - state.s_t + option.strike * disc
