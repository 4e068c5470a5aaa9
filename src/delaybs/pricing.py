"""Option valuation for the variable-delay market.

Four routes:

* ``price_closed`` — the closed form valid once the final block's
  volatility is known (valuation time at or after the final block start);
* ``price_semi`` — simulate the block-start state to the final block
  boundary t*, then value the last block with the Black-Scholes kernel
  (:func:`bs_betas`, :func:`bs_call`), with the discounted block-start
  price as a control variate: its Q-mean is known exactly, because the
  discounted price is a Q-martingale and the exact sampler draws S(t*)
  without bias;
* ``price_mc`` — direct discounted-payoff Monte Carlo under Q, with the
  discounted terminal price as a control variate on the same grounds;
* ``price_classical`` — the constant-coefficient Black-Scholes reference,
  an independent code path used as an oracle.

Both Monte Carlo routes also control with the Black-Scholes twin of
their paths (:func:`delaybs.paths.exact_steps`), whose option value is
known in closed form; where g does not read s the twin is the price
path itself, so their prices there are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ContractError, DomainError
from .model import block_index, discount_factor, is_positive, time_tolerance
from .parallel import accumulate_controlled_pair
from .paths import exact_values_vec, twin_variances
from .quadrature import block_integrals_vec


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
    if market.T - k * market.h <= time_tolerance(market.T):
        k = max(k - 1, 0)
    return k * market.h


def _final_block_variance(market, s_block, t):
    """Integral of g(u, s_block)^2 over [t, T], the n = 1 block integral.

    Raises :class:`DomainError` unless the variance is finite and positive.
    """
    v = float(block_integrals_vec(market, s_block, t, market.T)[0])
    if not is_positive(v):
        raise DomainError(f"final-block variance must be finite and positive, got {v}")
    return v


def log_ratio(x, y):
    """log(x / y) for positive x and y, a float or elementwise on an
    array, except that it is log x - log y where x / y underflows to 0 or
    overflows.  Floats take math.log, which can differ from numpy's log
    in the last bit."""
    if isinstance(x, float):
        # float division never warns, so floats need no error state
        ratio = x / y
        return math.log(ratio) if 0.0 < ratio < math.inf else math.log(x) - math.log(y)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        out = np.log(x / y)
        lost = np.isinf(out)
        if lost.any():
            out = np.where(lost, np.log(x) - np.log(y), out)
    return out


def bs_betas(log_m, rate_integral, v):
    """The Black-Scholes kernel's arguments (beta_plus, beta_minus) for
    log-moneyness log_m, rate integral R and variance v: beta_minus =
    (log_m + R - v/2) / sqrt(v) and beta_plus = beta_minus + sqrt(v).

    log_m and v are floats or arrays and R is a float; each element of an
    array result has the bits of the float case.
    """
    sq = np.sqrt(v)
    beta_minus = log_m + rate_integral
    beta_minus -= 0.5 * v
    beta_plus = beta_minus + v
    beta_plus /= sq
    beta_minus /= sq
    return beta_plus, beta_minus


def bs_call(x, strike, rate_integral, beta_plus, beta_minus):
    """The Black-Scholes call x N(beta_plus) - strike e^{-R} N(beta_minus),
    for the arguments :func:`bs_betas` forms from log(x / strike)."""
    return x * ndtr(beta_plus) - strike * ndtr(beta_minus) * math.exp(-rate_integral)


def beta_pm(market, option, state):
    """The two closed-form arguments; their difference is the total vol."""
    t_star = final_block_start(market)
    if state.t < t_star - time_tolerance(market.T):
        raise ContractError(
            f"closed form needs t >= {t_star}, got t={state.t}"
        )
    if state.t >= market.T:
        raise DomainError("zero remaining variance at expiry")
    v = _final_block_variance(market, state.s_block, state.t)
    lam = market.rate.integral(state.t, market.T)
    return bs_betas(log_ratio(state.s_t, option.strike), lam, v)


def price_closed(market, option, state):
    """Closed-form call value in the final block; puts via parity.

    At maturity the value is the payoff; a valuation time past maturity
    raises :class:`ContractError`.
    """
    if state.t > market.T + time_tolerance(market.T):
        raise ContractError(f"valuation time {state.t} is past maturity {market.T}")
    if state.t >= market.T - 1e-15:
        return PricingResult(value=float(option.payoff(state.s_t)), method="closed")
    bp, bm = beta_pm(market, option, state)
    lam = market.rate.integral(state.t, market.T)
    call = float(bs_call(state.s_t, option.strike, lam, bp, bm))
    value = call if option.kind == "call" else put_price(call, state, option, market)
    return PricingResult(value=value, method="closed")


def price_semi(market, option, state, n_paths, seed, workers=1):
    """Semi-analytic pricer: simulate to the final block boundary t*, then
    integrate the last block in closed form.  Conditioning on the final
    block state removes the within-block noise, so the standard error is
    below the direct Monte Carlo estimator's.

    The mean of the per-path values Y is controlled by X = e^{-R(0,t*)}
    S(t*), whose Q-mean is mu = e^{-R(0,t)} S(t), and by the kernel at the
    twin's state and final-block variance, whose mean is the kernel at
    e^{-R(0,t)} S(t) and the twin's variance over [t, T]: the estimate is
    Ybar - sum_j beta_j (Xbar_j - mu_j), with the betas fitted on the same
    paths as in :func:`parallel.accumulate_controlled_pair`.  With two
    paths or fewer it is the plain mean of Y.  Estimating the betas adds
    a bias of order 1/n.
    """
    if market.T <= market.h:
        raise ContractError("semi-analytic route needs T > h; use price_closed")
    t_star = final_block_start(market)
    tol = time_tolerance(market.T)
    if state.t > t_star + tol:
        raise ContractError(f"semi-analytic route needs t <= {t_star}; use price_closed")
    if option.kind == "put":
        call = price_semi(
            market, option.__class__(option.strike, "call"), state, n_paths, seed, workers
        )
        return PricingResult(
            value=put_price(call.value, state, option, market),
            std_error=call.std_error,
            n_paths=call.n_paths,
            method="semi",
        )
    disc_to_star = math.exp(-market.rate.integral(0.0, t_star))
    if abs(state.t - t_star) <= tol:
        # degenerate expectation: the final block state is known
        if not state.s_t * disc_to_star > 0.0:
            raise DomainError("the discounted state at t* must be positive")
        value = price_closed(market, option, MarketState(t_star, state.s_t)).value
        return PricingResult(value=value, method="semi")
    grow_t = math.exp(market.rate.integral(0.0, state.t))
    R_T = market.rate.integral(0.0, market.T)
    strike = option.strike
    # The twin's final-block variance, and its total over [t, T]
    twin_v = twin_variances(market, state.t, state.s_block, [t_star, market.T])
    twin_mean = None
    if twin_v[-1] > 0.0:
        x_t = state.s_t / grow_t
        bp, bm = bs_betas(log_ratio(x_t, strike), R_T, sum(twin_v))
        twin_mean = float(bs_call(x_t, strike, R_T, bp, bm))
    log_x0k = log_ratio(state.s_t, strike) - market.rate.integral(0.0, t_star)

    def chunk(lo, hi):
        s_star, w = exact_values_vec(
            market, "Q", seed, lo, hi, state.t, state.s_t, state.s_block, [t_star],
            twin=twin_v[:-1],
        )
        s_star = s_star[:, 0]
        v = block_integrals_vec(market, s_star, t_star, market.T)[0]
        if (v <= 0.0).any():
            raise DomainError("final-block variance must be positive")
        x = s_star * disc_to_star
        y = bs_call(x, strike, R_T, *bs_betas(log_ratio(x, strike), R_T, v))
        if twin_mean is None:
            return [(y, x)]
        with np.errstate(over="ignore"):  # an overflow fails the finite check, as a price does
            x_twin = np.exp(w)
            x_twin *= state.s_t * disc_to_star
        return [(y, x, bs_call(x_twin, strike, R_T, *bs_betas(log_x0k + w, R_T, twin_v[-1])))]

    (mean, se, _), _ = accumulate_controlled_pair(
        chunk, state.s_t / grow_t, n_paths, workers, twin_mean=twin_mean
    )
    return PricingResult(
        value=grow_t * mean, std_error=grow_t * se, n_paths=n_paths, method="semi"
    )


def price_mc(market, option, state, n_paths, seed, workers=1):
    """Direct Q-measure Monte Carlo: the discounted payoff's mean, with the
    discounted terminal price as a control variate."""
    return price_mc_joint(market, "Q", option, state, n_paths, seed, workers)[0]


def price_mc_joint(market, measure, option, state, n_paths, seed, workers=1):
    """The terminal-price Monte Carlo price under ``measure``, and the
    plain mean of the statistic that checks that measure, from one
    simulation of the terminal prices S(T).

    Under Q (:func:`price_mc`) Y is the payoff and X = e^{-R(t,T)} S(T),
    whose Q-mean is S(t) exactly: the discounted price is a Q-martingale
    and the exact sampler draws S(T) without bias.  Under P (the
    importance price) the paths carry the Girsanov density rho_T = dQ/dP,
    Y = rho_T payoff and X = rho_T S(T), whose P-mean is e^{R(t,T)} S(t).
    The twin's call payoff (S~(T) - K)^+, unweighted and also for puts, so
    that put-call parity holds exactly at a shared seed, is a second
    control; :func:`twin_call` gives its mean.  The price is disc times
    the controlled mean of :func:`parallel.accumulate_controlled_pair`.
    Neither Y nor its mean shares code with :func:`price_semi`'s kernel,
    so the two still check each other.  Returns the price and the plain
    (mean, standard_error, n) of X under Q and of rho_T under P, not
    checked for finiteness (see :func:`parallel.finite`).
    """
    if state.t >= market.T:
        raise ContractError("valuation time must be before maturity")
    disc = discount_factor(market.rate, state.t, market.T)
    twin_v, twin_mean = twin_call(market, state, option.strike)
    under_p = measure == "P"

    def chunk(lo, hi):
        s_T, *rho, w = exact_values_vec(
            market, measure, seed, lo, hi, state.t, state.s_t, state.s_block, [market.T],
            density=under_p, twin=twin_v,
        )
        s_T = s_T[:, 0]
        if under_p:
            y, x = rho[0] * option.payoff(s_T), rho[0] * s_T
        else:
            y, x = option.payoff(s_T), disc * s_T
        twin = () if twin_mean is None else (twin_call_payoff(state.s_t, w, option.strike),)
        return [(y, x, *twin), *((r,) for r in rho)]

    control_mean = state.s_t / disc if under_p else state.s_t
    (mean, se, _), *plain = accumulate_controlled_pair(
        chunk, control_mean, n_paths, workers, twin_mean=twin_mean
    )
    method = "importance" if under_p else "mc"
    return PricingResult(disc * mean, disc * se, n_paths, method), plain[-1]


def twin_call(market, state, strike):
    """The Black-Scholes twin's knot variances from ``state`` to T, and
    its undiscounted call value E(S~(T) - K)^+, or None when the twin
    has no variance over [t, T]."""
    twin_v = twin_variances(market, state.t, state.s_block, [market.T])
    if not sum(twin_v) > 0.0:
        return twin_v, None
    rate_integral = market.rate.integral(state.t, market.T)
    call = price_classical(state.s_t, strike, rate_integral, sum(twin_v))
    return twin_v, call / discount_factor(market.rate, state.t, market.T)


def twin_call_payoff(s_t, log_growth, strike):
    """(S~(T) - K)^+ per path for the twin s_t * exp(log_growth)."""
    with np.errstate(over="ignore"):  # an overflow fails the finite check, as a price does
        out = np.exp(log_growth)
        out *= s_t
    out -= strike
    return np.maximum(out, 0.0, out=out)


def price_classical(s, strike, rate_integral, total_variance):
    """Constant-coefficient Black-Scholes call with aggregate inputs.

    Independent of the closed-form route above: no shared beta
    computation, so the two can oracle each other.  It also gives the
    mean of :func:`price_mc`'s twin control, through :func:`twin_call`.
    """
    if s <= 0.0 or strike <= 0.0:
        raise DomainError("spot and strike must be positive")
    if total_variance <= 0.0:
        raise DomainError("total variance must be positive")
    sigma = math.sqrt(total_variance)
    d1 = (log_ratio(s, strike) + rate_integral) / sigma + 0.5 * sigma
    d2 = d1 - sigma
    return s * norm_cdf(d1) - strike * math.exp(-rate_integral) * norm_cdf(d2)


def put_price(call_value, state, option, market):
    """European put from the call at the same state, by parity."""
    disc = discount_factor(market.rate, state.t, market.T)
    return call_value - state.s_t + option.strike * disc
