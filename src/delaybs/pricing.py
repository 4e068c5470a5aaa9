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
their paths (:func:`delaybs.paths.exact_steps`): with its option value
and its first-order term (and in ``price_semi`` its digital), all known
in closed form, and with its discounted price, a Q-martingale like the
price's own.  Where g does not read s the twin is the price path itself,
so their prices there are exact.  The importance price is ``price_mc``'s
estimate on P-paths, each statistic weighted by rho_T = dQ/dP, with
rho_T itself as a last control.
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


def bs_call(x, strike, rate_integral, beta_plus, beta_minus, legs=False):
    """The Black-Scholes call x N(beta_plus) - strike e^{-R} N(beta_minus),
    for the arguments :func:`bs_betas` forms from log(x / strike).  With
    ``legs``, the triple (call, N(beta_minus), x N(beta_plus)): the chance,
    under Q, that the call ends in the money, and its asset leg."""
    in_the_money = ndtr(beta_minus)
    asset = x * ndtr(beta_plus)
    call = asset - strike * in_the_money * math.exp(-rate_integral)
    return (call, in_the_money, asset) if legs else call


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
    S(t*), whose Q-mean is mu = e^{-R(0,t)} S(t), by the kernel at the
    twin's state and final-block variance, whose mean is the kernel at
    e^{-R(0,t)} S(t) and the twin's variance over [t, T], by the twin's
    state X~ = e^{-R(0,t*)} S~(t*), whose mean is mu, by the twin's
    digital, the kernel's N(beta_minus), whose mean is N(beta_minus) at
    the twin mean's arguments, from the same call, and by the first-order
    term F = T X~ N(beta~_plus) + W~ X~ phi(beta~_plus) sqrt(v~_f), T being
    the twin's tangent sum and W~ its Brownian part, both to t*, and v~_f
    its final-block variance, whose mean is :func:`twin_tangent_mean`'s: F
    is the mean, given the state at t*, of :func:`price_mc_joint`'s term,
    as the final block adds W~ (dW~_f - v~_f) to T.  The estimate is
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
    x_t = state.s_t / grow_t
    means = (x_t,)
    if twin_v[-1] > 0.0:
        bp, bm = bs_betas(log_ratio(x_t, strike), R_T, sum(twin_v))
        twin_mean, digital_mean, _ = map(float, bs_call(x_t, strike, R_T, bp, bm, legs=True))
        tangent_mean = twin_tangent_mean(twin_v, x_t, bp)
        means = (x_t, twin_mean, x_t, digital_mean, tangent_mean)
    log_x0k = log_ratio(state.s_t, strike) - market.rate.integral(0.0, t_star)
    # the twin's log-growth to t* less its drift is its Brownian part W~
    twin_drift = market.rate.integral(state.t, t_star) - 0.5 * sum(twin_v[:-1])

    def chunk(lo, hi):
        s_star, w, tangent = exact_values_vec(
            market, "Q", seed, lo, hi, state.t, state.s_t, state.s_block, [t_star],
            twin=twin_v[:-1],
        )
        s_star = s_star[:, 0]
        v = block_integrals_vec(market, s_star, t_star, market.T)[0]
        if (v <= 0.0).any():
            raise DomainError("final-block variance must be positive")
        x = s_star * disc_to_star
        y = bs_call(x, strike, R_T, *bs_betas(log_ratio(x, strike), R_T, v))
        if len(means) == 1:
            return y, x
        x_twin = twin_price(state.s_t * disc_to_star, w)
        betas = bs_betas(log_x0k + w, R_T, twin_v[-1])
        twin, digital, asset = bs_call(x_twin, strike, R_T, *betas, legs=True)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the finite check
            vega = (w - twin_drift) * x_twin * np.exp(-0.5 * betas[0] ** 2)
            first_order = tangent * asset + vega * math.sqrt(twin_v[-1] / (2.0 * math.pi))
        return y, x, twin, x_twin, digital, first_order

    (mean, se, _), *_ = accumulate_controlled_pair(chunk, means, n_paths, workers)
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

    Y is the payoff and X = e^{-R(t,T)} S(T), whose Q-mean is S(t)
    exactly: the discounted price is a Q-martingale and the exact sampler
    draws S(T) without bias.  The twin's call payoff (S~(T) - K)^+, also
    for puts, so that put-call parity holds exactly at a shared seed, is a
    second control, of :func:`twin_call`'s mean, its discounted price X~ a
    third, of X's mean, and its first-order term F = T X~ 1{S~(T) > K}, T
    being its tangent sum, a fourth, of :func:`twin_call`'s mean, also
    call-side for puts.  Under P (the importance price) the paths carry
    the Girsanov density rho_T = dQ/dP and the twin reads the price's
    Q-normals, so each statistic weighted by rho_T keeps its Q-mean,
    E_P[rho_T Z] = E_Q[Z], and rho_T, of mean 1, is the last control: it
    holds rho_T K, which a put's payoff adds to the call's.  The price is
    disc times the controlled mean of
    :func:`parallel.accumulate_controlled_pair`.
    Neither Y nor its mean shares code with :func:`price_semi`'s kernel,
    so the two still check each other.  Returns the price and the plain
    (mean, standard_error, n) of X under Q and of rho_T under P, not
    checked for finiteness (see :func:`parallel.finite`).
    """
    if state.t >= market.T:
        raise ContractError("valuation time must be before maturity")
    disc = discount_factor(market.rate, state.t, market.T)
    twin_v, twin_mean, tangent_mean = twin_call(market, state, option.strike)
    means = (state.s_t,) if twin_mean is None else (state.s_t, twin_mean, state.s_t, tangent_mean)
    if measure == "P":
        means += (1.0,)

    def chunk(lo, hi):
        s_T, *rho, w, tangent = exact_values_vec(
            market, measure, seed, lo, hi, state.t, state.s_t, state.s_block, [market.T],
            density=measure == "P", twin=twin_v,
        )
        s_T = s_T[:, 0]
        s_twin = twin_price(state.s_t, w)
        x_twin = disc * s_twin
        stats = (option.payoff(s_T), disc * s_T)
        if twin_mean is not None:
            above = np.where(s_twin > option.strike, x_twin, 0.0)
            stats += (np.maximum(s_twin - option.strike, 0.0), x_twin, tangent * above)
        return (*(rho[0] * z for z in stats), *rho) if rho else stats

    (mean, se, _), *plain = accumulate_controlled_pair(chunk, means, n_paths, workers)
    method, read = ("importance", -1) if measure == "P" else ("mc", 0)  # rho_T's or X's
    return PricingResult(disc * mean, disc * se, n_paths, method), plain[read]


def twin_call(market, state, strike):
    """The Black-Scholes twin's knot variances from ``state`` to T, its
    undiscounted call value E(S~(T) - K)^+ and the Q-mean of the
    first-order term T X~ 1{S~(T) > K}, X~ = e^{-R(t,T)} S~(T)
    (:func:`twin_tangent_mean`), or None for both when the twin has no
    variance over [t, T]."""
    twin_v = twin_variances(market, state.t, state.s_block, [market.T])
    if not sum(twin_v) > 0.0:
        return twin_v, None, None
    rate_integral = market.rate.integral(state.t, market.T)
    call = price_classical(state.s_t, strike, rate_integral, sum(twin_v))
    beta_plus, _ = bs_betas(log_ratio(state.s_t, strike), rate_integral, sum(twin_v))
    tangent_mean = twin_tangent_mean(twin_v, state.s_t, beta_plus)
    return twin_v, call / discount_factor(market.rate, state.t, market.T), tangent_mean


def twin_tangent_mean(knot_v, x0, beta_plus):
    """The Q-mean of the twin's first-order term T A: T = sum_k W~_{k-1}
    (dW~_k - v~_k) over every knot to T, of variances ``knot_v`` (sum V, the
    total variance, sum of squares Q), A = X~ 1{S~(T) > K}, X~ of mean x0,
    and beta_plus that of the twin's call mean; ``price_semi``'s term is
    its mean given the state at t*.  With I = sum_k W~_{k-1} dW~_k, W~^2 =
    2 I + sum_k dW~_k^2 gives E[I | W~] = (1 - Q/V^2)(W~^2 - V)/2, and
    E[W~_{k-1} | W~] = V_{k-1} W~/V with sum_k v~_k V_{k-1} = (V^2 - Q)/2;
    Gaussian integration by parts, E[(W~^2 - V) A] = V^2 E[A''] and
    E[W~ A] = V E[A'], then gives (V^2 - Q)/2 x0 phi(beta_plus)
    (sqrt(V) - beta_plus)/V.  One knot gives 0."""
    v, q, b = sum(knot_v), sum(u * u for u in knot_v), float(beta_plus)
    spread = (v * v - q) / v  # at most V, so it cannot overflow
    density = math.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
    return 0.5 * x0 * spread * density * (math.sqrt(v) - b)


def twin_price(s_t, log_growth):
    """The twin's price S~ = s_t * exp(log_growth) per path."""
    with np.errstate(over="ignore"):  # an overflow fails the finite check, as a price does
        out = np.exp(log_growth)
        out *= s_t
    return out


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
