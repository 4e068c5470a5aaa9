import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from delaybs import CoefficientExpr, OptionSpec, RateCurve, VariableDelayMarket
from delaybs.errors import ContractError, DomainError
from delaybs.measure import importance_price
from delaybs.model import discount_factor
from delaybs.pricing import (
    MarketState,
    beta_pm,
    bs_betas,
    bs_call,
    final_block_start,
    log_ratio,
    norm_cdf,
    price_classical,
    price_closed,
    price_mc,
    price_mc_joint,
    price_semi,
    put_price,
    twin_call,
    _final_block_variance,
)


def _market(g="0.2", rate=0.05, h=0.4, T=1.0, f="0.08"):
    return VariableDelayMarket(
        h=h, T=T, s0=100.0,
        f=CoefficientExpr.parse(f),
        g=CoefficientExpr.parse(g),
        rate=RateCurve.constant(rate),
        g_min=0.01,
    )


# --- normal CDF -----------------------------------------------------------


def test_norm_cdf_at_zero():
    assert norm_cdf(0.0) == 0.5


def test_norm_cdf_vs_quadrature_oracle():
    density = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    for x in (-3.0, -1.0, 0.5, 1.96, 4.0):
        expected = 0.5 + quad(density, 0.0, x)[0]
        assert norm_cdf(x) == pytest.approx(expected, abs=1e-12)
    assert norm_cdf(1.96) == pytest.approx(0.9750021, abs=5e-8)


@given(st.floats(min_value=-8.0, max_value=8.0))
def test_norm_cdf_symmetry(x):
    assert norm_cdf(-x) == pytest.approx(1.0 - norm_cdf(x), abs=1e-15)


@given(st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=0.0, max_value=2.0))
def test_norm_cdf_monotone(x, dx):
    assert norm_cdf(x + dx) >= norm_cdf(x)


# --- beta arguments -------------------------------------------------------


def test_beta_at_the_money_symmetry():
    market = _market(rate=0.0, h=1.0)
    bp, bm = beta_pm(market, OptionSpec(100.0), MarketState(0.0, 100.0))
    assert bp == pytest.approx(0.5 * 0.2, rel=1e-12)
    assert bm == pytest.approx(-0.5 * 0.2, rel=1e-12)


def test_beta_hand_computed():
    market = _market()
    bp, bm = beta_pm(market, OptionSpec(100.0), MarketState(0.8, 100.0))
    assert bp == pytest.approx(0.1565248, abs=5e-8)
    # (0.01 - 0.004) / sqrt(0.008)
    assert bm == pytest.approx(0.06708204, abs=5e-8)


@given(
    st.floats(min_value=50.0, max_value=200.0),
    st.floats(min_value=50.0, max_value=200.0),
    st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=50)
def test_beta_difference_is_total_vol(s, k, sigma):
    market = _market(g=repr(sigma), h=1.0)
    bp, bm = beta_pm(market, OptionSpec(k), MarketState(0.0, s))
    assert bp - bm == pytest.approx(sigma, rel=1e-9)


def test_beta_requires_final_block():
    market = _market()
    with pytest.raises(ContractError):
        beta_pm(market, OptionSpec(100.0), MarketState(0.2, 100.0))
    with pytest.raises(DomainError):
        beta_pm(market, OptionSpec(100.0), MarketState(1.0, 100.0))


def test_final_block_start_boundary_maturity():
    assert final_block_start(_market(h=0.4, T=1.0)) == pytest.approx(0.8)
    assert final_block_start(_market(h=0.25, T=1.0)) == pytest.approx(0.75)
    assert final_block_start(_market(h=0.25, T=0.9)) == pytest.approx(0.75)
    # on a block edge the start is k*h, the second-last block_schedule time
    assert final_block_start(_market(h=0.1, T=0.3)) == 0.2
    assert final_block_start(_market(h=0.3, T=0.9)) == 0.6


# --- closed form ----------------------------------------------------------


def test_closed_tiny_strike_tends_to_spot():
    market = _market(h=1.0)
    value = price_closed(market, OptionSpec(1e-8), MarketState(0.0, 100.0)).value
    assert value == pytest.approx(100.0, rel=1e-9)


def test_closed_deep_in_the_money():
    market = _market(h=1.0)
    state = MarketState(0.0, 1e6)
    value = price_closed(market, OptionSpec(1.0), state).value
    assert value == pytest.approx(1e6 - math.exp(-0.05), abs=1e-9)


def test_closed_matches_classical_single_block():
    market = _market(h=1.0)
    closed = price_closed(market, OptionSpec(100.0), MarketState(0.0, 100.0)).value
    classical = price_classical(100.0, 100.0, 0.05, 0.04)
    assert closed == pytest.approx(classical, abs=1e-12)


def test_classical_vs_lognormal_quadrature_oracle():
    # direct integration of the payoff against the terminal density
    r, sigma, s0, k = 0.05, 0.2, 100.0, 100.0

    def integrand(z):
        sT = s0 * math.exp(r - 0.5 * sigma**2 + sigma * z)
        return max(sT - k, 0.0) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    expected = math.exp(-r) * quad(integrand, -10.0, 10.0)[0]
    assert price_classical(s0, k, r, sigma**2) == pytest.approx(expected, abs=1e-9)
    assert price_classical(s0, k, r, sigma**2) == pytest.approx(10.450584, abs=5e-7)


def test_classical_zero_vol_limit():
    assert price_classical(100.0, 90.0, 0.05, 1e-18) == pytest.approx(
        100.0 - 90.0 * math.exp(-0.05), rel=1e-12
    )
    with pytest.raises(DomainError):
        price_classical(100.0, 90.0, 0.05, 0.0)


def test_expiry_returns_intrinsic():
    market = _market()
    assert price_closed(market, OptionSpec(90.0), MarketState(1.0, 100.0)).value == 10.0


def test_closed_past_maturity_is_rejected():
    market = _market()
    with pytest.raises(ContractError, match="past maturity"):
        price_closed(market, OptionSpec(90.0), MarketState(5.0, 100.0))
    # within the boundary tolerance of T it is still the payoff
    state = MarketState(1.0 + 1e-13, 100.0)
    assert price_closed(market, OptionSpec(90.0), state).value == 10.0


def test_closed_just_before_the_final_block_start():
    # within beta_pm's tolerance of t* = 0.75, but in the previous block
    market = _market(h=0.25, T=0.9, g="0.1 + 0.1*s/(1+s)")
    t = 0.75 - 9e-13
    closed = price_closed(market, OptionSpec(97.0), MarketState(t, 101.0)).value
    classical = price_classical(101.0, 97.0, 0.05 * (0.9 - t), (0.9 - t) * market.g(t, 101.0) ** 2)
    assert closed == pytest.approx(classical, abs=1e-12)


@pytest.mark.parametrize("g", ["0.2 + 0*log(s - 0.5)", "0*s"])
def test_closed_rejects_a_variance_that_is_not_positive(g):
    market = _market(g=g)
    with pytest.raises(DomainError, match="variance"):
        price_closed(market, OptionSpec(90.0), MarketState(0.9, 0.3))


@given(
    st.floats(min_value=60.0, max_value=160.0),
    st.floats(min_value=60.0, max_value=160.0),
)
@settings(max_examples=50)
def test_closed_monotone_in_spot_and_strike(s, k):
    market = _market(h=1.0)
    option = OptionSpec(k)
    lo = price_closed(market, option, MarketState(0.0, s)).value
    hi = price_closed(market, option, MarketState(0.0, s * 1.01)).value
    assert hi >= lo
    tighter = price_closed(market, OptionSpec(k * 1.01), MarketState(0.0, s)).value
    assert tighter <= lo


def test_discount_shift_consistency():
    # shifting the rate by delta and scaling the strike by exp(delta*(T-t))
    # leaves the closed-form value unchanged
    market = _market(h=1.0)
    shifted = _market(h=1.0, rate=0.05 + 0.02)
    base = price_closed(market, OptionSpec(100.0), MarketState(0.0, 100.0)).value
    moved = price_closed(
        shifted, OptionSpec(100.0 * math.exp(0.02)), MarketState(0.0, 100.0)
    ).value
    assert moved == pytest.approx(base, abs=1e-12)


# --- H kernel -------------------------------------------------------------


def _h_one(x, v, strike, rate_integral_0T):
    """The kernel at one discounted block-start state, as price_semi uses it."""
    betas = bs_betas(log_ratio(x, strike), rate_integral_0T, v)
    return float(bs_call(x, strike, rate_integral_0T, *betas))


def test_h_value_centered_case():
    v = 0.04
    out = _h_one(1.0, v, 1.0, 0.0)
    assert out == pytest.approx(2.0 * norm_cdf(0.1) - 1.0, abs=1e-15)
    assert out == pytest.approx(0.0796557, abs=5e-8)


def test_h_value_reduces_to_closed_form():
    market = _market()
    t = 0.8
    for s_t in (80.0, 100.0, 130.0):
        state = MarketState(t, s_t)
        from delaybs.pricing import _final_block_variance

        v = _final_block_variance(market, s_t, t)
        x = s_t * math.exp(-market.rate.integral(0.0, t))
        lhs = math.exp(market.rate.integral(0.0, t)) * _h_one(
            x, v, 100.0, market.rate.integral(0.0, 1.0)
        )
        rhs = price_closed(market, OptionSpec(100.0), state).value
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_h_value_large_x_asymptote():
    # the kernel's log-mean is -v/2, so deep in the money it is x - e^{-R}
    out = _h_one(1e9, 0.04, 1.0, 0.05)
    assert out == pytest.approx(1e9 - math.exp(-0.05), rel=1e-12)


def test_h_value_domain():
    # the kernel at t = t* needs a positive variance and a positive
    # discounted state; exp(-0.8) * 5e-324 rounds to 0
    with pytest.raises(DomainError, match="variance"):
        price_semi(_market(g="0"), OptionSpec(1.0), MarketState(0.8, 1.0), 10, 1)
    with pytest.raises(DomainError, match="positive"):
        price_semi(_market(rate=1.0), OptionSpec(1.0), MarketState(0.8, 5e-324), 10, 1)


def test_a_market_without_volatility_fails_typed_where_it_cannot_price():
    # g = 0: no final-block variance for the kernel, no market price of
    # risk for the density; the direct route prices the deterministic path
    market, option, state = _market(g="0"), OptionSpec(90.0), MarketState(0.0, 100.0)
    with pytest.raises(DomainError, match="variance"):
        price_semi(market, option, state, 1000, 1)
    with pytest.raises(DomainError, match="g != 0"):
        importance_price(market, option, 1000, 1)
    mc = price_mc(market, option, state, 1000, 1)
    assert (mc.value, mc.std_error) == (14.389351794935697, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["call", "put"])
def test_mc_without_a_twin_prices_the_deterministic_forward(kind):
    # g = 0*s leaves the twin no variance, so the price is controlled by
    # X alone; every path ends at the forward s e^{R(t,T)}
    market, state, option = _market(g="0*s"), MarketState(0.0, 100.0), OptionSpec(100.0, kind)
    assert twin_call(market, state, option.strike)[1] is None
    disc = discount_factor(market.rate, 0.0, market.T)
    mc = price_mc(market, option, state, 1000, 3)
    if kind == "call":
        assert mc.value == pytest.approx(disc * (state.s_t / disc - option.strike), rel=1e-12)
    else:
        assert mc.value == 0.0
    assert mc.std_error == 0.0


# --- one Black-Scholes kernel ---------------------------------------------


def test_kernel_on_an_array_is_the_kernel_on_each_float():
    rng = np.random.default_rng(21)
    n = 2000
    x = np.exp(rng.uniform(-3.0, 3.0, n))
    log_m = rng.uniform(-3.0, 3.0, n)
    v = np.exp(rng.uniform(-20.0, 1.0, n))
    rate_integral = 0.037
    bp, bm = bs_betas(log_m, rate_integral, v)
    call = bs_call(x, 1.3, rate_integral, bp, bm)
    for i in range(n):
        bp_i, bm_i = bs_betas(float(log_m[i]), rate_integral, float(v[i]))
        assert (bp_i, bm_i) == (bp[i], bm[i])
        assert bs_call(float(x[i]), 1.3, rate_integral, bp_i, bm_i) == call[i]


def test_closed_form_is_the_kernel_at_its_own_inputs():
    market = _market(g="0.1 + 0.1*s/(1+s)", h=0.25, T=0.9)
    for s_t, s_block, k, t in [(93.0, 101.0, 97.5, 0.75), (120.0, 80.0, 90.0, 0.8)]:
        state, option = MarketState(t, s_t, s_block), OptionSpec(k)
        lam = market.rate.integral(t, market.T)
        v = _final_block_variance(market, s_block, t)
        betas = bs_betas(log_ratio(s_t, k), lam, v)
        assert beta_pm(market, option, state) == betas
        assert price_closed(market, option, state).value == float(bs_call(s_t, k, lam, *betas))


def test_log_ratio_falls_back_to_a_difference_of_logs():
    tiny, huge = 5e-324, 1.7976931348623157e308
    for x, y in [(tiny, 2.0), (huge, 0.5)]:
        expected = math.log(x) - math.log(y)
        assert log_ratio(x, y) == expected
        assert log_ratio(np.array([x, 3.0]), y)[0] == pytest.approx(expected, rel=1e-15)
    xs = np.exp(np.random.default_rng(5).uniform(-5.0, 5.0, 1000))
    assert log_ratio(xs, 1.7) == pytest.approx([log_ratio(float(x), 1.7) for x in xs], rel=1e-15)


# --- Monte Carlo routes ---------------------------------------------------


def test_semi_degenerate_at_block_start():
    market = _market()
    state = MarketState(0.8, 104.0)
    semi = price_semi(market, OptionSpec(100.0), state, 1000, 1)
    closed = price_closed(market, OptionSpec(100.0), state)
    assert semi.value == pytest.approx(closed.value, abs=1e-12)
    assert semi.n_paths == 0 and semi.std_error == 0.0


def test_semi_constant_market_matches_classical():
    market = _market()
    semi = price_semi(market, OptionSpec(100.0), MarketState(0.0, 100.0), 200_000, 3)
    assert abs(semi.value - 10.45058357218555) <= 3.0 * semi.std_error + 1e-12 * 100.0


def test_semi_rejects_late_valuation():
    market = _market()
    with pytest.raises(ContractError):
        price_semi(market, OptionSpec(100.0), MarketState(0.9, 100.0), 100, 1)


def test_mc_zero_strike_martingale():
    market = _market(g="0.1 + 0.1*s/(1+s)", h=0.25, T=0.9)
    state = MarketState(0.0, 100.0)
    strike = 1e-9
    mc, (raw, raw_se, _) = price_mc_joint(market, "Q", OptionSpec(strike), state, 200_000, 5)
    # S(T) - K is linear in the control e^{-R} S(T): the price is exact
    exact = 100.0 - strike * discount_factor(market.rate, 0.0, market.T)
    assert abs(mc.value - exact) <= 1e-12 * 100.0
    assert mc.std_error <= 1e-12 * 100.0
    # the uncontrolled discounted terminal price keeps the martingale test
    assert abs(raw - 100.0) <= 3.0 * raw_se


@pytest.mark.parametrize("n", [3, 1000, 140_000])
@pytest.mark.parametrize("strike", [80.0, 100.0, 120.0])
def test_mc_put_call_parity_is_exact_at_a_shared_seed(strike, n):
    # The put's payoff is the call's less S(T) - K, which is linear in the
    # control, so the fitted betas differ by a constant and the residuals
    # agree: the controlled prices obey parity at any path count.
    market = _market(g="0.1 + 0.1*s/(1+s)", h=0.25, T=0.9)
    state = MarketState(0.0, 100.0)
    put = OptionSpec(strike, "put")
    call_mc = price_mc(market, OptionSpec(strike), state, n, 17)
    put_mc = price_mc(market, put, state, n, 17)
    parity = put_price(call_mc.value, state, put, market)
    assert abs(put_mc.value - parity) <= 1e-12 * state.s_t
    assert put_mc.std_error == pytest.approx(call_mc.std_error, rel=1e-12, abs=1e-12 * state.s_t)


def test_mc_agrees_with_closed_in_final_block():
    market = _market()
    state = MarketState(0.8, 100.0)
    mc = price_mc(market, OptionSpec(100.0), state, 200_000, 7)
    closed = price_closed(market, OptionSpec(100.0), state)
    assert abs(mc.value - closed.value) <= 3.0 * mc.std_error + 1e-12 * state.s_t


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("strike", [1e-9, 40.0, 100.0, 140.0, 300.0])
@pytest.mark.parametrize("t, s_t, s_block", [(0.0, 100.0, 100.0), (0.3, 104.0, 97.0)])
def test_constant_coefficients_price_exactly(constant_market, strike, kind, t, s_t, s_block):
    # The Black-Scholes twin is the price path itself, so Y is linear in
    # the twin control on every path, deep in or out of the money too,
    # where no path crosses the strike
    market = constant_market
    state, option = MarketState(t, s_t, s_block), OptionSpec(strike, kind)
    call = price_classical(s_t, strike, 0.05 * (market.T - t), 0.04 * (market.T - t))
    exact = call if kind == "call" else put_price(call, state, option, market)
    for pricer, seed in ((price_mc, 7), (price_semi, 3)):
        result = pricer(market, option, state, 4096, seed)
        assert abs(result.value - exact) <= 1e-12 * market.s0, pricer
        assert result.std_error == 0.0, pricer


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("strike", [60.0, 100.0, 140.0])
def test_mc_in_the_final_block_is_the_closed_form(state_market, strike, kind):
    # frozen at the block price, the twin is the model inside the last block
    state, option = MarketState(0.8, 103.0, 98.0), OptionSpec(strike, kind)
    mc = price_mc(state_market, option, state, 4096, 9)
    closed = price_closed(state_market, option, state).value
    assert abs(mc.value - closed) <= 1e-12 * state_market.s0
    assert mc.std_error == 0.0


def test_deterministic_reduction_across_workers():
    market = _market(g="0.1 + 0.1*s/(1+s)", h=0.25, T=0.9)
    state = MarketState(0.0, 100.0)
    option = OptionSpec(100.0)
    results = [
        price_mc(market, option, state, 300_000, 42, workers=w) for w in (1, 2, 8)
    ]
    assert results[0].value == results[1].value == results[2].value
    assert results[0].std_error == results[1].std_error == results[2].std_error


STRIKE_LADDER = 60.0 + 2.5 * np.arange(33)  # 60 to 140
# Rounding in a 2^16-term sum of prices below 50 moves a second difference
# by about 1e-13 at most; deep in the money the exact one is 0.
CONVEXITY_ROUNDING = 1e-12


@pytest.mark.parametrize("route", ["closed", "semi", "mc"])
def test_call_prices_fall_and_are_convex_in_the_strike(state_market, route):
    # One seed for every strike: common random numbers
    if route == "closed":
        prices = [price_closed(state_market, OptionSpec(k), MarketState(0.8, 100.0)).value
                  for k in STRIKE_LADDER]
    else:
        pricer = price_semi if route == "semi" else price_mc
        prices = [pricer(state_market, OptionSpec(k), MarketState(0.0, 100.0), 1 << 16, 12345).value
                  for k in STRIKE_LADDER]
    first = np.diff(prices)
    assert np.all(first <= 0.0), first.max()  # exact for mc: every payoff falls with K
    assert np.diff(first).min() >= -CONVEXITY_ROUNDING


# --- scale equivariance ---------------------------------------------------


def _scaled_market(c):
    """The state-dependent market in units 1/c of the currency: s0 times c,
    and s replaced by s/c in f and g."""
    unit = lambda expr: re.sub(r"\bs\b", f"(s/{float(c)!r})", expr)
    return VariableDelayMarket(
        h=0.25, T=0.9, s0=100.0 * c,
        f=CoefficientExpr.parse(unit("0.3*s/(1+s) + 0.01*t")),
        g=CoefficientExpr.parse(unit("0.1 + 0.1*s/(1+s)")),
        rate=RateCurve.constant(0.05),
        g_min=0.05,
    )


@pytest.mark.parametrize("c", [0.01, 7.0, 1e3])
def test_prices_scale_with_the_currency_unit(c):
    base, scaled = _scaled_market(1.0), _scaled_market(c)
    option, scaled_option = OptionSpec(97.0), OptionSpec(97.0 * c)
    closed = price_closed(base, option, MarketState(0.8, 103.0, 101.0)).value
    scaled_closed = price_closed(
        scaled, scaled_option, MarketState(0.8, 103.0 * c, 101.0 * c)
    ).value
    assert scaled_closed == pytest.approx(c * closed, rel=1e-12)
    for pricer, seed in ((price_mc, 7), (price_semi, 3)):
        value = pricer(base, option, MarketState(0.0, 100.0), 100_000, seed).value
        moved = pricer(scaled, scaled_option, MarketState(0.0, 100.0 * c), 100_000, seed)
        assert abs(moved.value - c * value) <= 3.0 * moved.std_error


# --- parity ---------------------------------------------------------------


def test_put_call_parity_closed():
    market = _market()
    for s_t in (70.0, 100.0, 140.0):
        state = MarketState(0.8, s_t)
        call = price_closed(market, OptionSpec(100.0, "call"), state).value
        put = price_closed(market, OptionSpec(100.0, "put"), state).value
        rhs = s_t - 100.0 * math.exp(-market.rate.integral(0.8, 1.0))
        assert call - put == pytest.approx(rhs, abs=1e-12)


def test_put_equals_call_atm_zero_rate():
    market = _market(rate=0.0, h=1.0)
    state = MarketState(0.0, 100.0)
    call = price_closed(market, OptionSpec(100.0, "call"), state).value
    put = price_closed(market, OptionSpec(100.0, "put"), state).value
    assert call == pytest.approx(put, abs=1e-12)


def test_put_price_zero_strike():
    market = _market(h=1.0)
    state = MarketState(0.0, 100.0)
    call = price_closed(market, OptionSpec(1e-12), state).value
    assert put_price(call, state, OptionSpec(1e-12), market) == pytest.approx(0.0, abs=1e-9)


def test_mc_put_direct_matches_parity(state_market):
    state = MarketState(0.0, 100.0)
    call = price_mc(state_market, OptionSpec(100.0, "call"), state, 200_000, 11)
    put = price_mc(state_market, OptionSpec(100.0, "put"), state, 200_000, 12)
    parity = put_price(call.value, state, OptionSpec(100.0), state_market)
    comb = math.hypot(call.std_error, put.std_error)
    assert abs(put.value - parity) <= 3.0 * comb


def test_mc_agrees_with_semi_when_coefficients_depend_on_time(time_market, atm_option):
    state = MarketState(0.0, time_market.s0)
    mc = price_mc(time_market, atm_option, state, 100_000, 11)
    semi = price_semi(time_market, atm_option, state, 100_000, 12)
    assert abs(mc.value - semi.value) <= 3.0 * math.hypot(mc.std_error, semi.std_error)
