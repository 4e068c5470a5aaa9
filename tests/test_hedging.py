import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delaybs import OptionSpec
from delaybs.errors import ContractError
from scipy.special import ndtr

from delaybs.hedging import _delta, _plan, replicate
from delaybs.pricing import (
    _final_block_variance,
    bs_betas,
    final_block_start,
    log_ratio,
    price_classical,
)
from delaybs.quadrature import integrate


def _oracle(market, s_star, t):
    """Rate integral and final-block variance over [t, T], the variance by
    the scalar Simpson rule ``price --method classical`` uses."""
    lam = market.rate.integral(t, market.T)
    return lam, integrate(lambda u: market.g(u, s_star) ** 2, t, market.T)


def _cash(s, strike, lam, v):
    """The oracle's cash leg -K Phi(beta_minus) e^{-lam}, beta_minus formed
    here and not by the pricing kernel."""
    beta_minus = (np.log(s / strike) + lam - 0.5 * v) / math.sqrt(v)
    return -strike * ndtr(beta_minus) * math.exp(-lam)


def portfolio_gap(market, s_star, strike, n_rebalance, s):
    """Largest |delta * s + cash - price_classical| over every rebalance the
    hedge plans for a ladder of n_rebalance steps, at the prices s."""
    grid = np.linspace(final_block_start(market), market.T, n_rebalance + 1)
    gap = 0.0
    for t, step in zip(grid[:-1], _plan(market, s_star, grid)):
        lam, v = _oracle(market, s_star, t)
        value = _delta(s, strike, step) * s + _cash(s, strike, lam, v)
        oracle = np.array([price_classical(float(x), strike, lam, v) for x in s])
        gap = max(gap, float(np.max(np.abs(value - oracle))))
    return gap


def _units(market, s_star, strike, t, s):
    """Stock units and the cash the hedge holds at one price and time: the
    delta it trades and the rest of the oracle's value."""
    step = _plan(market, s_star, np.array([t, market.T]))[0]
    delta = float(_delta(np.array([s]), strike, step)[0])
    return delta, price_classical(s, strike, *_oracle(market, s_star, t)) - delta * s


@pytest.mark.parametrize("fixture", ["constant_market", "state_market", "time_market"])
@pytest.mark.parametrize("n_rebalance", [4, 16, 64])
def test_hedge_holds_the_oracle_portfolio_at_every_rebalance(request, fixture, n_rebalance):
    # delta * S plus the cash leg is the independently integrated
    # Black-Scholes value at every rebalance the loop trades
    market = request.getfixturevalue(fixture)
    for s_star in (70.0, 100.0, 140.0):
        for strike in (80.0, 100.0, 125.0):
            s = np.linspace(0.5 * strike, 2.0 * strike, 31)
            assert portfolio_gap(market, s_star, strike, n_rebalance, s) <= 1e-12 * strike


def test_portfolio_identity_hand_point(constant_market):
    delta, cash = _units(constant_market, 100.0, 100.0, 0.8, 100.0)
    lam, v = _oracle(constant_market, 100.0, 0.8)
    assert cash == pytest.approx(float(_cash(100.0, 100.0, lam, v)), abs=1e-12)


@given(
    st.floats(min_value=60.0, max_value=160.0),
    st.floats(min_value=60.0, max_value=160.0),
    st.floats(min_value=0.8, max_value=0.999),
)
# the market fixture is a frozen dataclass, so reusing it across
# generated examples is safe
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_portfolio_identity_randomized(constant_market, s, k, t):
    delta, cash = _units(constant_market, s, k, t, s)
    lam, v = _oracle(constant_market, s, t)
    assert cash == pytest.approx(float(_cash(s, k, lam, v)), abs=1e-12)


def test_deep_in_the_money_limits(constant_market):
    delta, cash = _units(constant_market, 1e5, 100.0, 0.8, 1e5)
    assert delta == pytest.approx(1.0, abs=1e-12)
    assert cash == pytest.approx(
        -100.0 * math.exp(-constant_market.rate.integral(0.8, 1.0)), rel=1e-12
    )


def test_deep_out_of_the_money_limits(constant_market):
    delta, cash = _units(constant_market, 0.01, 100.0, 0.8, 0.01)
    assert delta == pytest.approx(0.0, abs=1e-12)
    assert cash == pytest.approx(0.0, abs=1e-12)


def test_delta_monotone_in_spot(constant_market):
    step = _plan(constant_market, 100.0, np.array([0.85, constant_market.T]))[0]
    deltas = _delta(np.linspace(40.0, 250.0, 40), 100.0, step)
    assert all(b >= a for a, b in zip(deltas, deltas[1:]))
    assert all(0.0 <= d <= 1.0 for d in deltas)


def test_hedge_weights_come_from_the_closed_form_kernel(state_market):
    # the delta is Phi of the kernel's beta_plus at the closed form's own
    # variance and rate integral, bit for bit
    s_star, t, strike = 104.0, 0.8, 97.0
    s = np.linspace(60.0, 160.0, 1001)
    step = _plan(state_market, s_star, np.array([t, state_market.T]))[0]
    lam = state_market.rate.integral(t, state_market.T)
    bp, _ = bs_betas(log_ratio(s, strike), lam, _final_block_variance(state_market, s_star, t))
    assert np.array_equal(_delta(s, strike, step), ndtr(bp))


def test_hedge_rejects_puts(constant_market):
    with pytest.raises(ContractError, match="calls"):
        replicate(constant_market, OptionSpec(100.0, "put"), 4, 10, 1)


def test_bond_leg_sign(constant_market):
    delta, cash = _units(constant_market, 110.0, 100.0, 0.85, 110.0)
    assert delta > 0.0
    assert cash < 0.0


def test_replication_error_shrinks_with_rebalancing(constant_market):
    option = OptionSpec(100.0)
    reports = [
        replicate(constant_market, option, n, 20_000, 7) for n in (4, 16, 64)
    ]
    rmses = [r.rmse for r in reports]
    assert rmses[0] > rmses[1] > rmses[2]
    # mean error is a discretization bias estimate; it should be small
    # relative to the scatter
    for r in reports:
        assert abs(r.mean_error) <= 3.0 * r.rmse / math.sqrt(r.n_paths) + 0.05


def test_replication_deterministic(constant_market):
    a = replicate(constant_market, OptionSpec(100.0), 16, 5_000, 13)
    b = replicate(constant_market, OptionSpec(100.0), 16, 5_000, 13)
    assert a.rmse == b.rmse and a.mean_error == b.mean_error


def test_replication_other_block_price(constant_market):
    # hedging a block that opened away from s0 still replicates
    report = replicate(
        dataclasses.replace(constant_market, s0=120.0), OptionSpec(100.0), 64, 20_000, 17
    )
    assert report.rmse < 1.0


@pytest.mark.parametrize("n_rebalance", [0, -2])
def test_replication_needs_a_rebalance(constant_market, n_rebalance):
    with pytest.raises(ContractError, match="rebalance"):
        replicate(constant_market, OptionSpec(100.0), n_rebalance, 10, 1)
