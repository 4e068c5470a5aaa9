import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delaybs import OptionSpec
from delaybs.errors import ContractError
from scipy.special import ndtr

from delaybs.hedging import _plan, _weights, replicate
from delaybs.pricing import (
    MarketState,
    _final_block_variance,
    bs_betas,
    log_ratio,
    price_closed,
)


def _bond(market, t):
    return math.exp(market.rate.integral(0.0, t))


def _units(market, option, state):
    """Stock units and bond units (of the bond worth _bond(t)) at one price,
    from the rebalance the replication loop would plan at state.t."""
    step = _plan(market, state.s_block, np.array([state.t, market.T]))[0]
    pi_s, bond_value = _weights(np.array([state.s_t]), option.strike, step, with_bond=True)
    return float(pi_s[0]), float(bond_value[0]) / _bond(market, state.t)


def test_portfolio_identity_hand_point(constant_market):
    state = MarketState(0.8, 100.0)
    option = OptionSpec(100.0)
    pi_s, pi_xi = _units(constant_market, option, state)
    value = pi_s * state.s_t + pi_xi * _bond(constant_market, state.t)
    closed = price_closed(constant_market, option, state).value
    assert value == pytest.approx(closed, abs=1e-12)


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
    state = MarketState(t, s)
    option = OptionSpec(k)
    pi_s, pi_xi = _units(constant_market, option, state)
    value = pi_s * state.s_t + pi_xi * _bond(constant_market, state.t)
    closed = price_closed(constant_market, option, state).value
    assert value == pytest.approx(closed, abs=1e-12)


def test_deep_in_the_money_limits(constant_market):
    state = MarketState(0.8, 1e5)
    option = OptionSpec(100.0)
    pi_s, pi_xi = _units(constant_market, option, state)
    assert pi_s == pytest.approx(1.0, abs=1e-12)
    assert pi_xi == pytest.approx(
        -100.0 * math.exp(-constant_market.rate.integral(0.0, 1.0)), rel=1e-12
    )


def test_deep_out_of_the_money_limits(constant_market):
    state = MarketState(0.8, 0.01)
    pi_s, pi_xi = _units(constant_market, OptionSpec(100.0), state)
    assert pi_s == pytest.approx(0.0, abs=1e-12)
    assert pi_xi == pytest.approx(0.0, abs=1e-12)


def test_delta_monotone_in_spot(constant_market):
    option = OptionSpec(100.0)
    deltas = [
        _units(constant_market, option, MarketState(0.85, s))[0]
        for s in np.linspace(40.0, 250.0, 40)
    ]
    assert all(b >= a for a, b in zip(deltas, deltas[1:]))
    assert all(0.0 <= d <= 1.0 for d in deltas)


def test_hedge_weights_come_from_the_closed_form_kernel(state_market):
    # delta and bond leg are Phi of the kernel's beta_plus and beta_minus at
    # the closed form's own variance and rate integral, bit for bit
    s_star, t, strike = 104.0, 0.8, 97.0
    s = np.linspace(60.0, 160.0, 1001)
    step = _plan(state_market, s_star, np.array([t, state_market.T]))[0]
    lam = state_market.rate.integral(t, state_market.T)
    bp, bm = bs_betas(log_ratio(s, strike), lam, _final_block_variance(state_market, s_star, t))
    pi_s, bond_value = _weights(s, strike, step, with_bond=True)
    assert np.array_equal(pi_s, ndtr(bp))
    assert np.array_equal(bond_value, -strike * ndtr(bm) * math.exp(-lam))


def test_hedge_rejects_puts(constant_market):
    with pytest.raises(ContractError, match="calls"):
        replicate(constant_market, OptionSpec(100.0, "put"), 4, 10, 1)


def test_bond_leg_sign(constant_market):
    pi_s, pi_xi = _units(constant_market, OptionSpec(100.0), MarketState(0.85, 110.0))
    assert pi_s > 0.0
    assert pi_xi < 0.0


def test_replication_identity_holds_along_paths(constant_market):
    # the asserted identity inside the rebalance loop must never trip
    report = replicate(
        constant_market, OptionSpec(100.0), 8, 2_000, 31, identity_tol=1e-10
    )
    assert report.n_paths == 2_000


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
        constant_market, OptionSpec(100.0), 64, 20_000, 17, s_star=120.0
    )
    assert report.rmse < 1.0


@pytest.mark.parametrize("n_rebalance", [0, -2])
def test_replication_needs_a_rebalance(constant_market, n_rebalance):
    with pytest.raises(ContractError, match="rebalance"):
        replicate(constant_market, OptionSpec(100.0), n_rebalance, 10, 1)


def test_identity_check_leaves_the_report_unchanged(constant_market):
    # the check reads the loop's delta; it must not change a single bit
    option = OptionSpec(100.0)
    for n in (1, 4, 16):
        checked = replicate(constant_market, option, n, 3_000, 29, identity_tol=1e-12)
        assert checked == replicate(constant_market, option, n, 3_000, 29)

