import dataclasses
import math

import numpy as np
import pytest

from delaybs import CoefficientExpr, OptionSpec, parallel
from delaybs.errors import ContractError, NumericalError
from delaybs.measure import density_mean_check, importance_price
from delaybs.model import block_schedule, discount_factor
from delaybs.parallel import accumulate_moments
from delaybs.paths import _joint_increments, exact_values_vec
from delaybs.pricing import MarketState, price_mc, twin_call
from delaybs.quadrature import block_integrals_vec
from delaybs.rng import normals


def _p_terminal(market, seed, lo, hi):
    """(S(T), rho_T) of full P-paths for stream ids lo..hi-1."""
    values, rho = exact_values_vec(
        market, "P", seed, lo, hi, 0.0, market.s0, market.s0, [market.T], density=True
    )
    return values[:, 0], rho


def _theta_sq(market, s_block, a, b):
    """Integral of the squared market price of risk over [a, b] at one price."""
    return float(block_integrals_vec(market, np.array([s_block]), a, b, with_theta=True)[3][0])


def test_mpr_cancellation(balanced_market):
    assert _theta_sq(balanced_market, 80.0, 0.0, 0.25) == 0.0


def test_mpr_arithmetic(constant_market):
    # ((0.08 - 0.05) / 0.2)^2 over a block of length 0.1
    assert _theta_sq(constant_market, 100.0, 0.3, 0.4) == pytest.approx(
        0.15**2 * 0.1, abs=1e-15
    )


def test_mpr_balanced_point(state_market):
    market = state_market.__class__(
        state_market.h, state_market.T, state_market.s0,
        state_market.f.__class__.parse("0.1*s/(1+s)"),
        state_market.g.__class__.parse("0.2"),
        state_market.rate, state_market.g_min,
    )
    assert _theta_sq(market, 1.0, 0.0, 0.25) == pytest.approx(0.0, abs=1e-15)


def test_joint_step_balanced_market(balanced_market):
    s_T, rho = _p_terminal(balanced_market, 3, 0, 1)
    assert rho[0] == 1.0
    assert math.isfinite(s_T[0])


def test_joint_increments_perfect_correlation():
    # theta proportional to g: the two integrals share one Gaussian
    g2 = np.full(4, 0.01)
    theta_sq = np.full(4, 0.0225)
    f_minus_lam = np.sqrt(g2 * theta_sq)  # correlation +1
    z1 = np.array([0.3, -1.2, 0.0, 2.0])
    z2 = np.array([5.0, 5.0, 5.0, 5.0])  # must be ignored
    i1, i2 = _joint_increments(g2, f_minus_lam, 0.0, theta_sq, z1, z2)
    assert np.allclose(i2, np.sqrt(theta_sq) * z1, rtol=1e-12)


def test_joint_increments_rejects_inconsistent_covariance():
    with pytest.raises(Exception, match="covariance"):
        _joint_increments(
            np.array([0.01]), np.array([0.5]), 0.0, np.array([0.0225]),
            np.array([0.0]), np.array([0.0]),
        )


def test_exponential_martingale_single_block(state_market):
    sk = np.full(1, 100.0)
    g2, f_int, lam, th2 = block_integrals_vec(
        state_market, sk, 0.0, 0.25, with_theta=True
    )
    n = 1_000_000
    z1 = normals(99, 0, 0, 0, n)
    z2 = normals(99, 0, 1, 0, n)
    _, i2 = _joint_increments(
        np.full(n, float(g2[0])), np.full(n, float(f_int[0])), lam,
        np.full(n, float(th2[0])), z1, z2,
    )
    rho = np.exp(-i2 - 0.5 * float(th2[0]))
    se = rho.std() / math.sqrt(n)
    assert abs(rho.mean() - 1.0) < 3.0 * se


def test_density_chain_telescopes(state_market):
    # stream 5 of seed 21, one block at a time: rho_T is the product of
    # the per-block density factors
    s = np.array([state_market.s0])
    increments = []
    knots = block_schedule(state_market.T, state_market.h)
    for k, (a, b) in enumerate(zip(knots[:-1], knots[1:])):
        g2, f_int, lam, th2 = block_integrals_vec(state_market, s, a, b, with_theta=True)
        i1, i2 = _joint_increments(
            g2, f_int, lam, th2, normals(21, k, 0, 5, 6), normals(21, k, 1, 5, 6)
        )
        increments.append(float(-i2[0] - 0.5 * th2[0]))
        s = s * np.exp(f_int - 0.5 * g2 + i1)
    s_T, rho = _p_terminal(state_market, 21, 5, 6)
    assert math.log(rho[0]) == pytest.approx(math.fsum(increments), abs=1e-12)
    assert rho[0] > 0.0
    assert s_T[0] == pytest.approx(s[0], rel=1e-12)
    assert len(increments) == len(knots) - 1


def test_density_leaves_the_p_prices_unchanged(state_market):
    # h = 0.1 puts block edges where k*h and repeated addition of h differ
    # (0.6 to 0.9); the price must follow the k*h blocks of block_schedule
    # with or without the density, and whether or not it is sampled there.
    market = dataclasses.replace(state_market, h=0.1)
    plain = exact_values_vec(market, "P", 21, 0, 64, 0.0, 100.0, 100.0, [market.T])
    s_T, _ = _p_terminal(market, 21, 0, 64)
    assert np.array_equal(plain[:, 0], s_T)
    times = block_schedule(market.T, market.h)[1:]
    every_block = exact_values_vec(market, "P", 21, 0, 64, 0.0, 100.0, 100.0, times)
    assert np.array_equal(every_block[:, -1], s_T)


def test_density_needs_whole_blocks_under_p(state_market):
    with pytest.raises(ContractError, match="under P"):
        exact_values_vec(state_market, "Q", 1, 0, 4, 0.0, 100.0, 100.0, [0.9], density=True)
    # 0.3 splits the block [0.25, 0.5), whose second piece would reuse
    # the density's substream 1
    with pytest.raises(ContractError, match="whole blocks"):
        exact_values_vec(
            state_market, "P", 1, 0, 4, 0.0, 100.0, 100.0, [0.3, 0.9], density=True
        )


def test_density_mean_balanced(balanced_market):
    mean, se = density_mean_check(balanced_market, 10_000, 1, 1)
    assert mean == 1.0
    assert se == 0.0


def test_density_mean_constant_coefficients(constant_market):
    mean, se = density_mean_check(constant_market, 200_000, 2, 1)
    assert abs(mean - 1.0) < 3.0 * se


def test_density_mean_time_dependent_coefficients(time_market):
    mean, se = density_mean_check(time_market, 100_000, 8, 1)
    assert abs(mean - 1.0) < 3.0 * se


def test_importance_equals_mc_when_balanced(balanced_market, atm_option):
    state = MarketState(0.0, balanced_market.s0)
    imp, _ = importance_price(balanced_market, atm_option, 50_000, 4)
    mc = price_mc(balanced_market, atm_option, state, 50_000, 4)
    assert imp.value == pytest.approx(mc.value, rel=1e-12)


def _vanishing_g(market, f, g="1e-200"):
    """market with drift f and a volatility whose square underflows, to 0
    by default."""
    return dataclasses.replace(market, f=CoefficientExpr.parse(f), g=CoefficientExpr.parse(g))


@pytest.mark.filterwarnings("error")
def test_importance_without_a_twin_on_a_degenerate_balanced_block(state_market, atm_option):
    # f = lambda: rho_T = 1 and, with g^2 = 0, every path ends at the
    # forward; the twin has no variance, so X is the only control
    market = _vanishing_g(state_market, "0.05")
    assert twin_call(market, MarketState(0.0, market.s0), atm_option.strike)[1] is None
    imp, _ = importance_price(market, atm_option, 1000, 1)
    disc = discount_factor(market.rate, 0.0, market.T)
    assert imp.value == pytest.approx(market.s0 - atm_option.strike * disc, rel=1e-12)
    assert (imp.value, imp.std_error) == (4.40025181669001, 0.0)


@pytest.mark.filterwarnings("error")
def test_a_covariance_without_variance_is_rejected(state_market, atm_option):
    # f != lambda with g^2 = 0: theta != 0 has nothing to correlate with
    with pytest.raises(NumericalError, match="covariance"):
        importance_price(_vanishing_g(state_market, "0.08"), atm_option, 1000, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g", ["1e-160", "1e-160 + 0*s", "1e-320 + 0*t"])
def test_a_subnormal_variance_with_a_drift_mismatch_fails_typed(state_market, atm_option, g):
    # g^2 is subnormal or 0 while f != lambda: theta^2 and c^2 / g^2
    # overflow, in the scalar and the per-node quadrature alike
    market = dataclasses.replace(_vanishing_g(state_market, "0.08", g), g_min=1e-300)
    with pytest.raises(NumericalError, match="covariance"):
        importance_price(market, atm_option, 1000, 1)
    with pytest.raises(NumericalError, match="covariance"):
        density_mean_check(market, 1000, 1, 1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["state_market", "balanced_market"])
def test_the_density_estimate_has_the_bits_of_its_own_reduction(
    request, monkeypatch, name, workers
):
    # ten chunks of 512 paths, the last one partial
    monkeypatch.setattr(parallel, "CHUNK_SIZE", 512)
    market = request.getfixturevalue(name)
    n, seed = 5000, 13
    expected = accumulate_moments(lambda lo, hi: _p_terminal(market, seed, lo, hi)[1], n, workers)
    _, density = importance_price(market, OptionSpec(90.0, "put"), n, seed, workers)
    assert density == expected
    assert density_mean_check(market, n, seed, workers) == expected[:2]
    if name == "balanced_market":
        assert expected == (1.0, 0.0, n)


def test_importance_vs_mc_state_dependent(state_market, atm_option):
    state = MarketState(0.0, state_market.s0)
    imp, _ = importance_price(state_market, atm_option, 200_000, 5)
    mc = price_mc(state_market, atm_option, state, 200_000, 6)
    comb = math.hypot(imp.std_error, mc.std_error)
    assert abs(imp.value - mc.value) <= 3.0 * comb


def test_importance_zero_strike_recovers_spot(state_market):
    strike = 1e-9
    imp, _ = importance_price(state_market, OptionSpec(strike, "call"), 200_000, 7)
    # rho * (S(T) - K) is linear in the control rho * S(T): the price is exact
    disc = discount_factor(state_market.rate, 0.0, state_market.T)
    assert abs(imp.value - (state_market.s0 - strike * disc)) <= 1e-12 * state_market.s0
    assert imp.std_error <= 1e-12 * state_market.s0
    # the uncontrolled weighted discounted price keeps the martingale test
    s_T, rho = _p_terminal(state_market, 7, 0, 200_000)
    raw = rho * disc * s_T
    assert abs(raw.mean() - state_market.s0) <= 3.0 * raw.std(ddof=1) / math.sqrt(raw.size)


def test_rho_positive_on_every_path(state_market):
    _, rho = _p_terminal(state_market, 8, 0, 10_000)
    assert np.all(rho > 0.0)

