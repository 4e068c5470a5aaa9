import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaybs import (
    CoefficientExpr,
    DriftFunctional,
    FixedDelaySfde,
    InitialPath,
    RateCurve,
    VariableDelayMarket,
)
from delaybs import paths, rng
from delaybs.errors import ContractError, IntegrationFailure
from delaybs.model import load_config, sfde_from_config
from delaybs.paths import (
    SegmentBuffer,
    SplitStepper,
    brownian_increments,
    em_values_vec,
    exact_values_vec,
    fixed_delay_convergence,
    split_values_vec,
    twin_variances,
)
from delaybs.pricing import (
    MarketState,
    _h_value_vec,
    final_block_start,
    price_classical,
    twin_call,
    twin_call_payoff,
)
from delaybs.quadrature import block_integrals_vec, integrate


def _market(g="0.2", f="0.08", rate=0.05, h=0.25, T=1.0):
    return VariableDelayMarket(
        h=h, T=T, s0=100.0,
        f=CoefficientExpr.parse(f),
        g=CoefficientExpr.parse(g),
        rate=RateCurve.constant(rate),
        g_min=0.01,
    )


def _one_block_step(monkeypatch, market, z):
    """One exact block step of one stream whose normal is z."""
    monkeypatch.setattr(rng, "normals", lambda seed, block, substep, lo, hi: np.full(hi - lo, z))
    return exact_values_vec(market, "Q", 0, 0, 1, 0.0, 100.0, 100.0, [0.25])[0, 0]


def test_zero_noise_step(monkeypatch):
    out = _one_block_step(monkeypatch, _market(rate=0.0), 0.0)
    assert out == pytest.approx(100.0 * math.exp(-0.5 * 0.04 * 0.25), rel=1e-14)


def test_hand_computed_step(monkeypatch):
    out = _one_block_step(monkeypatch, _market(), 1.0)
    # m = 0.05*0.25 - 0.01/2 = 0.0075, sqrt(v) = 0.1
    assert out == pytest.approx(100.0 * math.exp(0.0075 + 0.1), rel=1e-13)


def test_lognormal_mean_identity():
    market = _market()
    values = exact_values_vec(market, "Q", 11, 0, 100_000, 0.0, 100.0, 100.0, [0.25])
    mean = values[:, 0].mean()
    se = values[:, 0].std() / math.sqrt(values.shape[0])
    assert abs(mean - 100.0 * math.exp(0.05 * 0.25)) < 3.0 * se


def test_simulate_exact_single_block_matches_scalar_step():
    market = _market()
    # stream 3 alone is the n = 1 case of the same engine
    one = exact_values_vec(market, "Q", 5, 3, 4, 0.0, 100.0, 100.0, [0.25])
    many = exact_values_vec(market, "Q", 5, 0, 8, 0.0, 100.0, 100.0, [0.25])
    assert one[0, 0] == many[3, 0]
    z = rng.normals(5, 0, 0, 3, 4)[0]
    assert one[0, 0] == pytest.approx(100.0 * math.exp(0.0075 + 0.1 * z), rel=1e-14)


def test_constant_coefficient_terminal_law():
    market = _market(T=1.0)
    vals = exact_values_vec(market, "Q", 17, 0, 200_000, 0.0, 100.0, 100.0, [1.0])
    logs = np.log(vals[:, 0] / 100.0)
    n = logs.size
    se_mean = logs.std() / math.sqrt(n)
    assert abs(logs.mean() - (0.05 - 0.5 * 0.04)) < 4.0 * se_mean
    var = logs.var()
    se_var = logs.var() * math.sqrt(2.0 / n)
    assert abs(var - 0.04) < 4.0 * se_var


def test_exact_paths_strictly_positive():
    market = _market(g="0.4 + 0.2*s/(1+s)")
    vals = exact_values_vec(
        market, "Q", 23, 0, 10_000, 0.0, 100.0, 100.0, [0.25, 0.5, 0.75, 1.0]
    )
    assert np.all(vals > 0.0)


def test_exact_determinism():
    market = _market(g="0.1 + 0.1*s/(1+s)")
    a = exact_values_vec(market, "P", 31, 0, 1000, 0.0, 100.0, 100.0, [0.5, 1.0])
    b = exact_values_vec(market, "P", 31, 0, 1000, 0.0, 100.0, 100.0, [0.5, 1.0])
    assert np.array_equal(a, b)


def test_path_times_must_increase():
    # a sample time must come after the time the path starts from
    with pytest.raises(ContractError, match="outside"):
        exact_values_vec(_market(), "P", 1, 0, 1, 0.5, 100.0, 100.0, [0.25])


@pytest.mark.parametrize("times", [[0.5, 0.5, 0.9], [0.9, 0.5], [0.5, 1.5]])
def test_sample_times_must_increase_up_to_maturity(times):
    # column j holds the value at times[j], so a repeated time would leave
    # a column unfilled and unsorted times would swap columns; past T lies
    # outside the horizon over which the coefficients are validated
    with pytest.raises(ContractError, match="outside"):
        exact_values_vec(_market(), "Q", 1, 0, 3, 0.0, 100.0, 100.0, times)


def test_sample_time_just_below_an_edge_ends_the_block():
    # 0.25 - 5e-13 replaces the edge 0.25, so block 1 starts there: its
    # price freezes g and block 1's normals drive the step to 0.5
    market = _market(g="0.1 + 0.3*s/(50+s)")
    near = exact_values_vec(market, "Q", 3, 0, 100, 0.0, 100.0, 100.0, [0.25 - 5e-13, 0.5])
    edge = exact_values_vec(market, "Q", 3, 0, 100, 0.0, 100.0, 100.0, [0.25, 0.5])
    np.testing.assert_allclose(near, edge, rtol=1e-9)


def _block_law_readings(market, n_paths, seed):
    """Each block's Q log-increment standardised by its Gaussian law given
    the block-start price; returns the mean, variance - 1, third moment
    and neighbour correlation of the standardised increments, each in
    units of its SE.

    The paths are also sampled at every block's midpoint: a sampler that
    froze the coefficients at a sample time inside a block would skew the
    block's increment.
    """
    h = market.h
    n_blocks = round(market.T / h)
    times = [0.5 * j * h for j in range(1, 2 * n_blocks + 1)]
    sampled = exact_values_vec(market, "Q", seed, 0, n_paths, 0.0, market.s0, market.s0, times)
    prices = np.column_stack([np.full(n_paths, market.s0), sampled[:, 1::2]])
    z = np.empty((n_paths, n_blocks))
    for k in range(n_blocks):
        v, _, lam = block_integrals_vec(market, prices[:, k], k * h, (k + 1) * h)
        z[:, k] = (np.log(prices[:, k + 1] / prices[:, k]) - lam + 0.5 * v) / np.sqrt(v)
    stats = ((z, 0.0), (z * z, 1.0), (z ** 3, 0.0), (z[:, :-1] * z[:, 1:], 0.0))
    return [(x.mean() - centre) / (x.std(ddof=1) / math.sqrt(x.size)) for x, centre in stats]


def test_block_log_increments_are_gaussian_given_the_block_price():
    # g moves from 0.45 at s = 50 to 0.15 at s = 200, so a law taken at any
    # price but the block start's is visibly wrong (the shipped
    # 0.1 + 0.1*s/(1+s) moves by 0.74% over that range)
    readings = _block_law_readings(_market(g="0.05 + 20/s"), 1 << 16, 3)
    assert all(abs(r) <= 3.0 for r in readings), readings


# --- the Black-Scholes twin ---------------------------------------------------

# (market, measure, t, s_t, s_block, seed): g = 0.05 + 20/s moves from 0.45 at
# s = 50 to 0.15 at s = 200, so a twin frozen at any price but s_block, or
# missing a knot, reads far off its closed-form mean
_TWIN_CASES = {
    "shipped_g": (_market(g="0.1 + 0.1*s/(1+s)", T=0.9), "Q", 0.0, 100.0, 100.0, 5),
    "steep_g": (_market(g="0.05 + 20/s", T=0.9), "Q", 0.0, 100.0, 100.0, 6),
    "inside_a_block": (_market(g="0.05 + 20/s", T=0.9), "Q", 0.3, 100.0, 80.0, 7),
    "under_p": (_market(g="0.05 + 20/s", T=0.9), "P", 0.0, 100.0, 100.0, 8),
}


def _twin_variance(market, s_block, a, b):
    """The twin's variance over [a, b], integrated in one piece."""
    return integrate(lambda u: market.g(u, s_block) ** 2, a, b)


def _se_units(x, mu):
    return (x.mean() - mu) / (x.std(ddof=1) / math.sqrt(x.size))


@pytest.mark.parametrize("case", [*_TWIN_CASES, "time_market"])
def test_twin_call_payoff_has_its_closed_form_mean(case, time_market):
    market, measure, t, s_t, s_block, seed = (
        (time_market, "Q", 0.0, 100.0, 100.0, 9) if case == "time_market" else _TWIN_CASES[case]
    )
    strike, R = 100.0, market.rate.integral(t, market.T)
    v = _twin_variance(market, s_block, t, market.T)
    mu = price_classical(s_t, strike, R, v) * math.exp(R)
    twin_v, twin_mean = twin_call(market, MarketState(t, s_t, s_block), strike)
    assert twin_mean == pytest.approx(mu, rel=1e-9)
    # the importance price reads the P twin beside the density, unweighted
    *_, w = exact_values_vec(
        market, measure, seed, 0, 1 << 16, t, s_t, s_block, [market.T],
        density=measure == "P", twin=twin_v,
    )
    assert abs(_se_units(twin_call_payoff(s_t, w, strike), mu)) <= 3.0


@pytest.mark.parametrize("case", ["steep_g", "inside_a_block"])
def test_twin_kernel_value_has_its_closed_form_mean(case):
    # price_semi's twin control: the kernel at the twin's final-block state
    market, _, t, s_t, s_block, seed = _TWIN_CASES[case]
    t_star, strike = final_block_start(market), 100.0
    twin_v = twin_variances(market, t, s_block, [t_star, market.T])
    *_, w = exact_values_vec(
        market, "Q", seed, 0, 1 << 16, t, s_t, s_block, [t_star], twin=twin_v[:-1]
    )
    R, R_T = market.rate.integral(0.0, t_star), market.rate.integral(0.0, market.T)
    v_final = _twin_variance(market, s_block, t_star, market.T)
    values = _h_value_vec(s_t * math.exp(-R) * np.exp(w), v_final, strike, R_T)
    x_t = np.array([s_t * math.exp(-market.rate.integral(0.0, t))])
    mu = float(_h_value_vec(x_t, _twin_variance(market, s_block, t, market.T), strike, R_T)[0])
    assert abs(_se_units(values, mu)) <= 3.0


def test_twin_is_the_price_when_g_ignores_s(time_market):
    market = VariableDelayMarket(
        h=0.25, T=0.9, s0=100.0, f=time_market.f,
        g=CoefficientExpr.parse("0.2 * (1 + 0.5*t)"), rate=time_market.rate, g_min=0.05,
    )
    twin_v = twin_variances(market, 0.3, 90.0, [0.6, 0.9])
    values, w = exact_values_vec(market, "Q", 7, 0, 1000, 0.3, 100.0, 90.0, [0.6, 0.9], twin=twin_v)
    assert values[:, -1] == pytest.approx(100.0 * np.exp(w), rel=1e-13)


def _sfde(drift=None, g="0.2", phi0=1.0, T=1.0):
    return FixedDelaySfde(
        L=0.25, b=0.25, a=0.25,
        phi=InitialPath.constant(phi0, 0.25),
        drift=drift or DriftFunctional("segment-point", c=0.1, eps=0.01),
        g=CoefficientExpr.parse(g),
        T=T,
    )


def _delay_ode_reference(c, eps, phi0, b, T, n):
    """Independent stepwise-quadrature solution of S' = c*S(t-b) + eps."""
    dt = T / n
    m = round(b / dt)
    s = np.empty(n + 1)
    s[0] = phi0
    for i in range(n):
        lag0 = phi0 if i < m else s[i - m]
        lag1 = phi0 if i + 1 < m else s[i + 1 - m]
        s[i + 1] = s[i] + 0.5 * dt * (c * lag0 + eps + c * lag1 + eps)
    return s[-1]


def _split_with_y(sfde, dt, dW):
    """Splitting values and the delay-ODE solution y at every grid time,
    each (paths, steps + 1), stepped from the (paths, steps) increments."""
    split = SplitStepper(sfde, dt, dW.shape[0])
    values, y = [split.s.copy()], [split.s.copy()]
    for dw in np.ascontiguousarray(dW.T):
        values.append(split.step(dw).copy())
        y.append(split.y)
    return np.array(values).T, np.array(y).T


def test_em_zero_vol_matches_delay_ode():
    sfde = _sfde(g="0")
    dW = np.zeros((1, 256))
    _, vals, _ = em_values_vec(sfde, 1.0 / 256.0, dW)
    ref = _delay_ode_reference(0.1, 0.01, 1.0, 0.25, 1.0, 4096)
    assert vals[0, -1] == pytest.approx(ref, abs=5.0 / 256.0)


def test_split_zero_vol_matches_delay_ode():
    sfde = _sfde(g="0")
    dW = np.zeros((1, 256))
    _, vals = split_values_vec(sfde, 1.0 / 256.0, dW)
    ref = _delay_ode_reference(0.1, 0.01, 1.0, 0.25, 1.0, 4096)
    assert vals[0, -1] == pytest.approx(ref, abs=5.0 / 256.0)


def test_em_zero_drift_martingale():
    sfde = _sfde(drift=DriftFunctional("proportional-lagged", c=0.0))
    dW = brownian_increments(3, 0, 50_000, 128, 1.0 / 128.0)
    _, vals, _ = em_values_vec(sfde, 1.0 / 128.0, dW)
    terminal = vals[:, -1]
    se = terminal.std() / math.sqrt(terminal.size)
    assert abs(terminal.mean() - 1.0) < 3.0 * se


def test_split_zero_drift_is_stochastic_exponential():
    sfde = _sfde(drift=DriftFunctional("proportional-lagged", c=0.0))
    dt = 1.0 / 64.0
    dW = brownian_increments(4, 0, 100, 64, dt)
    vals, y = _split_with_y(sfde, dt, dW)
    # y is frozen at the block-start price within each block...
    m_b = round(0.25 / dt)
    for start in range(0, 64, m_b):
        block_y = y[:, start + 1 : start + m_b + 1]
        assert np.allclose(block_y, vals[:, start][:, None], rtol=1e-13)
    # ...and the per-block restarts recombine to the global stochastic
    # exponential for constant g
    m = np.cumsum(0.2 * dW, axis=1)
    qv = 0.04 * dt * np.arange(1, 65)
    expected = np.exp(m - 0.5 * qv)
    assert np.allclose(vals[:, 1:], expected, rtol=1e-12)


def test_split_y_monotone_within_blocks():
    sfde = _sfde()
    dt = 1.0 / 64.0
    dW = brownian_increments(5, 0, 500, 64, dt)
    _, y = _split_with_y(sfde, dt, dW)
    m_b = round(0.25 / dt)
    for start in range(0, 64, m_b):
        # skip the restart column: y jumps to the block-start price there
        block = y[:, start + 1 : start + m_b + 1]
        assert np.all(np.diff(block, axis=1) >= -1e-15)


def test_split_positivity():
    sfde = _sfde()
    dW = brownian_increments(6, 0, 20_000, 128, 1.0 / 128.0)
    _, vals = split_values_vec(sfde, 1.0 / 128.0, dW)
    assert np.all(vals > 0.0)


def test_em_records_first_nonpositive_and_continues():
    sfde = _sfde(g="5")
    dW = brownian_increments(77, 0, 200, 4, 0.25)
    _, values, first_nonpos = em_values_vec(sfde, 0.25, dW)
    crossed = np.flatnonzero(first_nonpos >= 0)
    assert crossed.size > 0
    sid = crossed[0]
    assert values[sid, first_nonpos[sid]] <= 0.0
    assert values.shape == (200, 5)  # integration ran to the horizon


def test_em_requires_dt_dividing_lag():
    sfde = _sfde()
    with pytest.raises(ContractError, match="divide"):
        em_values_vec(sfde, 0.3, np.zeros((1, 3)))


def test_fixed_delay_determinism():
    sfde = _sfde()
    dt = 1.0 / 64.0
    a = split_values_vec(sfde, dt, brownian_increments(9, 4, 5, 64, dt))[1]
    b = split_values_vec(sfde, dt, brownian_increments(9, 4, 5, 64, dt))[1]
    assert np.array_equal(a, b)


def test_scheme_agreement_shrinks_with_dt():
    sfde = _sfde()
    results = fixed_delay_convergence(sfde, [128, 256], 20_000, 13)
    assert results[0]["rms_gap"] / results[1]["rms_gap"] >= 1.3


def test_convergence_raises_the_first_failure_in_step_order():
    # g overflows at t = 0.125, on the 8-step grid only, and at t = 0.5 on
    # both: stepped together the 8-step EM fails first, at its step 2, but
    # run one after another the 4-step EM fails first, at its step 3
    g = ("0.2 + 1e-3*exp(1e6*max(0, 1e-3 - abs(t - 0.125)))"
         " + 1e-3*exp(1e6*max(0, 1e-3 - abs(t - 0.5)))")
    with pytest.raises(IntegrationFailure) as info:
        fixed_delay_convergence(_sfde(g=g), [8, 4], 50, 1)
    assert (str(info.value), info.value.step_index) == ("non-finite state at step 3", 3)


def test_convergence_memory_grows_with_the_delay_window():
    # the segment buffers hold L/dt rows each, the increments one slab
    config = Path(__file__).parent.parent / "configs" / "fixed_delay.json"
    sfde = sfde_from_config(load_config(config))
    tracemalloc.start()
    try:
        fixed_delay_convergence(sfde, [128, 256, 512], 8192, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_se_diff_survives_a_large_mean_gap(monkeypatch):
    # Terminal gaps of mean 1e8 and spread 1e-3, over eleven chunks:
    # E[x^2] - mean^2 cancels to noise here.
    ems = []

    class Em:
        def __init__(self, sfde, dt, n_paths):
            self.w = np.zeros(n_paths)
            ems.append(self)

        def step(self, dw):
            self.w = self.w + dw
            self.s = 1e8 + 1e-3 * self.w

    class Split:
        def __init__(self, sfde, dt, n_paths):
            self.s = np.zeros(n_paths)

        def step(self, dw):
            pass

    monkeypatch.setattr(paths, "EmStepper", Em)
    monkeypatch.setattr(paths, "SplitStepper", Split)
    monkeypatch.setattr(paths, "CONVERGENCE_CHUNK", 99)
    n = 1000
    (result,) = fixed_delay_convergence(_sfde(), [4], n, 5)
    x = np.concatenate([em.s for em in ems])
    var = np.var(x)
    assert result["se_diff"] == pytest.approx(math.sqrt(var / n), rel=1e-6)
    naive = max(float((x * x).sum()) / n - (float(x.sum()) / n) ** 2, 0.0)
    assert abs(naive - var) > 0.5 * var


def test_moving_average_drift_runs():
    sfde = _sfde(drift=DriftFunctional("moving-average", c=0.1))
    dt = 1.0 / 64.0
    _, values = split_values_vec(sfde, dt, brownian_increments(2, 0, 1, 64, dt))
    assert np.all(values > 0.0)


class _FullWindowBuffer(SegmentBuffer):
    """Reference buffer: the O(lag) window mean recomputed at every step
    from the full history."""

    def __init__(self, phi, dt, n_paths, n_hist):
        super().__init__(phi, dt, n_paths, n_hist)
        self.history = [row.copy() for row in self.data[: n_hist + 1]]

    def put(self, step, values):
        super().put(step, values)
        assert len(self.history) == self.n_hist + step
        self.history.append(np.array(values))

    def window_mean(self, step, lag_steps):
        r = self.n_hist + step
        return np.array(self.history[r - lag_steps : r + 1]).mean(axis=0)


@settings(max_examples=40, deadline=None)
@given(
    lag=st.integers(1, 64),
    m_b=st.integers(1, 64),
    n_steps=st.integers(1, 160),
    phi_values=st.lists(st.floats(0.2, 2.0), min_size=2, max_size=6),
    c=st.floats(0.0, 0.2),
    g=st.sampled_from(["0.2", "0.1 + 0.3*s/(1+s)"]),
)
def test_running_window_matches_full_window_mean(lag, m_b, n_steps, phi_values, c, g):
    # the drift is quadratic in S; small c and T <= 1.25 keep paths finite
    dt = 1.0 / 128.0
    L = max(lag, m_b) * dt
    phi = InitialPath(tuple(np.linspace(-L, 0.0, len(phi_values))), tuple(phi_values))
    sfde = FixedDelaySfde(
        L=L, b=m_b * dt, a=lag * dt, phi=phi,
        drift=DriftFunctional("moving-average", c=c),
        g=CoefficientExpr.parse(g), T=n_steps * dt,
    )
    dW = brownian_increments(lag, 0, 50, n_steps, dt)
    em = em_values_vec(sfde, dt, dW)[1]
    split, y = _split_with_y(sfde, dt, dW)
    with mock.patch.object(paths, "SegmentBuffer", _FullWindowBuffer):
        em_ref = em_values_vec(sfde, dt, dW)[1]
        split_ref, y_ref = _split_with_y(sfde, dt, dW)
    for got, ref in ((em, em_ref), (split, split_ref), (y, y_ref)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_window_mean_steps_in_order():
    buf = SegmentBuffer(lambda t: 1.0, 0.25, 3, 2)
    buf.window_mean(0, 2)
    with pytest.raises(ContractError, match="window step"):
        buf.window_mean(2, 2)


@pytest.mark.parametrize("kind", ["segment-point", "proportional-lagged"])
def test_engine_shapes_and_caller_made_increments(kind):
    sfde = _sfde(drift=DriftFunctional(kind, c=0.1))
    dt = 1.0 / 32.0
    dW = brownian_increments(8, 3, 10, 32, dt)
    assert dW.shape == (7, 32)
    times, em, first_nonpos = em_values_vec(sfde, dt, dW)
    assert times.shape == (33,) and em.shape == (7, 33) and first_nonpos.shape == (7,)
    _, split = split_values_vec(sfde, dt, dW)
    stepped, y = _split_with_y(sfde, dt, dW)
    assert split.shape == (7, 33) and y.shape == (7, 33)
    assert np.array_equal(stepped, split)
    # a caller's C-ordered (paths, steps) array gives the same bits
    own = np.array(dW, order="C")
    assert own.flags.c_contiguous and not dW.flags.c_contiguous
    assert np.array_equal(em_values_vec(sfde, dt, own)[1], em)
    assert np.array_equal(_split_with_y(sfde, dt, own)[1], y)


@pytest.mark.parametrize("factor", list(range(1, 41)) + [64, 128, 129, 200, 512])
def test_time_major_coarsening_matches_row_sums(factor):
    fine = np.random.default_rng(factor).standard_normal((5, 3 * factor))
    by_row = fine.reshape(5, 3, factor).sum(axis=2)
    time_major = np.ascontiguousarray(fine.T).reshape(3, factor, 5)
    assert np.array_equal(paths._pairwise_sum(time_major).T, by_row)
