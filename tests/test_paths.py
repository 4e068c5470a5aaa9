import math
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
from delaybs import paths
from delaybs.errors import ContractError
from delaybs.paths import (
    Path,
    SegmentBuffer,
    brownian_increments,
    em_values_vec,
    exact_values_vec,
    fixed_delay_convergence,
    sample_block_exact,
    simulate_em_fixed,
    simulate_exact,
    simulate_split_fixed,
    split_values_vec,
)
from delaybs.rng import BrownianSpec


def _market(g="0.2", f="0.08", rate=0.05, h=0.25, T=1.0):
    return VariableDelayMarket(
        h=h, T=T, s0=100.0,
        f=CoefficientExpr.parse(f),
        g=CoefficientExpr.parse(g),
        rate=RateCurve.constant(rate),
        g_min=0.01,
    )


def test_zero_noise_step():
    market = _market(rate=0.0)
    out = sample_block_exact(market, 100.0, 0.0, 0.25, "Q", 0.0)
    assert out == pytest.approx(100.0 * math.exp(-0.5 * 0.04 * 0.25), rel=1e-14)


def test_hand_computed_step():
    market = _market()
    out = sample_block_exact(market, 100.0, 0.0, 0.25, "Q", 1.0)
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
    spec = BrownianSpec(5, 3)
    path = simulate_exact(market, "Q", spec, 0.0, 100.0, 100.0, [0.25])
    from delaybs.rng import normal_scalar

    z = normal_scalar(spec, 0, 0)
    assert path.values[0] == pytest.approx(
        sample_block_exact(market, 100.0, 0.0, 0.25, "Q", z), rel=1e-14
    )


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
    with pytest.raises(Exception):
        Path(np.array([0.5, 0.25]), np.array([1.0, 1.0]), "P", BrownianSpec(1))


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
    times, vals, y = split_values_vec(sfde, dt, dW, record_y=True)
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
    _, _, y = split_values_vec(sfde, dt, dW, record_y=True)
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
    path = None
    for sid in range(200):
        p = simulate_em_fixed(sfde, 0.25, BrownianSpec(77, sid))
        if p.first_nonpositive_step is not None:
            path = p
            break
    assert path is not None
    assert path.values[path.first_nonpositive_step] <= 0.0
    assert path.values.size == 5  # integration ran to the horizon


def test_em_requires_dt_dividing_lag():
    sfde = _sfde()
    with pytest.raises(Exception, match="divide"):
        simulate_em_fixed(sfde, 0.3, BrownianSpec(1, 0))


def test_fixed_delay_determinism():
    sfde = _sfde()
    a = simulate_split_fixed(sfde, 1.0 / 64.0, BrownianSpec(9, 4))
    b = simulate_split_fixed(sfde, 1.0 / 64.0, BrownianSpec(9, 4))
    assert np.array_equal(a.values, b.values)


def test_scheme_agreement_shrinks_with_dt():
    sfde = _sfde()
    results = fixed_delay_convergence(sfde, [128, 256], 20_000, 13)
    assert results[0]["rms_gap"] / results[1]["rms_gap"] >= 1.3


def test_se_diff_survives_a_large_mean_gap(monkeypatch):
    # Terminal gaps of mean 1e8 and spread 1e-3, over eleven chunks:
    # E[x^2] - mean^2 cancels to noise here.
    gaps = []

    def em(sfde, dt, dW):
        gap = 1e8 + 1e-3 * dW.sum(axis=1)
        gaps.append(gap)
        return None, gap[:, None], None

    def split(sfde, dt, dW):
        return None, np.zeros((dW.shape[0], 1))

    monkeypatch.setattr(paths, "em_values_vec", em)
    monkeypatch.setattr(paths, "split_values_vec", split)
    n = 1000
    (result,) = fixed_delay_convergence(_sfde(), [4], n, 5, chunk=99)
    x = np.concatenate(gaps)
    var = np.var(x)
    assert result["se_diff"] == pytest.approx(math.sqrt(var / n), rel=1e-6)
    naive = max(float((x * x).sum()) / n - (float(x.sum()) / n) ** 2, 0.0)
    assert abs(naive - var) > 0.5 * var


def test_moving_average_drift_runs():
    sfde = _sfde(drift=DriftFunctional("moving-average", c=0.1))
    path = simulate_split_fixed(sfde, 1.0 / 64.0, BrownianSpec(2, 0))
    assert np.all(path.values > 0.0)


class _FullWindowBuffer(SegmentBuffer):
    """Reference buffer: the O(lag) window mean recomputed at every step."""

    def window_mean(self, step, lag_steps):
        r = self.row(step)
        return self.data[r - lag_steps : r + 1].mean(axis=0)


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
    split, y = split_values_vec(sfde, dt, dW, record_y=True)[1:]
    with mock.patch.object(paths, "SegmentBuffer", _FullWindowBuffer):
        em_ref = em_values_vec(sfde, dt, dW)[1]
        split_ref, y_ref = split_values_vec(sfde, dt, dW, record_y=True)[1:]
    for got, ref in ((em, em_ref), (split, split_ref), (y, y_ref)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_window_mean_steps_in_order():
    buf = SegmentBuffer(lambda t: 1.0, 0.25, 4, 3, 2)
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
    _, split, y = split_values_vec(sfde, dt, dW, record_y=True)
    assert split.shape == (7, 33) and y.shape == (7, 33)
    # a caller's C-ordered (paths, steps) array gives the same bits
    own = np.array(dW, order="C")
    assert own.flags.c_contiguous and not dW.flags.c_contiguous
    assert np.array_equal(em_values_vec(sfde, dt, own)[1], em)
    assert np.array_equal(split_values_vec(sfde, dt, own, record_y=True)[2], y)


@pytest.mark.parametrize("factor", list(range(1, 41)) + [64, 128, 129, 200, 512])
def test_time_major_coarsening_matches_row_sums(factor):
    fine = np.random.default_rng(factor).standard_normal((5, 3 * factor))
    by_row = fine.reshape(5, 3, factor).sum(axis=2)
    time_major = np.ascontiguousarray(fine.T).reshape(3, factor, 5)
    assert np.array_equal(paths._pairwise_sum(time_major).T, by_row)
