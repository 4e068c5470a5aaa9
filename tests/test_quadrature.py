import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaybs import CoefficientExpr, RateCurve, VariableDelayMarket
from delaybs.errors import ContractError, DomainError
from delaybs.model import block_schedule
from delaybs.quadrature import (
    DEFAULT_N,
    block_integrals_vec,
    block_moments,
    integrate,
    integrate_squares,
    simpson_weights,
)


def _simpson(fn, a, b, n):
    """Composite Simpson on n panels from the rule's nodes and weights."""
    xs, ws = simpson_weights(a, b, n)
    return sum(w * fn(x) for x, w in zip(xs, ws))


def _moments(market, s_k, a, b, measure):
    """(m, v, c) of one block frozen at s_k, from the block integrals of
    one path: the log-increment's mean under the measure, its variance,
    and its covariance f_int - lam_int with the measure change."""
    v, f_int, lam = block_integrals_vec(market, np.array([s_k]), a, b, with_f=True)
    drift = lam if measure == "Q" else f_int[0]
    return drift - 0.5 * v[0], v[0], f_int[0] - lam


def test_constant():
    assert _simpson(lambda t: 1.0, 0.0, 1.0, 2) == pytest.approx(1.0, abs=1e-15)
    assert integrate(lambda t: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_exact_on_cubics():
    assert _simpson(lambda t: t * t, 0.0, 1.0, 2) == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert _simpson(lambda t: t**3 - 2 * t, 0.0, 2.0, 2) == pytest.approx(0.0, abs=1e-13)


def test_exponential_vs_antiderivative():
    # analytic antiderivative oracle; integrate takes DEFAULT_N = 64 panels
    assert integrate(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-8)
    assert _simpson(math.exp, 0.0, 1.0, 256) == pytest.approx(math.e - 1.0, abs=1e-11)


def test_n_must_be_even():
    with pytest.raises(DomainError, match="even"):
        simpson_weights(0.0, 1.0, 3)


def test_error_carries_abscissa():
    def bad(t):
        raise ValueError("boom")

    with pytest.raises(ValueError, match="while integrating at t="):
        integrate(bad, 0.0, 1.0)


@pytest.mark.parametrize("source", ["0.2", "0.1 + 0.1*s/(1+s)", "0.2 + 0.1*t*t",
                                    "0.05 + 20/s + exp(-t)*s/1000", "min(0.3, 0.1 + t)"])
@pytest.mark.parametrize("s, a, b", [(100.0, 0.0, 0.25), (3.5, 0.38932436043347796, 0.9),
                                     (177.3, 0.5, 0.5)])
def test_squares_have_the_bits_of_the_scalar_rule(source, s, a, b):
    g = CoefficientExpr.parse(source)
    assert integrate_squares(g, s, a, b) == integrate(lambda u: g(u, s) ** 2, a, b)


@pytest.mark.parametrize("source, s, a, b", [
    ("0.2 + log(s - 0.5)", 0.3, 0.0, 1.0),  # every node faults
    ("0.2 + 1/(t - 0.5) + sqrt(0.75 - t)", 1.0, 0.0, 1.0),  # a middle node first
    ("0.2", 1.0, 1.0, 0.5),  # a reversed interval
])
def test_squares_raise_as_the_scalar_rule(source, s, a, b):
    g = CoefficientExpr.parse(source)
    with pytest.raises(Exception) as scalar:
        integrate(lambda u: g(u, s) ** 2, a, b)
    with pytest.raises(type(scalar.value)) as vector:
        integrate_squares(g, s, a, b)
    assert str(vector.value) == str(scalar.value)


def test_block_moments_is_the_one_path_block_integral(state_market):
    got = block_moments(state_market, 87.0, 0.25, 0.5)
    g2, f_int, lam = block_integrals_vec(state_market, np.array([87.0]), 0.25, 0.5, with_f=True)
    assert got == (g2[0], f_int[0], lam)
    assert all(type(x) is float for x in got)


def test_block_moments_constant(state_market, constant_market):
    m, v, c = _moments(constant_market, 100.0, 0.0, 0.25, "Q")
    assert v == pytest.approx(0.01, abs=1e-15)
    assert m == pytest.approx(0.05 * 0.25 - 0.005, abs=1e-15)
    assert c == pytest.approx(integrate(lambda u: 0.08, 0.0, 0.25) - 0.0125, abs=1e-15)


def test_block_moments_cancellation(balanced_market):
    _, _, c = _moments(balanced_market, 80.0, 0.0, 0.25, "P")
    assert c == pytest.approx(0.0, abs=1e-15)


def test_block_moments_state_dependent(state_market):
    # g constant in t: v = (b - a) * g(s_k)^2, by hand
    market = state_market
    _, v, _ = _moments(
        market.__class__(0.5, 1.0, market.s0, market.f, market.g, market.rate, market.g_min),
        1.0, 0.0, 0.5, "Q",
    )
    assert v == pytest.approx(0.5 * 0.15**2, rel=1e-12)


def test_block_boundary_rejected(state_market):
    with pytest.raises(ContractError, match="block boundary"):
        block_integrals_vec(state_market, np.array([100.0]), 0.2, 0.3)


def test_additivity(state_market):
    a, b, c = 0.25, 0.33, 0.5
    whole = _moments(state_market, 87.0, a, c, "P")
    left = _moments(state_market, 87.0, a, b, "P")
    right = _moments(state_market, 87.0, b, c, "P")
    for w, l, r in zip(whole, left, right):  # m, v and c
        assert w == pytest.approx(l + r, abs=1e-12)


def test_refinement_converged(state_market, constant_market):
    # Both shipped markets are polynomial in t, where Simpson is exact; the
    # third is not, so it shows that the one fixed panel count is enough.
    smooth = VariableDelayMarket(
        0.4, 1.0, 100.0,
        CoefficientExpr.parse("0.08*exp(-2*t)"),
        CoefficientExpr.parse("(0.1 + 0.1*s/(1+s))*(1 + 0.5*tanh(4*t - 1))"),
        RateCurve.constant(0.05), g_min=0.01,
    )
    blocks = [(m, 0.0, m.h) for m in (state_market, constant_market)]
    edges = block_schedule(smooth.T, smooth.h)
    blocks += [(smooth, a, b) for a, b in zip(edges[:-1], edges[1:])]
    for market, a, b in blocks:
        for s_k in (50.0, 100.0, 200.0):
            m, v, c = _moments(market, s_k, a, b, "P")
            fine_v = _simpson(lambda u: market.g(u, s_k) ** 2, a, b, 2 * DEFAULT_N)
            fine_f = _simpson(lambda u: market.f(u, s_k), a, b, 2 * DEFAULT_N)
            assert abs(m - (fine_f - 0.5 * fine_v)) < 1e-9
            assert abs(v - fine_v) < 1e-9
            assert abs(c - (fine_f - market.rate.integral(a, b))) < 1e-9


def test_vectorized_matches_scalar(state_market):
    sk = np.array([50.0, 100.0, 150.0])
    g2, f_int, lam = block_integrals_vec(state_market, sk, 0.25, 0.5, with_f=True)
    for i, s in enumerate(sk):
        ref_v = _simpson_reference(lambda u: state_market.g(u, float(s)) ** 2, 0.25, 0.5)
        ref_c = _simpson_reference(lambda u: state_market.f(u, float(s)), 0.25, 0.5) - lam
        assert np.asarray(g2)[i] == pytest.approx(ref_v, rel=1e-14)
        assert np.asarray(f_int)[i] - lam == pytest.approx(ref_c, abs=1e-15)


# One template per dependence class: (uses_t, uses_s).  Coefficients are
# drawn so that g stays positive and f stays above every rate, keeping
# theta^2 free of cancellation.
TEMPLATES = {
    (False, False): "{a}",
    (False, True): "{a} + {b}*s/(1+s)",
    (True, False): "{a} + {b}*t",
    (True, True): "{a} + {b}*t*s/(1+s) + {b}*exp(-t)*sqrt(s)/10",
}
RATES = {
    "constant": RateCurve.constant(0.05),
    "piecewise": RateCurve.piecewise((0.0, 0.3, 0.6, 1.0), (0.05, 0.02, 0.04)),
}


def _expr(dependence, a, b):
    return CoefficientExpr.parse(TEMPLATES[dependence].format(a=a, b=b))


def _simpson_reference(fn, a, b):
    """Plain 65-node composite Simpson over checked scalar coefficient calls."""
    n = DEFAULT_N
    total = 0.0
    for i, u in enumerate(np.linspace(a, b, n + 1)):
        weight = 1.0 if i in (0, n) else (4.0 if i % 2 else 2.0)
        total += weight * (b - a) / (3.0 * n) * fn(u)
    return total


@pytest.mark.parametrize("g_class", sorted(TEMPLATES))
@given(
    f=st.builds(
        _expr, st.sampled_from(sorted(TEMPLATES)), st.floats(0.1, 0.3), st.floats(0.0, 0.3)
    ),
    g_coeffs=st.tuples(st.floats(0.05, 0.4), st.floats(0.0, 0.4)),
    rate=st.sampled_from(sorted(RATES)),
    k=st.integers(0, 2),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda e: e[0] != e[1]),
)
@settings(max_examples=40, deadline=None)
def test_block_integrals_match_simpson_reference(g_class, f, g_coeffs, rate, k, ends):
    g = _expr(g_class, *g_coeffs)
    assert (g.compiled.uses_t, g.compiled.uses_s) == g_class
    market = VariableDelayMarket(0.25, 0.9, 100.0, f, g, RATES[rate], g_min=0.01)
    a, b = (0.25 * (k + x) for x in sorted(ends))
    sk = np.array([5.0, 100.0, 400.0])
    g2, f_int, lam = block_integrals_vec(market, sk, a, b, with_f=True)
    g2_t, f_int_t, lam_t, th2 = block_integrals_vec(market, sk, a, b, with_theta=True)
    assert lam == lam_t == market.rate.integral(a, b)
    for i, s in enumerate(map(float, sk)):
        ref_g2 = _simpson_reference(lambda u: market.g(u, s) ** 2, a, b)
        ref_f = _simpson_reference(lambda u: market.f(u, s), a, b)
        ref_th2 = _simpson_reference(
            lambda u: ((market.f(u, s) - market.rate.rate(u)) / market.g(u, s)) ** 2, a, b
        )
        for got, ref in ((g2, ref_g2), (g2_t, ref_g2), (f_int, ref_f), (f_int_t, ref_f),
                         (th2, ref_th2)):
            assert got.shape == sk.shape
            assert got[i] == pytest.approx(ref, rel=1e-13)
