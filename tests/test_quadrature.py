import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaybs import CoefficientExpr, RateCurve, VariableDelayMarket
from delaybs.errors import ContractError
from delaybs.model import block_schedule
from delaybs.quadrature import (
    DEFAULT_N,
    block_integrals_vec,
    block_moments,
    integrate,
)


def test_constant():
    assert integrate(lambda t: 1.0, 0.0, 1.0, n=2) == pytest.approx(1.0, abs=1e-15)


def test_exact_on_cubics():
    assert integrate(lambda t: t * t, 0.0, 1.0, n=2) == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert integrate(lambda t: t**3 - 2 * t, 0.0, 2.0, n=2) == pytest.approx(0.0, abs=1e-13)


def test_exponential_vs_antiderivative():
    # analytic antiderivative oracle
    assert integrate(math.exp, 0.0, 1.0, n=64) == pytest.approx(math.e - 1.0, abs=1e-8)
    assert integrate(math.exp, 0.0, 1.0, n=256) == pytest.approx(math.e - 1.0, abs=1e-11)


def test_n_must_be_even():
    with pytest.raises(Exception):
        integrate(lambda t: t, 0.0, 1.0, n=3)


def test_error_carries_abscissa():
    def bad(t):
        raise ValueError("boom")

    with pytest.raises(ValueError, match="while integrating at t="):
        integrate(bad, 0.0, 1.0)


def test_block_moments_constant(state_market, constant_market):
    mom = block_moments(constant_market, 100.0, 0.0, 0.25, "Q")
    assert mom.v == pytest.approx(0.01, abs=1e-15)
    assert mom.m == pytest.approx(0.05 * 0.25 - 0.005, abs=1e-15)
    assert mom.c == pytest.approx(integrate(lambda u: 0.08, 0.0, 0.25) - 0.0125, abs=1e-15)


def test_block_moments_cancellation(balanced_market):
    mom = block_moments(balanced_market, 80.0, 0.0, 0.25, "P")
    assert mom.c == pytest.approx(0.0, abs=1e-15)


def test_block_moments_state_dependent(state_market):
    # g constant in t: v = (b - a) * g(s_k)^2, by hand
    market = state_market
    mom = block_moments(
        market.__class__(0.5, 1.0, market.s0, market.f, market.g, market.rate, market.g_min),
        1.0, 0.0, 0.5, "Q",
    )
    assert mom.v == pytest.approx(0.5 * 0.15**2, rel=1e-12)


def test_block_boundary_rejected(state_market):
    with pytest.raises(ContractError, match="block boundary"):
        block_moments(state_market, 100.0, 0.2, 0.3)


def test_additivity(state_market):
    a, b, c = 0.25, 0.33, 0.5
    whole = block_moments(state_market, 87.0, a, c, "P")
    left = block_moments(state_market, 87.0, a, b, "P")
    right = block_moments(state_market, 87.0, b, c, "P")
    assert whole.m == pytest.approx(left.m + right.m, abs=1e-12)
    assert whole.v == pytest.approx(left.v + right.v, abs=1e-12)
    assert whole.c == pytest.approx(left.c + right.c, abs=1e-12)


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
            coarse = block_moments(market, s_k, a, b, "P", n=64)
            fine = block_moments(market, s_k, a, b, "P", n=128)
            assert abs(coarse.m - fine.m) < 1e-9
            assert abs(coarse.v - fine.v) < 1e-9
            assert abs(coarse.c - fine.c) < 1e-9


def test_vectorized_matches_scalar(state_market):
    sk = np.array([50.0, 100.0, 150.0])
    g2, f_int, lam = block_integrals_vec(state_market, sk, 0.25, 0.5, with_f=True)
    for i, s in enumerate(sk):
        mom = block_moments(state_market, float(s), 0.25, 0.5, "P")
        assert np.asarray(g2)[i] == pytest.approx(mom.v, rel=1e-14)
        assert np.asarray(f_int)[i] - lam == pytest.approx(mom.c, abs=1e-15)


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
