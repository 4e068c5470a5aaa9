"""Deterministic integration of time functions over sub-block intervals.

Composite Simpson with a fixed, even subinterval count: every integral
takes ``DEFAULT_N`` panels.  The count is deliberately not
adaptive: a fixed rule keeps every Monte Carlo estimate bit-reproducible
regardless of scheduling.  Rate-curve integrals are not computed here;
they use the exact piecewise antiderivative on the curve itself (see
:meth:`delaybs.model.RateCurve.integral`), which keeps discount factors
exactly multiplicative.

Block integrals follow the dependence of their integrand.  Within a
block the coefficients are frozen at the block-start price ``s_k``, so
an integrand that does not depend on ``t`` is constant on the block and
its integral is ``(b - a)`` times one evaluation.  One that depends on
``t`` but not on ``s`` is integrated once on the scalar nodes and
broadcast to the paths; only one that depends on both is evaluated over
the path vector at every node.  theta^2 depends on ``t`` when ``f`` or
``g`` does or the rate curve is not constant.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DomainError
from .model import MAX_TIME_STEPS, floor_block

DEFAULT_N = 64


def simpson_weights(a, b, n):
    """Abscissae and weights of composite Simpson on [a, b] with n panels."""
    if n < 2 or n % 2 != 0:
        raise DomainError(f"subinterval count must be even and >= 2, got {n}")
    if n > MAX_TIME_STEPS:
        raise DomainError(f"subinterval count must be at most {MAX_TIME_STEPS}, got {n}")
    xs = np.linspace(a, b, n + 1)
    ws = np.full(n + 1, 2.0)
    ws[1::2] = 4.0
    ws[0] = ws[-1] = 1.0
    ws *= (b - a) / (3.0 * n)
    return xs, ws


def integrate(fn, a, b):
    """Composite Simpson integral of fn over [a, b] on DEFAULT_N panels.

    Exact for polynomials of degree <= 3 on each panel pair.  Evaluation
    errors from fn propagate with the failing abscissa attached.
    """
    if a > b:
        raise DomainError(f"need a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0
    xs, ws = simpson_weights(a, b, DEFAULT_N)
    total = 0.0
    for x, w in zip(xs, ws):
        try:
            total += w * fn(x)
        except Exception as exc:
            # Amend the message in place: rebuilding the exception would
            # need every constructor argument (EvalError's span, say).
            exc.args = (f"{exc} (while integrating at t={float(x)!r})",)
            raise
    return total


def integrate_squares(coeff, s, a, b):
    """:func:`integrate` of coeff(u, s) ** 2 over [a, b], with its bits and
    errors, from one checked vector call of the coefficient on the nodes:
    each value is squared by Python's pow and summed in node order.  A
    fault, or an empty or reversed interval, takes the scalar rule, which
    raises at the first faulting node."""
    xs, ws = simpson_weights(a, b, DEFAULT_N)
    values, faults = coeff.compiled.checked(xs, float(s))
    if not a < b or any(np.any(mask) for mask, _, _ in faults):
        return integrate(lambda u: coeff(u, s) ** 2, a, b)
    total = 0.0
    for w, value in zip(ws, np.broadcast_to(values, xs.shape)):
        total += w * float(value) ** 2
    return total


def integrate_nodes(values_fn, a, b):
    """Vectorized Simpson on DEFAULT_N panels: values_fn(t) may return an array per node."""
    if a == b:
        return 0.0
    xs, ws = simpson_weights(a, b, DEFAULT_N)
    total = 0.0
    for x, w in zip(xs, ws):
        total = total + w * values_fn(x)
    return total


def _check_single_block(market, a, b):
    if a > b:
        raise ContractError(f"need a <= b, got [{a}, {b}]")
    # Either end may overhang a block boundary by eps.
    eps = 1e-9 * market.h
    mid = 0.5 * (a + b)
    first = floor_block(min(a + eps, mid), market.h)
    if b > a and first != floor_block(max(b - eps, mid), market.h):
        raise ContractError(f"interval [{a}, {b}] spans a block boundary")


def block_moments(market, s_k, a, b):
    """The n = 1 case of :func:`block_integrals_vec` with ``with_f``:
    the floats (g2_int, f_int, lam_int) for one block-start price s_k."""
    g2, f_int, lam_int = block_integrals_vec(market, np.array([float(s_k)]), a, b, with_f=True)
    return float(g2[0]), float(f_int[0]), lam_int


def _block_integral(integrand, uses_t, s_k, a, b):
    """Integral over [a, b] of integrand(u, s_k), shaped like s_k."""
    if uses_t:
        value = integrate_nodes(lambda u: integrand(u, s_k), a, b)
    else:
        value = (b - a) * integrand(a, s_k)
    if np.shape(value) != np.shape(s_k):
        value = np.full(np.shape(s_k), value)
    return value


def block_integrals_vec(market, s_k, a, b, with_theta=False, with_f=False):
    """Per-path block integrals for a vector of block-start prices.

    Returns (g2_int, f_int, lam_int): the integrals of g(u, s_k)^2 and
    f(u, s_k) as arrays shaped like s_k, and the scalar rate integral;
    plus theta2_int (integral of ((f - lambda)/g)^2, shaped like s_k)
    when with_theta is set.  Only P-measure callers read the drift f, so
    f_int is integrated when with_f or with_theta is set and is None
    otherwise.
    """
    _check_single_block(market, a, b)
    f, g, rate = market.f, market.g, market.rate
    g2 = _block_integral(lambda u, s: np.square(g.vec(u, s)), g.compiled.uses_t, s_k, a, b)
    f_int = None
    if with_f or with_theta:
        f_int = _block_integral(f.vec, f.compiled.uses_t, s_k, a, b)
    lam_int = rate.integral(a, b)
    if not with_theta:
        return g2, f_int, lam_int

    def theta2(u, s):
        g_us = g.vec(u, s)
        if np.any(g_us == 0.0):
            raise DomainError("the market price of risk (f - lambda) / g needs g != 0")
        with np.errstate(over="ignore"):  # the density's covariance check rejects an inf
            th = (f.vec(u, s) - rate.rate(u)) / g_us
            return th * th

    uses_t = f.compiled.uses_t or g.compiled.uses_t or rate.kind != "constant"
    return g2, f_int, lam_int, _block_integral(theta2, uses_t, s_k, a, b)
