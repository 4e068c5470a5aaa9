"""A deterministic oracle for the block chain: tensor Gauss-Hermite cubature.

Under Q each block before t* moves the price by a lognormal factor set by
g at the block-start price, so a time-0 price is E[kernel(S(t*))], an
integral over one standard normal per block.  ``_gauss_hermite`` takes
that integral with a 16-node probabilists' Hermite rule per block, the
block variances from the Simpson rule on ``market.g`` and the
final block from ``price_classical``.  It shares no code with ``rng`` or
the path sampler, so it checks every Monte Carlo pricer of the chain.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from delaybs import OptionSpec
from delaybs.measure import importance_price
from delaybs.model import block_schedule, load_config, market_from_config
from delaybs.pricing import MarketState, price_classical, price_mc, price_semi
from delaybs.quadrature import DEFAULT_N, integrate, simpson_weights

STATE = Path(__file__).resolve().parents[1] / "configs" / "state_dependent.json"
NODES, WEIGHTS = hermegauss(16)
WEIGHTS = WEIGHTS / math.sqrt(2.0 * math.pi)  # a probability rule for N(0, 1)
MAX_BLOCKS = 4  # 16^4 = 65,536 leaves


def _variance(market, s, a, b):
    """quadrature.integrate of g(u, s)^2 over [a, b], with g evaluated on
    all Simpson nodes in one vector call; squared by Python's pow and
    summed in node order, so that it has the bits of the scalar rule."""
    xs, ws = simpson_weights(a, b, DEFAULT_N)
    total = 0.0
    for w, g in zip(ws, np.broadcast_to(market.g.vec(xs, s), xs.shape)):
        total += w * float(g) ** 2
    return total


def _gauss_hermite(market, strike):
    """Time-0 (call, put) values at ``strike`` by the tensor rule."""
    edges = block_schedule(market.T, market.h)
    t_star, blocks = edges[-2], len(edges) - 2
    assert blocks <= MAX_BLOCKS
    rate = market.rate.integral
    final_rate = rate(t_star, market.T)
    to_zero = math.exp(-rate(0.0, t_star))

    def value(s, k):
        if k == blocks:  # at t*: the final block in closed form, the put by parity
            call = price_classical(s, strike, final_rate, _variance(market, s, t_star, market.T))
            put = call - s + strike * math.exp(-final_rate)
            return to_zero * call, to_zero * put
        a, b = edges[k], edges[k + 1]
        v = _variance(market, s, a, b)
        drift, sd = rate(a, b) - 0.5 * v, math.sqrt(v)
        call = put = 0.0
        for x, w in zip(NODES, WEIGHTS):
            c, p = value(s * math.exp(drift + sd * x), k + 1)
            call += w * c
            put += w * p
        return call, put

    return value(market.s0, 0)


def _market(g_expr=None):
    cfg = load_config(STATE)
    if g_expr is not None:
        cfg["g_expr"] = g_expr
    return market_from_config(cfg)


MARKETS = {"shipped": _market(), "steep": _market("0.05 + 20/s")}
STRIKE = 100.0
PATHS = 1 << 15


@pytest.fixture(scope="module")
def oracle():
    return {name: _gauss_hermite(market, STRIKE) for name, market in MARKETS.items()}


def test_the_rule_prices_a_constant_market_in_closed_form():
    market = market_from_config({**load_config(STATE), "g_expr": "0.2"})
    call, put = _gauss_hermite(market, STRIKE)
    expected = price_classical(market.s0, STRIKE, market.rate.integral(0.0, market.T),
                               0.04 * market.T)
    # the rule's own error, 1.4e-9 here, is within the tolerance of the checks below
    assert call == pytest.approx(expected, abs=1e-8 * market.s0)
    assert put == pytest.approx(call - market.s0 + STRIKE * math.exp(-0.05 * market.T),
                                abs=1e-12 * market.s0)


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_the_vector_variance_has_the_bits_of_the_scalar_rule(name):
    market = MARKETS[name]
    for s, a in [(market.s0, 0.0), (177.32983517016106, 0.38932436043347796), (3.5, 0.5)]:
        scalar = integrate(lambda u: market.g(u, s) ** 2, a, a + market.h)
        assert _variance(market, s, a, a + market.h) == scalar


def _semi(market, kind, seed):
    return price_semi(market, OptionSpec(STRIKE, kind), MarketState(0.0, market.s0), PATHS, seed)


def _mc(market, kind, seed):
    return price_mc(market, OptionSpec(STRIKE, kind), MarketState(0.0, market.s0), PATHS, seed)


def _importance(market, kind, seed):
    return importance_price(market, OptionSpec(STRIKE, kind), PATHS, seed)[0]


# (pricer, kind, seed); the seeds were fixed before the first run.
CASES = [
    (_semi, "call", 2701),
    (_mc, "call", 2702),
    (_importance, "call", 2703),
    (_mc, "put", 2704),
    (_importance, "put", 2705),
]


@pytest.mark.parametrize("name", sorted(MARKETS))
@pytest.mark.parametrize("pricer, kind, seed", CASES,
                         ids=[f"{p.__name__[1:]}-{kind}" for p, kind, _ in CASES])
def test_monte_carlo_prices_match_the_cubature(oracle, name, pricer, kind, seed):
    market = MARKETS[name]
    truth = oracle[name][kind == "put"]
    result = pricer(market, kind, seed)
    assert abs(result.value - truth) <= 3.0 * result.std_error + 1e-8 * market.s0, (
        result.value, truth, result.std_error)
