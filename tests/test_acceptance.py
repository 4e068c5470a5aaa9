"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (echoed again in the
terminal summary via conftest) and then asserts.  Statistical checks use
the stated path counts and a fixed seed; tolerance is 3 standard errors
unless the quantity is deterministic, in which case it is 1e-12.
"""

import math
import random

import conftest
import numpy as np
import pytest

from delaybs import OptionSpec, cli, coeffexpr
from delaybs.measure import density_mean_check, importance_price
from delaybs.paths import exact_values_vec, fixed_delay_convergence, split_values_vec, brownian_increments
from delaybs.hedging import replicate
from delaybs.model import discount_factor
from delaybs.pricing import (
    MarketState,
    price_classical,
    price_closed,
    price_mc,
    price_semi,
    put_price,
)

N_BIG = 1_000_000
N_MED = 100_000
SEED = 20240613
CLASSICAL_REFERENCE = 10.45058357218555  # price_classical(100, 100, 0.05, 0.04)


def _report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    conftest.ACCEPTANCE_RESULTS.append(line)
    assert ok, line


def test_criterion_1_classical_reduction(constant_market, atm_option):
    state = MarketState(0.8, 100.0)
    closed = price_closed(constant_market, atm_option, state).value
    classical = price_classical(100.0, 100.0, 0.05 * 0.2, 0.04 * 0.2)
    gap = abs(closed - classical)
    semi = price_semi(
        constant_market, atm_option, MarketState(0.0, 100.0), N_BIG, SEED
    )
    dev = abs(semi.value - CLASSICAL_REFERENCE)
    # the twin control is the price itself here: exact, with SE 0
    bound = 3.0 * semi.std_error + 1e-12 * 100.0
    ok = gap <= 1e-12 and dev <= bound
    _report(
        1, "closed form reduces to classical Black-Scholes", ok,
        f"gap={gap:.2e}, semi dev={dev:.2e} vs 3SE+1e-12*s0={bound:.2e}",
    )


def test_criterion_2_martingale(state_market):
    disc = discount_factor(state_market.rate, 0.0, state_market.T)
    s_T = exact_values_vec(
        state_market, "Q", SEED, 0, N_BIG, 0.0, 100.0, 100.0, [state_market.T]
    )[:, 0]
    tilde = disc * s_T
    se = tilde.std() / math.sqrt(N_BIG)
    dev = abs(tilde.mean() - state_market.s0)
    _report(
        2, "discounted price is a Q-martingale", dev <= 3.0 * se,
        f"dev={dev:.4f} vs 3SE={3 * se:.4f}",
    )


def test_criterion_3_density_normalization(state_market, balanced_market):
    mean, se = density_mean_check(state_market, N_BIG, SEED, 1)
    dev = abs(mean - 1.0)
    mean0, se0 = density_mean_check(balanced_market, 10_000, SEED, 1)
    ok = dev <= 3.0 * se and mean0 == 1.0 and se0 == 0.0
    _report(
        3, "Girsanov density has unit mean", ok,
        f"dev={dev:.2e} vs 3SE={3 * se:.2e}, balanced=({mean0}, {se0})",
    )


def test_criterion_4_estimator_triangle(state_market, atm_option):
    state = MarketState(0.0, state_market.s0)
    mc = price_mc(state_market, atm_option, state, N_BIG, SEED)
    semi = price_semi(state_market, atm_option, state, N_BIG, SEED + 1)
    imp, _ = importance_price(state_market, atm_option, N_BIG, SEED + 2)
    comb_semi = math.hypot(mc.std_error, semi.std_error)
    comb_imp = math.hypot(mc.std_error, imp.std_error)
    ok = (
        abs(semi.value - mc.value) <= 3.0 * comb_semi
        and abs(imp.value - mc.value) <= 3.0 * comb_imp
        and semi.std_error < mc.std_error
    )
    _report(
        4, "semi-analytic, importance and direct estimators agree", ok,
        f"|semi-mc|={abs(semi.value - mc.value):.4f}, "
        f"|imp-mc|={abs(imp.value - mc.value):.4f}, "
        f"SE semi/mc={semi.std_error:.4f}/{mc.std_error:.4f}",
    )


def test_criterion_5_put_call_parity(constant_market, state_market):
    option = OptionSpec(100.0, "call")
    put = OptionSpec(100.0, "put")
    max_gap = 0.0
    for s in (70.0, 100.0, 140.0):
        state = MarketState(0.8, s)
        c = price_closed(constant_market, option, state).value
        p = price_closed(constant_market, put, state).value
        rhs = s - 100.0 * discount_factor(constant_market.rate, 0.8, 1.0)
        max_gap = max(max_gap, abs(c - p - rhs))
    state = MarketState(0.0, state_market.s0)
    mc_call = price_mc(state_market, option, state, N_BIG, SEED)
    mc_put = price_mc(state_market, put, state, N_BIG, SEED + 1)
    parity = put_price(mc_call.value, state, put, state_market)
    comb = math.hypot(mc_call.std_error, mc_put.std_error)
    ok = max_gap <= 1e-12 and abs(mc_put.value - parity) <= 3.0 * comb
    _report(
        5, "put-call parity holds exactly and under Monte Carlo", ok,
        f"closed gap={max_gap:.2e}, MC dev={abs(mc_put.value - parity):.4f}",
    )


def test_criterion_6_hedging(constant_market):
    from test_hedging import portfolio_gap

    option = OptionSpec(100.0, "call")
    ladders = (4, 16, 64)
    reports = [replicate(constant_market, option, n, N_MED, SEED) for n in ladders]
    # the traded delta and its cash leg against the independent oracle, at
    # every rebalance of each ladder
    prices = np.linspace(50.0, 200.0, 61)
    gap = max(portfolio_gap(constant_market, constant_market.s0, 100.0, n, prices) for n in ladders)
    rmses = [r.rmse for r in reports]
    ok = gap <= 1e-12 * option.strike and rmses[0] >= rmses[1] >= rmses[2]
    _report(
        6, "portfolio identity exact; replication error non-increasing", ok,
        f"gap={gap:.2e}, rmse=" + "/".join(f"{r:.4f}" for r in rmses),
    )


def test_criterion_7_positivity(sfde, state_market):
    dt = 1.0 / 128.0
    dW = brownian_increments(SEED, 0, N_MED, 128, dt)
    _, split_vals = split_values_vec(sfde, dt, dW)
    exact_vals = exact_values_vec(
        state_market, "Q", SEED, 0, N_MED, 0.0, 100.0, 100.0,
        [0.25, 0.5, 0.75, 0.9],
    )
    ok = bool(np.all(split_vals > 0.0) and np.all(exact_vals > 0.0))
    _report(
        7, "splitting-scheme and exact-scheme paths stay positive", ok,
        f"min split={split_vals.min():.4g}, min exact={exact_vals.min():.4g}",
    )


def test_criterion_8_scheme_agreement(sfde):
    results = fixed_delay_convergence(sfde, [256, 512], N_MED, SEED)
    ratio = results[0]["rms_gap"] / results[1]["rms_gap"]
    fine = results[1]
    mean_ok = abs(fine["mean_diff"]) <= 3.0 * fine["se_diff"]
    ok = ratio >= 1.3 and mean_ok
    _report(
        8, "Euler and splitting schemes converge together", ok,
        f"gap ratio={ratio:.3f}, mean diff={fine['mean_diff']:.2e} "
        f"vs 3SE={3 * fine['se_diff']:.2e}",
    )


def test_criterion_9_determinism(capsys, tmp_path):
    import json
    from pathlib import Path

    config = str(
        Path(__file__).resolve().parents[1] / "configs" / "state_dependent.json"
    )
    argv = [
        "price", "--config", config, "--method", "mc",
        "--strike", "100", "--paths", "1000000", "--seed", "42",
    ]
    code1 = cli.main(argv + ["--workers", "1"])
    out1 = capsys.readouterr().out
    code8 = cli.main(argv + ["--workers", "8"])
    out8 = capsys.readouterr().out
    ok = code1 == 0 and code8 == 0 and out1 == out8
    _report(
        9, "CLI output byte-identical across worker counts", ok,
        f"bytes={len(out1)}",
    )


def test_criterion_10_parser():
    import test_coeffexpr

    rnd = random.Random(987)
    round_trip_ok = True
    for _ in range(1000):
        ast = test_coeffexpr._random_expr(rnd, rnd.randint(1, 5))
        printed = coeffexpr.to_source(ast)
        if not coeffexpr.structurally_equal(coeffexpr.parse(printed), ast):
            round_trip_ok = False
            break
    offsets = []
    for source in ("0.1+*s", "2*x", "sin(t)"):
        with pytest.raises(coeffexpr.ParseError) as exc:
            coeffexpr.parse(source)
        offsets.append(exc.value.offset)
    offsets_ok = offsets == [4, 2, 0]
    ok = round_trip_ok and offsets_ok
    _report(
        10, "expression parser round-trips and reports error offsets", ok,
        f"offsets={offsets}",
    )
