import contextlib
import copy
import inspect
import io
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from delaybs import cli, parallel, paths, rng
from delaybs.model import (
    block_schedule,
    load_config,
    market_from_config,
    sfde_from_config,
    validate_market,
)

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CONSTANT = str(_CONFIGS / "constant.json")
STATE = str(_CONFIGS / "state_dependent.json")
FIXED = str(_CONFIGS / "fixed_delay.json")


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_price_classical_reference_value(capsys):
    code, out = _run(capsys, [
        "price", "--config", CONSTANT, "--method", "classical",
        "--strike", "100",
    ])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "method,value,std_error,n_paths"
    method, value, se, n = row.split(",")
    assert method == "classical"
    assert float(value) == pytest.approx(10.450584, abs=5e-7)
    assert float(se) == 0.0 and n == "0"


def test_price_closed_matches_classical_final_block(capsys):
    _, closed = _run(capsys, [
        "price", "--config", CONSTANT, "--method", "closed",
        "--strike", "100", "--t", "0.8",
    ])
    _, classical = _run(capsys, [
        "price", "--config", CONSTANT, "--method", "classical",
        "--strike", "100", "--t", "0.8",
    ])
    v_closed = float(closed.strip().splitlines()[1].split(",")[1])
    v_classical = float(classical.strip().splitlines()[1].split(",")[1])
    assert v_closed == pytest.approx(v_classical, abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 11])
def test_closed_quotes_match_classical_over_the_benchmark_grid(capsys, seed):
    # the final_block benchmark's quote_vs_classical check: its quotes are
    # 200 (strike, t, spot) draws per seed, here drawn the same way
    r = random.Random(f"{seed}:quotes")
    for _ in range(200):
        strike, t, spot = r.uniform(80.0, 120.0), 0.75 + 0.15 * r.random(), r.uniform(85.0, 115.0)
        values = []
        for method in ("closed", "classical"):
            _, out = _run(capsys, ["price", "--config", STATE, "--method", method, "--strike",
                                   repr(strike), "--t", repr(t), "--spot", repr(spot)])
            values.append(float(out.splitlines()[1].split(",")[1]))
        assert abs(values[0] - values[1]) <= 1e-12 * strike, (strike, t, spot, values)


def test_price_mc_reports_uncertainty(capsys):
    code, out = _run(capsys, [
        "price", "--config", STATE, "--method", "mc",
        "--strike", "100", "--paths", "20000", "--seed", "5",
    ])
    assert code == 0
    _, value, se, n = out.strip().splitlines()[1].split(",")
    assert n == "20000"
    assert 0.0 < float(se) < 1.0
    assert 1.0 < float(value) < 30.0


def test_price_put_parity(capsys):
    _, call = _run(capsys, [
        "price", "--config", CONSTANT, "--method", "closed",
        "--strike", "100", "--t", "0.8",
    ])
    _, put = _run(capsys, [
        "price", "--config", CONSTANT, "--method", "closed",
        "--strike", "100", "--t", "0.8", "--kind", "put",
    ])
    c = float(call.strip().splitlines()[1].split(",")[1])
    p = float(put.strip().splitlines()[1].split(",")[1])
    assert c - p == pytest.approx(100.0 - 100.0 * math.exp(-0.05 * 0.2), abs=1e-12)


def test_missing_config_is_usage_error(capsys):
    code = cli.main(["price", "--config", "does_not_exist.json",
                     "--method", "closed", "--strike", "100"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert "not found" in captured.err


def test_invalid_expression_is_usage_error(tmp_path, capsys):
    cfg = json.loads(Path(CONSTANT).read_text())
    cfg["g_expr"] = "0.2 +* s"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = cli.main(["price", "--config", str(bad),
                     "--method", "closed", "--strike", "100"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert "expression" in captured.err


def test_unknown_method_is_usage_error(capsys):
    code = cli.main(["price", "--config", CONSTANT,
                     "--method", "wrong", "--strike", "100"])
    capsys.readouterr()
    assert code == cli.EXIT_CONFIG


def test_simulate_exact_shape(capsys):
    code, out = _run(capsys, [
        "simulate", "--config", CONSTANT, "--paths", "3", "--seed", "9",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,value,stream_id"
    # 3 block-boundary sample times (0.4, 0.8, 1.0) per path
    assert len(lines) == 1 + 3 * 3
    for line in lines[1:]:
        t, v, sid = line.split(",")
        assert float(v) > 0.0
        assert sid in {"0", "1", "2"}


def test_simulate_split_needs_dt(capsys):
    code = cli.main(["simulate", "--config", FIXED, "--scheme", "split",
                     "--paths", "1"])
    capsys.readouterr()
    assert code == cli.EXIT_CONFIG


def test_simulate_split_runs(capsys):
    code, out = _run(capsys, [
        "simulate", "--config", FIXED, "--scheme", "split",
        "--dt", "0.03125", "--paths", "2", "--seed", "3",
    ])
    assert code == 0
    lines = out.strip().splitlines()[1:]
    # 32 steps plus the t = 0 starting point, per path
    assert len(lines) == 2 * 33
    assert all(float(line.split(",")[1]) > 0.0 for line in lines)


def test_hedge_ladder_output(capsys):
    code, out = _run(capsys, [
        "hedge", "--config", CONSTANT, "--strike", "100",
        "--ladder", "4,16", "--paths", "5000", "--seed", "2",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n_rebalance,mean_error,rmse,n_paths"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["4", "16"]
    assert float(rows[0][2]) > float(rows[1][2])


def test_check_passes_on_valid_market(capsys):
    code, out = _run(capsys, [
        "check", "--config", STATE, "--paths", "50000", "--seed", "1",
    ])
    lines = out.strip().splitlines()
    assert lines[0] == "check,estimate,std_error,status"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == [
        "market_validation", "density_mean", "martingale_mean",
        "semi_vs_mc", "importance_vs_mc", "put_parity",
    ]
    assert all(line.endswith("pass") for line in lines[1:])
    assert code == cli.EXIT_OK


def test_check_flags_invalid_market(tmp_path, capsys):
    cfg = json.loads(Path(CONSTANT).read_text())
    cfg["g_expr"] = "0.001"  # below g_min everywhere
    bad = tmp_path / "thin.json"
    bad.write_text(json.dumps(cfg))
    code, out = _run(capsys, [
        "check", "--config", str(bad), "--skip-validation", "--paths", "100",
    ])
    assert code == cli.EXIT_CHECK_FAILED
    row = out.strip().splitlines()[1]
    assert row.startswith("market_validation") and row.endswith("fail")


def test_check_without_skip_rejects_invalid_market(tmp_path, capsys):
    cfg = json.loads(Path(CONSTANT).read_text())
    cfg["g_expr"] = "0.001"
    bad = tmp_path / "thin.json"
    bad.write_text(json.dumps(cfg))
    code = cli.main(["check", "--config", str(bad), "--paths", "100"])
    capsys.readouterr()
    assert code == cli.EXIT_CONFIG


def test_convergence_output(capsys):
    code, out = _run(capsys, [
        "convergence", "--config", FIXED, "--steps", "64,128",
        "--paths", "2000", "--seed", "4",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "steps,dt,rms_gap,mean_em,mean_split,se_diff"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["64", "128"]
    assert float(rows[0][2]) > float(rows[1][2])


def test_output_independent_of_worker_count(capsys):
    argv = ["price", "--config", STATE, "--method", "mc",
            "--strike", "100", "--paths", "150000", "--seed", "42"]
    _, one = _run(capsys, argv + ["--workers", "1"])
    _, many = _run(capsys, argv + ["--workers", "8"])
    assert one == many


# Outputs of two-or-more-chunk reductions, hedge with its delta from the
# closed form's kernel, `pricing.bs_betas`.
_HEDGE_TWO_CHUNKS = (
    "n_rebalance,mean_error,rmse,n_paths\n"
    "2,-0.0073311398689331064,1.7082358023128046,70000\n"
    "4,0.0025059097318717747,1.2425446557933291,70000\n"
)
_CONVERGENCE_700_PATH_CHUNKS = (
    "steps,dt,rms_gap,mean_em,mean_split,se_diff\n"
    "32,0.03125,0.0054007886965352463,1.1125984119045824,1.1124259550334352,9.8554176593751428e-05\n"
    "64,0.015625,0.0038627082455992196,1.1125736111275328,1.1124913687261124,7.0507094626542775e-05\n"
)


# `hedge` stdout with the delta from the closed form's kernel,
# `pricing.bs_betas`.
_HEDGE_GOLDEN = [
    # the final_block benchmark's hedge at workload seed 11
    (["--ladder", "4,16,64", "--paths", "16384", "--seed", "3991227610"],
     "n_rebalance,mean_error,rmse,n_paths\n"
     "4,0.025527534171614109,1.236215194421441,16384\n"
     "16,-0.0014753920169013213,0.64173167155822763,16384\n"
     "64,0.0018925918959905074,0.33086425951087406,16384\n"),
    # three chunks, the last one partial, and an unsorted ladder
    (["--ladder", "64,3,16,5", "--paths", "140000", "--seed", "11"],
     "n_rebalance,mean_error,rmse,n_paths\n"
     "64,-0.0002487221512314083,0.33237348245649984,140000\n"
     "3,-0.00044328795340682029,1.4213566368227977,140000\n"
     "16,-0.0010229480638702265,0.64903955169643923,140000\n"
     "5,-0.0029873897279020806,1.1267184401843668,140000\n"),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv, expected", _HEDGE_GOLDEN, ids=["benchmark", "three_chunks"])
def test_hedge_output_is_unchanged(capsys, argv, expected, workers):
    code, out = _run(capsys, ["hedge", "--config", STATE, "--strike", "100", *argv,
                              "--workers", workers])
    assert (code, out) == (cli.EXIT_OK, expected)


# `check` stdout, the cross-estimator rows as the prices controlled by the
# discounted price and the Black-Scholes twin give them.
_CHECK_GOLDEN = [
    # the block_mc benchmark's check at workload seed 11
    (["--paths", "65536", "--seed", "364835417"],
     "check,estimate,std_error,status\n"
     "market_validation,0,0,pass\n"
     "density_mean,1.0016106019004951,0.00056582493625290337,pass\n"
     "martingale_mean,99.984910328791557,0.074195289974620174,pass\n"
     "semi_vs_mc,2.5723160710811044e-05,3.280356619515679e-05,pass\n"
     "importance_vs_mc,-0.0045749312900795758,0.0060255846956203604,pass\n"
     "put_parity,5.2483269549874478e-05,3.7677963949982714e-05,pass\n"),
    # three chunks, the last one partial
    (["--paths", "140000", "--seed", "5"],
     "check,estimate,std_error,status\n"
     "market_validation,0,0,pass\n"
     "density_mean,1.0000840868583691,0.00038294935708667186,pass\n"
     "martingale_mean,100.03234077613104,0.051059101750041518,pass\n"
     "semi_vs_mc,1.085025441049936e-05,2.2521771883274508e-05,pass\n"
     "importance_vs_mc,-0.0057438564838889761,0.0041326561054110438,pass\n"
     "put_parity,2.9365800822134247e-06,2.5852066980293608e-05,pass\n"),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv, expected", _CHECK_GOLDEN, ids=["benchmark", "three_chunks"])
def test_check_output_is_unchanged(capsys, argv, expected, workers):
    code, out = _run(capsys, ["check", "--config", STATE, *argv, "--workers", workers])
    assert (code, out) == (cli.EXIT_OK, expected)


def test_check_samples_the_p_paths_once(capsys, monkeypatch):
    # one chunk: every simulation is one exact_values_vec call at each binding
    exact = paths.exact_values_vec
    signature = inspect.signature(exact)
    densities = []

    def counting(*args, **kwargs):
        densities.append(signature.bind(*args, **kwargs).arguments.get("density", False))
        return exact(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("delaybs") and getattr(module, "exact_values_vec", None) is exact:
            monkeypatch.setattr(module, "exact_values_vec", counting)
    code, _ = _run(capsys, ["check", "--config", STATE, "--paths", str(parallel.CHUNK_SIZE)])
    assert code == cli.EXIT_OK
    assert densities.count(True) == 1
    assert len(densities) == 4  # and Q for the call, semi and the put


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_semi_output_independent_of_worker_count(capsys, workers):
    # three chunks, the last one partial: the co-moments merge in chunk order
    code, out = _run(capsys, ["price", "--config", STATE, "--method", "semi", "--strike", "100",
                              "--paths", "140000", "--seed", "5", "--workers", workers])
    assert (code, out) == (
        cli.EXIT_OK,
        "method,value,std_error,n_paths\nsemi,9.7626111314757367,1.3058413364373224e-05,140000\n",
    )


@pytest.mark.parametrize("paths, row", [
    # no residual degree of freedom: the plain mean and its standard error
    ("1", "semi,17.586921660345439,0,1"),
    ("2", "semi,13.450774074651903,4.1361475856935357,2"),
    ("3", "semi,5.5826889355134943,0.20218380551550183,3"),
], ids=["1", "2", "3"])
def test_semi_on_the_fewest_paths(capsys, paths, row):
    code, out = _run(capsys, ["price", "--config", STATE, "--method", "semi", "--strike", "100",
                              "--paths", paths])
    assert (code, out) == (cli.EXIT_OK, f"method,value,std_error,n_paths\n{row}\n")


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_mc_output_independent_of_worker_count(capsys, workers):
    # three chunks, the last one partial: the control's co-moments merge in chunk order
    code, out = _run(capsys, ["price", "--config", STATE, "--method", "mc", "--strike", "100",
                              "--paths", "140000", "--seed", "5", "--workers", workers])
    assert (code, out) == (
        cli.EXIT_OK,
        "method,value,std_error,n_paths\nmc,9.7626053556165147,1.845516672112529e-05,140000\n",
    )


@pytest.mark.parametrize("paths, row", [
    # no residual degree of freedom: the plain mean and its standard error
    ("1", "mc,28.18833858127741,0,1"),
    ("2", "mc,22.37182833422191,5.8165102470554997,2"),
    # every path ends above the strike, so the payoff S(T) - K is linear
    # in the control: exact, with SE 0
    ("3", "mc,4.4002518166900098,0,3"),
], ids=["1", "2", "3"])
def test_mc_on_the_fewest_paths(capsys, paths, row):
    code, out = _run(capsys, ["price", "--config", STATE, "--method", "mc", "--strike", "100",
                              "--paths", paths])
    assert (code, out) == (cli.EXIT_OK, f"method,value,std_error,n_paths\n{row}\n")


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_hedge_output_independent_of_worker_count(capsys, workers):
    # 70,000 paths are two CHUNK_SIZE chunks
    code, out = _run(capsys, ["hedge", "--config", STATE, "--strike", "100", "--paths", "70000",
                              "--ladder", "2,4", "--seed", "5", "--workers", workers])
    assert (code, out) == (cli.EXIT_OK, _HEDGE_TWO_CHUNKS)


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_convergence_output_independent_of_worker_count(capsys, monkeypatch, workers):
    monkeypatch.setattr(paths, "CONVERGENCE_CHUNK", 700)  # five chunks, one partial
    code, out = _run(capsys, ["convergence", "--config", FIXED, "--steps", "32,64",
                              "--paths", "3000", "--seed", "7", "--workers", workers])
    assert (code, out) == (cli.EXIT_OK, _CONVERGENCE_700_PATH_CHUNKS)


@pytest.mark.parametrize("argv, expected", [
    (["check", "--config", STATE, "--strike", "1e-320", "--paths", "3"], None),
    (["hedge", "--config", STATE, "--strike", "1e-320", "--paths", "3"],
     "n_rebalance,mean_error,rmse,n_paths\n4,0,0,3\n16,0,0,3\n64,0,0,3\n"),
    (["price", "--config", STATE, "--method", "semi", "--t", "0.75", "--spot", "5e-324",
      "--strike", "100"], "method,value,std_error,n_paths\nsemi,0,0,0\n"),
    # the payoff S(T) - K is linear in the control: exact, with SE 0
    (["price", "--config", STATE, "--method", "mc", "--strike", "1e-320", "--paths", "3"],
     "method,value,std_error,n_paths\nmc,100,0,3\n"),
])
def test_extreme_log_moneyness_warns_nothing(capsys, argv, expected):
    # x / K overflows to inf or underflows to 0 here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would print on stderr
        code = cli.main(argv)
    captured = capsys.readouterr()
    # on three paths check's density row (0.9416, SE 0.0040) fails by chance
    assert code == (cli.EXIT_CHECK_FAILED if argv[0] == "check" else cli.EXIT_OK)
    assert [str(w.message) for w in caught] == []
    assert captured.err == ""
    if expected is not None:
        assert captured.out == expected


def _config(tmp_path, base=CONSTANT, **changes):
    cfg = json.loads(Path(base).read_text())
    cfg.update(changes)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _fails_with_one_error_line(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG, captured.err
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


_PRICE = ["price", "--method", "closed", "--strike", "100", "--t", "0.8"]
_SIMULATE = ["simulate", "--scheme", "em", "--dt", "0.0625", "--paths", "2"]


@pytest.mark.parametrize("argv, base, changes, message", [
    (_PRICE, CONSTANT, {"rate": {"kind": "piecewise", "times": [0.0, 1.0],
                                 "rates": [0.05, 0.04]}},
     "piecewise curve needs len(times) == len(rates) + 1 >= 2"),
    (_PRICE, CONSTANT, {"rate": {"kind": "piecewise", "times": [0.0, 0.5, 0.5, 1.0],
                                 "rates": [0.05, 0.04, 0.03]}},
     "piecewise edges must be strictly increasing"),
    (_PRICE, CONSTANT, {"rate": {"kind": "samples", "times": [0.0, 1.0], "rates": [0.05]}},
     "sampled curve needs matching times and rates, >= 2"),
    (_PRICE, CONSTANT, {"rate": {"kind": "samples", "times": [0.0, 1.0, 0.5],
                                 "rates": [0.05, 0.04, 0.03]}},
     "sample times must be strictly increasing"),
    (_PRICE, CONSTANT, {"rate": {"kind": "piecewise", "times": [0.0, 1.0]}},
     "rate config missing key 'rates'"),
    (_SIMULATE, FIXED, {"phi_samples": {"times": [-0.25, -0.1], "values": [1.0, 1.0]}},
     "initial path must end at time 0"),
    (_SIMULATE, FIXED, {"phi_samples": {"times": [-0.25, 0.0], "values": [1.0]}},
     "initial path needs matching times and values, >= 2"),
    (_SIMULATE, FIXED, {"phi_samples": {"times": [-0.1, 0.0], "values": [1.0, 1.0]}},
     "initial path must cover [-L, 0]"),
    (_SIMULATE, FIXED, {"drift": {"kind": "moving-average", "c": -0.1}},
     "moving-average drift needs c >= 0"),
])
def test_config_errors_are_one_line_exit_2(tmp_path, capsys, argv, base, changes, message):
    config = _config(tmp_path, base, **changes)
    line = _fails_with_one_error_line(capsys, [argv[0], "--config", config, *argv[1:]])
    assert message in line


def test_power_with_non_finite_exponent_fails_validation(tmp_path, capsys):
    bad = _config(tmp_path, g_expr="0.2 + 0*(-s)^(exp(700)*exp(700))")
    line = _fails_with_one_error_line(capsys, [
        "price", "--config", bad, "--method", "closed", "--strike", "100",
        "--t", "0.8",
    ])
    assert "negative base with non-finite exponent" in line


@pytest.mark.parametrize("argv", [
    ["price", "--config", CONSTANT, "--method", "mc", "--strike", "100",
     "--paths", "0"],
    ["price", "--config", CONSTANT, "--method", "mc", "--strike", "100",
     "--paths", "-3"],
    ["price", "--config", STATE, "--method", "semi", "--strike", "100",
     "--paths", "0"],
    ["hedge", "--config", CONSTANT, "--strike", "100", "--paths", "0"],
    ["check", "--config", STATE, "--paths", "-1"],
    ["convergence", "--config", FIXED, "--paths", "0"],
    ["convergence", "--config", FIXED, "--steps", "0,512", "--paths", "10"],
])
def test_non_positive_counts_are_usage_errors(capsys, argv):
    _fails_with_one_error_line(capsys, argv)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--strike", "--spot", "--t"])
def test_non_finite_cli_inputs_are_usage_errors(capsys, flag, bad):
    values = {"--strike": "100", "--spot": "100", "--t": "0.8", flag: bad}
    argv = ["price", "--config", CONSTANT, "--method", "closed"]
    _fails_with_one_error_line(capsys, argv + [f"{k}={v}" for k, v in values.items()])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_price_is_usage_error(tmp_path, capsys, bad):
    line = _fails_with_one_error_line(capsys, [
        "price", "--config", _config(tmp_path, s0=bad), "--method", "closed",
        "--strike", "100", "--t", "0.8",
    ])
    assert "s0 must be positive" in line


@pytest.mark.parametrize("args", [
    ["--config", "does_not_exist.json"],
    ["--config", FIXED],  # exact scheme on a fixed-delay config
    ["--config", CONSTANT, "--scheme", "em", "--dt", "0.25"],
    ["--config", FIXED, "--scheme", "em"],  # no --dt
    ["--config", FIXED, "--scheme", "split", "--dt", "0.3"],
    ["--config", FIXED, "--scheme", "em", "--dt", "0.1"],
    ["--config", FIXED, "--scheme", "split", "--dt", "nan"],
    ["--config", FIXED, "--scheme", "em", "--dt", "0"],
    ["--config", FIXED, "--scheme", "em", "--dt", "0.25", "--paths", "0"],
    ["--config", CONSTANT, "--paths", "-3"],
])
def test_simulate_errors_write_nothing_to_stdout(capsys, args):
    _fails_with_one_error_line(capsys, ["simulate", "--paths", "2"] + args)


# stderr / stdout of `check` on invalid markets, as printed before the
# validation grid was evaluated only where each coefficient varies.
_THIN_ERROR = (
    "error: market failed validation with 8385 violation(s): "
    + "; ".join(
        f"|g| below g_min=0.1 at (t=0, s={s}): value 0.001"
        for s in ("1", "1.15478", "1.33352", "1.53993", "1.77828")
    )
    + "\n"
)
_MIXED_F = "f failed to evaluate: log of non-positive value (source span 0:10)"
_MIXED_G = "g failed to evaluate: sqrt of negative value (source span 8:19)"
_MIXED_ERROR = (
    "error: market failed validation with 516 violation(s): "
    f"{_MIXED_F} at (t=0, s=1): value nan; "
    f"{_MIXED_G} at (t=0, s=1): value nan; "
    f"{_MIXED_F} at (t=0, s=1.15478): value nan; "
    f"{_MIXED_G} at (t=0, s=1.15478): value nan; "
    f"{_MIXED_F} at (t=0.0078125, s=1): value nan\n"
)


@pytest.mark.parametrize("changes, error, count", [
    ({"g_expr": "0.001"}, _THIN_ERROR, 8385),
    ({"f_expr": "log(s-1.3)", "g_expr": "0.2*t + sqrt(s-1.2)"}, _MIXED_ERROR, 516),
])
def test_check_on_invalid_market_output_is_unchanged(tmp_path, capsys, changes, error, count):
    bad = _config(tmp_path, **changes)
    code = cli.main(["check", "--config", bad, "--paths", "100"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (cli.EXIT_CONFIG, "", error)
    code = cli.main(["check", "--config", bad, "--paths", "100", "--skip-validation"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CHECK_FAILED
    assert captured.out == (
        f"check,estimate,std_error,status\nmarket_validation,{count},0,fail\n"
    )
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["hedge", "--config", CONSTANT, "--strike", "100", "--ladder", "x"],
    ["hedge", "--config", CONSTANT, "--strike", "100", "--ladder", "4,-2"],
    ["hedge", "--config", CONSTANT, "--strike", "100", "--ladder", "0"],
    ["hedge", "--config", CONSTANT, "--strike", "100", "--ladder", ","],
    ["convergence", "--config", FIXED, "--steps", "a"],
    ["convergence", "--config", FIXED, "--steps", "64,1.5"],
    ["convergence", "--config", FIXED, "--steps", "128,192"],  # 128 does not divide 192
])
def test_bad_count_lists_are_usage_errors(capsys, argv):
    _fails_with_one_error_line(capsys, argv + ["--paths", "10"])


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_the_64_bit_range_is_a_usage_error(capsys, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = _fails_with_one_error_line(capsys, [
            "price", "--config", CONSTANT, "--method", "mc", "--strike", "100",
            "--paths", "10", "--seed", seed,
        ])
    assert "seed" in line


class _NoPool:
    def __init__(self, max_workers):
        raise AssertionError(f"a pool of {max_workers} threads was started")


@pytest.mark.parametrize("workers", ["0", "-1", str(cli.MAX_WORKERS + 1), str(10**9)])
def test_workers_outside_their_range_are_usage_errors(capsys, monkeypatch, workers):
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _NoPool)
    line = _fails_with_one_error_line(capsys, [
        "price", "--config", STATE, "--method", "mc", "--strike", "100",
        "--paths", "200000", "--workers", workers,
    ])
    assert line == f"error: --workers must be in [1, {cli.MAX_WORKERS}], got {workers}"


def test_the_most_workers_run_one_chunk_without_a_pool(capsys, monkeypatch):
    argv = ["price", "--config", STATE, "--method", "mc", "--strike", "100", "--paths", "50"]
    one = _run(capsys, argv)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _NoPool)
    assert _run(capsys, [*argv, "--workers", str(cli.MAX_WORKERS)]) == one


def test_check_accepts_the_largest_seed(capsys):
    code, out = _run(capsys, ["check", "--config", CONSTANT, "--paths", "500",
                              "--seed", str(2**64 - 1)])
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    assert out.startswith("check,estimate,std_error,status\n")


# `convergence` stdout, se_diff as merged from per-chunk moments.
_CONVERGENCE_HEADER = "steps,dt,rms_gap,mean_em,mean_split,se_diff\n"
_SEGMENT_POINT_OUT = _CONVERGENCE_HEADER + (
    "64,0.015625,0.0039784267964507744,1.1099896126375752,1.1099401403500548,7.2630187175593168e-05\n"
    "128,0.0078125,0.0027765932475511956,1.1099389741240386,1.1099753629955151,5.0689071512439337e-05\n"
    "256,0.00390625,0.0019678638304679633,1.1099885197404968,1.1099929577437986,3.5928022301033781e-05\n"
)
_PROPORTIONAL_OUT = _CONVERGENCE_HEADER + (
    "64,0.015625,0.007089974763263009,1.163803264956135,1.1637099463337961,0.00012943342404293041\n"
    "128,0.0078125,0.0049495657680069353,1.1638188157767899,1.1638748003065718,9.0360513175928003e-05\n"
    "256,0.00390625,0.0035105575183810981,1.1639615271752715,1.1639684287610743,6.4093594214438882e-05\n"
)

_MOVING_AVERAGE_OUT = _CONVERGENCE_HEADER + (
    "64,0.015625,0.0043048731629492581,1.1094226189609664,1.1093784555054174,7.8591735227640658e-05\n"
    "128,0.0078125,0.0030013129516998443,1.1094526627616068,1.1094937942253906,5.4791080894394459e-05\n"
    "256,0.00390625,0.002129297318937959,1.1095472079115796,1.1095537250781471,3.8875290348224667e-05\n"
)
_FACTOR_3_OUT = _CONVERGENCE_HEADER + (
    "8,0.125,0.01106866965170151,1.1126340685995721,1.1123342580038018,0.00020201118901780487\n"
    "24,0.041666666666666664,0.0063505993272731862,1.1126901363694093,1.1126865975260314,0.00011594553217229515\n"
)
_FACTOR_16_OUT = _CONVERGENCE_HEADER + (
    "16,0.0625,0.0079133115634802183,1.1097651909513064,1.1097333137464431,0.0001444754693647793\n"
    "256,0.00390625,0.0019678638304679633,1.1099885197404968,1.1099929577437986,3.5928022301033781e-05\n"
)
_FACTOR_256_OUT = _CONVERGENCE_HEADER + (
    "4,0.25,0.01694110667767772,1.1143670304520366,1.1145683935242747,0.00030927902632714227\n"
    "1024,0.0009765625,0.00099684390924556564,1.1156181556639111,1.1156135174113149,1.819959950120547e-05\n"
)
_TWO_CHUNKS_OUT = _CONVERGENCE_HEADER + (
    "32,0.03125,0.0054861261667361631,1.1107603040568701,1.1106558625949643,4.2069041501394023e-05\n"
    "64,0.015625,0.0038866863487396629,1.1107577778343083,1.1107238977713392,2.9808390957238127e-05\n"
)
_GOLDEN_ARGV = ["--steps", "64,128,256", "--paths", "3000", "--seed", "7"]


@pytest.mark.parametrize("changes, expected, argv", [
    ({}, _SEGMENT_POINT_OUT, _GOLDEN_ARGV),
    ({"a": 0.125, "drift": {"kind": "proportional-lagged", "c": 0.3},
      "g_expr": "0.2 + 0.1*s/(1+s)"}, _PROPORTIONAL_OUT, _GOLDEN_ARGV),
    ({"a": 0.125, "drift": {"kind": "moving-average", "c": 0.1}}, _MOVING_AVERAGE_OUT,
     _GOLDEN_ARGV),
    # coarse steps of 3 fine steps, of 16 and of 256, each its fine
    # increments added in time order
    ({}, _FACTOR_3_OUT, ["--steps", "8,24", "--paths", "3000", "--seed", "7"]),
    ({}, _FACTOR_16_OUT, ["--steps", "16,256", "--paths", "3000", "--seed", "7"]),
    ({}, _FACTOR_256_OUT, ["--steps", "4,1024", "--paths", "3000", "--seed", "7"]),
    # two CONVERGENCE_CHUNK chunks on two workers
    ({}, _TWO_CHUNKS_OUT,
     ["--steps", "32,64", "--paths", "17000", "--seed", "7", "--workers", "2"]),
])
def test_convergence_output_is_unchanged(tmp_path, capsys, changes, expected, argv):
    assert paths.CONVERGENCE_CHUNK < 17000
    config = _config(tmp_path, base=FIXED, **changes)
    code, out = _run(capsys, ["convergence", "--config", config, *argv])
    assert (code, out) == (cli.EXIT_OK, expected)


# g overflows at t = 0.125, which only the 8-step grid samples, and again
# at t = 0.5, which both grids sample.  Run one after another, the 4-step
# EM fails first, at its step 3; the 8-step grid fails earlier in time.
_OVERFLOW_G = ("0.2 + 1e-3*exp(1e6*max(0, 1e-3 - abs(t - 0.125)))"
               " + 1e-3*exp(1e6*max(0, 1e-3 - abs(t - 0.5)))")


@pytest.mark.parametrize("steps, workers, err", [
    ("4,8", "1", "numerical failure: non-finite state at step 3\n"),
    ("4,8,16", "2", "numerical failure: non-finite state at step 3\n"),
    ("8,16", "1", "numerical failure: non-finite state at step 2\n"),
])
def test_convergence_reports_the_first_failure_in_step_order(tmp_path, capsys, steps,
                                                             workers, err):
    config = _config(tmp_path, base=FIXED, g_expr=_OVERFLOW_G)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["convergence", "--config", config, "--steps", steps,
                         "--paths", "50", "--workers", workers])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (cli.EXIT_NUMERICAL, "", err)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("method", ["closed", "classical"])
def test_integrand_evaluation_error_is_usage_error(tmp_path, capsys, method):
    # log(s - 0.5) is defined on the validation grid but not at the spot
    bad = _config(tmp_path, base=STATE, g_expr="0.2 + 0*log(s - 0.5)")
    _fails_with_one_error_line(capsys, [
        "price", "--config", bad, "--method", method, "--strike", "100",
        "--t", "0.8", "--spot", "0.3",
    ])


def test_closed_form_past_maturity_is_usage_error(capsys):
    line = _fails_with_one_error_line(capsys, [
        "price", "--config", STATE, "--method", "closed", "--strike", "100",
        "--t", "5",
    ])
    assert "past maturity" in line


def _simulate_reference(scheme, config, n_paths, seed, dt):
    """`simulate` stdout built one stream at a time, as the CLI once did."""
    cfg = load_config(config)
    lines = ["time,value,stream_id"]
    for sid in range(n_paths):
        if scheme == "exact":
            market = market_from_config(cfg)
            times = [t for t in block_schedule(market.T, market.h) if t > 0.0]
            values = paths.exact_values_vec(
                market, "Q", seed, sid, sid + 1, 0.0, market.s0, market.s0, times
            )
        else:
            sfde = sfde_from_config(cfg)
            n_steps = paths.grid_steps(sfde, dt)[0]
            dW = paths.brownian_increments(seed, sid, sid + 1, n_steps, dt)
            engine = paths.em_values_vec if scheme == "em" else paths.split_values_vec
            times, values = engine(sfde, dt, dW)[:2]
        lines += [f"{t:.17g},{v:.17g},{sid}" for t, v in zip(times, values[0])]
    return "\n".join(lines) + "\n"


_PHI_MOVING_AVERAGE = {
    "a": 0.125, "drift": {"kind": "moving-average", "c": 0.1},
    "phi_samples": {"times": [-0.25, -0.1, 0.0], "values": [0.9, 1.3, 1.0]},
    "g_expr": "0.2 + 0.1*s/(1+s)",
}


@pytest.mark.parametrize("scheme, base, changes, dt", [
    ("exact", STATE, {}, None),
    ("em", FIXED, {}, 0.0078125),
    ("split", FIXED, {}, 0.0078125),
    ("em", FIXED, _PHI_MOVING_AVERAGE, 0.0078125),
    ("split", FIXED, _PHI_MOVING_AVERAGE, 0.0078125),
])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_chunks_match_per_stream_paths(tmp_path, capsys, monkeypatch, scheme, base,
                                                changes, dt, workers):
    monkeypatch.setattr(cli, "SIMULATE_CHUNK", 3)  # several chunks, one partial
    config = _config(tmp_path, base=base, **changes)
    argv = ["simulate", "--config", config, "--scheme", scheme, "--paths", "8",
            "--seed", "9", "--workers", workers]
    if dt is not None:
        argv += ["--dt", repr(dt)]
    code, out = _run(capsys, argv)
    assert code == cli.EXIT_OK
    assert out == _simulate_reference(scheme, config, 8, 9, dt)


def test_simulate_chunks_start_on_rng_groups(capsys, monkeypatch):
    # A chunk that starts inside a group would first redraw the group's prefix.
    starts = []
    normals = rng.normals

    def spy(seed, block, substep, lo, hi):
        starts.append(lo)
        return normals(seed, block, substep, lo, hi)

    monkeypatch.setattr(rng, "normals", spy)
    code, _ = _run(capsys, ["simulate", "--config", STATE, "--scheme", "exact",
                            "--paths", "20000", "--seed", "5"])
    assert code == cli.EXIT_OK
    assert sorted(set(starts)) == [0, rng.GROUP]


def test_repeated_in_process_calls_match_a_fresh_parser(capsys):
    quote = ["price", "--config", STATE, "--method", "closed", "--strike", "100",
             "--t", "0.8"]
    sequence = [quote, ["price", "--config", STATE, "--strike", "x"], ["--help"], quote]

    def call(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    cli.build_parser.cache_clear()
    assert [call(argv) for argv in sequence] == fresh
    assert [code for code, _, _ in fresh] == [cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_OK, cli.EXIT_OK]
    assert cli.build_parser() is cli.build_parser()


def _top_level(argv):
    """The oracle: every argument through the top-level parser, then the
    "--flag=--" check."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    return args


def _parsed(parse, argv):
    """(vars, stdout) of a parse, or (exit code, stdout, stderr) of its SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv)), out.getvalue()
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


_QUOTE = ["--config", STATE, "--method", "closed", "--strike", "100"]
_PARSE_CORPUS = [
    ["price", *_QUOTE, "--t", "0.8", "--kind", "put", "--spot", "99"],
    ["simulate", "--config", FIXED, "--scheme", "em", "--dt", "0.25", "--measure", "P"],
    ["hedge", "--config", STATE, "--strike", "100", "--ladder", "4,16", "--workers", "2"],
    ["check", "--config", STATE, "--paths", "500", "--skip-validation", "--seed", "7"],
    ["convergence", "--config", FIXED, "--steps", "8,16"],
    ["-h"], ["--help"], ["-h", "price"], ["price", "-h"], ["check", "--help"],
    [],
    ["quote", *_QUOTE],
    ["--", "price", *_QUOTE],
    ["price", "--", *_QUOTE],
    ["price", "--conf", STATE, "--method", "closed", "--str", "100"],
    ["price", *_QUOTE, "--bogus"],
    ["price", *_QUOTE, "extra"],
    ["price", *_QUOTE, "--bogus", "1", "extra"],
    ["price", "--config", STATE, "--method", "closed", "--strike=--"],
    ["price", *_QUOTE, "--t=--", "--spot=--"],
    ["price", "--config", STATE, "--method", "bogus", "--strike", "100"],
    ["price", "--config", STATE, "--method", "closed", "--strike", "x"],
    ["price", "--config", STATE],
]


@pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=lambda argv: " ".join(
    Path(arg).name if arg in (STATE, FIXED) else arg for arg in argv) or "empty")
def test_parse_matches_the_top_level_parser(argv):
    expected = _parsed(_top_level, argv)
    assert _parsed(lambda a: cli._parse_args(cli.build_parser(), a), argv) == expected
    assert len(expected) == 2 or expected[0] in (0, 2)


# --- the model cache -----------------------------------------------------------


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cold(argv):
    cli._build.cache_clear()
    return _call(argv)


def test_rewritten_config_is_read_again(tmp_path):
    quote = ["price", "--method", "closed", "--strike", "100", "--t", "0.8"]
    first = _call([*quote, "--config", _config(tmp_path, g_expr="0.2")])
    second = _call([*quote, "--config", _config(tmp_path, g_expr="0.3")])  # same path
    assert first[0] == second[0] == cli.EXIT_OK
    assert second != first
    assert second == _cold([*quote, "--config", _config(tmp_path, g_expr="0.3")])


@pytest.mark.parametrize("changes, needle", [
    ({"g_expr": "0.001"}, "failed validation"),
    ({"g_expr": "0.2 +* s"}, "bad coefficient expression"),
    ({"g_expr": 5}, "'g_expr'"),
    ({"h": -1.0}, "h must be positive"),
])
def test_failing_config_fails_on_every_call(tmp_path, changes, needle):
    argv = ["price", "--config", _config(tmp_path, **changes), "--method", "closed",
            "--strike", "100", "--t", "0.8"]
    calls = [_cold(argv)] + [_call(argv) for _ in range(2)]
    assert calls[1:] == calls[:2]
    code, out, err = calls[0]
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("error: ") and needle in err


@pytest.mark.parametrize("argv", [
    ["price", "--config", STATE, "--method", "closed", "--strike", "100", "--t", "0.8"],
    ["price", "--config", STATE, "--method", "semi", "--strike", "100", "--paths", "500"],
    ["price", "--config", STATE, "--method", "mc", "--strike", "100", "--paths", "500"],
    ["hedge", "--config", STATE, "--strike", "100", "--ladder", "4,16", "--paths", "500"],
    ["check", "--config", STATE, "--paths", "500"],
    ["simulate", "--config", STATE, "--paths", "3"],
    ["simulate", "--config", FIXED, "--scheme", "em", "--dt", "0.0625", "--paths", "3"],
    ["convergence", "--config", FIXED, "--steps", "8,16", "--paths", "500"],
])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_warm_and_cold_calls_print_the_same_bytes(argv, workers):
    argv = [*argv, "--workers", workers, "--seed", "3"]
    cold = _cold(argv)
    assert cold[0] == cli.EXIT_OK
    assert [_call(argv) for _ in range(2)] == [cold, cold]


def test_market_is_validated_once_per_config(tmp_path, monkeypatch):
    calls = []

    def counting(market):
        calls.append(market)
        return validate_market(market)

    monkeypatch.setattr(cli, "validate_market", counting)
    cli._build.cache_clear()
    for strike in ("90", "100", "110"):
        code, out, _ = _call(["price", "--config", STATE, "--method", "closed",
                              "--strike", strike, "--t", "0.8"])
        assert code == cli.EXIT_OK and out
    assert len(calls) == 1

    bad = _config(tmp_path, g_expr="0.001")
    check = ["check", "--config", bad, "--paths", "100", "--skip-validation"]
    assert _call(["price", "--config", bad, "--method", "closed", "--strike", "100"])[0] == (
        cli.EXIT_CONFIG)
    warm = _call(check)
    assert len(calls) == 2
    assert warm == (cli.EXIT_CHECK_FAILED,
                    "check,estimate,std_error,status\nmarket_validation,8385,0,fail\n", "")
    assert warm == _cold(check)


def test_warm_calls_read_the_config_once_and_build_once_per_content(tmp_path, monkeypatch):
    loads, builds = [], []

    def loading(path):
        loads.append(path)
        return load_config(path)

    def building(cfg, validate=True):
        builds.append(cfg)
        return market_from_config(cfg, validate)

    monkeypatch.setattr(cli, "load_config", loading)
    monkeypatch.setattr(cli, "market_from_config", building)
    cli._build.cache_clear()
    copy_of_state = tmp_path / "copy.json"
    copy_of_state.write_bytes(Path(STATE).read_bytes())
    (tmp_path / "int").mkdir()
    (tmp_path / "float").mkdir()
    configs = [STATE, STATE, str(copy_of_state), _config(tmp_path / "int", T=1),
               STATE, _config(tmp_path / "float", T=1.0)]
    for n, config in enumerate(configs, 1):
        code, out, _ = _call(["price", "--config", config, "--method", "closed",
                              "--strike", "100", "--t", "0.8"])
        assert code == cli.EXIT_OK and out
        assert len(loads) == n
    # one build for the shipped content, at either path, and one for each
    # T: an integer and a float T are distinct configs that price alike
    assert [cfg["T"] for cfg in builds] == [0.9, 1, 1.0]
    assert [type(cfg["T"]) for cfg in builds] == [float, int, float]


def test_a_config_value_of_another_type_is_not_a_cache_hit(tmp_path):
    quote = ["price", "--method", "closed", "--strike", "100", "--t", "0.8"]
    cli._build.cache_clear()
    assert _call([*quote, "--config", _config(tmp_path, T=1)])[0] == cli.EXIT_OK
    # true == 1 in Python, but it is not a JSON number
    code, out, err = _call([*quote, "--config", _config(tmp_path, T=True)])
    assert (code, out) == (cli.EXIT_CONFIG, "") and "'T'" in err


# --- numerical failures --------------------------------------------------------


@pytest.mark.parametrize("base, changes, argv", [
    (CONSTANT, {"s0": 1e300}, ["price", "--method", "mc", "--strike", "100", "--paths", "3"]),
    (CONSTANT, {"s0": 1e300}, ["check", "--paths", "3"]),
    (FIXED, {"phi_samples": 1e300}, ["convergence", "--steps", "4,8", "--paths", "3"]),
])
def test_non_finite_statistics_are_numerical_failures(tmp_path, base, changes, argv):
    argv = [*argv, "--config", _config(tmp_path, base=base, **changes)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would print on stderr
        code, out, err = _call(argv)
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (cli.EXIT_NUMERICAL, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: "), err


@pytest.mark.parametrize("config", [CONSTANT, STATE])
@pytest.mark.parametrize("method", ["mc", "semi"])
def test_a_price_path_that_overflows_is_a_numerical_failure(config, method):
    # S(t) * exp(increment) passes the largest double on the first step
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would print on stderr
        code, out, err = _call(["price", "--config", config, "--method", method,
                                "--strike", "80.5", "--spot", "1.7976931348623157e308",
                                "--paths", "3"])
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (cli.EXIT_NUMERICAL, "")
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err


def test_a_put_worth_nothing_prices_although_its_control_overflows(capsys):
    # S_xx of the discounted terminal price overflows at this spot; only
    # the martingale check reads that control's own estimate
    code = cli.main(["price", "--config", CONSTANT, "--method", "mc", "--kind", "put",
                     "--strike", "100", "--spot", "1e156", "--paths", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        cli.EXIT_OK, "method,value,std_error,n_paths\nmc,0,0,3\n", "")


def test_hedge_on_a_zero_variance_final_block_is_usage_error(tmp_path, capsys):
    config = _config(tmp_path, T=5e-324)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = _fails_with_one_error_line(capsys, [
            "hedge", "--config", config, "--strike", "100", "--paths", "3", "--ladder", "4",
        ])
    assert [str(w.message) for w in caught] == []
    assert "final-block variance" in line


def test_hedge_on_a_final_block_shorter_than_the_knot_tolerance(tmp_path, capsys):
    # the final block [1, 1 + 2e-12] puts rebalances closer together than
    # the 1e-12 * max(T, 1) within which a sample time snaps onto a block edge
    config = _config(tmp_path, h=0.25, T=1.000000000002)
    code, out = _run(capsys, ["hedge", "--config", config, "--strike", "100",
                              "--ladder", "4,16", "--paths", "1000"])
    assert (code, out) == (cli.EXIT_OK, (
        "n_rebalance,mean_error,rmse,n_paths\n"
        "4,-1.9268352574352661e-07,4.5776381577869769e-06,1000\n"
        "16,-3.9831213334454638e-08,2.3372003641960969e-06,1000\n"
    ))


@pytest.mark.parametrize("scheme", ["em", "split"])
def test_simulate_integration_failure_writes_nothing_to_stdout(tmp_path, capsys, scheme):
    config = _config(tmp_path, base=FIXED, g_expr="1e200*s")  # overflows at step 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would print on stderr
        code = cli.main(["simulate", "--config", config, "--scheme", scheme,
                         "--dt", "0.0078125", "--paths", "4"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERICAL
    assert captured.out == ""
    assert [str(w.message) for w in caught] == []
    assert captured.err.splitlines() == ["numerical failure: non-finite state at step 2"]


# --- argv fuzzing ------------------------------------------------------------

_NOT_A_NUMBER = st.sampled_from(["", "x", "nan", "NaN", "inf", "-inf", "1e", "0x10", "1,2", "--"])
_HUGE_INT = st.integers(2**31, 10**40)
_HUGE_FLOAT = st.sampled_from(["1e300", "-1e300", "1.7976931348623157e308", "1e400", "-1e400"])
_TINY_FLOAT = st.sampled_from(["5e-324", "1e-300", "2.2250738585072014e-308", "2e-7", "-5e-324"])
_WILD_INT = st.one_of(
    _HUGE_INT.map(str),
    _HUGE_INT.map(lambda n: str(-n)),
    st.integers(-5, 1).map(str),
    _NOT_A_NUMBER,
    _HUGE_FLOAT,
)
_WILD_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    _HUGE_FLOAT,
    _TINY_FLOAT,
    _NOT_A_NUMBER,
    st.sampled_from(["0", "-0.0", "-1"]),
)


def _choice(*values):
    return st.sampled_from([str(v) for v in values])


def _count_list(*counts):
    """A comma-separated list of the given counts."""
    return st.lists(_choice(*counts), min_size=1, max_size=3).map(",".join)


def _wild_list(*counts):
    """A malformed count list, or a list with wild items."""
    item = st.one_of(_choice(*counts), _WILD_INT)
    return st.one_of(
        st.lists(item, min_size=1, max_size=4).map(",".join),
        _choice("", ",", ",,", "4,,8", "4;8", " 4", "4 8", "a,b", "1e3", "4,-8"),
    )


_MARKETS = (CONSTANT, STATE)
_ALL_CONFIGS = _choice(CONSTANT, STATE, FIXED, _CONFIGS / "missing.json")
# (well-formed values, wild values or None) for each flag.  --paths is always
# given and stays small (its wild values are never positive), so every
# command finishes in milliseconds and runs one chunk, which starts no
# thread; --workers outside [1, MAX_WORKERS] is a usage error before any
# chunk runs, and every other number is fuzzed freely.
_COMMON = {
    "--paths": (st.integers(1, 6).map(str), st.one_of(
        st.integers(-(10**40), 0).map(str), _NOT_A_NUMBER, _HUGE_FLOAT)),
    "--seed": (st.integers(0, 2**64 - 1).map(str), _WILD_INT),
    "--workers": (st.integers(1, 4).map(str), _WILD_INT),
}
_OPTIONS = {
    "price": {
        "--config": (_choice(*_MARKETS), _ALL_CONFIGS),
        "--method": (_choice("closed", "semi", "mc", "classical"), None),
        "--strike": (_choice(80.5, 100.0, 120.0), _WILD_FLOAT),
        "--t": (_choice(0.0, 0.5, 0.8, 0.85), _WILD_FLOAT),
        "--spot": (_choice(50.0, 100.0), _WILD_FLOAT),
        "--kind": (_choice("call", "put"), None),
    },
    "simulate": {
        "--config": (_choice(CONSTANT, STATE, FIXED), _ALL_CONFIGS),
        "--scheme": (_choice("exact", "em", "split"), None),
        "--dt": (_choice(0.25, 0.0625, 2.0**-7), _WILD_FLOAT),
        "--measure": (_choice("P", "Q"), None),
    },
    "hedge": {
        "--config": (_choice(*_MARKETS), _ALL_CONFIGS),
        "--strike": (_choice(90.0, 100.0), _WILD_FLOAT),
        "--ladder": (_count_list(1, 4, 16), _wild_list(1, 4, 16)),
    },
    "check": {
        "--config": (_choice(*_MARKETS), _ALL_CONFIGS),
        "--strike": (_choice(90.0, 100.0), _WILD_FLOAT),
    },
    "convergence": {
        "--config": (_choice(FIXED), _ALL_CONFIGS),
        "--steps": (_count_list(4, 8, 16, 32), _wild_list(4, 8, 16, 32)),
    },
}
_ALWAYS = ("--config", "--paths", "--method", "--strike")


@st.composite
def _argv(draw):
    """A subcommand with well-formed flags, one to three numbers or lists wild."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = {**_COMMON, **_OPTIONS[command]}
    fuzzable = sorted(flag for flag, (_, wild) in options.items() if wild is not None)
    wild = draw(st.sets(st.sampled_from(fuzzable), min_size=1, max_size=3))
    argv = [command]
    for flag in sorted(options):
        if flag in wild or flag in _ALWAYS or draw(st.booleans()):
            value = draw(options[flag][flag in wild])
            # "--flag=value" keeps a value such as "-1e300" from reading as a flag
            argv.append(f"{flag}={value}")
    if command == "check" and draw(st.booleans()):
        argv.append("--skip-validation")
    return argv


_SURFACE = {
    "price": ["--method", "--strike", "--kind", "--t", "--spot"],
    "simulate": ["--scheme", "--dt", "--measure"],
    "hedge": ["--strike", "--ladder"],
    "check": ["--strike", "--skip-validation"],
    "convergence": ["--steps"],
}


def test_cli_surface_is_pinned(capsys):
    # adding or removing a flag must show up here as a test change
    [sub] = [a for a in cli.build_parser()._actions if a.choices and a.dest == "command"]
    common = ["-h", "--help", "--config", "--seed", "--paths", "--workers"]
    got = {name: [opt for action in parser._actions for opt in action.option_strings]
           for name, parser in sub.choices.items()}
    assert got == {name: common + flags for name, flags in _SURFACE.items()}
    # the Simpson panel count is a constant of quadrature, not an option
    code = cli.main(["price", "--config", CONSTANT, "--method", "closed", "--strike", "100",
                     "--t", "0.8", "--quad-n", "64"])
    assert (code, capsys.readouterr().out) == (cli.EXIT_CONFIG, "")


# Inputs that once escaped main with a traceback.
@example(["simulate", f"--config={FIXED}", "--paths=2", "--seed=--"])
@example(["price", f"--config={STATE}", "--method=closed", "--kind=put", "--paths=6",
          "--spot=5e-324", "--strike=80.5", "--t=0.8"])
@example(["price", f"--config={STATE}", "--method=classical", "--paths=1", "--strike=100",
          "--quad-n=1000000000000"])
@example(["simulate", f"--config={FIXED}", "--paths=2", "--scheme=em", "--dt=5e-324"])
@example(["convergence", f"--config={FIXED}", "--paths=2", "--steps=1000000000000"])
@example(["hedge", f"--config={STATE}", "--paths=2", "--strike=100",
          "--ladder=4,1000000000000"])
@settings(max_examples=300, deadline=None)
@given(_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    _assert_exits_cleanly(argv)


def _assert_exits_cleanly(argv):
    """Run main on argv and check the exit contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception escaping main is a traceback
    out, err = out.getvalue(), err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
    assert "Traceback" not in err
    if code == cli.EXIT_CHECK_FAILED:
        # the one non-zero exit that reports: a complete check table with a failure
        lines = out.splitlines()
        assert argv[0] == "check" and lines[0] == "check,estimate,std_error,status"
        assert all(line.count(",") == 3 for line in lines[1:])
        assert any(line.endswith(",fail") for line in lines[1:])
    elif code != cli.EXIT_OK:
        assert out == ""


# --- config fuzzing ----------------------------------------------------------

_MOVING_AVERAGE = {"a": 0.125, "drift": {"kind": "moving-average", "c": 0.1}}
# The shipped configs, plus the fixed-delay one with a moving-average drift.
_CONFIG_BASES = {
    "constant": (CONSTANT, {}),
    "state": (STATE, {}),
    "fixed": (FIXED, {}),
    "moving": (FIXED, _MOVING_AVERAGE),
}
# Small commands for each kind of config; argv follows the "--config=" flag.
_MARKET_COMMANDS = (
    ("price", "--method=closed", "--strike=100", "--t=0.8"),
    ("price", "--method=classical", "--strike=100", "--t=0.8"),
    ("price", "--method=semi", "--strike=100", "--paths=3"),
    ("price", "--method=mc", "--strike=100", "--paths=3"),
    ("hedge", "--strike=100", "--ladder=4", "--paths=3"),
    ("check", "--paths=3"),
    ("simulate", "--paths=2"),
)
_SFDE_COMMANDS = (
    ("simulate", "--scheme=em", "--dt=0.0625", "--paths=2"),
    ("simulate", "--scheme=split", "--dt=0.0625", "--paths=2"),
    ("convergence", "--steps=8,16", "--paths=3"),
)
_WILD_NUMBER = st.sampled_from([
    math.nan, math.inf, -math.inf,
    1e300, -1e300, 1.7976931348623157e308, 1e308,
    5e-324, -5e-324, 1e-300, 1e-9,
    0.0, -0.0, -1.0, -0.25,
])


def _base_config(base):
    path, changes = _CONFIG_BASES[base]
    cfg = json.loads(Path(path).read_text())
    cfg.update(copy.deepcopy(changes))  # _write_config writes into nested objects
    return cfg


# Values of the wrong JSON type for any key: strings, lists, null, objects.
# JSON true and numeric strings are not numbers either.
_WRONG_TYPE = st.sampled_from(["abc", "", [], [1.0], None, {}, {"kind": "x"}, True, "0.4"])


def _number_keys(cfg, prefix=""):
    """Dotted keys of the numbers in a config."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _number_keys(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)):
            yield prefix + key


def _keys(cfg, prefix=""):
    """Dotted keys of every value in a config, objects and their members."""
    for key, value in cfg.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _keys(value, f"{prefix}{key}.")


def _commands(base):
    return _SFDE_COMMANDS if "drift" in _base_config(base) else _MARKET_COMMANDS


@st.composite
def _wild_config(draw):
    """A shipped config with one to three values wild, and a command reading it.

    A number may become another number; any value may become one of the
    wrong JSON type.
    """
    base = draw(st.sampled_from(sorted(_CONFIG_BASES)))
    cfg = _base_config(base)
    numbers = set(_number_keys(cfg))
    keys = draw(st.sets(st.sampled_from(sorted(_keys(cfg))), min_size=1, max_size=3))
    # the members of a replaced object are gone
    keys = [key for key in sorted(keys) if not any(key.startswith(k + ".") for k in keys)]
    wild = {key: draw(st.one_of(_WILD_NUMBER, _WRONG_TYPE) if key in numbers else _WRONG_TYPE)
            for key in keys}
    return base, wild, draw(st.sampled_from(_commands(base)))


def _write_config(directory, base, wild):
    """Write the base config with the ``wild`` values; the key "" replaces
    the whole document."""
    cfg = _base_config(base)
    for dotted, value in wild.items():
        if not dotted:
            cfg = value
            continue
        *outer, last = dotted.split(".")
        node = cfg
        for key in outer:
            node = node[key]
        node[last] = value
    path = Path(directory) / "cfg.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity are JSON extensions json reads
    return str(path)


_EM = _SFDE_COMMANDS[0]
_SPLIT = _SFDE_COMMANDS[1]
_CONVERGENCE = _SFDE_COMMANDS[2]
_CLOSED = _MARKET_COMMANDS[0]
_MC = _MARKET_COMMANDS[3]
# Config numbers that once escaped main with a traceback, exited 3, ran
# out of memory or were accepted although not finite.
_CONFIG_REPROS = [
    ("fixed", {"T": math.nan}, _EM),
    ("moving", {"a": 1e308}, _EM),
    ("moving", {"a": 1e308}, _CONVERGENCE),
    ("fixed", {"drift.c": math.nan}, _SPLIT),
    ("fixed", {"a": math.nan}, _EM),
    ("fixed", {"L": 1e9}, _EM),
    ("state", {"h": 1e-9}, _MC),
    ("constant", {"rate.rate": -1e300}, _CLOSED),
    ("constant", {"rate.rate": math.nan}, _CLOSED),
    ("constant", {"s0": 5e-324}, _CLOSED),
]


@pytest.mark.parametrize("base, wild, command", _CONFIG_REPROS, ids=[
    f"{base}-{','.join(f'{k}={v}' for k, v in wild.items())}-{command[0]}"
    for base, wild, command in _CONFIG_REPROS
])
def test_config_numbers_are_checked_at_the_boundary(tmp_path, capsys, base, wild, command):
    config = _write_config(tmp_path, base, wild)
    _fails_with_one_error_line(capsys, [command[0], f"--config={config}", *command[1:]])


@pytest.mark.parametrize("command", [_EM, _CONVERGENCE], ids=lambda c: c[0])
def test_a_drift_lag_longer_than_the_history_is_a_usage_error(tmp_path, capsys, command):
    # the moving-average window would read history before -L = -0.25
    config = _write_config(tmp_path, "moving", {"a": 0.5})
    line = _fails_with_one_error_line(capsys, [command[0], f"--config={config}", *command[1:]])
    assert line == "error: need 0 < a <= L, got a=0.5, L=0.25"


# Config values of the wrong JSON type that once escaped main with a traceback.
_TYPE_REPROS = [
    ("constant", {"": []}, _CLOSED),
    ("constant", {"h": "abc"}, _CLOSED),
    ("constant", {"h": [1]}, _CLOSED),
    ("constant", {"h": 10**400}, _CLOSED),
    ("constant", {"g_expr": 5}, _CLOSED),
    ("constant", {"g_min": None}, _CLOSED),
    ("constant", {"rate.rate": "x"}, _CLOSED),
    ("fixed", {"drift": "x"}, _CONVERGENCE),
    ("constant", {"h": True}, _CLOSED),
    ("constant", {"h": "0.4"}, _CLOSED),
    ("constant", {"rate.rate": True}, _CLOSED),
    ("state", {"g_min": "0.05"}, _CLOSED),
    ("fixed", {"drift.c": "0.1"}, _CONVERGENCE),
    ("fixed", {"phi_samples": True}, _EM),
    ("fixed", {"L": "0.25"}, _EM),
]


@pytest.mark.parametrize("base, wild, command", _TYPE_REPROS, ids=[
    f"{base}-{','.join(f'{k}={v!r:.12}' for k, v in wild.items())}-{command[0]}"
    for base, wild, command in _TYPE_REPROS
])
def test_config_values_of_the_wrong_type_are_usage_errors(tmp_path, capsys, base, wild,
                                                          command):
    config = _write_config(tmp_path, base, wild)
    line = _fails_with_one_error_line(capsys, [command[0], f"--config={config}", *command[1:]])
    key = next(iter(wild)).split(".")[0]
    assert repr(key) in line if key else "JSON object" in line


@pytest.mark.parametrize("content", [
    b'{"h": "\xff"}',  # not UTF-8
    b'{"h": ' + b"1" * 5000 + b"}",  # past the integer digit limit
    b"[" * 100_000,  # nested past the recursion limit
])
def test_unreadable_config_file_is_usage_error(tmp_path, capsys, content):
    config = tmp_path / "cfg.json"
    config.write_bytes(content)
    line = _fails_with_one_error_line(capsys, [
        "price", "--config", str(config), "--method", "closed", "--strike", "100",
    ])
    assert "could not be read" in line


def test_config_path_to_a_directory_is_usage_error(tmp_path, capsys):
    _fails_with_one_error_line(capsys, [
        "price", "--config", str(tmp_path), "--method", "closed", "--strike", "100",
    ])


def _pinned(examples):
    def pin(test):
        for case in reversed(examples):
            test = example(case)(test)
        return test
    return pin


@_pinned(_CONFIG_REPROS + _TYPE_REPROS)
@settings(max_examples=200, deadline=None)
@given(_wild_config())
def test_fuzzed_config_exits_cleanly(case):
    base, wild, command = case
    with tempfile.TemporaryDirectory() as directory:
        config = _write_config(directory, base, wild)
        _assert_exits_cleanly([command[0], f"--config={config}", *command[1:]])


# --- drift invariance under Q -------------------------------------------------

# Q-measure commands on configs/state_dependent.json; argv follows "--config=".
_Q_COMMANDS = (
    ("price", "--method=closed", "--strike=100", "--t=0.8"),
    ("price", "--method=semi", "--strike=100", "--paths=2000", "--seed=3"),
    ("price", "--method=mc", "--strike=100", "--paths=2000", "--seed=3"),
    ("hedge", "--strike=100", "--ladder=4,16", "--paths=2000", "--seed=3"),
    ("simulate", "--measure=Q", "--paths=3", "--seed=3"),
)


def _q_stdout(directory, f_expr):
    """Exit code and stdout of each Q command with the drift set to f_expr."""
    cfg = json.loads(Path(STATE).read_text())
    cfg["f_expr"] = f_expr
    path = Path(directory) / "cfg.json"
    path.write_text(json.dumps(cfg))
    runs = []
    for command in _Q_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command[0], f"--config={path}", *command[1:]])
        runs.append((code, out.getvalue()))
    return runs


_COEFFICIENT = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False).map(repr)
_DRIFT = st.one_of(
    _COEFFICIENT,
    st.builds("({})*s/(1+s) + ({})*t".format, _COEFFICIENT, _COEFFICIENT),
    st.builds("({})*tanh(s/100) + ({})*t".format, _COEFFICIENT, _COEFFICIENT),
)


@example("0.08")
@example("0.3*s/(1+s) + 0.01*t")
@example("0.2*tanh(s/100) - 0.1*t")
@settings(max_examples=15, deadline=None)
@given(_DRIFT)
def test_q_measure_output_does_not_depend_on_the_drift(f_expr):
    # Under the martingale measure the drift f drops out, bit for bit.
    with tempfile.TemporaryDirectory() as directory:
        shipped = _q_stdout(directory, json.loads(Path(STATE).read_text())["f_expr"])
        assert all(code == cli.EXIT_OK for code, _ in shipped)
        assert _q_stdout(directory, f_expr) == shipped


_WARM_FAULTS = """
import contextlib, io, resource, sys
from delaybs import cli
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == cli.EXIT_OK
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set on glibc only")
def test_warm_mc_price_reuses_its_heap():
    # Under glibc's default thresholds the second run makes about 7,700
    # minor faults: every block faults its freed temporaries in again.
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_FAULTS, "price", "--method", "mc", "--paths", "262144",
         "--config", STATE, "--strike", "100"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_allocator_policy_is_set_once_per_process(monkeypatch, capsys):
    argv = ["price", "--config", CONSTANT, "--method", "classical", "--strike", "100"]
    calls = []
    monkeypatch.setattr(cli, "_mallopt", lambda: lambda param, value: calls.append((param, value)))
    cli._keep_heap.cache_clear()
    try:
        for _ in range(2):
            assert _run(capsys, argv)[0] == cli.EXIT_OK
        # M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 128 MiB, M_ARENA_MAX 1
        assert calls == [(-3, 32 << 20), (-1, 128 << 20), (-8, 1)]

        def missing():
            raise AttributeError("mallopt")

        monkeypatch.setattr(cli, "_mallopt", missing)
        cli._keep_heap.cache_clear()
        expected = _run(capsys, argv)
        assert expected[0] == cli.EXIT_OK
        assert _run(capsys, argv) == expected
    finally:
        cli._keep_heap.cache_clear()
