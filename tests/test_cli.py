import json
import math
import warnings
from pathlib import Path

import pytest

from delaybs import cli

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
    cfg = json.loads(open(CONSTANT).read())
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
    cfg = json.loads(open(CONSTANT).read())
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
    cfg = json.loads(open(CONSTANT).read())
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


def _config(tmp_path, base=CONSTANT, **changes):
    cfg = json.loads(open(base).read())
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


def test_check_accepts_the_largest_seed(capsys):
    code, out = _run(capsys, ["check", "--config", CONSTANT, "--paths", "500",
                              "--seed", str(2**64 - 1)])
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    assert out.startswith("check,estimate,std_error,status\n")


# `convergence` stdout as printed while the engines stored paths
# path-major and recomputed the moving-average window at every step.
_CONVERGENCE_HEADER = "steps,dt,rms_gap,mean_em,mean_split,se_diff\n"
_SEGMENT_POINT_OUT = _CONVERGENCE_HEADER + (
    "64,0.015625,0.0039651778217344091,1.1183722635099111,1.1184390950285432,7.2383627766900828e-05\n"
    "128,0.0078125,0.0027713657198350367,1.1184060278966215,1.1184706562605244,5.0584223916342366e-05\n"
    "256,0.00390625,0.0019810894079543987,1.1184024004188278,1.1184865744859089,3.6136915422414007e-05\n"
)
_PROPORTIONAL_OUT = _CONVERGENCE_HEADER + (
    "64,0.015625,0.0070495150942509006,1.1743868931938259,1.1744971885803697,0.00012869019386596434\n"
    "128,0.0078125,0.0049277757204838598,1.174566936702014,1.1746707200059288,8.9948508561322205e-05\n"
    "256,0.00390625,0.0035227322088300542,1.174620341703845,1.1747643919786774,6.4262201781579634e-05\n"
)


@pytest.mark.parametrize("changes, expected", [
    ({}, _SEGMENT_POINT_OUT),
    ({"a": 0.125, "drift": {"kind": "proportional-lagged", "c": 0.3},
      "g_expr": "0.2 + 0.1*s/(1+s)"}, _PROPORTIONAL_OUT),
])
def test_convergence_output_is_unchanged(tmp_path, capsys, changes, expected):
    config = _config(tmp_path, base=FIXED, **changes)
    code, out = _run(capsys, ["convergence", "--config", config, "--steps", "64,128,256",
                              "--paths", "3000", "--seed", "7"])
    assert (code, out) == (cli.EXIT_OK, expected)
