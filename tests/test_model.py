import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from delaybs import CoefficientExpr, RateCurve, VariableDelayMarket, coeffexpr
from delaybs.coeffexpr import EvalError
from delaybs.errors import ConfigError, DomainError
from delaybs.model import (
    G_SQUARE_LIMIT,
    block_schedule,
    discount_factor,
    floor_block,
    load_config,
    market_from_config,
    sfde_from_config,
    validate_market,
    validation_grid,
)


def test_floor_block_examples():
    assert floor_block(0.7, 0.25) == 0.5
    assert floor_block(0.75, 0.25) == 0.75
    assert floor_block(0.0, 0.3) == 0.0


def test_floor_block_domain_errors():
    with pytest.raises(DomainError):
        floor_block(-0.1, 0.25)
    with pytest.raises(DomainError):
        floor_block(0.1, 0.0)


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_floor_block_idempotent(t, h):
    fb = floor_block(t, h)
    assert floor_block(fb, h) == fb


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_floor_block_brackets(t, h):
    fb = floor_block(t, h)
    # outside the snapping tolerance, kh <= t < kh + h
    if abs(t / h - round(t / h)) > 1e-9:
        assert fb <= t < fb + h


def test_block_schedule_examples():
    assert block_schedule(0.9, 0.25) == [0.0, 0.25, 0.5, 0.75, 0.9]
    assert block_schedule(1.0, 0.5) == [0.0, 0.5, 1.0]
    assert block_schedule(0.1, 0.25) == [0.0, 0.1]


def test_block_schedule_strictly_increasing():
    for T, h in [(0.9, 0.25), (1.0, 0.4), (2.0, 0.3), (0.05, 1.0)]:
        sched = block_schedule(T, h)
        assert sched[0] == 0.0 and sched[-1] == T
        assert all(b > a for a, b in zip(sched, sched[1:]))


def test_discount_factor_examples():
    zero = RateCurve.constant(0.0)
    assert discount_factor(zero, 0.0, 1.0) == 1.0
    flat = RateCurve.constant(0.05)
    # analytic antiderivative oracle
    assert discount_factor(flat, 0.0, 1.0) == pytest.approx(math.exp(-0.05), rel=1e-14)
    assert discount_factor(flat, 0.3, 0.3) == 1.0
    with pytest.raises(DomainError):
        discount_factor(flat, 0.5, 0.2)


@pytest.mark.parametrize(
    "curve",
    [
        RateCurve.constant(0.05),
        RateCurve.piecewise([0.0, 0.3, 0.7, 1.0], [0.02, 0.05, 0.04]),
        RateCurve.samples([0.0, 0.25, 0.6, 1.0], [0.01, 0.03, 0.05, 0.02]),
    ],
)
def test_discount_multiplicative(curve):
    for t1, t2, t3 in [(0.0, 0.5, 1.0), (0.1, 0.31, 0.8), (0.0, 0.7, 0.95)]:
        lhs = discount_factor(curve, t1, t3)
        rhs = discount_factor(curve, t1, t2) * discount_factor(curve, t2, t3)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sampled_curve_interpolates():
    curve = RateCurve.samples([0.0, 1.0], [0.0, 0.1])
    assert curve.rate(0.5) == pytest.approx(0.05)
    assert curve.integral(0.0, 1.0) == pytest.approx(0.05, rel=1e-14)


def test_piecewise_curve_holds_its_end_rates_outside_its_edges():
    curve = RateCurve.piecewise([0.0, 0.3, 0.6, 1.0], [0.05, 0.02, 0.04])
    assert curve.rate(1.5) == 0.04
    assert curve.rate(-0.2) == 0.05
    # 0.05 * 0.5 held before 0, then 0.05 * 0.3 + 0.02 * 0.15
    assert curve.integral(-0.5, 0.45) == pytest.approx(0.025 + 0.015 + 0.003, rel=1e-14)
    # 0.04 * 0.2 inside, then 0.04 * 0.4 held past 1
    assert curve.integral(0.8, 1.4) == pytest.approx(0.008 + 0.016, rel=1e-14)


def _market(g_expr, f_expr="0.08", g_min=0.1):
    return VariableDelayMarket(
        h=0.25,
        T=1.0,
        s0=100.0,
        f=CoefficientExpr.parse(f_expr),
        g=CoefficientExpr.parse(g_expr),
        rate=RateCurve.constant(0.05),
        g_min=g_min,
    )


def test_validation_grid_is_built_once_and_read_only():
    ts, ss = validation_grid(_market("0.2"))
    again = validation_grid(_market("0.3", f_expr="0.01"))  # same T and s0
    assert again[0] is ts and again[1] is ss
    for grid in (ts, ss):
        with pytest.raises(ValueError):
            grid[0] = 1.0


def test_evaluator_is_compiled_once():
    g = CoefficientExpr.parse("0.1 + 0.1*s/(1+s)")
    assert g.compiled is g.compiled
    assert g(0.3, 50.0) == g.vec(0.3, 50.0) == 0.1 + 0.1 * 50.0 / (1 + 50.0)
    assert type(g(0.3, 50.0)) is float


def test_validate_constant_above_bound():
    assert validate_market(_market("0.2")) == []


def test_validate_zero_crossing():
    violations = validate_market(_market("s - 1", g_min=0.1))
    assert violations
    assert any("g_min" in v.message for v in violations)


def test_validate_nonfinite_drift():
    violations = validate_market(_market("0.2", f_expr="log(s - 20000)"))
    assert violations
    assert any("f" in v.message for v in violations)


def _validate_full_grid(market):
    """Reference: every coefficient at every grid point, as (where, repr, message),
    by the strict scalar walker of tests/test_coeffexpr.py."""
    from test_coeffexpr import _reference_evaluate

    ts, ss = validation_grid(market)
    out = []
    for t in ts:
        for s in ss:
            for name, expr in (("f", market.f), ("g", market.g)):
                try:
                    value = _reference_evaluate(expr.ast, t, s)
                except EvalError as exc:
                    out.append(((t, s), "nan", f"{name} failed to evaluate: {exc}"))
                    continue
                if not math.isfinite(value):
                    out.append(((t, s), repr(value), f"{name} is non-finite"))
                elif name == "g" and math.isinf(value * value):
                    out.append(((t, s), repr(value), "g squared is non-finite"))
                elif name == "g" and abs(value) < market.g_min:
                    out.append(((t, s), repr(value), f"|g| below g_min={market.g_min}"))
    return out


def _as_rows(violations):
    return [(v.where, repr(v.value), v.message) for v in violations]


# Grid values on the T = 1, s0 = 100 market of ``_market``, so that drawn
# constants can land exactly on a grid point (log(0), 1/0, sqrt(0)).
_TS, _SS = np.linspace(0.0, 1.0, 129), np.geomspace(1.0, 10_000.0, 65)
_C = st.one_of(st.floats(-0.2, 1.2), st.sampled_from([float(t) for t in _TS]))
_K = st.one_of(st.floats(-10.0, 12_000.0), st.sampled_from([float(s) for s in _SS]))
_SCALE = st.floats(1e-4, 0.3)


def _num(x):
    return f"({x!r})"


# One strategy per dependence class; each mixes clean and faulting forms.
_CONSTANT = st.one_of(
    st.builds(lambda c: _num(c), _SCALE),
    st.builds(lambda c: f"log({_num(c)})", _C),
    st.builds(lambda c: f"1/({_num(c)} - 0.5)", _C),
)
_S_ONLY = st.one_of(
    st.builds(lambda k: f"log(s - {_num(k)})", _K),
    st.builds(lambda k: f"sqrt(s - {_num(k)})", _K),
    st.builds(lambda k: f"(s - {_num(k)})^0.5", _K),
    st.builds(lambda k: f"1/(s - {_num(k)})", _K),
    st.builds(lambda a, k: f"{_num(a)} * s/({_num(k)} + s)", _SCALE, _K),
    st.just("0.1 + 0.1*s/(1+s)"),
)
_T_ONLY = st.one_of(
    st.builds(lambda c: f"1/(t - {_num(c)})", _C),
    st.builds(lambda c: f"log({_num(c)} - t)", _C),
    st.builds(lambda c: f"sqrt(t - {_num(c)})", _C),
    st.builds(lambda a, c: f"{_num(a)} + {_num(c)}*t", _SCALE, _C),
)
_T_AND_S = st.one_of(
    st.builds(lambda c, k: f"1/(t - {_num(c)}) + log(s - {_num(k)})", _C, _K),
    st.builds(lambda a, k: f"{_num(a)}*t + sqrt(s - {_num(k)})", _SCALE, _K),
    st.builds(lambda c, k: f"(s - {_num(k)})^0.5 * (t - {_num(c)})", _C, _K),
)
_EXPRS = st.one_of(_CONSTANT, _S_ONLY, _T_ONLY, _T_AND_S)


@pytest.mark.parametrize(
    "strategy, uses_t, uses_s",
    [(_CONSTANT, False, False), (_S_ONLY, False, True),
     (_T_ONLY, True, False), (_T_AND_S, True, True)],
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_expression_classes_have_their_dependence(strategy, uses_t, uses_s, data):
    compiled = CoefficientExpr.parse(data.draw(strategy)).compiled
    assert (compiled.uses_t, compiled.uses_s) == (uses_t, uses_s)


# No shrink phase: each shrink step re-runs a Python walk of the whole
# grid, so a regression would stall for minutes before it is reported.
@settings(max_examples=40, deadline=None, phases=set(Phase) - {Phase.shrink})
@given(_EXPRS, _EXPRS, st.floats(1e-3, 0.3))
def test_validate_matches_full_grid_reference(f_expr, g_expr, g_min):
    market = _market(g_expr, f_expr=f_expr, g_min=g_min)
    assert _as_rows(validate_market(market)) == _validate_full_grid(market)


@pytest.mark.parametrize(
    "f_expr, g_expr",
    [
        ("log(s - 150)", "0.2"),  # s-only f, constant g
        ("0.08", "1/(t - 0.5)"),  # t-only g, hits t = 0.5 exactly
        ("sqrt(s - 300) + t", "(s - 20)^0.5"),  # both faulting, interleaved
        ("1/(t - 0.25)", "0.05 + 0.1*s/(1+s)"),  # g crosses g_min
        ("0.08", "0.001"),  # constant g below g_min everywhere
        ("0.08", "0.1 + 0.1*s/(1+s)"),  # valid
        ("0.08", "0.2 + s*1e306"),  # overflows to inf without an EvalError
    ],
)
def test_validate_matches_full_grid_reference_examples(f_expr, g_expr):
    market = _market(g_expr, f_expr=f_expr, g_min=0.1)
    assert _as_rows(validate_market(market)) == _validate_full_grid(market)


def test_the_square_limit_is_the_largest_g_with_a_finite_square():
    above = math.nextafter(G_SQUARE_LIMIT, math.inf)
    assert math.isfinite(G_SQUARE_LIMIT * G_SQUARE_LIMIT) and math.isinf(above * above)
    assert validate_market(_market(repr(G_SQUARE_LIMIT))) == []
    assert validate_market(_market(f"-{G_SQUARE_LIMIT!r}")) == []
    [first, *_] = validate_market(_market(repr(above)))
    assert (first.value, first.message) == (above, "g squared is non-finite")


@pytest.mark.parametrize(
    "f_expr, g_expr, points",
    [
        ("0.08", "0.1 + 0.1*s/(1+s)", 1 + 65),
        ("0.08 + 0.02*t", "0.2", 129 + 1),
        ("0.08", "0.2*(1 + t) + 0*s", 1 + 129 * 65),
    ],
)
def test_validate_evaluates_only_where_coefficients_vary(
    monkeypatch, f_expr, g_expr, points
):
    seen = []
    checked = coeffexpr.Compiled.checked

    def counting(compiled, t, s):
        seen.append(np.broadcast(t, s).size)
        return checked(compiled, t, s)

    monkeypatch.setattr(coeffexpr.Compiled, "checked", counting)
    assert validate_market(_market(g_expr, f_expr=f_expr)) == []
    assert sum(seen) == points


# Faults a plain numpy evaluation hides or misreports, as (source, a point
# where the scalar call fails, its message, the faulting text, and the
# number of grid points where validation of f = source fails).
_EDGE_CASES = [
    ("min(1, exp(1000))", (0.5, 1.0), "exp overflow", "exp(1000)", 129 * 65),
    ("tanh(exp(800))", (0.5, 1.0), "exp overflow", "exp(800)", 129 * 65),
    ("1/(1/s)", (0.5, 0.0), "division by zero", "(1/s)", 0),
    ("1/(1/t)", (0.0, 1.0), "division by zero", "(1/t)", 65),
    ("exp(709.5)", (0.5, 1.0), "exp overflow", "exp(709.5)", 129 * 65),
    ("0^(-1)", (0.5, 1.0), "power failed: 0.0 cannot be raised to a negative power",
     "0^(-1)", 129 * 65),
    # exponent -inf without an inner fault: Python's 0.0 ** -inf is inf
    ("0^(-(s*1e308*10))", (0.5, 1.0), "non-finite power result", "0^(-(s*1e308*10))",
     129 * 65),
    ("-(1/0) + s", (0.5, 1.0), "division by zero", "(1/0)", 129 * 65),
]


@pytest.mark.parametrize("source, point, message, text, n_bad", _EDGE_CASES)
def test_edge_case_faults_in_scalar_calls_and_validation(source, point, message, text, n_bad):
    start = source.index(text)
    span = (start, start + len(text))
    expr = CoefficientExpr.parse(source)
    with pytest.raises(EvalError) as exc:
        expr(*point)
    assert exc.value.span == span
    assert str(exc.value) == f"{message} (source span {span[0]}:{span[1]})"
    rows = _as_rows(validate_market(_market("0.2", f_expr=source)))
    assert len(rows) == n_bad
    assert {row[1:] for row in rows} <= {("nan", f"f failed to evaluate: {exc.value}")}


def test_min_ignores_a_nan_second_argument_as_python_does():
    source = "min(1, s*1e308*10 - s*1e308*10)"  # min(1, nan) for every s > 0
    assert CoefficientExpr.parse(source)(0.5, 1.0) == 1.0
    assert validate_market(_market("0.2", f_expr=source)) == []


def test_vec_stays_finite_where_the_checked_call_faults():
    s = np.array([0.0, 2.0])
    assert np.isfinite(CoefficientExpr.parse("exp(709.5)").vec(0.0, s))
    assert np.array_equal(CoefficientExpr.parse("1/(1/s)").vec(0.0, s), s)


def test_market_from_config_roundtrip(tmp_path):
    cfg = {
        "h": 0.25,
        "T": 0.9,
        "s0": 100.0,
        "f_expr": "0.08",
        "g_expr": "0.1 + 0.1*s/(1+s)",
        "g_min": 0.05,
        "rate": {"kind": "constant", "rate": 0.05},
    }
    market = market_from_config(cfg)
    assert market.h == 0.25
    assert market.g(0.0, 1.0) == pytest.approx(0.15)

    path = tmp_path / "m.json"
    path.write_text('{"h": 0.25}')
    with pytest.raises(ConfigError, match="missing key"):
        market_from_config(load_config(path))
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


# Each message as a text-mode read gives it: offsets count a CRLF or a
# lone CR as one newline, and a BOM is not stripped.
@pytest.mark.parametrize("content, message", [
    (None, "config file not found: {path}"),
    (b'{"h": "\xff"}', "config file {path} could not be read: 'utf-8' codec can't decode"
                       " byte 0xff in position 7: invalid start byte"),
    (b'\xef\xbb\xbf{"h": 1}', "config file {path} is not valid JSON: Unexpected UTF-8 BOM"
                             " (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b'{\r\n  "h": 1,\r\n  "T" 2\r\n}\r\n', "config file {path} is not valid JSON:"
                                         " Expecting ':' delimiter: line 3 column 7 (char 18)"),
    (b'{\r  "h": 1,\r  "T" 2\r}\r', "config file {path} is not valid JSON:"
                                 " Expecting ':' delimiter: line 3 column 7 (char 18)"),
    (b"[1, 2]", "config file {path} must hold a JSON object, got list"),
], ids=["missing", "not_utf8", "bom", "crlf", "cr", "array"])
def test_load_config_error_messages(tmp_path, content, message):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert str(info.value) == message.format(path=path)


def test_load_config_of_a_directory(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(str(tmp_path))
    assert str(info.value) == (
        f"config file {tmp_path} could not be read: [Errno 21] Is a directory: '{tmp_path}'")


def test_load_config_reads_crlf_files(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{\r\n  "h": 0.25,\r  "g_expr": "0.1\\r\\n"\r\n}')
    assert load_config(str(path)) == {"h": 0.25, "g_expr": "0.1\r\n"}


@pytest.mark.parametrize(
    "rate, whole, tail",
    [
        # 0.05*0.3 + 0.02*0.3, and the last rate held from 0.6 to T = 0.9
        ({"kind": "piecewise", "times": [0.0, 0.3, 0.6], "rates": [0.05, 0.02]}, 0.027, 0.004),
        # the trapezoid over [0, 0.4], and the last sample held to T
        ({"kind": "samples", "times": [0.0, 0.4], "rates": [0.01, 0.03]}, 0.023, 0.006),
    ],
)
def test_market_from_config_reads_rate_curves(rate, whole, tail):
    market = market_from_config({
        "h": 0.25, "T": 0.9, "s0": 100.0, "f_expr": "0.08",
        "g_expr": "0.1 + 0.1*s/(1+s)", "g_min": 0.05, "rate": rate,
    })
    assert market.rate.kind == rate["kind"]
    assert market.rate.integral(0.0, 0.9) == pytest.approx(whole, rel=1e-12)
    # [0.7, 0.9] lies past the curve's last time
    assert market.rate.integral(0.7, 0.9) == pytest.approx(tail, rel=1e-12)


def test_market_rejects_invalid_config():
    with pytest.raises(ConfigError, match="validation"):
        market_from_config(
            {
                "h": 0.25,
                "T": 1.0,
                "s0": 100.0,
                "f_expr": "0.08",
                "g_expr": "s - 1",
                "g_min": 0.1,
                "rate": {"kind": "constant", "rate": 0.05},
            }
        )


def test_sfde_from_config():
    sfde = sfde_from_config(
        {
            "L": 0.25,
            "b": 0.25,
            "a": 0.25,
            "T": 1.0,
            "phi_samples": {"times": [-0.25, 0.0], "values": [1.0, 2.0]},
            "drift": {"kind": "segment-point", "c": 0.1, "eps": 0.01},
            "g_expr": "0.2",
        }
    )
    assert sfde.phi(-0.125) == pytest.approx(1.5)
    with pytest.raises(ConfigError):
        sfde_from_config({"L": 0.25})


def test_drift_functional_validation():
    from delaybs import DriftFunctional

    with pytest.raises(ConfigError):
        DriftFunctional("segment-point", c=-1.0)
    with pytest.raises(ConfigError):
        DriftFunctional("sinusoidal", c=1.0)
    DriftFunctional("moving-average", c=0.0)
