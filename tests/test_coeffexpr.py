import math
import random

import numpy as np
import pytest

from delaybs import CoefficientExpr, coeffexpr
from delaybs.coeffexpr import (
    Bin,
    Call,
    EvalError,
    Lit,
    Neg,
    ParseError,
    Var,
    parse,
    structurally_equal,
    to_source,
)


def ev(source, t=0.0, s=1.0):
    return CoefficientExpr.parse(source)(t, s)


def test_literal():
    ast = parse("0.2")
    assert isinstance(ast, Lit)
    assert ast.value == 0.2


def test_arithmetic_example():
    assert ev("0.1 + 0.1*s/(1+s)", s=1.0) == pytest.approx(0.15, abs=1e-15)


def test_syntax_error_offset():
    with pytest.raises(ParseError) as exc:
        parse("0.1+*s")
    assert exc.value.offset == 4


@pytest.mark.parametrize("source, offset", [("s @ 2", 2), ("min(s t)", 6), ("s)", 1)])
def test_parse_error_offsets(source, offset):
    # an unknown character, a missing argument separator, trailing input
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.offset == offset


def test_trailing_whitespace_parses():
    assert structurally_equal(parse("s + 1  "), parse("s + 1"))


@pytest.mark.parametrize("source, inner", [("2*(s)", "(s)"), ("1 + (log(s))", "(log(s))")])
def test_parentheses_widen_the_span(source, inner):
    node = parse(source).right
    start, end = node.span
    assert source[start:end] == inner
    assert structurally_equal(node, parse(inner[1:-1]))


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'x'"):
        parse("2*x")


def test_unknown_function():
    with pytest.raises(ParseError, match="unknown function"):
        parse("sin(t)")


def test_arity_checked_at_parse_time():
    with pytest.raises(ParseError, match="takes 2 argument"):
        parse("min(s)")
    with pytest.raises(ParseError, match="takes 1 argument"):
        parse("exp(s, t)")


def test_eval_examples():
    assert ev("exp(-t)*s", t=0.0, s=3.0) == 3.0
    assert ev("max(s, 2)", s=1.0) == 2.0
    with pytest.raises(EvalError):
        ev("log(s)", s=0.0)


def test_eval_error_carries_span():
    with pytest.raises(EvalError) as exc:
        ev("1 + log(s)", 0.0, -1.0)
    start, end = exc.value.span
    assert "1 + log(s)"[start:end] == "log(s)"


def test_division_by_zero():
    with pytest.raises(EvalError):
        ev("1/(s-1)", s=1.0)


def test_negative_base_fractional_power():
    with pytest.raises(EvalError):
        ev("(0-2)^0.5")


@pytest.mark.parametrize(
    "source",
    [
        "(-s)^(exp(700)*exp(700))",  # exponent +inf
        "(-s)^(-exp(700)*exp(700))",  # exponent -inf
        "(-s)^(exp(700)*exp(700) - exp(700)*exp(700))",  # exponent nan
    ],
)
def test_negative_base_non_finite_exponent(source):
    with pytest.raises(EvalError) as exc:
        ev("0.2 + 0*" + source, 0.0, 2.0)
    start, end = exc.value.span
    assert ("0.2 + 0*" + source)[start:end] == source


def test_precedence():
    assert ev("2+3*4") == 14.0
    assert ev("2^3^2") == 512.0
    assert ev("-2^2") == -4.0


def test_eval_is_pure():
    a = ev("exp(-t) * (0.1 + 0.1*s/(1+s)) ^ 2", 0.37, 41.5)
    b = ev("exp(-t) * (0.1 + 0.1*s/(1+s)) ^ 2", 0.37, 41.5)
    assert a == b


def _random_expr(rnd, depth):
    if depth == 0 or rnd.random() < 0.3:
        choice = rnd.random()
        if choice < 0.5:
            return Lit(round(rnd.uniform(0.0, 10.0), 4))
        return Var(rnd.choice("ts"))
    kind = rnd.random()
    if kind < 0.5:
        op = rnd.choice("+-*/^")
        return Bin(op, _random_expr(rnd, depth - 1), _random_expr(rnd, depth - 1))
    if kind < 0.7:
        return Neg(_random_expr(rnd, depth - 1))
    if kind < 0.9:
        func = rnd.choice(coeffexpr.UNARY_FUNCTIONS)
        return Call(func, (_random_expr(rnd, depth - 1),))
    func = rnd.choice(coeffexpr.BINARY_FUNCTIONS)
    return Call(func, (_random_expr(rnd, depth - 1), _random_expr(rnd, depth - 1)))


def test_parse_print_parse_fixpoint_corpus():
    rnd = random.Random(1234)
    for _ in range(1000):
        ast = _random_expr(rnd, rnd.randint(1, 5))
        printed = to_source(ast)
        reparsed = parse(printed)
        assert structurally_equal(ast, reparsed), printed
        assert structurally_equal(reparsed, parse(to_source(reparsed)))


def test_vector_eval_matches_scalar():
    expr = CoefficientExpr.parse("0.1 + 0.1*s/(1+s)")
    s = np.array([0.5, 1.0, 2.0])
    vec = expr.vec(0.0, s)
    for i, si in enumerate(s):
        assert vec[i] == expr(0.0, si)


@pytest.mark.parametrize(
    "source, uses_t, uses_s",
    [
        ("0.2", False, False),
        ("s", False, True),
        ("0.1 + 0.1*s/(1+s)", False, True),
        ("0.2 + 0.05*t", True, False),
        ("t*s", True, True),
    ],
)
def test_compile_dependence_flags(source, uses_t, uses_s):
    compiled = coeffexpr.compile(parse(source))
    assert (compiled.uses_t, compiled.uses_s) == (uses_t, uses_s)


def test_compile_folds_constant_subtrees():
    s = np.array([0.5, 1.0, 2.0])
    # a constant expression folds to one float, whatever the inputs' shape
    for source, value in (("0.2", 0.2), ("exp(0)*2 + 2^3", 10.0), ("-(1/0)", -np.inf)):
        out = coeffexpr.compile(parse(source))(np.array([0.0, 0.5]), s)
        assert type(out) is float and out == value
    # folding a subtree keeps the bits of the unfolded arithmetic
    folded = coeffexpr.compile(parse("(0.05 + 0.05) + (0.1*1)*s/(1+s)"))(0.0, s)
    assert np.array_equal(folded, 0.1 + 0.1 * s / (1 + s))


def test_compiled_matches_reference_walker_on_corpus():
    rnd = random.Random(99)
    points = [(0.0, 1.0), (0.37, 41.5), (0.9, 0.02)]
    t = np.array([p[0] for p in points])
    s = np.array([p[1] for p in points])
    checked = 0
    for _ in range(500):
        ast = _random_expr(rnd, rnd.randint(1, 4))
        vec = np.broadcast_to(coeffexpr.compile(ast)(t, s), t.shape)
        for i, (ti, si) in enumerate(points):
            try:
                ref = _reference_evaluate(ast, ti, si)
            except EvalError:
                continue
            if math.isfinite(ref) and abs(ref) < 1e100:
                assert vec[i] == pytest.approx(ref, rel=1e-9, abs=1e-12), to_source(ast)
                checked += 1
    assert checked > 500


def _reference_evaluate(ast, t, s):
    """The strict scalar walker: a Python float, or the EvalError of the
    first operation, left to right, whose result would be invalid.

    Arithmetic and powers are Python's float operations; ``exp``, ``log``
    and ``tanh`` are numpy's, which differ from ``math``'s in the last
    bits of a few results.
    """
    if isinstance(ast, Lit):
        return ast.value
    if isinstance(ast, Var):
        return float(t) if ast.name == "t" else float(s)
    if isinstance(ast, Neg):
        return -_reference_evaluate(ast.operand, t, s)
    if isinstance(ast, Bin):
        a = _reference_evaluate(ast.left, t, s)
        b = _reference_evaluate(ast.right, t, s)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if ast.op == "/":
            if b == 0.0:
                raise EvalError("division by zero", ast.span)
            return a / b
        if a < 0.0 and not math.isfinite(b):
            raise EvalError("negative base with non-finite exponent", ast.span)
        if a < 0.0 and b != math.floor(b):
            raise EvalError("negative base with non-integer exponent", ast.span)
        try:
            out = a**b
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalError(f"power failed: {exc}", ast.span) from exc
        if not math.isfinite(out):
            raise EvalError("non-finite power result", ast.span)
        return out
    args = [_reference_evaluate(arg, t, s) for arg in ast.args]
    f = ast.func
    if f == "exp":
        out = float(np.exp(args[0])) if args[0] < 709.0 else math.inf
        if not math.isfinite(out):
            raise EvalError("exp overflow", ast.span)
        return out
    if f == "log":
        if args[0] <= 0.0:
            raise EvalError("log of non-positive value", ast.span)
        return float(np.log(args[0]))
    if f == "sqrt":
        if args[0] < 0.0:
            raise EvalError("sqrt of negative value", ast.span)
        return math.sqrt(args[0])
    if f == "tanh":
        return float(np.tanh(args[0]))
    if f == "abs":
        return abs(args[0])
    if f == "min":
        return min(args)
    return max(args)


def _outcome(fn, *args):
    """("value", x) or ("error", type, message, span): what fn(*args) did."""
    try:
        return ("value", fn(*args))
    except EvalError as exc:
        return ("error", type(exc), str(exc), exc.span)


def _same_outcome(a, b):
    """Equal floats of one type (signed zeros alike, or both NaN), or one error."""
    if a[0] == b[0] == "value":
        x, y = a[1], b[1]
        if type(x) is not type(y):
            return False
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    return a == b


# Points with domain faults: s <= 0 (log, sqrt, negative bases), t == s
# (t - s == 0 divides by zero), large s (exp and power overflow, and
# exp's cut-off of 709 exactly), and non-finite or numpy-typed inputs.
_DIFF_POINTS = [
    (0.0, 1.0),
    (0.37, 41.5),
    (0.9, 0.02),
    (0.0, 0.0),
    (0.5, -0.0),
    (1.0, -2.5),
    (-3.0, -1.0),
    (2.0, 2.0),
    (0.25, 800.0),
    (0.25, 709.0),
    (1e3, 1e-300),
    (math.inf, 1.0),
    (0.5, math.nan),
    (np.float64(0.75), np.float64(7.0)),
]


def test_checked_scalar_matches_reference_walker_on_corpus():
    rnd = random.Random(2718)
    faults = values = 0
    for _ in range(1500):
        # Reparse the printed tree so that every node carries a real span.
        source = to_source(_random_expr(rnd, rnd.randint(1, 5)))
        expr = CoefficientExpr.parse(source)
        for t, s in _DIFF_POINTS:
            want = _outcome(_reference_evaluate, expr.ast, t, s)
            got = _outcome(expr, t, s)
            assert _same_outcome(got, want), (source, t, s, got, want)
            if want[0] == "error":
                faults += 1
            else:
                values += 1
    # both branches are well exercised
    assert faults > 2000 and values > 5000, (faults, values)
