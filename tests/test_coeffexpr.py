import math
import random

import pytest

from delaybs import coeffexpr
from delaybs.coeffexpr import (
    Bin,
    Call,
    EvalError,
    Lit,
    Neg,
    ParseError,
    Var,
    evaluate,
    parse,
    structurally_equal,
    to_source,
)


def ev(source, t=0.0, s=1.0):
    return evaluate(parse(source), t, s)


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
    ast = parse("1 + log(s)")
    with pytest.raises(EvalError) as exc:
        evaluate(ast, 0.0, -1.0)
    start, end = exc.value.span
    assert "1 + log(s)"[start:end] == "log(s)"


def test_division_by_zero():
    with pytest.raises(EvalError):
        ev("1/(s-1)", s=1.0)


def test_negative_base_fractional_power():
    with pytest.raises(EvalError):
        ev("(0-2)^0.5")


def test_precedence():
    assert ev("2+3*4") == 14.0
    assert ev("2^3^2") == 512.0
    assert ev("-2^2") == -4.0


def test_eval_is_pure():
    ast = parse("exp(-t) * (0.1 + 0.1*s/(1+s)) ^ 2")
    a = evaluate(ast, 0.37, 41.5)
    b = evaluate(ast, 0.37, 41.5)
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
    import numpy as np

    ast = parse("0.1 + 0.1*s/(1+s)")
    s = np.array([0.5, 1.0, 2.0])
    vec = coeffexpr.evaluate_vec(ast, 0.0, s)
    for i, si in enumerate(s):
        assert vec[i] == evaluate(ast, 0.0, si)


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
    import numpy as np

    s = np.array([0.5, 1.0, 2.0])
    # a constant expression folds to one float, whatever the inputs' shape
    for source, value in (("0.2", 0.2), ("exp(0)*2 + 2^3", 10.0), ("-(1/0)", -np.inf)):
        out = coeffexpr.compile(parse(source))(np.array([0.0, 0.5]), s)
        assert type(out) is float and out == value
    # folding a subtree keeps the bits of the unfolded arithmetic
    folded = coeffexpr.compile(parse("(0.05 + 0.05) + (0.1*1)*s/(1+s)"))(0.0, s)
    assert np.array_equal(folded, 0.1 + 0.1 * s / (1 + s))


def test_compiled_matches_strict_evaluator_on_corpus():
    import numpy as np

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
                ref = evaluate(ast, ti, si)
            except EvalError:
                continue
            if math.isfinite(ref) and abs(ref) < 1e100:
                assert vec[i] == pytest.approx(ref, rel=1e-9, abs=1e-12), to_source(ast)
                checked += 1
    assert checked > 500
