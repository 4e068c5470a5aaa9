"""Arithmetic expressions in the variables t (time) and s (price).

Coefficient functions such as volatilities and drifts are supplied as
plain strings, e.g. ``"0.1 + 0.1*s/(1+s)"``.  The grammar is closed: the
only variables are ``t`` and ``s``, the only functions are ``exp``,
``log``, ``sqrt``, ``tanh``, ``abs`` (unary) and ``min``, ``max``
(binary).  ``^`` is right-associative and unary minus applies to a whole
power, so ``-2^2 == -4``.

Evaluation is pure: the same AST evaluated at the same point always
returns the same bits.  ``compile_strict`` builds the strict scalar
evaluator, a closure tree that raises :class:`EvalError` on any
non-finite intermediate.
``compile`` builds the numpy evaluator used by the quadrature and Monte
Carlo engines: a closure with constant subtrees folded, which lets
non-finite values flow through for the caller to check, and flags
saying whether the expression depends on ``t`` and on ``s``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DelayBsError

__all__ = [
    "ParseError",
    "EvalError",
    "Lit",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "parse",
    "compile_strict",
    "compile",
    "Compiled",
    "to_source",
]

UNARY_FUNCTIONS = ("exp", "log", "sqrt", "tanh", "abs")
BINARY_FUNCTIONS = ("min", "max")


class ParseError(DelayBsError):
    """Syntax or identifier error, with a 0-based byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(DelayBsError):
    """Non-finite evaluation, carrying the offending node's source span."""

    def __init__(self, message, span):
        super().__init__(f"{message} (source span {span[0]}:{span[1]})")
        self.span = span


@dataclass(frozen=True)
class Lit:
    value: float
    span: tuple = (0, 0)


@dataclass(frozen=True)
class Var:
    name: str  # "t" or "s"
    span: tuple = (0, 0)


@dataclass(frozen=True)
class Neg:
    operand: object
    span: tuple = (0, 0)


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: object
    right: object
    span: tuple = (0, 0)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    span: tuple = (0, 0)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == m.start():
            # skip leading whitespace manually to report the right offset
            stripped = pos
            while stripped < n and source[stripped].isspace():
                stripped += 1
            if stripped >= n:
                break
            raise ParseError(f"unexpected character {source[stripped]!r}", stripped)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.next()

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                node = Bin(text, node, rhs, (node.span[0], rhs.span[1]))
            else:
                return node

    # term := factor (('*'|'/') factor)*
    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.factor()
                node = Bin(text, node, rhs, (node.span[0], rhs.span[1]))
            else:
                return node

    # factor := '-' factor | power
    # Unary minus applies to the whole power: -2^2 parses as -(2^2).
    def factor(self):
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.next()
            operand = self.factor()
            return Neg(operand, (offset, operand.span[1]))
        return self.power()

    # power := atom ('^' factor)?   (right-associative)
    def power(self):
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            rhs = self.factor()
            return Bin("^", node, rhs, (node.span[0], rhs.span[1]))
        return node

    def atom(self):
        kind, text, offset = self.next()
        if kind == "num":
            return Lit(float(text), (offset, offset + len(text)))
        if kind == "ident":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                return self.call(text, offset)
            if text in ("t", "s"):
                return Var(text, (offset, offset + len(text)))
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            close = self.expect_op(")")
            return _with_span(node, (offset, close[2] + 1))
        raise ParseError("expected a number, variable, function or '('", offset)

    def call(self, name, offset):
        if name not in UNARY_FUNCTIONS and name not in BINARY_FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", offset)
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, text, toff = self.peek()
            if kind == "op" and text == ",":
                self.next()
                args.append(self.expr())
            elif kind == "op" and text == ")":
                close = self.next()
                break
            else:
                raise ParseError("expected ',' or ')'", toff)
        arity = 1 if name in UNARY_FUNCTIONS else 2
        if len(args) != arity:
            raise ParseError(
                f"{name} takes {arity} argument(s), got {len(args)}", offset
            )
        return Call(name, tuple(args), (offset, close[2] + 1))


def _with_span(node, span):
    """Rebuild a node with a widened span (frozen dataclasses)."""
    if isinstance(node, Lit):
        return Lit(node.value, span)
    if isinstance(node, Var):
        return Var(node.name, span)
    if isinstance(node, Neg):
        return Neg(node.operand, span)
    if isinstance(node, Bin):
        return Bin(node.op, node.left, node.right, span)
    return Call(node.func, node.args, span)


def parse(source):
    """Parse ``source`` into an AST, or raise :class:`ParseError`."""
    if not isinstance(source, str):
        raise TypeError(f"an expression must be a string, got {type(source).__name__}")
    parser = _Parser(source)
    node = parser.expr()
    kind, text, offset = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {text!r}", offset)
    return node


def compile_strict(ast):
    """Compile ``ast`` into the strict scalar evaluator ``fn(t, s)``.

    Each node becomes a closure that evaluates its children left to
    right, then applies its own domain check and float operation, so the
    first fault met raises the same :class:`EvalError`, with the same
    span, that a recursive walk of the tree would.
    """
    if isinstance(ast, Lit):
        value = ast.value
        return lambda t, s: value
    if isinstance(ast, Var):
        if ast.name == "t":
            return lambda t, s: float(t)
        return lambda t, s: float(s)
    if isinstance(ast, Neg):
        x = compile_strict(ast.operand)
        return lambda t, s: -x(t, s)
    if isinstance(ast, Bin):
        children, build = (ast.left, ast.right), _STRICT[ast.op]
    else:
        children, build = ast.args, _STRICT[ast.func]
    return build(*[compile_strict(c) for c in children], ast.span)


def _strict_div(a, b, span):
    def div(t, s):
        x, y = a(t, s), b(t, s)
        if y == 0.0:
            raise EvalError("division by zero", span)
        return x / y

    return div


def _strict_pow(a, b, span):
    def power(t, s):
        x, y = a(t, s), b(t, s)
        if x < 0.0 and not math.isfinite(y):
            raise EvalError("negative base with non-finite exponent", span)
        if x < 0.0 and y != math.floor(y):
            raise EvalError("negative base with non-integer exponent", span)
        try:
            out = x**y
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalError(f"power failed: {exc}", span) from exc
        if not math.isfinite(out):
            raise EvalError("non-finite power result", span)
        return out

    return power


def _strict_exp(a, span):
    def exp(t, s):
        x = a(t, s)
        if x < 709.0:  # math.exp is finite below 709; NaN fails the test too
            return math.exp(x)
        raise EvalError("exp overflow", span)

    return exp


def _strict_log(a, span):
    def log(t, s):
        x = a(t, s)
        if x <= 0.0:
            raise EvalError("log of non-positive value", span)
        return math.log(x)

    return log


def _strict_sqrt(a, span):
    def sqrt(t, s):
        x = a(t, s)
        if x < 0.0:
            raise EvalError("sqrt of negative value", span)
        return math.sqrt(x)

    return sqrt


# Builders of the strict closures, keyed as in the AST.
_STRICT = {
    "+": lambda a, b, span: lambda t, s: a(t, s) + b(t, s),
    "-": lambda a, b, span: lambda t, s: a(t, s) - b(t, s),
    "*": lambda a, b, span: lambda t, s: a(t, s) * b(t, s),
    "/": _strict_div,
    "^": _strict_pow,
    "exp": _strict_exp,
    "log": _strict_log,
    "sqrt": _strict_sqrt,
    "tanh": lambda a, span: lambda t, s: math.tanh(a(t, s)),
    "abs": lambda a, span: lambda t, s: abs(a(t, s)),
    "min": lambda a, b, span: lambda t, s: min(a(t, s), b(t, s)),
    "max": lambda a, b, span: lambda t, s: max(a(t, s), b(t, s)),
}


# numpy forms of every operator and function, keyed as in the AST.
_NP_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.float_power,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}

_NP_VARS = {"t": lambda t, s: t, "s": lambda t, s: s}


class Compiled(NamedTuple):
    """A compiled expression: call it as ``compiled(t, s)``.

    ``uses_t`` / ``uses_s`` say whether the variable occurs in the
    expression; a result that uses neither is a plain float.
    """

    fn: Callable
    uses_t: bool
    uses_s: bool

    def __call__(self, t, s):
        with np.errstate(all="ignore"):
            return self.fn(t, s)


def compile(ast):
    """Compile ``ast`` into a numpy closure with constant subtrees folded.

    Folding uses the same numpy operations as the closure, so a folded
    constant has the bits the unfolded tree would compute.
    """
    names = set()
    built = _build(ast, names)
    fn = built if callable(built) else _constant(built)
    return Compiled(fn, "t" in names, "s" in names)


def _build(ast, names):
    """A float for a constant subtree, else a closure of (t, s).

    Adds the names of the variables met to ``names``.
    """
    if isinstance(ast, Lit):
        return ast.value
    if isinstance(ast, Var):
        names.add(ast.name)
        return _NP_VARS[ast.name]
    if isinstance(ast, Neg):
        op, children = np.negative, (ast.operand,)
    elif isinstance(ast, Bin):
        op, children = _NP_OPS[ast.op], (ast.left, ast.right)
    else:
        op, children = _NP_OPS[ast.func], ast.args
    parts = [_build(c, names) for c in children]
    if not any(callable(p) for p in parts):
        with np.errstate(all="ignore"):
            return float(op(*parts))
    fns = [p if callable(p) else _constant(p) for p in parts]
    if len(fns) == 1:
        (x,) = fns
        return lambda t, s: op(x(t, s))
    a, b = fns
    return lambda t, s: op(a(t, s), b(t, s))


def _constant(value):
    return lambda t, s: value


def to_source(ast):
    """Render an AST back to a parseable string.

    Output is fully parenthesized, so reparsing yields a structurally
    identical tree (spans aside).
    """
    if isinstance(ast, Lit):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{to_source(ast.operand)})"
    if isinstance(ast, Bin):
        return f"({to_source(ast.left)} {ast.op} {to_source(ast.right)})"
    return f"{ast.func}({', '.join(to_source(a) for a in ast.args)})"


def structurally_equal(a, b):
    """Compare two ASTs ignoring source spans."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Lit):
        return a.value == b.value
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, Neg):
        return structurally_equal(a.operand, b.operand)
    if isinstance(a, Bin):
        return (
            a.op == b.op
            and structurally_equal(a.left, b.left)
            and structurally_equal(a.right, b.right)
        )
    return (
        a.func == b.func
        and len(a.args) == len(b.args)
        and all(structurally_equal(x, y) for x, y in zip(a.args, b.args))
    )
