"""Arithmetic expressions in the variables t (time) and s (price).

Coefficient functions such as volatilities and drifts are supplied as
plain strings, e.g. ``"0.1 + 0.1*s/(1+s)"``.  The grammar is closed: the
only variables are ``t`` and ``s``, the only functions are ``exp``,
``log``, ``sqrt``, ``tanh``, ``abs`` (unary) and ``min``, ``max``
(binary).  ``^`` is right-associative and unary minus applies to a whole
power, so ``-2^2 == -4``.

Evaluation is pure: the same AST evaluated at the same point always
returns the same bits.  ``compile`` builds the one evaluator, numpy
closures with constant subtrees folded and flags saying whether the
expression depends on ``t`` and on ``s``.  Called plainly, it lets
non-finite values flow through for the caller to check; checked, it also
lists a fault mask for each division, power, ``exp``, ``log`` and
``sqrt``, whose first true entry per element is the :class:`EvalError` a
left-to-right walk stopping at the first bad operation would raise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
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
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Var:
    name: str  # "t" or "s"
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: object
    right: object
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    span: tuple = field(default=(0, 0), compare=False)


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
            return replace(node, span=(offset, close[2] + 1))
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


# numpy forms of every operator and function, keyed as in the AST.
# ``min`` and ``max`` keep Python's rule: the first argument unless the
# second compares strictly below (above) it, so a NaN second argument
# is ignored and min(0.0, -0.0) is 0.0.
_NP_OPS = {
    "neg": np.negative,
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
    "min": lambda a, b: np.where(b < a, b, a)[()],
    "max": lambda a, b: np.where(b > a, b, a)[()],
}


def _pow_faults(out, x, y):
    negative, finite_y, bad = x < 0.0, np.isfinite(y), ~np.isfinite(out)
    return (
        (negative & ~finite_y, "negative base with non-finite exponent"),
        (negative & (y != np.floor(y)), "negative base with non-integer exponent"),
        # Python's float power raises these two; 0.0 ** -inf is inf.
        ((x == 0.0) & finite_y & (y < 0.0),
         "power failed: 0.0 cannot be raised to a negative power"),
        (np.isfinite(x) & finite_y & bad, "power failed: (34, 'Numerical result out of range')"),
        (bad, "non-finite power result"),
    )


# Domain checks of the nodes that can fault: (mask, message) pairs of
# the node's result and arguments, in the order they apply.
_FAULTS = {
    "/": lambda out, x, y: ((y == 0.0, "division by zero"),),
    "^": _pow_faults,
    # np.exp is finite below 709; NaN fails the test too.
    "exp": lambda out, x: ((np.logical_not(x < 709.0), "exp overflow"),),
    "log": lambda out, x: ((x <= 0.0, "log of non-positive value"),),
    "sqrt": lambda out, x: ((x < 0.0, "sqrt of negative value"),),
}


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
            return self.fn(t, s, None)

    def checked(self, t, s):
        """The value and its faults: ``(mask, message, span)`` entries in
        the order a left-to-right walk of the tree meets them, so an
        element's first true mask is the fault that invalidates it."""
        faults = []
        with np.errstate(all="ignore"):
            return self.fn(t, s, faults), faults


def compile(ast):
    """Compile ``ast`` into a numpy closure with constant subtrees folded.

    Folding runs the node closures themselves, so a folded constant has
    the bits the unfolded tree would compute and keeps its faults.
    """
    names = set()
    built = _build(ast, names)
    fn = built if callable(built) else _constant(*built)
    return Compiled(fn, "t" in names, "s" in names)


def _build(ast, names):
    """A (value, faults) pair for a constant subtree, else a closure of
    (t, s, faults).  Adds the names of the variables met to ``names``.
    """
    if isinstance(ast, Lit):
        return ast.value, ()
    if isinstance(ast, Var):
        names.add(ast.name)
        return (lambda t, s, faults: t) if ast.name == "t" else (lambda t, s, faults: s)
    if isinstance(ast, Neg):
        key, children = "neg", (ast.operand,)
    elif isinstance(ast, Bin):
        key, children = ast.op, (ast.left, ast.right)
    else:
        key, children = ast.func, ast.args
    parts = [_build(c, names) for c in children]
    node = _node(_NP_OPS[key], _FAULTS.get(key), ast.span,
                 [p if callable(p) else _constant(*p) for p in parts])
    if any(callable(p) for p in parts):
        return node
    value, faults = Compiled(node, False, False).checked(0.0, 0.0)
    return float(value), tuple((True, message, span) for mask, message, span in faults if mask)


def _node(op, check, span, fns):
    """The closure of one operator node over its children's closures: the
    bare ufunc, and with a ``faults`` list its checks after its children's."""
    if check is None:
        if len(fns) == 1:
            (a,) = fns
            return lambda t, s, faults: op(a(t, s, faults))
        a, b = fns
        return lambda t, s, faults: op(a(t, s, faults), b(t, s, faults))

    def apply(faults, *args):
        out = op(*args)
        if faults is not None:
            faults.extend((mask, message, span) for mask, message in check(out, *args))
        return out

    if len(fns) == 1:
        (a,) = fns
        return lambda t, s, faults: apply(faults, a(t, s, faults))
    a, b = fns
    return lambda t, s, faults: apply(faults, a(t, s, faults), b(t, s, faults))


def _constant(value, faults):
    def constant(t, s, out):
        if out is not None:
            out.extend(faults)
        return value

    return constant


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
    return a == b
