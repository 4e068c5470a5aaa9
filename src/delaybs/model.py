"""Market models, delay-block arithmetic, rate curves and validation.

Two models live here.  ``VariableDelayMarket`` is the block-delay market:
on each interval ``[kh, (k+1)h)`` the drift ``f`` and volatility ``g``
are frozen at the block-start price.  ``FixedDelaySfde`` is the
fixed-delay model whose diffusion reads the price ``b`` years back and
whose drift is a functional of the path segment.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import coeffexpr
from .errors import ConfigError, DomainError

# Relative tolerance used to snap times intended as block boundaries.
BOUNDARY_SNAP = 1e-12

# Most steps a time grid may have: Simpson panels, em/split steps and
# rebalance dates.  Grids are held in memory and stepped through in
# Python, so a larger count is a mistyped flag, not a finer answer.
MAX_TIME_STEPS = 1 << 20

# Largest |rate| * T: the exponential of a larger rate integral, a
# discount or growth factor, overflows a float.
MAX_RATE_INTEGRAL = 700.0


def is_positive(x):
    """True for a finite x > 0; NaN and infinities fail."""
    return math.isfinite(x) and x > 0.0


def _require_finite(what, values):
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{what} must be finite, got {tuple(values)}")


def floor_block(t, h):
    """Map t to the start kh of its delay block [kh, (k+1)h).

    Times within a relative tolerance of a boundary snap onto it, so a
    time meant as ``3*h`` never lands in the previous block through
    rounding.
    """
    return block_index(t, h) * h


def block_index(t, h):
    """Integer k with kh <= t < (k+1)h, with the same boundary snapping."""
    if h <= 0.0:
        raise DomainError(f"block length must be positive, got {h}")
    if t < 0.0:
        raise DomainError(f"time must be non-negative, got {t}")
    return math.floor((t / h) * (1.0 + BOUNDARY_SNAP))


def time_tolerance(T):
    """Absolute tolerance for a time to count as a block boundary or as T."""
    return BOUNDARY_SNAP * max(T, 1.0)


def block_schedule(T, h):
    """Return [0, h, 2h, ..., T], strictly increasing, ending exactly at T."""
    if T <= 0.0 or h <= 0.0:
        raise DomainError("T and h must be positive")
    k_last = block_index(T, h)
    times = [k * h for k in range(k_last + 1)]
    if T - times[-1] > time_tolerance(T):
        times.append(T)
    else:
        times[-1] = T
    return times


@dataclass(frozen=True)
class RateCurve:
    """Deterministic short-rate curve lambda(t) with exact integrals.

    kind is one of "constant", "piecewise" (piecewise-constant between
    edges) or "samples" (linear interpolation between samples).
    Integrals use the piecewise antiderivative, so discount factors are
    exactly multiplicative across subintervals.
    """

    kind: str
    times: tuple = ()
    values: tuple = ()

    @classmethod
    def constant(cls, rate):
        return cls("constant", (), (float(rate),))

    @classmethod
    def piecewise(cls, edges, rates):
        edges = tuple(float(x) for x in edges)
        rates = tuple(float(x) for x in rates)
        if len(edges) != len(rates) + 1 or not rates:
            raise ConfigError("piecewise curve needs len(times) == len(rates) + 1 >= 2")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigError("piecewise edges must be strictly increasing")
        return cls("piecewise", edges, rates)

    @classmethod
    def samples(cls, times, rates):
        times = tuple(float(x) for x in times)
        rates = tuple(float(x) for x in rates)
        if len(times) != len(rates) or len(times) < 2:
            raise ConfigError("sampled curve needs matching times and rates, >= 2")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("sample times must be strictly increasing")
        return cls("samples", times, rates)

    def rate(self, t):
        if self.kind == "constant":
            return self.values[0]
        if self.kind == "piecewise":
            if t <= self.times[0]:
                return self.values[0]
            for a, b, r in zip(self.times, self.times[1:], self.values):
                if t < b:
                    return r
            return self.values[-1]
        # samples: linear interpolation, clamped at the ends
        return float(np.interp(t, self.times, self.values))

    def integral(self, t1, t2):
        """Exact integral of lambda over [t1, t2]."""
        if t1 > t2:
            raise DomainError(f"need t1 <= t2, got [{t1}, {t2}]")
        if self.kind == "constant":
            return self.values[0] * (t2 - t1)
        if self.kind == "piecewise":
            total = 0.0
            for a, b, r in zip(self.times, self.times[1:], self.values):
                lo = max(a, t1)
                hi = min(b, t2)
                if hi > lo:
                    total += r * (hi - lo)
            # clamp outside the covered range
            if t1 < self.times[0]:
                total += self.values[0] * (min(t2, self.times[0]) - t1)
            if t2 > self.times[-1]:
                total += self.values[-1] * (t2 - max(t1, self.times[-1]))
            return total
        # samples: exact trapezoid of the piecewise-linear interpolant
        ts = [t1]
        ts.extend(x for x in self.times if t1 < x < t2)
        ts.append(t2)
        total = 0.0
        for a, b in zip(ts, ts[1:]):
            total += 0.5 * (self.rate(a) + self.rate(b)) * (b - a)
        return total


def discount_factor(rate, t1, t2):
    """exp(-integral of lambda over [t1, t2]); strictly positive."""
    return math.exp(-rate.integral(t1, t2))


@dataclass(frozen=True)
class CoefficientExpr:
    """A parsed coefficient function of (t, s).

    ``vec`` calls the compiled numpy evaluator, whose ``uses_t`` /
    ``uses_s`` flags say which variables the expression depends on.
    Calling the expression is its checked n = 1 case: a float, or the
    first fault's :class:`~delaybs.coeffexpr.EvalError`.
    """

    source: str
    ast: object = field(compare=False)

    @classmethod
    def parse(cls, source):
        return cls(source, coeffexpr.parse(source))

    @functools.cached_property
    def compiled(self):
        """The numpy evaluator, compiled on first use and kept."""
        return coeffexpr.compile(self.ast)

    def __call__(self, t, s):
        value, faults = self.compiled.checked(float(t), float(s))
        for mask, message, span in faults:
            if mask:
                raise coeffexpr.EvalError(message, span)
        return float(value)

    def vec(self, t, s):
        return self.compiled(t, s)


@dataclass(frozen=True)
class OptionSpec:
    strike: float
    kind: str = "call"  # "call" | "put"

    def __post_init__(self):
        if not is_positive(self.strike):
            raise ConfigError(f"strike must be positive, got {self.strike}")
        if self.kind not in ("call", "put"):
            raise ConfigError(f"option kind must be call or put, got {self.kind!r}")

    def payoff(self, s):
        if self.kind == "call":
            return np.maximum(s - self.strike, 0.0)
        return np.maximum(self.strike - s, 0.0)


@dataclass(frozen=True)
class VariableDelayMarket:
    """Block-delay market: coefficients read the price at the block start."""

    h: float
    T: float
    s0: float
    f: CoefficientExpr
    g: CoefficientExpr
    rate: RateCurve
    g_min: float = 1e-4

    def __post_init__(self):
        if not is_positive(self.h):
            raise ConfigError(f"h must be positive, got {self.h}")
        if not is_positive(self.T):
            raise ConfigError(f"T must be positive, got {self.T}")
        if not is_positive(self.s0):
            raise ConfigError(f"s0 must be positive, got {self.s0}")
        if not is_positive(self.g_min):
            raise ConfigError(f"g_min must be positive, got {self.g_min}")
        if not self.T / self.h <= MAX_TIME_STEPS:
            raise ConfigError(f"T/h must be at most {MAX_TIME_STEPS} blocks, got {self.T / self.h}")
        if not max(abs(r) for r in self.rate.values) * self.T <= MAX_RATE_INTEGRAL:
            raise ConfigError(
                f"rates must be finite with |rate| * T at most {MAX_RATE_INTEGRAL}, "
                f"got {self.rate.values}"
            )


@dataclass(frozen=True)
class DriftFunctional:
    """Catalog of drift functionals for the fixed-delay model.

    segment-point:       f(t, path) = c * S(t - b) + eps      (c > 0, eps >= 0)
    proportional-lagged: f = c * S(t-a) / (1 + S(t-a)) * S(t) (c >= 0)
    moving-average:      f = c * mean(S over [t-a, t]) * S(t) (c >= 0)
    """

    kind: str
    c: float
    eps: float = 0.0

    KINDS = ("segment-point", "proportional-lagged", "moving-average")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown drift kind {self.kind!r}")
        _require_finite("drift c and eps", (self.c, self.eps))
        if self.kind == "segment-point":
            if self.c <= 0.0 or self.eps < 0.0:
                raise ConfigError("segment-point drift needs c > 0 and eps >= 0")
        elif self.c < 0.0:
            raise ConfigError(f"{self.kind} drift needs c >= 0")


@dataclass(frozen=True)
class InitialPath:
    """Sampled initial history on [-L, 0], linearly interpolated."""

    times: tuple
    values: tuple

    @classmethod
    def constant(cls, value, L):
        return cls((-L, 0.0), (float(value), float(value)))

    def __post_init__(self):
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ConfigError("initial path needs matching times and values, >= 2")
        _require_finite("initial path times and values", self.times + self.values)
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("initial path times must be strictly increasing")
        if self.times[-1] != 0.0:
            raise ConfigError("initial path must end at time 0")
        if any(v <= 0.0 for v in self.values):
            raise ConfigError("initial path values must be strictly positive")

    def __call__(self, t):
        return float(np.interp(t, self.times, self.values))


@dataclass(frozen=True)
class FixedDelaySfde:
    """Fixed-delay model: diffusion reads S(t-b), drift reads the segment."""

    L: float
    b: float
    a: float
    phi: InitialPath
    drift: DriftFunctional
    g: CoefficientExpr  # function of s only (t is passed but unused by convention)
    T: float

    def __post_init__(self):
        _require_finite("L, b, a and T", (self.L, self.b, self.a, self.T))
        if not (0.0 < self.b <= self.L):
            raise ConfigError(f"need 0 < b <= L, got b={self.b}, L={self.L}")
        if not (0.0 < self.a <= self.L):
            raise ConfigError(f"need 0 < a <= L, got a={self.a}, L={self.L}")
        if self.T <= 0.0:
            raise ConfigError(f"T must be positive, got {self.T}")
        if self.phi.times[0] > -self.L + 1e-15:
            raise ConfigError("initial path must cover [-L, 0]")


@dataclass(frozen=True)
class Violation:
    """One validation failure at a grid point."""

    where: tuple  # (t, s)
    value: float
    message: str

    def __str__(self):
        t, s = self.where
        return f"{self.message} at (t={t:.6g}, s={s:.6g}): value {self.value!r}"


# Validation grid resolution: documented so users widening the grid know
# what the default covered.
VALIDATION_T_POINTS = 129
VALIDATION_S_POINTS = 65

G_SQUARE_LIMIT = math.sqrt(np.finfo(float).max)  # the largest |g| whose square is finite


def validation_grid(market):
    """The (times, prices) validation grid of ``market``, as read-only arrays.

    The grid depends only on T and s0, so it is built once per pair and
    shared.
    """
    return _validation_grid(market.T, market.s0)


@functools.lru_cache(maxsize=16)
def _validation_grid(T, s0):
    if not (s0 / 100.0 > 0.0 and math.isfinite(100.0 * s0)):
        raise ConfigError(f"s0={s0} puts the validation grid s0/100 .. 100*s0 out of range")
    ts = np.linspace(0.0, T, VALIDATION_T_POINTS)
    ss = np.geomspace(s0 / 100.0, 100.0 * s0, VALIDATION_S_POINTS)
    ts.flags.writeable = False
    ss.flags.writeable = False
    return ts, ss


def validate_market(market):
    """Evaluate f and g over the validation grid; return all violations.

    An empty list means the market is valid: both coefficients evaluate
    without a fault, are finite everywhere on the grid, g_min <= |g| and g*g is finite.
    Each coefficient is evaluated once, in checked mode, on the part of
    the grid where it can vary: every grid point if it uses both ``t``
    and ``s``, every price if it uses only ``s``, every time if it uses
    only ``t`` and one point if it uses neither (evaluation is pure, so
    the skipped points would repeat those bits).  Violations are listed
    per grid point, ``t`` outer, ``s`` inner, ``f`` before ``g``.
    """
    ts, ss = validation_grid(market)
    found = []
    for name, expr in (("f", market.f), ("g", market.g)):
        uses = expr.compiled
        t = ts[:, None] if uses.uses_t else ts[:1, None]
        s = ss if uses.uses_s else ss[:1]
        value, faults = uses.checked(t, s)
        bad = np.zeros((len(t), len(s)), bool)
        for mask, _, _ in faults:
            bad |= mask
        if name == "g":  # |g| <= G_SQUARE_LIMIT is also false where g is NaN or infinite
            size = np.abs(value)
            bad |= ~(size <= G_SQUARE_LIMIT) | (size < market.g_min)
        else:
            bad |= ~np.isfinite(value)
        problems = {}
        if bad.any():
            value, first = np.broadcast_to(value, bad.shape), np.full(bad.shape, -1)
            for k, (mask, _, _) in enumerate(faults):
                first[(first < 0) & mask] = k
            for i, j in np.argwhere(bad).tolist():
                v = float(value[i, j])
                if first[i, j] >= 0:
                    fault = coeffexpr.EvalError(*faults[first[i, j]][1:])
                    problems[i, j] = math.nan, f"{name} failed to evaluate: {fault}"
                elif not math.isfinite(v):
                    problems[i, j] = v, f"{name} is non-finite"
                elif abs(v) > G_SQUARE_LIMIT:
                    problems[i, j] = v, "g squared is non-finite"
                else:
                    problems[i, j] = v, f"|g| below g_min={market.g_min}"
        found.append((uses, problems))
    if not any(problems for _, problems in found):
        return []
    violations = []
    for i, t in enumerate(ts):
        for j, s in enumerate(ss):
            for uses, problems in found:
                problem = problems.get((i if uses.uses_t else 0, j if uses.uses_s else 0))
                if problem is not None:
                    violations.append(Violation((t, s), *problem))
    return violations


def validation_error(violations):
    """The ConfigError for a market whose validation found ``violations``."""
    detail = "; ".join(str(v) for v in violations[:5])
    return ConfigError(
        f"market failed validation with {len(violations)} violation(s): {detail}"
    )


def _rate_from_config(cfg):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("rate must be an object with a 'kind' key")
    kind = cfg["kind"]
    try:
        if kind == "constant":
            return RateCurve.constant(_number(cfg["rate"]))
        if kind == "piecewise":
            return RateCurve.piecewise(_numbers(cfg["times"]), _numbers(cfg["rates"]))
        if kind == "samples":
            return RateCurve.samples(_numbers(cfg["times"]), _numbers(cfg["rates"]))
    except KeyError as exc:
        raise ConfigError(f"rate config missing key {exc}") from exc
    raise ConfigError(f"unknown rate kind {kind!r}")


def _number(value):
    """A JSON number (an int or float, not a bool) as a float.

    Anything else, ``true`` and numeric strings included, is a TypeError
    for :func:`_field` to report with the key's name.
    """
    if type(value) is float:
        return value
    if type(value) is int:  # exact type checks: bool is a subclass of int
        return float(value)
    raise TypeError(f"expected a JSON number, got {type(value).__name__} {value!r:.40}")


def _numbers(values):
    """A JSON list of numbers as a tuple of floats."""
    return tuple(map(_number, values))


def _initial_path(phi_cfg, cfg):
    if isinstance(phi_cfg, dict):
        return InitialPath(_numbers(phi_cfg["times"]), _numbers(phi_cfg["values"]))
    return InitialPath.constant(_number(phi_cfg), _field(cfg, "L", _number))


def _drift(drift_cfg):
    return DriftFunctional(
        kind=drift_cfg["kind"],
        c=_number(drift_cfg["c"]),
        eps=_number(drift_cfg.get("eps", 0.0)),
    )


def _field(cfg, key, convert, *default):
    """``convert`` applied to ``cfg[key]``, or to ``default`` when one is
    given and the key is absent.  A value of the wrong JSON type is a
    ConfigError naming the key; a missing key raises KeyError for the
    caller to report.
    """
    try:
        return convert(cfg.get(key, *default) if default else cfg[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r} has a value of the wrong type: {exc}") from exc


def market_from_config(cfg, validate=True):
    """Build a VariableDelayMarket from a parsed JSON document."""
    try:
        market = VariableDelayMarket(
            h=_field(cfg, "h", _number),
            T=_field(cfg, "T", _number),
            s0=_field(cfg, "s0", _number),
            f=_field(cfg, "f_expr", CoefficientExpr.parse),
            g=_field(cfg, "g_expr", CoefficientExpr.parse),
            rate=_field(cfg, "rate", _rate_from_config),
            g_min=_field(cfg, "g_min", _number, 1e-4),
        )
    except KeyError as exc:
        raise ConfigError(f"market config missing key {exc}") from exc
    except coeffexpr.ParseError as exc:
        raise ConfigError(f"bad coefficient expression: {exc}") from exc
    if validate:
        violations = validate_market(market)
        if violations:
            raise validation_error(violations)
    return market


def sfde_from_config(cfg):
    """Build a FixedDelaySfde from a parsed JSON document."""
    try:
        phi = _field(cfg, "phi_samples", lambda phi_cfg: _initial_path(phi_cfg, cfg))
        drift = _field(cfg, "drift", _drift)
        return FixedDelaySfde(
            L=_field(cfg, "L", _number),
            b=_field(cfg, "b", _number),
            a=_field(cfg, "a", _number),
            phi=phi,
            drift=drift,
            g=_field(cfg, "g_expr", CoefficientExpr.parse),
            T=_field(cfg, "T", _number),
        )
    except KeyError as exc:
        raise ConfigError(f"fixed-delay config missing key {exc}") from exc
    except coeffexpr.ParseError as exc:
        raise ConfigError(f"bad coefficient expression: {exc}") from exc


def load_config(path):
    """Read a JSON config object, with a friendly error naming the path.
    Newlines are translated as in text mode, so error offsets are too."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        cfg = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} could not be read: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {type(cfg).__name__}")
    return cfg
