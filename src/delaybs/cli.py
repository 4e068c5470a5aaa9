"""Command-line interface.

Subcommands: ``price``, ``simulate``, ``hedge``, ``check``,
``convergence``.  All output is CSV on stdout with full double
precision, and every numerical result is a pure function of the config,
seed and flags: identical command lines produce byte-identical output
regardless of the worker count.

Exit codes: 0 success, 1 failed statistical checks, 2 configuration or
usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import sys

from . import hedging, measure, paths, pricing, rng
from .errors import ConfigError, ContractError, DelayBsError, IntegrationFailure, NumericalError
from .model import (
    OptionSpec,
    block_schedule,
    load_config,
    market_from_config,
    sfde_from_config,
    validate_market,
    validation_error,
)
from .parallel import finite, map_chunks
from .quadrature import integrate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Streams per engine call in `simulate`; bounds the em/split path buffers.
# One rng group, so no chunk redraws the prefix of a group it starts inside.
SIMULATE_CHUNK = rng.GROUP

# Most --workers threads: each holds one chunk, about 63 MB in `convergence`.
MAX_WORKERS = 32

# glibc's allocator policy for CLI runs, as (mallopt parameter, value):
# M_MMAP_THRESHOLD (-3) at its 32 MiB ceiling keeps arrays up to that
# size on the heap; M_TRIM_THRESHOLD (-1) at 128 MiB keeps a freed
# working set there instead of returning it to the OS (at 64 MiB a
# `convergence` run, whose heap peaks near 70 MB, still returned and
# re-faulted about 10 MB per run); M_ARENA_MAX (-8) at 1 makes the
# --workers threads share the main heap, which holds peak memory at the
# one-thread figure.
_MALLOC_POLICY = ((-3, 32 << 20), (-1, 128 << 20), (-8, 1))


def _fmt(x):
    return f"{x:.17g}"


def _add_common(p):
    p.add_argument("--config", required=True, help="market config JSON file")
    p.add_argument("--seed", type=int, default=rng.DEFAULT_SEED,
                   help="random seed, an integer in [0, 2**64)")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--workers", type=int, default=1)


@functools.cache
def build_parser():
    """The argument parser, built once per process.

    Nothing changes the parser after it is built and ``parse_args``
    returns a fresh namespace on each call, so in-process callers of
    :func:`main` share one.  Its ``subcommands`` map each name to that
    subcommand's parser.
    """
    parser = argparse.ArgumentParser(
        prog="delaybs",
        description="Price and hedge European options under delayed volatility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price a European option")
    _add_common(p)
    p.add_argument("--method", required=True,
                   choices=["closed", "semi", "mc", "classical"])
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--kind", choices=["call", "put"], default="call")
    p.add_argument("--t", type=float, default=0.0, help="valuation time")
    p.add_argument("--spot", type=float, default=None,
                   help="current price (default: initial price)")

    p = sub.add_parser("simulate", help="write simulated paths as CSV")
    _add_common(p)
    p.add_argument("--scheme", choices=["exact", "em", "split"], default="exact")
    p.add_argument("--dt", type=float, default=None,
                   help="grid step for em/split schemes")
    p.add_argument("--measure", choices=["P", "Q"], default="Q")

    p = sub.add_parser("hedge", help="discrete replication report")
    _add_common(p)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--ladder", default="4,16,64",
                   help="comma-separated rebalance counts")

    p = sub.add_parser("check", help="statistical invariant suite")
    _add_common(p)
    p.add_argument("--strike", type=float, default=None,
                   help="strike for pricing checks (default: initial price)")
    p.add_argument("--skip-validation", action="store_true",
                   help="load the market without the coefficient grid check")

    p = sub.add_parser("convergence", help="fixed-delay scheme comparison")
    _add_common(p)
    p.add_argument("--steps", default="256,512",
                   help="comma-separated step counts (finest must be a multiple)")
    parser.subcommands = sub.choices
    return parser


def _counts(text, flag):
    """Comma-separated positive integers from a list flag."""
    try:
        counts = [int(item) for item in text.split(",") if item]
    except ValueError:
        raise ContractError(f"{flag} needs comma-separated integers, got {text!r}") from None
    if not counts or min(counts) < 1:
        raise ContractError(f"{flag} needs counts of at least 1, got {text!r}")
    return counts


class _Key(str):
    """A parsed config's ``repr``, carrying the config as ``cfg``."""


@functools.lru_cache(maxsize=16)
def _build(kind, key):
    """The model of ``key.cfg``.

    A repr of JSON values is exact (NaN and the infinities included) and
    tells 1, 1.0 and true apart, so equal keys are equal parsed configs
    and a cached model is the one a fresh build would give.  A market
    comes with its validation violations; a failed build raises and is
    not cached.
    """
    if kind == "sfde":
        return sfde_from_config(key.cfg)
    market = market_from_config(key.cfg, validate=False)
    return market, tuple(validate_market(market))


def _model(args, kind):
    """The model of ``args.config``, re-read on every call and built once
    per distinct content."""
    cfg = load_config(args.config)
    key = _Key(repr(cfg))
    key.cfg = cfg
    return _build(kind, key)


def _load_market(args):
    market, violations = _model(args, "market")
    if violations:
        raise validation_error(violations)
    return market


def cmd_price(args):
    market = _load_market(args)
    option = OptionSpec(args.strike, args.kind)
    spot = args.spot if args.spot is not None else market.s0
    state = pricing.MarketState(args.t, spot)
    if args.method == "closed":
        result = pricing.price_closed(market, option, state)
    elif args.method == "classical":
        # The oracle's own Simpson rule over [t, T], independent of the
        # block integral the closed form uses.
        R = market.rate.integral(args.t, market.T)
        v = integrate(lambda u: market.g(u, state.s_block) ** 2, args.t, market.T)
        call = pricing.price_classical(spot, args.strike, R, v)
        value = call if args.kind == "call" else pricing.put_price(call, state, option, market)
        result = pricing.PricingResult(value=value, method="classical")
    elif args.method == "semi":
        result = pricing.price_semi(market, option, state, args.paths, args.seed, args.workers)
    else:
        result = pricing.price_mc(market, option, state, args.paths, args.seed, args.workers)
    print("method,value,std_error,n_paths")
    print(f"{result.method},{_fmt(result.value)},{_fmt(result.std_error)},{result.n_paths}")
    return EXIT_OK


def cmd_simulate(args):
    # Everything that can reject the command runs before the CSV header.
    if args.paths < 1:
        raise ContractError(f"need at least one path, got {args.paths}")
    if args.scheme == "exact":
        market = _load_market(args)
        times = [t for t in block_schedule(market.T, market.h) if t > 0.0]

        def chunk(lo, hi):
            return times, paths.exact_values_vec(
                market, args.measure, args.seed, lo, hi, 0.0, market.s0, market.s0, times
            )
    else:
        sfde = _model(args, "sfde")
        if args.dt is None:
            raise ConfigError("--dt is required for the em and split schemes")
        n_steps = paths.grid_steps(sfde, args.dt)[0]
        engine = paths.em_values_vec if args.scheme == "em" else paths.split_values_vec

        def chunk(lo, hi):
            dW = paths.brownian_increments(args.seed, lo, hi, n_steps, args.dt)
            return engine(sfde, args.dt, dW)[:2]

    blocks = map_chunks(chunk, args.paths, args.workers, SIMULATE_CHUNK)
    print("time,value,stream_id")
    sid = 0
    for times, values in blocks:
        for row in values:
            for t, v in zip(times, row):
                print(f"{_fmt(t)},{_fmt(v)},{sid}")
            sid += 1
    return EXIT_OK


def cmd_hedge(args):
    market = _load_market(args)
    option = OptionSpec(args.strike, "call")
    ladder = _counts(args.ladder, "--ladder")
    reports = [
        hedging.replicate(market, option, n_rebalance, args.paths, args.seed, args.workers)
        for n_rebalance in ladder
    ]
    print("n_rebalance,mean_error,rmse,n_paths")
    for report in reports:
        print(
            f"{report.n_rebalance},{_fmt(report.mean_error)},"
            f"{_fmt(report.rmse)},{report.n_paths}"
        )
    return EXIT_OK


def cmd_check(args):
    market, violations = _model(args, "market")
    if violations and not args.skip_validation:
        raise validation_error(violations)
    rows = []
    rows.append(("market_validation", float(len(violations)), 0.0, not violations))

    strike = args.strike if args.strike is not None else market.s0
    option = OptionSpec(strike, "call")

    def seed(offset):  # the checks' own streams, wrapping at the top of the range
        return (args.seed + offset) % rng.SEED_LIMIT

    state = pricing.MarketState(0.0, market.s0)

    if not violations:
        # One simulation of the P paths gives the importance price and
        # the density's plain mean; one of the Q paths gives the call
        # price and its control's plain mean, the discounted terminal price.
        imp, density = measure.importance_price(market, option, args.paths, seed(2), args.workers)
        mean, se, _ = finite(density)
        rows.append(("density_mean", mean, se, abs(mean - 1.0) <= 3.0 * se))

        mc, martingale = pricing.price_mc_joint(
            market, "Q", option, state, args.paths, args.seed, args.workers
        )
        mart_mean, mart_se, _ = finite(martingale)
        rows.append(
            ("martingale_mean", mart_mean, mart_se,
             abs(mart_mean - market.s0) <= 3.0 * mart_se)
        )

        def versus_mc(name, value, other):
            # A control that fits every path exactly leaves an SE of 0, so
            # the deterministic tolerance absorbs the rounding.
            comb = math.hypot(mc.std_error, other.std_error)
            return name, value, comb, abs(value) <= 3.0 * comb + 1e-12 * market.s0

        semi = pricing.price_semi(market, option, state, args.paths, seed(1), args.workers)
        rows.append(versus_mc("semi_vs_mc", semi.value - mc.value, semi))
        rows.append(versus_mc("importance_vs_mc", imp.value - mc.value, imp))
        put = OptionSpec(strike, "put")
        put_mc = pricing.price_mc(market, put, state, args.paths, seed(3), args.workers)
        parity = pricing.put_price(mc.value, state, option, market)
        rows.append(versus_mc("put_parity", put_mc.value - parity, put_mc))

    print("check,estimate,std_error,status")
    all_ok = True
    for name, estimate, se, ok in rows:
        all_ok &= ok
        print(f"{name},{_fmt(estimate)},{_fmt(se)},{'pass' if ok else 'fail'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_convergence(args):
    sfde = _model(args, "sfde")
    steps = _counts(args.steps, "--steps")
    results = paths.fixed_delay_convergence(sfde, steps, args.paths, args.seed, args.workers)
    print("steps,dt,rms_gap,mean_em,mean_split,se_diff")
    for r in results:
        print(
            f"{r['steps']},{_fmt(r['dt'])},{_fmt(r['rms_gap'])},"
            f"{_fmt(r['mean_em'])},{_fmt(r['mean_split'])},{_fmt(r['se_diff'])}"
        )
    return EXIT_OK


_COMMANDS = {
    "price": cmd_price,
    "simulate": cmd_simulate,
    "hedge": cmd_hedge,
    "check": cmd_check,
    "convergence": cmd_convergence,
}


def _parse_args(parser, argv):
    """``parser.parse_args(argv)``, byte for byte.  A leading subcommand
    skips the top-level pass, which would only hand it the rest; what its
    parser leaves over is reported as the top level would."""
    argv = sys.argv[1:] if argv is None else argv
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        args = parser.parse_args(argv)
    else:
        args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    for name, value in vars(args).items():
        # argparse reads "--flag=--" as an empty list instead of a value
        if isinstance(value, list):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    return args


def _mallopt():
    """glibc's ``mallopt``; raises where the C library is not glibc."""
    if not os.confstr("CS_GNU_LIBC_VERSION"):
        raise OSError("the C library is not glibc")
    fn = ctypes.CDLL(None).mallopt
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    return fn


@functools.cache
def _keep_heap():
    """Apply ``_MALLOC_POLICY``, once per process and on glibc only.

    Every block of a Monte Carlo chunk makes fresh 512 KB temporaries.
    Under glibc's dynamic thresholds the freed heap goes back to the OS
    after nearly every block and the next block faults it in again
    (about 7,700 minor faults for a warm ``price --method mc --paths
    262144`` on glibc 2.36); with the policy the heap is reused.  Library
    callers that never enter :func:`main` keep the default allocator.
    """
    try:
        mallopt = _mallopt()
    except (AttributeError, OSError, ValueError):
        return
    for param, value in _MALLOC_POLICY:
        mallopt(param, value)


def main(argv=None):
    _keep_heap()
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        rng.check_seed(args.seed)
        if not 1 <= args.workers <= MAX_WORKERS:
            raise ContractError(f"--workers must be in [1, {MAX_WORKERS}], got {args.workers}")
        return _COMMANDS[args.command](args)
    except (NumericalError, IntegrationFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DelayBsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
