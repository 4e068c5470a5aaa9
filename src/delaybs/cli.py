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
import functools
import json
import math
import sys

from . import hedging, measure, paths, pricing, rng
from .errors import ConfigError, ContractError, DelayBsError, IntegrationFailure, NumericalError
from .model import (
    OptionSpec,
    block_schedule,
    discount_factor,
    load_config,
    market_from_config,
    sfde_from_config,
    validate_market,
    validation_error,
)
from .parallel import accumulate_moments, map_chunks
from .quadrature import DEFAULT_N, integrate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Streams per engine call in `simulate`; bounds the em/split path buffers.
SIMULATE_CHUNK = 1024


def _fmt(x):
    return f"{x:.17g}"


def _add_common(p):
    p.add_argument("--config", required=True, help="market config JSON file")
    p.add_argument("--seed", type=int, default=rng.DEFAULT_SEED,
                   help="random seed, an integer in [0, 2**64)")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--quad-n", type=int, default=DEFAULT_N, dest="quad_n")


@functools.cache
def build_parser():
    """The argument parser, built once per process.

    Nothing changes the parser after it is built and ``parse_args``
    returns a fresh namespace on each call, so in-process callers of
    :func:`main` share one.
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


@functools.lru_cache(maxsize=16)
def _build(kind, key):
    """The model of one config, built from its canonical JSON ``key``.

    Equal keys are equal parsed configs, so a cached model is the one a
    fresh build would give.  A market comes with its validation
    violations; a failed build raises and is not cached.
    """
    cfg = json.loads(key)
    if kind == "sfde":
        return sfde_from_config(cfg)
    market = market_from_config(cfg, validate=False)
    return market, tuple(validate_market(market))


def _model(args, kind):
    """The model of ``args.config``, re-read on every call and built once
    per distinct content."""
    return _build(kind, json.dumps(load_config(args.config), sort_keys=True))


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
        result = pricing.price_closed(market, option, state, args.quad_n)
    elif args.method == "classical":
        # The oracle's own Simpson rule over [t, T], independent of the
        # block integral the closed form uses.
        R = market.rate.integral(args.t, market.T)
        v = integrate(lambda u: market.g(u, state.s_block) ** 2, args.t, market.T, args.quad_n)
        call = pricing.price_classical(spot, args.strike, R, v)
        value = call if args.kind == "call" else pricing.put_price(call, state, option, market)
        result = pricing.PricingResult(value=value, method="classical")
    elif args.method == "semi":
        result = pricing.price_semi(
            market, option, state, args.paths, args.seed, args.workers, args.quad_n
        )
    else:
        result = pricing.price_mc(
            market, option, state, args.paths, args.seed, args.workers, args.quad_n
        )
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
                market, args.measure, args.seed, lo, hi, 0.0, market.s0, market.s0,
                times, args.quad_n,
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
        hedging.replicate(
            market, option, n_rebalance, args.paths, args.seed, args.workers,
            quad_n=args.quad_n,
        )
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
        mean, se = measure.density_mean_check(
            market, args.paths, args.seed, args.workers, args.quad_n
        )
        rows.append(("density_mean", mean, se, abs(mean - 1.0) <= 3.0 * se))

        mart_mean, mart_se, _ = _discounted_terminal_mean(market, args)
        rows.append(
            ("martingale_mean", mart_mean, mart_se,
             abs(mart_mean - market.s0) <= 3.0 * mart_se)
        )

        mc = pricing.price_mc(
            market, option, state, args.paths, args.seed, args.workers, args.quad_n
        )
        semi = pricing.price_semi(
            market, option, state, args.paths, seed(1), args.workers, args.quad_n
        )
        comb = math.hypot(mc.std_error, semi.std_error)
        rows.append(
            ("semi_vs_mc", semi.value - mc.value, comb,
             abs(semi.value - mc.value) <= 3.0 * comb)
        )

        imp = measure.importance_price(
            market, option, args.paths, seed(2), args.workers, args.quad_n
        )
        comb = math.hypot(mc.std_error, imp.std_error)
        rows.append(
            ("importance_vs_mc", imp.value - mc.value, comb,
             abs(imp.value - mc.value) <= 3.0 * comb)
        )

        put = OptionSpec(strike, "put")
        put_mc = pricing.price_mc(
            market, put, state, args.paths, seed(3), args.workers, args.quad_n
        )
        parity = pricing.put_price(mc.value, state, option, market)
        comb = math.hypot(mc.std_error, put_mc.std_error)
        rows.append(
            ("put_parity", put_mc.value - parity, comb,
             abs(put_mc.value - parity) <= 3.0 * comb)
        )

    print("check,estimate,std_error,status")
    all_ok = True
    for name, estimate, se, ok in rows:
        all_ok &= ok
        print(f"{name},{_fmt(estimate)},{_fmt(se)},{'pass' if ok else 'fail'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _discounted_terminal_mean(market, args):
    disc = discount_factor(market.rate, 0.0, market.T)

    def chunk(lo, hi):
        s_T = paths.exact_values_vec(
            market, "Q", args.seed, lo, hi, 0.0, market.s0, market.s0,
            [market.T], args.quad_n,
        )[:, 0]
        return disc * s_T

    return accumulate_moments(chunk, args.paths, args.workers)


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
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # argparse reads "--flag=--" as an empty list instead of a value
        if isinstance(value, list):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    return args


def main(argv=None):
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        rng.check_seed(args.seed)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, IntegrationFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ContractError, DelayBsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
