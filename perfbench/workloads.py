"""The three benchmark workloads: generated argv, output checks, metrics.

Every workload is a fixed list of ``delaybs`` command lines built from
the workload seed alone (the MC ``--seed`` values and the quote grid).
Checks read the captured stdout after the timed passes; each returns
``(name, ok, detail)`` rows that feed ``failed_ratio``.

Both end-to-end "route" metrics are costs in seconds per unit of result,
so that every workload reports the same names.  Each is the median over
the run's passes, except the quote latency: a quote lasts about 25 ms
and this kind of shared host changes speed by tens of percent from one
second to the next, so the median of several hundred quotes follows the
host, while the fastest quote repeats within a few percent from run to
run.

=============  ==================================  ==================================
workload       route_a_s                           route_b_s
=============  ==================================  ==================================
block_mc       mc wall x (SE / 0.01)^2             semi wall x (SE / 0.01)^2
final_block    fastest closed-form quote latency   hedge seconds per 1e6 path-rebalances
sfde_schemes   seconds per 1e6 path-steps,         seconds per 1e6 path-steps,
               segment-point drift                 moving-average drift
=============  ==================================  ==================================
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass

STATE_DEPENDENT = "configs/state_dependent.json"
FIXED_DELAY = "configs/fixed_delay.json"
MOVING_AVERAGE = "perfbench/moving_average.json"


@dataclass
class Cmd:
    key: str
    argv: list
    work: float = 0.0  # units of work behind a throughput metric


@dataclass
class Run:
    cmd: Cmd
    rc: int | None
    out: str
    err: str
    wall: float


@dataclass
class Workload:
    configs: list  # (path, "market" | "sfde"): what set-up loads
    commands: object  # (seed, smoke) -> [Cmd]
    checks: object  # (runs, reference) -> [(name, ok, detail)]
    metrics: object  # ([[Run]]) -> (route_a_s, route_b_s, report)
    busy: tuple  # layers that must record calls in a traced run
    idle: tuple = ()  # (counter, reason) pairs that must stay 0


def mc_seed(seed, salt):
    """MC ``--seed`` for one command, a pure function of the workload seed."""
    return random.Random(f"{seed}:{salt}").getrandbits(32)


def rows(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _by_key(runs):
    out = {}
    for run in runs:
        out.setdefault(run.cmd.key, []).append(run)
    return out


# ---------------------------------------------------------------------------
# block_mc: exact block sampler under Q and P
# ---------------------------------------------------------------------------


def block_mc_commands(seed, smoke):
    n = 1 << (12 if smoke else 18)
    n_check = 1 << (12 if smoke else 16)
    s = str(mc_seed(seed, "price"))
    base = ["--config", STATE_DEPENDENT, "--strike", "100", "--seed", s]
    return [
        Cmd("mc", ["price", "--method", "mc", "--paths", str(n), *base]),
        Cmd("semi", ["price", "--method", "semi", "--paths", str(n), *base]),
        Cmd("mc_w2", ["price", "--method", "mc", "--paths", str(n), "--workers", "2", *base]),
        Cmd("check", ["check", "--config", STATE_DEPENDENT, "--paths", str(n_check),
                      "--seed", str(mc_seed(seed, "check"))]),
    ]


def _estimate(run):
    row = rows(run.out)[0]
    return float(row["value"]), float(row["std_error"])


def block_mc_checks(runs, reference):
    got = {r.cmd.key: r for r in runs}
    (mc, mc_se), (semi, semi_se) = _estimate(got["mc"]), _estimate(got["semi"])
    comb = math.hypot(mc_se, semi_se)
    out = [("mc_vs_semi_3se", abs(mc - semi) <= 3.0 * comb,
            f"mc {mc} semi {semi} combined SE {comb}")]
    out += [(f"check.{row['check']}", row["status"] == "pass", str(row))
            for row in rows(got["check"].out)]
    out.append(("workers2_stdout_identical", got["mc_w2"].out == got["mc"].out, ""))
    return out


def _time_to_1c(run):
    _, se = _estimate(run)
    return run.wall * (se / 0.01) ** 2


def block_mc_metrics(passes):
    per = [_by_key(p) for p in passes]
    report = {
        f"{key}.time_to_1c_s": (median([_time_to_1c(p[key][0]) for p in per]), "s")
        for key in ("mc", "semi", "mc_w2")
    }
    report["check_s"] = (median([p["check"][0].wall for p in per]), "s")
    return report["mc.time_to_1c_s"][0], report["semi.time_to_1c_s"][0], report


# ---------------------------------------------------------------------------
# final_block: closed-form quotes and the final-block hedge
# ---------------------------------------------------------------------------

HEDGE_LADDER = (4, 16, 64)


def quote_grid(seed, n):
    """(strike, t, spot) triples in the final block of state_dependent.json."""
    r = random.Random(f"{seed}:quotes")
    return [(r.uniform(80.0, 120.0), 0.75 + 0.15 * r.random(), r.uniform(85.0, 115.0))
            for _ in range(n)]


def quote_argv(method, strike, t, spot):
    return ["price", "--config", STATE_DEPENDENT, "--method", method,
            "--strike", repr(strike), "--t", repr(t), "--spot", repr(spot)]


def final_block_commands(seed, smoke):
    """The quotes, with a hedge after every quarter of them.

    Interleaving gives the hedge several samples per pass, spread over
    the pass like the quotes.
    """
    quotes = [Cmd("quote", quote_argv("closed", *q)) for q in quote_grid(seed, 8 if smoke else 200)]
    n = 2048 if smoke else 16384
    hedge = Cmd("hedge", ["hedge", "--config", STATE_DEPENDENT, "--strike", "100",
                          "--ladder", ",".join(map(str, HEDGE_LADDER)), "--paths", str(n),
                          "--seed", str(mc_seed(seed, "hedge"))],
                work=n * sum(HEDGE_LADDER))
    quarter = len(quotes) // 4
    return [c for i in range(4) for c in quotes[i * quarter:(i + 1) * quarter] + [hedge]]


def final_block_checks(runs, reference):
    out = []
    for run in runs:
        if run.cmd.key != "quote":
            continue
        strike = float(run.cmd.argv[run.cmd.argv.index("--strike") + 1])
        argv = list(run.cmd.argv)
        argv[argv.index("--method") + 1] = "classical"
        ref = reference(argv)
        if ref.rc != 0:
            out.append(("quote_vs_classical", False, f"reference exited {ref.rc}: {ref.err}"))
            continue
        closed, classical = _estimate(run)[0], _estimate(ref)[0]
        gap = abs(closed - classical)
        out.append(("quote_vs_classical", gap <= 1e-12 * strike,
                    f"{run.cmd.argv}: closed {closed} classical {classical}"))
    hedges = [r for r in runs if r.cmd.key == "hedge"]
    rmse = [float(row["rmse"]) for row in rows(hedges[0].out)]
    out.append(("hedge_rmse_falls", all(b < a for a, b in zip(rmse, rmse[1:])), str(rmse)))
    out.append(("hedge_repeats_identically", all(r.out == hedges[0].out for r in hedges), ""))
    return out


def final_block_metrics(passes):
    quotes = [r.wall for p in passes for r in p if r.cmd.key == "quote"]
    hedges = [r for p in passes for r in p if r.cmd.key == "hedge"]
    rate = median([r.cmd.work / r.wall for r in hedges])
    report = {
        "quote_min_ms": (1e3 * min(quotes), "ms"),
        "quote_p50_ms": (1e3 * median(quotes), "ms"),
        "quote_p95_ms": (1e3 * percentile(quotes, 95), "ms"),
        "quote_samples": (len(quotes), "count"),
        "hedge.path_rebalances_per_s": (rate, "1/s"),
    }
    return min(quotes), 1e6 / rate, report


# ---------------------------------------------------------------------------
# sfde_schemes: EM and splitting for the fixed-delay model
# ---------------------------------------------------------------------------


def sfde_commands(seed, smoke):
    steps = (32, 64, 128) if smoke else (128, 256, 512)
    out = []
    for key, config, n in (("segment", FIXED_DELAY, 1024 if smoke else 8192),
                           ("moving_avg", MOVING_AVERAGE, 512 if smoke else 4096)):
        argv = ["convergence", "--config", config, "--steps", ",".join(map(str, steps)),
                "--paths", str(n), "--seed", str(mc_seed(seed, key))]
        out.append(Cmd(key, argv, work=2 * n * sum(steps)))  # both schemes
    return out


def sfde_checks(runs, reference):
    out = []
    for run in runs:
        table = rows(run.out)
        values = [float(v) for row in table for v in row.values()]
        gaps = [float(row["rms_gap"]) for row in table]
        out.append((f"{run.cmd.key}.finite", all(map(math.isfinite, values)), ""))
        out.append((f"{run.cmd.key}.mean_split_positive",
                    all(float(row["mean_split"]) > 0.0 for row in table), ""))
        out.append((f"{run.cmd.key}.rms_gap_falls",
                    all(b < a for a, b in zip(gaps, gaps[1:])), str(gaps)))
    return out


def sfde_metrics(passes):
    per = [_by_key(p) for p in passes]
    report = {
        f"{key}.path_steps_per_s": (median([p[key][0].cmd.work / p[key][0].wall for p in per]), "1/s")
        for key in ("segment", "moving_avg")
    }
    return (1e6 / report["segment.path_steps_per_s"][0],
            1e6 / report["moving_avg.path_steps_per_s"][0], report)


WORKLOADS = {
    "block_mc": Workload(
        [(STATE_DEPENDENT, "market")],
        block_mc_commands, block_mc_checks, block_mc_metrics,
        busy=("cli", "model", "coeffexpr", "quadrature", "rng", "paths", "measure",
              "pricing", "parallel"),
        idle=(("paths.em.calls", "no fixed-delay work"), ("paths.split.calls", "no fixed-delay work"),
              ("hedging.calls", "no hedge command")),
    ),
    "final_block": Workload(
        [(STATE_DEPENDENT, "market")],
        final_block_commands, final_block_checks, final_block_metrics,
        busy=("cli", "model", "coeffexpr", "quadrature", "rng", "pricing", "hedging",
              "parallel"),
        idle=(("paths.em.calls", "no fixed-delay work"), ("paths.split.calls", "no fixed-delay work"),
              ("measure.path_blocks", "no P-measure sampling")),
    ),
    "sfde_schemes": Workload(
        [(FIXED_DELAY, "sfde"), (MOVING_AVERAGE, "sfde")],
        sfde_commands, sfde_checks, sfde_metrics,
        busy=("cli", "model", "coeffexpr", "rng", "paths"),
        idle=(("quadrature.calls", "the fixed-delay engine integrates nothing"),
              ("measure.path_blocks", "no P-measure sampling"),
              ("hedging.calls", "no hedge command")),
    ),
}
