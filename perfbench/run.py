"""Benchmark for delaybs: three CLI workloads, checked outputs, traced layers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload block_mc --seed 1 --seconds 30 --trace 0

Each command of a workload goes through the public entry point
``delaybs.cli.main(argv)`` in this process, one after another (a closed
loop with one client), with stdout captured.  A pass runs every command
once; passes repeat while another one is expected to end within
``--seconds`` (there is always at least one).
Output checks run after the timed passes and feed ``failed_ratio``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics; the tracer (perfbench/tracer.py) times every call into
each module's public functions from outside the program.

The last stdout line is the JSON result; the lines before it list every
metric with its unit, the run record and any failed check.  Spans and
the full result are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Cmd, Run  # noqa: E402

# Set-up (config load, parse and validation) is timed between commands,
# spread over the whole run like the commands themselves.  After each
# command, set-up samples are taken until they have used SETUP_SHARE of
# the command time so far; a sample repeats set-up until it lasts
# SETUP_SAMPLE_S and reports the time of one repetition.  setup_s is the
# fastest sample: a shared 2-core machine runs in slow and fast phases
# that last seconds (final_block set-up takes about 38 ms or about
# 20 ms), so there the median of a run's samples follows the mix of
# phases (quartile spread 0.375 over five runs) while the fastest sample
# repeats (spread 0.13).
SETUP_SHARE = 0.15
SETUP_SAMPLE_S = 0.01
SETUP_MIN_SAMPLES = 100


def run_cli(cmd):
    """One in-process CLI call; never raises."""
    from delaybs import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(cmd.argv)
    except Exception:  # a crash is a failed command, not a crashed harness
        rc = None
        err.write(traceback.format_exc())
    return Run(cmd, rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def run_reference(argv):
    """A CLI call made by an output check, outside the timed passes."""
    return run_cli(Cmd("reference", argv))


def setup_once(configs):
    """Seconds to load, parse and validate the workload's configs once."""
    from delaybs import model

    build = {"market": model.market_from_config, "sfde": model.sfde_from_config}
    start = time.perf_counter()
    for path, kind in configs:
        build[kind](model.load_config(path))
    return time.perf_counter() - start


class SetupSampler:
    """Times set-up between commands; see SETUP_SHARE."""

    def __init__(self, configs):
        self.configs = configs
        self.reps = max(1, math.ceil(SETUP_SAMPLE_S / min(setup_once(configs)
                                                           for _ in range(3))))
        self.samples = []
        self.spent = self.budget = 0.0

    def sample(self):
        start = time.perf_counter()
        for _ in range(self.reps):
            setup_once(self.configs)
        wall = time.perf_counter() - start
        self.samples.append(wall / self.reps)
        self.spent += wall

    def after_command(self, wall):
        self.budget += SETUP_SHARE * wall
        while self.spent < self.budget:
            self.sample()


def fastest_pass(passes):
    """Seconds for one pass with each command at its fastest in the run.

    Commands sharing a key (the quotes of final_block) count as one
    command.  The median pass wall follows the mix of slow and fast host
    phases within a run (final_block: quartile spread 0.23-0.29 of the
    median over ten runs); the fastest time per command does not.
    """
    fastest = {}
    for runs in passes:
        for r in runs:
            fastest[r.cmd.key] = min(r.wall, fastest.get(r.cmd.key, math.inf))
    return sum(fastest[r.cmd.key] for r in passes[0])


def run_pass(cmds, setup=None):
    """Run every command once; return the runs and the sum of their walls.

    With a SetupSampler, set-up is also timed after each command, outside
    the command timings.
    """
    runs = []
    for cmd in cmds:
        runs.append(run_cli(cmd))
        if setup is not None:
            setup.after_command(runs[-1].wall)
    return runs, sum(r.wall for r in runs)


class Tally:
    """Commands and output checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def commands(self, runs):
        for run in runs:
            self.attempted += 1
            if run.rc != 0:
                self.failed.append(f"command exited {run.rc}: {' '.join(run.cmd.argv)}: "
                                   f"{run.err.strip()[-300:]}")

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed.append(f"check {name} failed {detail}".rstrip())

    def checks(self, fn, *args):
        try:
            rows = fn(*args)
        except Exception as exc:  # unreadable output fails the check, not the harness
            self.check(getattr(fn, "__name__", "checks"), False, f"raised {exc!r}")
            return
        for row in rows:
            self.check(*row)


def layer_metrics(tracer, untraced_wall, traced_wall, speedup_w2):
    calls, counts, s = tracer.calls, tracer.counts, tracer.self_time
    rng_self = s("rng")
    return {
        "model.validate.calls": calls.get("model.validate", 0),
        "model.validate.points": counts.get("model.validate.points", 0),
        "model.validate.self_s": s("model.validate"),
        "coeffexpr.vec.calls": calls.get("coeffexpr.vec", 0),
        "coeffexpr.vec.elems": counts.get("coeffexpr.vec.elems", 0),
        "coeffexpr.scalar.calls": calls.get("coeffexpr.scalar", 0),
        "coeffexpr.self_s": s("coeffexpr"),
        "quadrature.calls": tracer.layer_calls("quadrature"),
        "quadrature.nodes": counts.get("quadrature.nodes", 0),
        "quadrature.node_elems": counts.get("quadrature.node_elems", 0),
        "quadrature.self_s": s("quadrature"),
        "rng.calls": calls.get("rng.normals", 0),
        "rng.draws": counts.get("rng.draws", 0),
        "rng.self_s": rng_self,
        "rng.draws_per_s": counts.get("rng.draws", 0) / rng_self if rng_self > 0 else 0.0,
        "paths.exact.path_blocks": counts.get("paths.exact.path_blocks", 0),
        "paths.exact.self_s": s("paths.exact"),
        "paths.em.calls": calls.get("paths.em", 0),
        "paths.em.self_s": s("paths.em"),
        "paths.split.calls": calls.get("paths.split", 0),
        "paths.split.self_s": s("paths.split"),
        "paths.brownian.self_s": s("paths.brownian"),
        "paths.path_steps": counts.get("paths.path_steps", 0),
        "paths.buffer_bytes": counts.get("paths.buffer_bytes", 0),
        "measure.path_blocks": counts.get("measure.path_blocks", 0),
        "measure.self_s": s("measure"),
        "pricing.closed.calls": calls.get("pricing.closed", 0),
        "pricing.closed.self_s": s("pricing.closed"),
        "pricing.mc.self_s": s("pricing.mc"),
        "pricing.semi.self_s": s("pricing.semi"),
        "hedging.calls": tracer.layer_calls("hedging"),
        "hedging.rebalances": counts.get("hedging.rebalances", 0),
        "hedging.self_s": s("hedging"),
        "parallel.chunks": counts.get("parallel.chunks", 0),
        "parallel.reduce_s": s("parallel"),
        "parallel.speedup_w2": speedup_w2,
        "cli.self_s": s("cli"),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }


def layer_unit(name):
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_bytes", "bytes"),
                         ("_ratio", "ratio"), ("_w2", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_record(workload, seed, seconds, trace, smoke):
    import numpy
    import scipy

    cpu_max = None
    with contextlib.suppress(OSError):
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def run_workload(name, seed, seconds, trace, smoke=False, extra_cmds=()):
    """Run one workload; return the result dict (the JSON line plus extras)."""
    wl = WORKLOADS[name]
    cmds = wl.commands(seed, smoke) + list(extra_cmds)
    tally = Tally()
    report = {}

    passes, walls = [], []
    setup = None if trace else SetupSampler(wl.configs)
    start = time.perf_counter()
    while not passes or (not trace and time.perf_counter() - start
                         + (1.0 + SETUP_SHARE) * statistics.median(walls) <= seconds):
        runs, wall = run_pass(cmds, setup)
        passes.append(runs)
        walls.append(wall)
        tally.commands(runs)
    while setup is not None and len(setup.samples) < SETUP_MIN_SAMPLES:
        setup.sample()

    first = passes[0]
    tally.checks(wl.checks, first[: len(cmds) - len(extra_cmds)], run_reference)
    for i, runs in enumerate(passes[1:], 1):
        same = all(a.out == b.out for a, b in zip(first, runs))
        tally.check(f"pass_{i}_reproduces_pass_0", same)

    if trace:
        with Tracer() as tracer:
            traced, traced_wall = run_pass(cmds)
        tally.commands(traced)
        tally.check("traced_stdout_identical",
                    all(a.out == b.out for a, b in zip(first, traced)))
        speedup = 0.0
        by_key = {r.cmd.key: r for r in first}
        if "mc" in by_key and "mc_w2" in by_key:
            speedup = by_key["mc"].wall / by_key["mc_w2"].wall
        metrics = layer_metrics(tracer, walls[0], traced_wall, speedup)
        silent = [layer for layer in wl.busy if tracer.layer_calls(layer) == 0]
        if silent:
            raise SystemExit(f"perfbench: traced {name} recorded 0 calls into layer(s) "
                             f"{', '.join(silent)}; was a traced function renamed?")
        for counter, reason in wl.idle:
            tally.check(f"{counter} == 0 ({reason})", metrics[counter] == 0,
                        f"got {metrics[counter]}")
        units = {k: layer_unit(k) for k in metrics}
        report["trace.self_s"] = (tracer.self_s["trace"], "s")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{name}-seed{seed}.jsonl")
    else:
        route_a, route_b, report = wl.metrics(passes)
        metrics = {
            "setup_s": min(setup.samples),
            "wall_s": fastest_pass(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "route_a_s": route_a,
            "route_b_s": route_b,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                 "route_a_s": "s", "route_b_s": "s"}

    samples = {}
    for runs in passes:
        for r in runs:
            samples.setdefault(r.cmd.key, []).append(r.wall)
    if setup is not None:
        samples["setup"] = setup.samples
    failed = len(tally.failed)
    report["failed_ratio"] = (failed / tally.attempted, "ratio")
    report["passes"] = (len(passes), "count")
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "report": report,
        "failures": tally.failed,
        "samples": samples,
        "record": run_record(name, seed, seconds, trace, smoke),
    }


def prepare():
    """Import delaybs from this checkout's src/; return a problem or None."""
    package = ROOT / "src" / "delaybs" / "__init__.py"
    if not package.is_file():
        return f"{package} not found; run from a delaybs checkout"
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import delaybs

    if Path(delaybs.__file__).resolve() != package.resolve():
        return f"imported {delaybs.__file__}, expected {package}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    problem = prepare()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    for key, entry in result["metrics"].items():
        print(f"metric {key} = {entry['value']!r} {entry['unit']}")
    for key, (value, unit) in result["report"].items():
        print(f"report {args.workload}.{key} = {value!r} {unit}")
    print("record " + json.dumps(result["record"], sort_keys=True))
    for line in result["failures"]:
        print("FAILED " + line)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
