"""Self-test of the benchmark harness, at tiny (smoke) sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit,
that a bad command line is counted as a failure instead of crashing the
harness, that the tracer removes every wrapper it installed (also when
a traced name is missing), that traced self times add up to the
traced wall time, and that the tracer's own cost is kept out of the
self time of a layer that makes many small traced calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from time import perf_counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import STATE_DEPENDENT, WORKLOADS, Cmd, quote_grid  # noqa: E402

PROBLEM = run.prepare()
if PROBLEM:
    raise SystemExit(f"selftest: {PROBLEM}")

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _main_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv)
    return rc, out.getvalue().splitlines()


def _bindings():
    """Every attribute of every delaybs module, plus CoefficientExpr's."""
    from delaybs.model import CoefficientExpr

    snap = {("class", k): v for k, v in vars(CoefficientExpr).items()}
    for name, mod in list(sys.modules.items()):
        if name == "delaybs" or name.startswith("delaybs."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    return snap


def test_every_metric_prints_with_its_unit():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for name in WORKLOADS:
            rc, lines = _main_stdout(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                                      "--trace", str(trace), "--smoke"])
            assert rc == 0, (name, trace, rc)
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0, (name, trace, lines)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            for key, unit in expected.items():
                value = result["metrics"][key]["value"]
                assert f"metric {key} = {value!r} {unit}" in lines, (name, key)
                if trace == 0:
                    assert value > 0, (name, key, value)
            if trace == 0:
                assert f"report {name}.failed_ratio = 0.0 ratio" in lines


def test_bad_argv_is_a_failure_not_a_crash():
    bad = Cmd("bad", ["price", "--config", "perfbench/no_such_config.json",
                      "--method", "closed", "--strike", "100"])
    result = run.run_workload("final_block", SEED, 0, False, smoke=True, extra_cmds=[bad])
    assert not result["correct"]
    assert result["failed"] == 1, result["failures"]
    assert "exited 2" in result["failures"][0]
    value, unit = result["report"]["failed_ratio"]
    assert value == 1 / result["attempted"] and unit == "ratio"


def test_wrappers_are_removed():
    from delaybs import pricing

    before = _bindings()
    with tracer.Tracer() as t:
        assert pricing.exact_values_vec is not before[("delaybs.pricing", "exact_values_vec")]
        run.run_pass(WORKLOADS["block_mc"].commands(SEED, True))
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed, changed
    assert t.calls["paths.exact"] > 0


def test_missing_target_raises_and_restores():
    before = _bindings()
    saved = list(tracer.TARGETS)
    tracer.TARGETS.append(("pricing.gone", "delaybs.pricing", "no_such_function"))
    try:
        try:
            with tracer.Tracer():
                pass
        except AttributeError:
            pass
        else:
            raise AssertionError("a missing traced function must raise")
    finally:
        tracer.TARGETS[:] = saved
    after = _bindings()
    assert all(before[k] is after[k] for k in before)


def test_self_times_add_up():
    with tracer.Tracer() as t:
        runs, _ = run.run_pass(WORKLOADS["sfde_schemes"].commands(SEED, True))
    total = sum(r.wall for r in runs)
    own = sum(t.self_s.values())
    # self times partition each cli.main span; the rest is capture overhead
    assert 0.9 * total <= own <= total, (own, total)


def test_quadrature_self_time_excludes_tracer_cost():
    """The smoke final_block quote integrals, traced and untraced.

    Each quote integrates a scalar coefficient over 65 nodes, one traced
    coefficient call per node, so a tracer that charged its per-call cost
    to the caller would report several times the quadrature's own time.
    Untraced, that time is the integrals' time less the time of the same
    coefficient calls made alone.  The ratio is the median of five rounds,
    each taking the fastest of several repetitions per side.
    """
    from delaybs import model, quadrature

    market = model.market_from_config(model.load_config(STATE_DEPENDENT))
    jobs = [(t, spot, lambda u, s=spot: market.g(u, s) ** 2)
            for _, t, spot in quote_grid(SEED, 8)]
    nodes = [(quadrature.simpson_weights(t, market.T, quadrature.DEFAULT_N)[0], spot)
             for t, spot, _ in jobs]

    def integrals():
        start = perf_counter()
        for t, _, fn in jobs:
            quadrature.integrate(fn, t, market.T)
        return perf_counter() - start

    def coefficients():
        start = perf_counter()
        for xs, spot in nodes:
            for x in xs:
                market.g(x, spot)
        return perf_counter() - start

    ratios = []
    for _ in range(5):
        untraced = min(integrals() for _ in range(20)) - min(coefficients() for _ in range(20))
        traced = []
        with tracer.Tracer() as t:
            for _ in range(10):
                before = t.self_s.get("quadrature.integrate", 0.0)
                integrals()
                traced.append(t.self_s["quadrature.integrate"] - before)
        ratios.append(min(traced) / untraced)
    ratio = statistics.median(ratios)
    assert 0.5 <= ratio <= 2.0, ratios


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
