"""Layer tracer that times delaybs from outside the program.

``Tracer`` replaces each traced public function with a timing wrapper at
every module attribute that binds it (``from .paths import
exact_values_vec`` makes ``pricing.exact_values_vec`` a second binding),
and patches ``CoefficientExpr.vec`` / ``CoefficientExpr.__call__`` on
the class.  Leaving the context restores every original object.

Each call opens a span on a thread-local stack.  A span's self time is
its duration minus the part covered by its child spans; children that
run in ``map_chunks`` worker threads report their intervals back to the
submitting span, whose self time subtracts the union of those intervals.
A child covers the whole of its wrapper, from the wrapper's first clock
reading to its last, so the tracer's own bookkeeping (opening and
closing the span, the per-target counters) is not charged to the
caller's layer.  The parts of a wrapped call that no reading covers
(entering the wrapper, returning from it, the clock reading that opens
the callee's interval) are measured on a no-op when the tracer is
entered and taken off the caller and the callee.  All of this is summed
under ``trace`` instead.  What is left is a fraction of a microsecond
per traced call, which matters only for a layer whose own work between
traced calls is as small: perfbench/selftest.py checks that the
quadrature self time of the final-block quotes (a 65-node integral of
traced scalar coefficient calls) stays within twice its untraced value.
Code that runs between layer boundaries is charged to the innermost
enclosing traced call, except that a chunk closure passed to
``accumulate_moments`` or ``map_chunks`` is charged to the caller that
built it (``price_mc``'s payoff belongs to pricing, not to parallel).

Spans are kept in memory (up to ``MAX_SPANS``) and written out by
``write_spans`` when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import threading
from time import perf_counter

import numpy as np

# (span name, module, attribute).  The layer is the part before the first
# dot.  A missing attribute raises at install time, so a rename in the
# program breaks the benchmark instead of silently reporting zero.
TARGETS = [
    ("cli.main", "delaybs.cli", "main"),
    ("model.load_config", "delaybs.model", "load_config"),
    ("model.market_from_config", "delaybs.model", "market_from_config"),
    ("model.sfde_from_config", "delaybs.model", "sfde_from_config"),
    ("model.validate", "delaybs.model", "validate_market"),
    ("coeffexpr.vec", "delaybs.model", "CoefficientExpr.vec"),
    ("coeffexpr.scalar", "delaybs.model", "CoefficientExpr.__call__"),
    ("quadrature.integrate", "delaybs.quadrature", "integrate"),
    ("quadrature.integrate_nodes", "delaybs.quadrature", "integrate_nodes"),
    ("quadrature.block_integrals_vec", "delaybs.quadrature", "block_integrals_vec"),
    ("quadrature.block_moments", "delaybs.quadrature", "block_moments"),
    ("rng.normals", "delaybs.rng", "normals"),
    ("paths.exact", "delaybs.paths", "exact_values_vec"),
    ("paths.em", "delaybs.paths", "em_values_vec"),
    ("paths.split", "delaybs.paths", "split_values_vec"),
    ("paths.brownian", "delaybs.paths", "brownian_increments"),
    ("paths.convergence", "delaybs.paths", "fixed_delay_convergence"),
    ("measure.density_mean_check", "delaybs.measure", "density_mean_check"),
    ("measure.importance_price", "delaybs.measure", "importance_price"),
    ("pricing.closed", "delaybs.pricing", "price_closed"),
    ("pricing.semi", "delaybs.pricing", "price_semi"),
    ("pricing.mc", "delaybs.pricing", "price_mc"),
    ("pricing.classical", "delaybs.pricing", "price_classical"),
    ("pricing.beta_pm", "delaybs.pricing", "beta_pm"),
    ("pricing.put_price", "delaybs.pricing", "put_price"),
    ("hedging.replicate", "delaybs.hedging", "replicate"),
    ("parallel.map_chunks", "delaybs.parallel", "map_chunks"),
    ("parallel.accumulate_moments", "delaybs.parallel", "accumulate_moments"),
    ("parallel.chunk_ranges", "delaybs.parallel", "chunk_ranges"),
]

# Span fields (a list, not an object, to keep the per-call cost low).
NAME, LAYER, START, CHILD, PARENT, FOREIGN, TID, END = range(8)

MAX_SPANS = 50_000

# wrapper_costs times this many batches of this many no-op calls.
CALIBRATION_BATCHES = 9
CALIBRATION_CALLS = 1000


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _union_within(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _owner(span, skip_layer):
    """Nearest ancestor span (this one included) outside ``skip_layer``."""
    while span is not None and span[LAYER] == skip_layer:
        span = span[PARENT]
    return span


def _noop(t, s):
    pass


class _Probe:
    def __call__(self, t, s):
        pass

    def method(self, t, s):
        pass


def _loop(target, is_method, n):
    start = perf_counter()
    if is_method:
        for _ in range(n):
            target.method(0.5, 1.0)
    else:
        for _ in range(n):
            target(0.5, 1.0)
    return perf_counter() - start


def wrapper_costs():
    """Seconds per wrapped call that the wrapper's clock readings miss.

    Returns ``{kind: (outside, inside)}`` for the three ways a target is
    called: a ``"function"``, a ``"method"`` looked up on an instance, and
    an instance's ``"__call__"``.  ``outside`` is the cost of entering and
    leaving the wrapper, which would otherwise be charged to the caller;
    ``inside`` is the extra cost within the callee's interval against an
    unwrapped call.  Each is the median over CALIBRATION_BATCHES batches
    of calls to a no-op, because the host's speed drifts between batches.
    """
    probe = Tracer()
    plain = _Probe()
    wrapped = type("_TracedProbe", (_Probe,), {
        "method": probe._wrap("probe.method", _Probe.method),
        "__call__": probe._wrap("probe.__call__", _Probe.__call__),
    })()
    forms = {
        "function": (_noop, probe._wrap("probe.function", _noop), False),
        "method": (plain, wrapped, True),
        "__call__": (plain, wrapped, False),
    }
    n = CALIBRATION_CALLS
    costs = {}
    for kind, (raw, traced, is_method) in forms.items():
        outside, inside = [], []
        for _ in range(CALIBRATION_BATCHES):
            probe.self_s.clear()
            for cell in probe._trace_cells:
                cell[0] = 0.0
            raw_s = _loop(raw, is_method, n)
            traced_s = _loop(traced, is_method, n)
            callee = probe.self_s[f"probe.{kind}"]
            covered = callee + sum(cell[0] for cell in probe._trace_cells)
            outside.append((traced_s - covered) / n)
            inside.append((callee - raw_s) / n)
        costs[kind] = (max(0.0, statistics.median(outside)), max(0.0, statistics.median(inside)))
    return costs


class Tracer:
    """Context manager that installs the wrappers and aggregates spans."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.calls = {}  # span name -> calls
        self.entries = {}  # layer -> calls entering it from another layer
        self.self_s = {}  # span name -> self time; "trace" -> the tracer's own
        self.counts = {}  # counter name -> value
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (owner object, attribute, original)
        self._trace_cells = []  # per thread: [seconds of tracer bookkeeping]
        # Per-call wrapper costs the clock readings miss, by the kind of
        # call; measured on entry (see wrapper_costs).
        self._costs = dict.fromkeys(("function", "method", "__call__"), (0.0, 0.0))

    # -- installation -------------------------------------------------------

    def __enter__(self):
        self._costs = wrapper_costs()
        try:
            for name, module, attr in TARGETS:
                self._install(name, importlib.import_module(module), attr)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        self.self_s["trace"] = sum(cell[0] for cell in self._trace_cells)
        return False

    def _install(self, name, module, attr):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[meth]
            kind = "__call__" if meth == "__call__" else "method"
            self._patch(cls, meth, original, self._wrap(name, original, kind))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "delaybs" and not mod_name.startswith("delaybs."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- spans --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.trace = cell = [0.0]
            with self._lock:
                self._trace_cells.append(cell)
        return stack

    def _open(self, name, layer):
        """Push a span; the caller sets its START just before the call."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [name, layer, 0.0, 0.0, parent, None, threading.get_ident(), 0.0]
        stack.append(span)
        return span

    def _close(self, span, t0, costs, is_call=True):
        """Pop ``span``; ``t0`` is its wrapper's first clock reading.

        ``costs`` is the ``(outside, inside)`` pair of wrapper_costs for
        the kind of call that opened the span.
        """
        outside, inside = costs
        self._stack().pop()
        start, end = span[START], span[END]
        own = end - start - span[CHILD] - inside
        if span[FOREIGN]:
            own -= _union_within(span[FOREIGN], start, end)
        name = span[NAME]
        parent = span[PARENT]
        with self._lock:
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if is_call:
                self.calls[name] = self.calls.get(name, 0) + 1
                layer = span[LAYER]
                if parent is None or parent[LAYER] != layer:
                    self.entries[layer] = self.entries.get(layer, 0) + 1
            if len(self.spans) < MAX_SPANS:
                self.spans.append(span)
            else:
                self.dropped += 1
        # The last clock reading: what follows is a few operations, so
        # nearly all of the wrapper's cost is charged to "trace".
        cell = self._local.trace
        t1 = perf_counter()
        cell[0] += t1 - t0 - (end - start) + inside + outside
        if parent is not None:
            if parent[TID] == span[TID]:
                parent[CHILD] += t1 - t0 + outside
            else:  # a chunk in a map_chunks worker thread
                parent[FOREIGN].append((t0, t1 + outside))

    def _count(self, key, value):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def _peak(self, key, value):
        with self._lock:
            self.counts[key] = max(self.counts.get(key, 0), value)

    def _wrap(self, name, fn, kind="function"):
        tracer = self
        costs = self._costs[kind]
        layer = name.split(".", 1)[0]
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        chunked = name in ("parallel.map_chunks", "parallel.accumulate_moments")

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            span = tracer._open(name, layer)
            if chunked:
                args, kwargs = tracer._chunk_args(span, args, kwargs)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[END] = perf_counter()
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            finally:
                if not span[END]:
                    span[END] = perf_counter()
                tracer._close(span, t0, costs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _chunk_args(self, span, args, kwargs):
        """Wrap the chunk function passed to a parallel entry point.

        ``map_chunks`` pushes its span onto each worker thread's stack, so
        chunk work links back to it.  The chunk closure itself is charged
        to the nearest non-parallel caller, once: by ``accumulate_moments``,
        or by ``map_chunks`` when it was called directly.
        """
        fn = _arg(args, kwargs, 0, "fn")
        parent = span[PARENT]
        is_map = span[NAME] == "parallel.map_chunks"
        if is_map:
            span[FOREIGN] = []  # intervals of chunks run in worker threads
        nested = is_map and parent is not None and parent[NAME] == "parallel.accumulate_moments"
        owner = None if nested else _owner(parent, "parallel")
        tracer = self
        costs = self._costs["function"]

        def chunk(lo, hi):
            stack = tracer._stack()
            base = is_map and not stack
            if base:
                stack.append(span)
            try:
                if owner is None:
                    return fn(lo, hi)
                t0 = perf_counter()
                inner = tracer._open(owner[NAME], owner[LAYER])
                inner[START] = perf_counter()
                try:
                    return fn(lo, hi)
                finally:
                    inner[END] = perf_counter()
                    tracer._close(inner, t0, costs, is_call=False)
            finally:
                if base:
                    stack.pop()

        if args:
            return (chunk,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, fn=chunk)

    # -- per-target counters (run after the span closes) ---------------------

    def _after_model_validate(self, span, args, kwargs, result):
        from delaybs.model import validation_grid

        ts, ss = validation_grid(args[0])
        self._count("model.validate.points", len(ts) * len(ss))

    def _after_coeffexpr_vec(self, span, args, kwargs, result):
        self._count("coeffexpr.vec.elems", np.broadcast(args[1], args[2]).size)

    def _after_quadrature_integrate(self, span, args, kwargs, result):
        if _arg(args, kwargs, 1, "a") == _arg(args, kwargs, 2, "b"):
            return  # empty interval: no node is evaluated
        n = _arg(args, kwargs, 3, "n")
        if n is None:
            n = importlib.import_module("delaybs.quadrature").DEFAULT_N
        self._count("quadrature.nodes", n + 1)
        self._count("quadrature.node_elems", (n + 1) * np.size(result))

    _after_quadrature_integrate_nodes = _after_quadrature_integrate

    def _after_quadrature_block_integrals_vec(self, span, args, kwargs, result):
        # One block-integral evaluation per path: credit the sampler that
        # asked for it.
        owner = _owner(span[PARENT], "parallel")
        paths = np.size(_arg(args, kwargs, 1, "s_k"))
        if owner is None:
            return
        if owner[NAME] == "paths.exact":
            self._count("paths.exact.path_blocks", paths)
        elif owner[LAYER] == "measure":
            self._count("measure.path_blocks", paths)

    def _after_rng_normals(self, span, args, kwargs, result):
        self._count("rng.draws", np.size(result))

    def _after_paths_em(self, span, args, kwargs, result):
        # Bytes computed from array shapes: the segment buffer behind the
        # returned values plus the increments, not measured memory traffic.
        dW = _arg(args, kwargs, 2, "dW")
        values = result[1]
        buf = values.base if isinstance(values.base, np.ndarray) else values
        self._count("paths.path_steps", dW.size)
        self._peak("paths.buffer_bytes", buf.nbytes + dW.nbytes)

    _after_paths_split = _after_paths_em

    def _after_hedging_replicate(self, span, args, kwargs, result):
        self._count("hedging.rebalances", result.n_rebalance * result.n_paths)

    def _after_parallel_chunk_ranges(self, span, args, kwargs, result):
        self._count("parallel.chunks", len(result))

    # -- results --------------------------------------------------------------

    def layer_calls(self, layer):
        return self.entries.get(layer, 0)

    def self_time(self, prefix):
        """Self time of the spans named ``prefix`` or ``prefix.*``."""
        return sum(v for k, v in self.self_s.items() if k == prefix or k.startswith(prefix + "."))

    def write_spans(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                parent = s[PARENT]
                fh.write(json.dumps({
                    "id": i,
                    "parent": ids.get(id(parent)) if parent is not None else None,
                    "name": s[NAME],
                    "start": s[START],
                    "end": s[END],
                    "thread": s[TID],
                }) + "\n")
            fh.write(json.dumps({"dropped": self.dropped}) + "\n")
