"""Outside-in span tracing of fracstab's public functions.

Used only by the traced benchmark run.  ``Tracer.install`` replaces public
functions with timing wrappers in the module namespaces that call them:
``fracstab.stability`` does ``from .solver import solve``, so the call
``verify`` makes goes through ``fracstab.stability.solve`` and is patched
there, not in ``fracstab.solver``.  Every call becomes one span (name,
start, end, parent id, op id, attributes) kept in memory; ``uninstall``
puts the originals back.  A function that is missing from its namespace is
skipped, so a later version of the program that drops it reports count 0
for it instead of breaking the benchmark.

``layer_metrics`` turns the spans of one op into the per-layer metrics
listed in ``PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (name, unit) of every per-layer metric, in BENCHMARK.json order; the
# harness adds the two "trace." entries itself.
PER_LAYER = [
    ("cli.load_problem.s", "s"),
    ("cli.self_s", "s"),
    ("cli.sweep.busy_ratio", "ratio"),
    ("exprlang.evaluate.f.calls", "count"),
    ("exprlang.evaluate.f.s", "s"),
    ("exprlang.evaluate.k.calls", "count"),
    ("exprlang.evaluate.k.s", "s"),
    ("exprlang.evaluate.k.values", "count"),
    ("exprlang.evaluate.t.calls", "count"),
    ("exprlang.evaluate.t.s", "s"),
    ("psicalc.build_plan.calls", "count"),
    ("psicalc.build_plan.s", "s"),
    ("psicalc.build_plan.peak_mib", "MiB"),
    ("psicalc.build_plan.nodes_sq", "count"),
    ("solver.solve.calls", "count"),
    ("solver.solve.s", "s"),
    ("solver.iterations", "count"),
    ("solver.unconverged", "count"),
    ("solver.picard_step.calls", "count"),
    ("solver.picard_step.s", "s"),
    ("solver.picard_step.self_s", "s"),
    ("solver.prefactor.calls", "count"),
    ("solver.prefactor.s", "s"),
    ("stability.verify.s", "s"),
    ("stability.verify.self_s", "s"),
    ("stability.estimate_M.s", "s"),
    ("stability.make_perturbed.calls", "count"),
    ("stability.make_perturbed.s", "s"),
    ("stability.solve.base.s", "s"),
    ("stability.solve.refine.s", "s"),
    ("stability.solve.perturbed.s", "s"),
    ("stability.solve.perturbed.iterations", "count"),
    ("trace.op_p50_s", "s"),
    ("trace.overhead_s", "s"),
]


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, op, name, attrs):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end = None

    @property
    def dur(self):
        return self.end - self.start

    def as_list(self):
        return [self.id, self.parent, self.op, self.name, self.start, self.end, self.attrs]


def _arguments(fn):
    """Map a call's (args, kwargs) to parameter names."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        try:
            return sig.bind_partial(*args, **kwargs).arguments
        except TypeError:  # the call itself raises the same error
            return kwargs

    return bind


def _evaluate_tag(arguments):
    # the bound variables say which expression this is: s only occurs in k,
    # u in f (and k), anything else (psi, phi, delta) is an expression in t
    bindings = arguments.get("bindings") or {}
    if "s" in bindings:
        return "exprlang.evaluate.k"
    if "u" in bindings:
        return "exprlang.evaluate.f"
    return "exprlang.evaluate.t"


def _solve_role(arguments):
    if arguments.get("forcing") is not None:
        return "perturbed"
    if arguments.get("plan") is not None:
        return "base"
    return "refine"


class Tracer:
    """Span recorder; spans stay in memory until the caller writes them out."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._op = None
        self._patched = []
        self._mem_lock = threading.Lock()
        self._mem_active = 0

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, attrs=None):
        stack = self._stack()
        # worker threads (sweep) start with an empty stack: their spans
        # belong to the command span that started the pool
        parent = stack[-1].id if stack else self._root
        span = Span(next(self._ids), parent, self._op, name, {} if attrs is None else attrs)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def command(self, op, argv):
        """Root span around one ``cli.main`` call of op number ``op``."""
        self._op = op
        span = self.open("cli.main", {"command": argv[0]})
        self._root = span.id
        try:
            yield span
        finally:
            self.close(span)
            self._root = None

    # -- plan memory window --------------------------------------------------

    def _mem_enter(self):
        with self._mem_lock:
            if self._mem_active == 0:
                tracemalloc.start()
            self._mem_active += 1

    def _mem_leave(self):
        # concurrent builds (sweep workers) share one window, so the peak
        # is that of all plans being built at the same time
        with self._mem_lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._mem_active -= 1
            if self._mem_active == 0:
                tracemalloc.stop()
        return peak

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, module, attr, name, before=None, after=None, memory=False):
        """Patch module.attr; ``name`` may be a function of the call's arguments."""
        orig = getattr(module, attr, None)
        if orig is None or not callable(orig):
            return
        bind = _arguments(orig)
        named = callable(name)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            arguments = bind(args, kwargs) if (named or before) else None
            attrs = {}
            if before is not None:
                before(arguments, attrs)
            if memory:
                tracer._mem_enter()
            span = tracer.open(name(arguments) if named else name, attrs)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(span)
                if memory:
                    attrs["peak_bytes"] = tracer._mem_leave()
            if after is not None:
                after(result, attrs)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def install(self):
        import fracstab.cli as cli
        import fracstab.solver as solver
        import fracstab.stability as stability

        def count_values(result, attrs):
            attrs["values"] = int(np.size(result))

        def solve_result(result, attrs):
            attrs["iterations"] = int(getattr(result, "iterations", 0))
            attrs["converged"] = bool(getattr(result, "converged", True))

        def plan_before(arguments, attrs):
            grid = arguments.get("grid")
            attrs["nodes_sq"] = int(getattr(grid, "n", 0)) ** 2

        def stability_solve_before(arguments, attrs):
            attrs["role"] = _solve_role(arguments)

        self._wrap(cli, "load_problem", "cli.load_problem")
        self._wrap(cli, "problem_from_doc", "cli.problem_from_doc")
        self._wrap(cli, "solve", "solver.solve", after=solve_result)
        self._wrap(cli, "verify", "stability.verify")
        for module in (solver, stability):
            self._wrap(module, "evaluate", _evaluate_tag, after=count_values)
            self._wrap(
                module, "build_plan", "psicalc.build_plan", before=plan_before, memory=True
            )
        self._wrap(solver, "picard_step", "solver.picard_step")
        self._wrap(solver, "prefactor", "solver.prefactor")
        self._wrap(
            stability,
            "solve",
            "solver.solve",
            before=stability_solve_before,
            after=solve_result,
        )
        self._wrap(stability, "estimate_M", "stability.estimate_M")
        self._wrap(stability, "make_perturbed", "stability.make_perturbed")

    def uninstall(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)


def _self_time(span, children):
    """Span duration minus the part of its interval its child spans cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.dur - covered


def layer_metrics(spans, workers):
    """Per-layer metrics of one op from its spans; absent layers read 0.

    ``workers`` is the sweep thread-pool size, the denominator of
    ``cli.sweep.busy_ratio``.
    """
    m = {name: 0.0 for name, _ in PER_LAYER}
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    sweep_wall = 0.0
    sweep_busy = 0.0
    for s in spans:
        name = s.name
        if name == "cli.main":
            m["cli.self_s"] += _self_time(s, children[s.id])
            if s.attrs.get("command") == "sweep":
                sweep_wall += s.dur
                sweep_busy += sum(
                    c.dur for c in children[s.id] if c.name == "stability.verify"
                )
        elif name == "cli.load_problem":
            m["cli.load_problem.s"] += s.dur
        elif name == "cli.problem_from_doc":
            parent = by_id.get(s.parent)
            if parent is None or parent.name != "cli.load_problem":
                m["cli.load_problem.s"] += s.dur
        elif name.startswith("exprlang.evaluate."):
            m[name + ".calls"] += 1
            m[name + ".s"] += s.dur
            if name == "exprlang.evaluate.k":
                m["exprlang.evaluate.k.values"] += s.attrs.get("values", 0)
        elif name == "psicalc.build_plan":
            m["psicalc.build_plan.calls"] += 1
            m["psicalc.build_plan.s"] += s.dur
            m["psicalc.build_plan.nodes_sq"] += s.attrs.get("nodes_sq", 0)
            m["psicalc.build_plan.peak_mib"] = max(
                m["psicalc.build_plan.peak_mib"],
                s.attrs.get("peak_bytes", 0) / 2**20,
            )
        elif name == "solver.solve":
            m["solver.solve.calls"] += 1
            m["solver.solve.s"] += s.dur
            iterations = s.attrs.get("iterations", 0)
            m["solver.iterations"] += iterations
            if not s.attrs.get("converged", True):
                m["solver.unconverged"] += 1
            role = s.attrs.get("role")
            if role is not None:
                m[f"stability.solve.{role}.s"] += s.dur
                if role == "perturbed":
                    m["stability.solve.perturbed.iterations"] += iterations
        elif name == "solver.picard_step":
            m["solver.picard_step.calls"] += 1
            m["solver.picard_step.s"] += s.dur
            m["solver.picard_step.self_s"] += _self_time(s, children[s.id])
        elif name == "solver.prefactor":
            m["solver.prefactor.calls"] += 1
            m["solver.prefactor.s"] += s.dur
        elif name == "stability.verify":
            m["stability.verify.s"] += s.dur
            m["stability.verify.self_s"] += _self_time(s, children[s.id])
        elif name == "stability.estimate_M":
            m["stability.estimate_M.s"] += s.dur
        elif name == "stability.make_perturbed":
            m["stability.make_perturbed.calls"] += 1
            m["stability.make_perturbed.s"] += s.dur
    if sweep_wall > 0.0:
        m["cli.sweep.busy_ratio"] = sweep_busy / (sweep_wall * workers)
    return m
