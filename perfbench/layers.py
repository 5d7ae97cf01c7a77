"""Timing wrappers installed around the program's public layer entry points.

Everything here lives outside ``src/``: the wrappers are patched onto the
program's classes and modules for the duration of a traced pass and
removed afterwards, so the benchmark never depends on the program's own
``repro.obs`` spans and a later change that moves a span cannot change
what the benchmark measures.

A :class:`Tracer` keeps a stack of open spans.  Each span's self time is
its duration minus the time covered by its children; per-name totals are
aggregated as the spans close, and every span is also kept as a record,
written out once when the benchmark ends.  Per-job calls (policy,
timeout draws) are only aggregated: 10^5 jobs per replay would otherwise
make the tracer's own cost and memory dominate what it measures.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Span name -> layer.  A layer's self time is the sum of its spans' self
# times; ``check`` is the benchmark's own verification work.
LAYER_OF = {
    "structure": "structure",
    "structure.compile": "structure",
    "refill.init": "refill",
    "refill.generator": "refill",
    "steady": "steady",
    "metrics": "metrics",
    "sweep": "sweep",
    "sweep.point": "sweep",
    "sweep.key": "sweep",
    "sweep.cache": "sweep",
    "sim.run": "sim",
    "sim.policy": "sim",
    "sim.draw": "sim",
    "serve.run": "serve",
    "serve.policy": "serve",
    "serve.draw": "serve",
    "check": "check",
}


class Tracer:
    """In-memory span stack with per-name count/total/self aggregates."""

    def __init__(self, segment: str) -> None:
        self.segment = segment
        self.stack: list = []
        self.agg: dict = {}  # name -> [count, total_s, self_s]
        self.top_level_s = 0.0
        self.records: list = []  # (name, parent, t0, duration)
        self.counters: dict = {}
        self.unassembled_builds = 0  # structures built, generator nnz not yet seen

    def push(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def pop(self) -> None:
        end = perf_counter()
        name, t0, child = self.stack.pop()
        duration = end - t0
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent_name = parent[0]
        else:
            self.top_level_s += duration
            parent_name = None
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        self.records.append((name, parent_name, t0, duration))

    @contextmanager
    def span(self, name: str):
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        """``fn`` with every call timed as a ``name`` span."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop()

        return timed

    def layer_self_s(self, layer: str) -> float:
        return sum(
            a[2] for name, a in self.agg.items() if LAYER_OF.get(name) == layer
        )

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0,))[0]

    def total_s(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0))[1]

    def dump(self) -> dict:
        return {
            "segment": self.segment,
            "aggregates": {
                name: {"count": a[0], "total_s": a[1], "self_s": a[2]}
                for name, a in sorted(self.agg.items())
            },
            "counters": dict(self.counters),
            "spans": [
                {"name": n, "parent": p, "t0": t0, "duration": d}
                for n, p, t0, d in self.records
            ],
        }


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: list = []

    def replace(self, owner, name: str, make) -> None:
        """Set ``owner.name`` to ``make(original)``.

        Class attributes keep their descriptor kind: a classmethod stays a
        classmethod and a property stays a property (only its getter is
        wrapped).  A class attribute inherited from a base is shadowed on
        ``owner`` and the shadow deleted again on exit, so the base class
        is never touched.
        """
        own = name in vars(owner)
        static = inspect.getattr_static(owner, name)
        if isinstance(static, classmethod):
            new = classmethod(make(static.__func__))
        elif isinstance(static, property):
            new = property(make(static.fget))
        else:
            new = make(getattr(owner, name))
        old = vars(owner)[name] if own else None
        setattr(owner, name, new)
        self._undo.append((owner, name, own, old))

    def undo(self) -> None:
        while self._undo:
            owner, name, own, old = self._undo.pop()
            if own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


class Probe:
    """Always-on correctness and latency probe on the solve path.

    Wraps ``solve_point`` (per-point wall time) and every module-level
    ``steady_state`` the sweep path calls through (method, fallbacks and
    an independently recomputed residual ``max |pi Q|``).  One timer and
    one sparse mat-vec per solved point: negligible next to the solve.
    """

    def __init__(self) -> None:
        self.point_s: list = []
        self.solves: list = []  # (method, n_fallbacks, residual)

    def install(self, patches: Patches) -> None:
        import repro.models.tags_direct as tags_direct
        import repro.models.tags_pepa as tags_pepa
        import repro.sweep.engine as engine

        def time_point(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = perf_counter()
                rec = fn(*args, **kwargs)
                self.point_s.append(perf_counter() - t0)
                return rec

            return timed

        def observe_solve(fn):
            @functools.wraps(fn)
            def observed(generator, *args, **kwargs):
                info = kwargs.get("info")
                if info is None:
                    info = kwargs["info"] = {}
                pi = fn(generator, *args, **kwargs)
                Q = getattr(generator, "Q", generator)
                residual = float(np.abs(pi @ Q).max())
                self.solves.append(
                    (info.get("method"), len(info.get("fallbacks", ())), residual)
                )
                return pi

            return observed

        patches.replace(engine, "solve_point", time_point)
        for module in (engine, tags_direct, tags_pepa):
            patches.replace(module, "steady_state", observe_solve)


def install_layer_timers(tracer: Tracer, patches: Patches) -> None:
    """Wrap each layer's public entry points with ``tracer`` spans."""
    import repro.models.tags_direct as tags_direct
    import repro.models.tags_pepa as tags_pepa
    import repro.pepa.compiled as compiled
    import repro.sweep.engine as engine
    from repro.ctmc.bfs import ChainTemplate
    from repro.models import TagsExponential, TagsHyperExponential, TagsPepa
    from repro.serve import DispatchRuntime
    from repro.sim import Simulation
    from repro.sweep import SolveCache, SweepEngine

    def span(name):
        return lambda fn: tracer.wrap(name, fn)

    def build(fn):
        timed = tracer.wrap("structure", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            built = timed(*args, **kwargs)
            tracer.count("structure.states", built.n_states)
            tracer.unassembled_builds += 1
            return built

        return counted

    def assemble(fget):
        timed = tracer.wrap("refill.generator", fget)

        @functools.wraps(fget)
        def generator(model):
            gen = timed(model)
            # a build runs inside the first .generator of its structure
            if tracer.unassembled_builds:
                tracer.unassembled_builds -= 1
                tracer.count("structure.nnz", gen.Q.nnz)
            return gen

        return generator

    # repro.ctmc.bfs / repro.pepa.compiled: structure build (compiling a
    # PEPA model is part of its build, not a build of its own)
    patches.replace(ChainTemplate, "explore", build)
    patches.replace(compiled, "compile_model", span("structure.compile"))
    patches.replace(compiled.CompiledModel, "explore", build)

    # model constructor + generator (refill and assembly on a warm
    # structure), then metric extraction
    for cls in (TagsExponential, TagsHyperExponential, TagsPepa):
        patches.replace(cls, "__init__", span("refill.init"))
        patches.replace(cls, "generator", assemble)
        patches.replace(cls, "metrics", span("metrics"))

    # repro.ctmc.steady, at every module-level binding the sweep path uses
    for module in (engine, tags_direct, tags_pepa):
        patches.replace(module, "steady_state", span("steady"))

    # repro.sweep: the engine's own work, keys and cache traffic
    patches.replace(SweepEngine, "sweep", span("sweep"))
    patches.replace(SweepEngine, "solve", span("sweep"))
    patches.replace(engine, "solve_point", span("sweep.point"))
    patches.replace(engine, "cache_key", span("sweep.key"))

    def count_get(fn):
        @functools.wraps(fn)
        def get(cache, key):
            tracer.push("sweep.cache")
            try:
                rec = fn(cache, key)
            finally:
                tracer.pop()
            tracer.count("sweep.cache_hits" if rec is not None else "sweep.cache_misses")
            return rec

        return get

    patches.replace(SolveCache, "get", count_get)
    patches.replace(SolveCache, "put", span("sweep.cache"))

    # repro.sim / repro.serve event loops (policy and timeout sampler
    # objects are wrapped by the workload before they are handed in)
    patches.replace(Simulation, "run", span("sim.run"))
    patches.replace(DispatchRuntime, "run", span("serve.run"))


class _Hot:
    """Lean timing for per-job calls: no span record, no stack push.

    The call's duration goes to the ``name`` aggregate and is charged as
    child time to the span open around it (``sim.run``/``serve.run``),
    so that span's self time excludes it.
    """

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._stack = tracer.stack
        self._agg = tracer.agg.setdefault(name, [0, 0.0, 0.0])

    def _timed(self, method, *args):
        t0 = perf_counter()
        try:
            return method(*args)
        finally:
            d = perf_counter() - t0
            agg = self._agg
            agg[0] += 1
            agg[1] += d
            agg[2] += d
            self._stack[-1][2] += d


class TimedSampler(_Hot):
    """Timeout sampler proxy: ``sample`` calls are timed as ``<side>.draw``."""

    def __init__(self, sampler, tracer: Tracer, side: str) -> None:
        super().__init__(tracer, f"{side}.draw")
        self._sampler = sampler

    def __getattr__(self, name):
        return getattr(self._sampler, name)

    def sample(self, rng):
        return self._timed(self._sampler.sample, rng)


class TimedPolicy(_Hot):
    """Policy proxy: ``route``/``timeout``/``forward`` are timed as ``<side>.policy``."""

    def __init__(self, policy, tracer: Tracer, side: str) -> None:
        super().__init__(tracer, f"{side}.policy")
        self._policy = policy

    def __getattr__(self, name):
        return getattr(self._policy, name)

    def route(self, queue_lengths, rng):
        return self._timed(self._policy.route, queue_lengths, rng)

    def timeout(self, node):
        return self._timed(self._policy.timeout, node)

    def forward(self, node):
        return self._timed(self._policy.forward, node)
