"""The benchmark's three workloads.

Each workload has a cold ``setup()`` (what ``setup_s`` times) and a
``run_pass()`` that produces every result of one pass and checks it.
Passes repeat until the run's ``--seconds`` are used; each pass starts
from a fresh ``SolveCache`` on the warm structure the set-up built, so
every pass does the same work.

* ``fig-exp``  -- Figures 6, 7 and 8 (exponential service, 4331 states).
* ``fig-h2``   -- a subset of the Figure 9/10 grid (H2 service, 9801 states).
* ``replay-h2`` -- one seeded H2 trace through ``sim`` and ``serve``.

The sweeps are deterministic: their inputs do not depend on the seed,
which is recorded only.  The replay trace is generated from the seed.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.experiments.config import (
    FIG6_PARAMS,
    FIG6_T_GRID,
    FIG9_PARAMS,
    FIG9_T_GRID,
    h2_service_fig9,
)
from repro.models import TagsExponential, TagsHyperExponential, TagsPepa
from repro.serve import DispatchRuntime, Trace, TraceArrivals, TraceDemands, TraceLoad
from repro.sim import ErlangTimeout, PoissonArrivals, Simulation, TagsPolicy
from repro.sweep import SolveCache, SweepEngine, structure_cache

import layers

REFERENCE_PATH = Path(__file__).with_name("reference.json")

SWEEP_WORKERS = 1  # every solve in the benchmark's own process
ENGINE_TOL = 1e-8  # SweepEngine's default solve tolerance
PEPA_AGREEMENT = 1e-10  # TagsPepa vs TagsExponential on the Fig 6 grid
REFERENCE_RTOL = 1e-9  # figure series vs the stored reference values

# Figure 8 runs its optimal-integer-t search at lam=5 only, of the paper's
# {5, 7, 9, 11}: at lam=5 its t=25..69 grid overlaps the Figure 6 grid,
# so the sweep cache serves cross-figure reads there.  The other loads
# reach no further layer and would double the pass, leaving too few
# passes per run for a steady figure on a shared machine.
FIG8_LAMBDAS = (5.0,)
FIG8_T_RANGE = range(25, 70)
FIG8_OPTIMA = {5.0: 51, 7.0: 48, 9.0: 46, 11.0: 42}

# Every tenth point of the Figure 9/10 grid: five 9801-state solves.
FIG9_SUBSET = tuple(float(t) for t in FIG9_T_GRID[4::10])

REPLAY_JOBS = 50_000
REPLAY_LAMBDA = 11.0
REPLAY_T = 30.0
REPLAY_N = 6
REPLAY_CAPACITIES = (10, 10)


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _h2_params() -> dict:
    service = h2_service_fig9()
    mu1, mu2 = service.rates
    return dict(
        lam=FIG9_PARAMS["lam"],
        alpha=float(service.probs[0]),
        mu1=float(mu1),
        mu2=float(mu2),
        n=FIG9_PARAMS["n"],
        K1=FIG9_PARAMS["K1"],
        K2=FIG9_PARAMS["K2"],
    )


class _Sweeps:
    """Shared pass plumbing of the two sweep workloads."""

    kind = "points"

    def __init__(self, seed: int, reference: "dict | None") -> None:
        self.seed = seed
        self.reference = reference
        self.probe = layers.Probe()

    def _engine(self) -> SweepEngine:
        return SweepEngine(
            workers=SWEEP_WORKERS, cache=SolveCache(maxsize=4096), tol=ENGINE_TOL
        )

    def _check_solves(self, checks: Checks, first: int) -> int:
        """One checked operation per point solved since ``first``."""
        solves = self.probe.solves[first:]
        for i, (method, fallbacks, residual) in enumerate(solves):
            checks.check(
                fallbacks == 0 and residual <= ENGINE_TOL,
                f"solve {i}: method={method} fallbacks={fallbacks} "
                f"residual={residual:g}",
            )
        return len(solves)

    def _check_series(self, checks: Checks, series: dict) -> None:
        if self.reference is None:
            return
        for name, values in series.items():
            ref = self.reference[self.name][name]
            ok = len(ref) == len(values) and all(
                _close(a, b, REFERENCE_RTOL) for a, b in zip(values, ref)
            )
            checks.check(ok, f"{name} differs from the stored reference")


class FigExp(_Sweeps):
    """Figures 6-8: lam=5, mu=10, n=6, K1=K2=10."""

    name = "fig-exp"

    def setup(self) -> None:
        structure_cache().clear()
        probe_t = float(FIG6_T_GRID[0])
        TagsExponential(**FIG6_PARAMS, t=probe_t).generator
        TagsPepa(**FIG6_PARAMS, t=probe_t).generator

    def run_pass(self, checks: Checks, tracer=None) -> int:
        first = len(self.probe.solves)
        engine = self._engine()
        grid6 = [dict(FIG6_PARAMS, t=float(t)) for t in FIG6_T_GRID]
        exp = engine.sweep(TagsExponential, grid6).metrics
        pepa = engine.sweep(TagsPepa, grid6).metrics
        solved_before_fig7 = len(self.probe.solves)
        fig7 = engine.sweep(TagsExponential, grid6).metrics
        fig7_solves = len(self.probe.solves) - solved_before_fig7
        optima, at_optimum = {}, {}
        for lam in FIG8_LAMBDAS:
            params = dict(FIG6_PARAMS, lam=lam)
            ts = list(FIG8_T_RANGE)
            res = engine.sweep(TagsExponential, [dict(params, t=float(t)) for t in ts])
            t_opt = ts[int(np.argmin(res.values("mean_jobs")))]
            optima[lam] = t_opt
            m, _ = engine.solve(TagsExponential, dict(params, t=float(t_opt)))
            at_optimum[lam] = m.response_time

        series = {
            "fig6.tag_total": [m.mean_jobs for m in exp],
            "fig6.tag_queue1": [m.mean_jobs_per_node[0] for m in exp],
            "fig6.tag_queue2": [m.mean_jobs_per_node[1] for m in exp],
            "fig7.tag_response": [m.response_time for m in fig7],
            "fig8.optimal_t": [float(optima[lam]) for lam in FIG8_LAMBDAS],
            "fig8.tag_response": [at_optimum[lam] for lam in FIG8_LAMBDAS],
        }
        with _span(tracer, "check"):
            solved = self._check_solves(checks, first)
            for t, a, b in zip(FIG6_T_GRID, pepa, exp):
                ok = all(
                    abs(x - y) <= PEPA_AGREEMENT * max(1.0, abs(y))
                    for x, y in (
                        (a.mean_jobs, b.mean_jobs),
                        (a.mean_jobs_per_node[0], b.mean_jobs_per_node[0]),
                        (a.mean_jobs_per_node[1], b.mean_jobs_per_node[1]),
                        (a.throughput, b.throughput),
                        (a.response_time, b.response_time),
                    )
                )
                checks.check(ok, f"TagsPepa and TagsExponential differ at t={t}")
            for t, a, b in zip(FIG6_T_GRID, fig7, exp):
                checks.check(
                    fig7_solves == 0 and a.response_time == b.response_time,
                    f"Figure 7 at t={t} was not read back from the cache",
                )
            for lam in FIG8_LAMBDAS:
                checks.check(
                    optima[lam] == FIG8_OPTIMA[lam],
                    f"Figure 8 optimum at lam={lam} is {optima[lam]}, "
                    f"expected {FIG8_OPTIMA[lam]}",
                )
            self._check_series(checks, series)
        self.series = series
        return solved


class FigH2(_Sweeps):
    """Figures 9/10 subset: lam=11, alpha=0.99, mu1=100 mu2, 9801 states."""

    name = "fig-h2"

    def setup(self) -> None:
        structure_cache().clear()
        TagsHyperExponential(**_h2_params(), t=FIG9_SUBSET[0]).generator

    def run_pass(self, checks: Checks, tracer=None) -> int:
        first = len(self.probe.solves)
        engine = self._engine()
        params = _h2_params()
        ms = engine.sweep(
            TagsHyperExponential, [dict(params, t=t) for t in FIG9_SUBSET]
        ).metrics
        series = {
            "fig9.tag_response": [m.response_time for m in ms],
            "fig10.tag_throughput": [m.throughput for m in ms],
            "tag_mean_jobs": [m.mean_jobs for m in ms],
        }
        with _span(tracer, "check"):
            solved = self._check_solves(checks, first)
            self._check_series(checks, series)
        self.series = series
        return solved


class ReplayH2:
    """One seeded trace, Poisson(11) arrivals and Figure 9's H2 demand,
    replayed through ``sim.runner.Simulation`` and ``serve.DispatchRuntime``
    on the virtual clock: TAGS, Erlang(6, 30) timeout, K=(10, 10)."""

    name = "replay-h2"
    kind = "jobs"

    def __init__(self, seed: int, reference: "dict | None") -> None:
        self.seed = seed
        self.trace = None
        self.engine_s: list = []  # (sim_s, serve_s) per pass
        self.counts: dict = {}  # kills and forwards of the last pass

    def setup(self) -> None:
        self.trace = Trace.synthesise(
            PoissonArrivals(REPLAY_LAMBDA),
            h2_service_fig9(),
            REPLAY_JOBS,
            seed=self.seed,
        )
        self._simulation(None)
        self._runtime(None)

    def _policy(self, tracer, side: str):
        sampler = ErlangTimeout(REPLAY_N, REPLAY_T)
        if tracer is None:
            return TagsPolicy(timeouts=(sampler,))
        sampler = layers.TimedSampler(sampler, tracer, side)
        return layers.TimedPolicy(TagsPolicy(timeouts=(sampler,)), tracer, side)

    def _simulation(self, tracer) -> Simulation:
        return Simulation(
            TraceArrivals(self.trace),
            TraceDemands(self.trace),
            self._policy(tracer, "sim"),
            REPLAY_CAPACITIES,
            seed=self.seed,
            record_jobs=True,
        )

    def _runtime(self, tracer) -> DispatchRuntime:
        return DispatchRuntime(
            TraceLoad(self.trace),
            self._policy(tracer, "serve"),
            REPLAY_CAPACITIES,
            rng=np.random.default_rng(self.seed),
            record_jobs=True,
        )

    def run_pass(self, checks: Checks, tracer=None) -> int:
        horizon = 1e12  # both sides run the whole trace
        sim = self._simulation(tracer)
        t0 = perf_counter()
        sim_res = sim.run(t_end=horizon)
        t1 = perf_counter()
        runtime = self._runtime(tracer)
        t2 = perf_counter()
        serve_res = runtime.run(horizon)
        t3 = perf_counter()
        self.engine_s.append((t1 - t0, t3 - t2))

        with _span(tracer, "check"):
            sim_out = sim_res.job_outcomes()
            serve_out = serve_res.job_outcomes()
            for job in range(REPLAY_JOBS):
                a, b = sim_out.get(job), serve_out.get(job)
                ok = a is not None and a == b
                checks.check(ok, "" if ok else f"job {job}: sim {a} != serve {b}")
            checks.check(
                sim_res.accounted == sim_res.offered == REPLAY_JOBS,
                f"sim accounted {sim_res.accounted} of {sim_res.offered}",
            )
            checks.check(
                serve_res.accounted == serve_res.offered == REPLAY_JOBS,
                f"serve accounted {serve_res.accounted} of {serve_res.offered}",
            )
            kills = sum(k for _, _, k in sim_out.values())
        self.counts = {
            "sim.jobs": sim_res.offered,
            "sim.kills": kills,
            "serve.kills": serve_res.killed,
            "serve.forwards": serve_res.forwarded,
        }
        return sim_res.offered + serve_res.offered


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


WORKLOADS = {w.name: w for w in (FigExp, FigH2, ReplayH2)}
