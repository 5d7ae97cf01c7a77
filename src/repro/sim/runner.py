"""The heap-of-events driver over the TAGS node core, and replications.

:class:`Simulation` is the offline driver of :class:`~repro.sim.core.NodeCore`:
the core holds the queues and applies every allocation rule (admission,
the service race, completion, kill and forward, crashes, the warm-up
reset, the result); this module only orders events in time.  It keeps
a heap of ``(time, seq, kind, node, payload)`` entries -- arrivals,
race outcomes and fault-plan events -- and hands each one, as it pops,
to the core.

Because nothing preempts the head job, the winner of the service/timeout
race is known at service start and exactly one outcome event per busy
node is ever scheduled -- no event cancellation is needed.  A crash *does*
preempt the head job: outcome events carry the node's epoch at service
start, and those scheduled before a crash are skipped when popped (the
heap is never edited).  Fault events enter the heap before the first
arrival, so a fault precedes any host event at the same time.

The online driver, :class:`repro.serve.dispatcher.DispatchRuntime`, runs
the same core under asyncio; see :mod:`repro.sim.core` for the shared
semantics.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro import obs
from repro.sim.core import NodeCore, SimulationResult

__all__ = ["Simulation", "SimulationResult", "replicate", "replicate_until"]


class Simulation(NodeCore):
    """One simulation run of a policy over bounded FCFS nodes.

    Parameters
    ----------
    arrivals :
        Arrival process (``next_interarrival``).
    demand :
        Service-demand distribution (``sample``).
    policy :
        Routing/timeout policy.
    capacities :
        Per-node capacity (queue + server).
    seed, rng :
        Either a seed for a private ``numpy.random.Generator`` or an
        existing generator to draw from (``rng`` wins when both are
        given).  Passing ``rng`` lets callers -- the ``repro.serve``
        controller and dispatcher in particular -- share or spawn
        reproducible streams across components; with ``seed`` alone the
        draw sequence is unchanged from earlier releases.
    record_jobs :
        Keep a per-job outcome log on the result (see
        :attr:`SimulationResult.jobs`).
    faults :
        Optional :class:`~repro.faults.FaultPlan` (wrapped in a default
        :class:`~repro.faults.FaultInjector`) or a configured injector:
        replays node crashes/recoveries, service degradation and
        arrival surges into the run (see :mod:`repro.sim.core`).
    """

    def __init__(
        self,
        arrivals,
        demand,
        policy,
        capacities,
        *,
        seed: int = 0,
        rng: "np.random.Generator | None" = None,
        speeds=None,
        record_jobs: bool = False,
        faults=None,
    ) -> None:
        self.arrivals = arrivals
        self.demand = demand
        super().__init__(
            policy,
            capacities,
            speeds=speeds,
            seed=seed,
            rng=rng,
            record_jobs=record_jobs,
            faults=faults,
        )

    # ------------------------------------------------------------------
    def run(self, t_end: float, warmup: float = 0.0) -> SimulationResult:
        if t_end <= warmup:
            raise ValueError("t_end must exceed warmup")
        rec = obs.recorder()
        t_wall0 = time.perf_counter() if rec.enabled else 0.0
        self._begin_run()
        rng = self.rng
        queues = self.queues
        epoch = self._epoch
        race, admit = self._race, self._admit
        complete, kill, forward = self._complete, self._kill, self._forward
        interarrival, arrival_gap = self.arrivals.next_interarrival, self._arrival_gap
        sample_demand = self.demand.sample
        heap: list = []
        seq = 0

        def push(time: float, kind: str, node: int, payload=None):
            nonlocal seq
            heapq.heappush(heap, (time, seq, kind, node, payload))
            seq += 1

        def start_service(now: float, node: int) -> None:
            """Schedule the race outcome for ``node``'s new head job,
            tagged with the node's epoch."""
            outcome = race(now, node)
            if outcome is not None:
                delay, completes = outcome
                push(
                    now + delay,
                    "complete" if completes else "kill",
                    node,
                    epoch[node],
                )

        def next_gap() -> float:
            return arrival_gap(interarrival(rng))

        if self.faults is not None:
            for ev in self.faults.events():
                push(ev.time, "fault", ev.node, ev)
        push(next_gap(), "arrival", -1)
        warm = False
        while heap:
            now, _, kind, node, payload = heapq.heappop(heap)
            if now > t_end:
                break
            if not warm and now >= warmup:
                warm = True
                self._warm_reset(warmup)

            if kind == "arrival":
                push(now + next_gap(), "arrival", -1)
                target = admit(now, float(sample_demand(1, rng)[0]))
                if target is not None and len(queues[target]) == 1:
                    start_service(now, target)

            elif kind == "complete":
                if payload != epoch[node]:
                    continue  # scheduled before a crash; outcome voided
                complete(now, node)
                if queues[node]:
                    start_service(now, node)

            elif kind == "kill":
                if payload != epoch[node]:
                    continue  # scheduled before a crash; outcome voided
                target = forward(now, kill(now, node), node)
                if target is not None and len(queues[target]) == 1:
                    start_service(now, target)
                if queues[node]:
                    start_service(now, node)

            elif kind == "fault":
                if self._apply_fault(payload, now) == "recover" and queues[node]:
                    start_service(now, node)
            else:  # pragma: no cover
                raise AssertionError(kind)

        return self._result(rec, "sim", t_wall0, t_end, warmup)


def replicate(
    make_simulation,
    n_reps: int = 5,
    t_end: float = 5000.0,
    warmup: float = 500.0,
):
    """Run ``n_reps`` independent replications.

    ``make_simulation(seed)`` builds a fresh :class:`Simulation`.  Returns
    a dict of arrays keyed by metric, plus convenience means.  Each
    replication runs inside a ``sim.replication`` span, so a recorded
    replication study shows per-replication wall times.
    """
    rec = obs.recorder()
    metrics = {
        "throughput": [],
        "mean_jobs": [],
        "mean_response_time": [],
        "mean_slowdown": [],
        "loss_probability": [],
    }
    for rep in range(n_reps):
        with rec.span("sim.replication", rep=rep):
            res = make_simulation(rep).run(t_end, warmup)
        for key in metrics:
            metrics[key].append(getattr(res, key))
    out = {k: np.asarray(v) for k, v in metrics.items()}
    out["means"] = {k: float(v.mean()) for k, v in out.items()}
    return out


def replicate_until(
    make_simulation,
    metric: str = "mean_response_time",
    *,
    rel_half_width: float = 0.05,
    confidence: float = 0.95,
    min_reps: int = 4,
    max_reps: int = 64,
    t_end: float = 5000.0,
    warmup: float = 500.0,
):
    """Run independent replications until the metric's confidence interval
    is tight enough.

    Returns ``(mean, half_width, n_reps)`` where ``half_width`` is the
    t-based CI half-width over replications.  Replication-based CIs are
    statistically cleaner than batch means (true independence) at the cost
    of re-paying the warm-up per replication; this is the recommended way
    to produce publishable simulation numbers from this package.
    """
    from scipy.stats import t as t_dist

    if not (0 < rel_half_width):
        raise ValueError("rel_half_width must be positive")
    if min_reps < 2:
        raise ValueError("need at least two replications for a CI")
    if max_reps < min_reps:
        raise ValueError(f"max_reps ({max_reps}) is below min_reps ({min_reps})")
    rec = obs.recorder()
    values: list = []
    # max_reps >= min_reps, so the last replication always reaches the
    # interval below and the loop never ends without one
    for rep in range(max_reps):
        with rec.span("sim.replication", rep=rep):
            res = make_simulation(rep).run(t_end, warmup)
        values.append(float(getattr(res, metric)))
        if len(values) < min_reps:
            continue
        arr = np.asarray(values)
        mean = float(arr.mean())
        se = float(arr.std(ddof=1)) / np.sqrt(len(arr))
        half = float(t_dist.ppf(0.5 + confidence / 2, len(arr) - 1)) * se
        if mean != 0 and half / abs(mean) <= rel_half_width:
            break
    return mean, half, len(values)
