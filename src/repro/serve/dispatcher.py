"""The online driver over the TAGS node core: policies from ``sim`` as services.

:class:`DispatchRuntime` runs :class:`~repro.sim.core.NodeCore` -- the
same state and rules :class:`~repro.sim.runner.Simulation` drives from
an event heap -- as a set of cooperating asyncio tasks on a
:class:`~repro.serve.clock.Clock`:

* one **load-generator task** pulls ``(gap, demand)`` pairs from a
  :mod:`~repro.serve.loadgen` source, sleeps the gap and hands the
  arrival to the core's admission (routing; **drop-on-full**);
* one **server task per node** asks the core to start its head job's
  service race, sleeps the race's delay, then hands the outcome back:
  a completion, or a kill whose job is forwarded to
  ``policy.forward(node)`` (**drop-after-timeout** when that node is
  full or absent);
* optionally a **controller task** (:mod:`~repro.serve.controller`)
  re-tunes the timeout from the sliding windows this driver keeps.

The core decides every outcome; this module adds only what is
genuinely online: tasks and the clock, forward retries and the
circuit breaker, the supervisor, the controller's observation windows,
``serve.job`` spans and queue-depth gauges.  Under a
:class:`~repro.serve.clock.VirtualClock` the runtime is a deterministic
discrete-event program whose per-job outcomes match ``Simulation`` on a
shared trace (``tests/serve/test_equivalence.py``); under a
:class:`~repro.serve.clock.WallClock` the same code serves in real time.
A runtime runs once: a second :meth:`DispatchRuntime.run` raises.

Instrumentation goes through :mod:`repro.obs` and is gated on
``recorder().enabled`` everywhere, so a disabled recorder costs one
attribute check per event (the CI ``serve`` job benches off vs. on):
per-job ``serve.job`` spans (virtual timestamps), queue-depth gauges,
and end-of-run ``serve.*`` counters mirroring the simulator's.

**Faults and resilience** (all off by default; the defaults leave the
no-fault path bit-for-bit unchanged):

* ``faults=`` replays a :class:`~repro.faults.FaultPlan` /
  :class:`~repro.faults.FaultInjector` -- the same object the simulator
  accepts -- through a fault-driver task.  The core applies a crash;
  this driver also cancels the node's in-flight service sleep (the
  bumped epoch tells the server task the race was voided).
* ``supervisor=`` attaches a :class:`~repro.serve.supervisor.Supervisor`
  whose health-check/backoff loop performs restarts after a fault
  clears, so measured MTTR includes detection latency.
* ``forward_retries=`` / ``breaker=`` guard node-2 forwards with
  jittered-exponential-backoff retries and a
  :class:`~repro.faults.CircuitBreaker`; jobs whose forward ultimately
  fails are ``dropped_forward`` (full target) or ``lost_to_failure``
  (down target), never leaked.

Retry backoff and supervisor jitter draw from private RNG streams, so
enabling them never perturbs the workload's draw sequence.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

import numpy as np

from repro import obs
from repro.serve.clock import Clock, VirtualClock
from repro.sim.core import Job, NodeCore, SimulationResult

__all__ = ["DispatchRuntime"]


class DispatchRuntime(NodeCore):
    """Online dispatcher over bounded per-node queues.

    Parameters mirror :class:`~repro.sim.runner.Simulation` where they
    overlap (``policy``, ``capacities``, ``speeds``, ``seed``/``rng``,
    ``record_jobs``, ``faults``); the workload comes from a load
    generator instead of separate arrival/demand objects, and ``clock``
    selects virtual or wall time.
    """

    def __init__(
        self,
        loadgen,
        policy,
        capacities,
        *,
        clock: "Clock | None" = None,
        speeds=None,
        seed: int = 0,
        rng: "np.random.Generator | None" = None,
        controller=None,
        record_jobs: bool = False,
        gauge_interval: float = 10.0,
        faults=None,
        supervisor=None,
        forward_retries: int = 0,
        retry_backoff: float = 0.5,
        retry_jitter: float = 0.1,
        breaker=None,
    ) -> None:
        super().__init__(
            policy,
            capacities,
            speeds=speeds,
            seed=seed,
            rng=rng,
            record_jobs=record_jobs,
            faults=faults,
        )
        self.loadgen = loadgen
        self.clock = clock if clock is not None else VirtualClock()
        self.controller = controller
        if gauge_interval <= 0:
            raise ValueError("gauge_interval must be positive")
        self.gauge_interval = float(gauge_interval)
        self.supervisor = supervisor
        if supervisor is not None:
            if self.faults is None:
                raise ValueError("a supervisor needs faults to supervise")
            self.faults.supervised = True
        if forward_retries < 0:
            raise ValueError("forward_retries must be >= 0")
        if retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        if not 0 <= retry_jitter < 1:
            raise ValueError("retry_jitter must be in [0, 1)")
        self.forward_retries = int(forward_retries)
        self.retry_backoff = float(retry_backoff)
        self.retry_jitter = float(retry_jitter)
        self.breaker = breaker
        # private stream: retry jitter must not perturb the workload rng
        self._resilience_rng = np.random.default_rng([seed, 0x7E5])

        n = len(self.capacities)
        self._wake = [None] * n  # asyncio.Events, created in arun
        self._sleep_fut: list = [None] * n  # cancellable service race
        self._up_evt: list = [None] * n  # asyncio.Events, created in arun
        self._sup_wake = None  # supervisor wake event, created in arun
        self._inflight_forwards = 0  # jobs mid-retry, owned by no queue
        self._scheduled: list = []  # (delay, fn) buffered before arun
        self._running = False
        self._started = False
        # sliding-window observations for the controller (pruned there)
        self.window_arrivals: deque = deque()
        self.window_completions: deque = deque()  # (time, demand)

    # -- live control ---------------------------------------------------
    def set_timeout(self, node: int, sampler) -> None:
        """Swap the policy's timeout sampler for ``node``.

        Takes effect at the next service start on that node (jobs whose
        race is already scheduled keep the old draw), which is exactly
        the semantics an operator changing a kill-timeout gets.
        """
        timeouts = getattr(self.policy, "timeouts", None)
        if timeouts is None or node >= len(timeouts):
            raise ValueError(f"policy has no timeout at node {node}")
        new = list(timeouts)
        new[node] = sampler
        self.policy.timeouts = tuple(new)

    def current_timeout(self, node: int = 0):
        return self.policy.timeout(node)

    def schedule(self, delay: float, fn) -> None:
        """Run ``fn()`` at model time ``now + delay`` (e.g. a load shift).

        Callable before the run starts (buffered) or from inside a task
        while the runtime is live.
        """
        if self._running:
            asyncio.get_running_loop().create_task(self._fire_later(delay, fn))
        else:
            self._scheduled.append((delay, fn))

    async def _fire_later(self, delay: float, fn) -> None:
        await self.clock.sleep(delay)
        fn()

    def queue_lengths(self) -> list:
        return [len(q) for q in self.queues]

    # -- event handling -------------------------------------------------
    async def _sample_depths(self, rec, interval: float) -> None:
        """Periodic ``serve.queue_depth`` gauges.

        Depth is sampled on a timer rather than at every queue event:
        per-event gauges would dominate the dispatch cost (the CI gate
        holds enabled recording to <= 10%), and the exact time-averaged
        depths are kept in ``q_avg`` regardless.
        """
        while True:
            await self.clock.sleep(interval, daemon=True)
            for i, q in enumerate(self.queues):
                rec.gauge("serve.queue_depth", len(q), node=i)

    def _finish(self, job: Job, now: float, outcome: str, node: int) -> None:
        super()._finish(job, now, outcome, node)
        rec = self._rec
        if rec.enabled:
            rec.record_span(
                "serve.job",
                job.arrival_time,
                now - job.arrival_time,
                job=job.job_id,
                outcome=outcome,
                node=node,
                kills=job.kills,
            )

    async def _generate(self) -> None:
        while True:
            nxt = self.loadgen.next_job(self.rng)
            if nxt is None:
                return  # finite trace exhausted
            gap, demand = nxt
            await self.clock.sleep(self._arrival_gap(gap))
            now = self.clock.now()
            if self.controller is not None:
                self.window_arrivals.append(now)
            target = self._admit(now, demand)
            if target is not None:
                self._wake[target].set()

    async def _service_sleep(self, node: int, delay: float) -> bool:
        """Sleep the race duration; False when a crash voided the race.

        With faults on, the sleep's future is parked where the fault
        driver can cancel it; a bumped epoch identifies the cancellation
        as a crash (anything else is runtime teardown and re-raises).
        """
        if self.faults is None:
            await self.clock.sleep(delay)
            return True
        e0 = self._epoch[node]
        fut = asyncio.ensure_future(self.clock.sleep(delay))
        self._sleep_fut[node] = fut
        try:
            await fut
            return True
        except asyncio.CancelledError:
            if self._epoch[node] != e0:
                return False
            raise
        finally:
            self._sleep_fut[node] = None

    async def _serve_node(self, node: int) -> None:
        queue = self.queues[node]
        wake = self._wake[node]
        inj = self.faults
        while True:
            if inj is not None and not inj.up[node]:
                await self._up_evt[node].wait()
                continue
            if not queue:
                wake.clear()
                await wake.wait()
                continue
            delay, completes = self._race(self.clock.now(), node)
            if not await self._service_sleep(node, delay):
                continue  # crash voided the race
            now = self.clock.now()
            if completes:
                job = self._complete(now, node)
                if self.controller is not None:
                    self.window_completions.append((now, job.demand))
            else:
                job = self._kill(now, node)
                # counted until _forward_retrying resolves the job;
                # teardown cancellation leaves it counted, so a job
                # asleep in a retry backoff at t_end still shows up in
                # still_queued
                self._inflight_forwards += 1
                await self._forward_retrying(job, node)
                self._inflight_forwards -= 1

    async def _forward_retrying(self, job: Job, node: int) -> None:
        """Place a killed job at the forward target, retrying.

        The default configuration (no retries, no breaker) is the
        core's one-shot placement.  With resilience on, each attempt
        must pass the breaker and find the target up with room; failed
        attempts back off exponentially with jitter.  A job whose
        attempts are exhausted is rejected by the core's rule
        (``lost_to_failure`` when the target is down, else
        ``dropped_forward``).
        """
        target = self.policy.forward(node)
        breaker = self.breaker
        attempt = 0
        while target is not None:
            now = self.clock.now()
            if breaker is None or breaker.allow(now):
                if self._has_room(target):
                    if breaker is not None:
                        breaker.record_success(now)
                    self._place(now, job, target)
                    self._wake[target].set()
                    return
                if breaker is not None:
                    breaker.record_failure(now)
            if attempt >= self.forward_retries:
                break
            attempt += 1
            delay = self.retry_backoff * (2.0 ** (attempt - 1))
            if self.retry_jitter:
                delay *= 1.0 + self.retry_jitter * float(
                    self._resilience_rng.uniform(-1.0, 1.0)
                )
            await self.clock.sleep(delay)
        self._reject_forward(self.clock.now(), job, node, target)

    # -- fault handling -------------------------------------------------
    async def _drive_faults(self) -> None:
        """Replay the injector's plan on the runtime's clock."""
        for ev in self.faults.events():
            delay = ev.time - self.clock.now()
            if delay > 0:
                await self.clock.sleep(delay)
            now = self.clock.now()
            directive = self._apply_fault(ev, now)
            if directive == "crash":
                self._on_crash(ev.node)
            elif directive == "recover":
                self._on_restart(ev.node, now)

    def _on_crash(self, node: int) -> None:
        """The online side of a crash the core has applied."""
        rec = self._rec
        if rec.enabled:
            rec.add("serve.fault.crash")
        self._up_evt[node].clear()
        fut = self._sleep_fut[node]
        if fut is not None and not fut.done():
            fut.cancel()
        if self.supervisor is not None:
            self._sup_wake.set()

    def _on_restart(self, node: int, now: float) -> None:
        """Bring a node back into service (recovery or supervisor restart)."""
        rec = self._rec
        if rec.enabled:
            rec.add("serve.fault.restart")
        self._up_evt[node].set()

    # -- running --------------------------------------------------------
    async def arun(self, t_end: float, warmup: float = 0.0) -> SimulationResult:
        """Run until model time ``t_end``; measure after ``warmup``.

        A runtime runs once: its clock and queues carry the first run's
        end state, so a second call raises :class:`RuntimeError`.
        """
        if t_end <= warmup:
            raise ValueError("t_end must exceed warmup")
        if self._started:
            raise RuntimeError(
                "a DispatchRuntime runs once; build a new one for another run"
            )
        self._running = self._started = True
        # one recorder lookup per run: every per-job site reads the
        # cached reference (swapping recorders mid-run is unsupported)
        rec = self._rec = obs.recorder()
        t_wall0 = time.perf_counter() if rec.enabled else 0.0
        n = len(self.capacities)
        self._begin_run()
        self._wake = [asyncio.Event() for _ in range(n)]
        if self.faults is not None:
            self._up_evt = [asyncio.Event() for _ in range(n)]
            for evt in self._up_evt:
                evt.set()
            self._sup_wake = asyncio.Event()
        tasks = [asyncio.ensure_future(self._generate())]
        if rec.enabled:
            tasks.append(
                asyncio.ensure_future(
                    self._sample_depths(rec, self.gauge_interval)
                )
            )
        tasks += [
            asyncio.ensure_future(self._serve_node(i)) for i in range(n)
        ]
        if warmup > 0:
            tasks.append(
                asyncio.ensure_future(
                    self._fire_later(warmup, lambda: self._warm_reset(warmup))
                )
            )
        if self.faults is not None:
            tasks.append(asyncio.ensure_future(self._drive_faults()))
        if self.supervisor is not None:
            self.supervisor.bind(self)
            tasks.append(asyncio.ensure_future(self.supervisor.run()))
        if self.controller is not None:
            self.controller.bind(self)
            tasks.append(asyncio.ensure_future(self.controller.run()))
        for delay, fn in self._scheduled:
            tasks.append(asyncio.ensure_future(self._fire_later(delay, fn)))
        self._scheduled = []
        try:
            await self.clock.run_until(t_end)
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            self._running = False
        return self._result(
            rec, "serve", t_wall0, t_end, warmup, self._inflight_forwards
        )

    def run(self, t_end: float, warmup: float = 0.0) -> SimulationResult:
        """Synchronous convenience wrapper around :meth:`arun`."""
        return asyncio.run(self.arun(t_end, warmup))
