"""The TAGS node core: one copy of the allocation rules both hosts run.

Semantics (true kill-and-restart TAGS, not the CTMC approximation):

* a job draws a single service **demand** on arrival and keeps it for life;
* at a node the head job is served FCFS at the node's speed; if the node
  has a timeout, a duration is drawn from the timeout sampler at *service
  start* and the job is killed when it fires first -- all prior work is
  lost;
* a killed job restarts (same demand, from scratch) at the policy's
  forward node, or is dropped if that node is full -- the paper's "lost
  at node 2 after completing a timed-out service" case; policies with
  ``resume=True`` (the multi-level-feedback variant of the paper's
  Section 6 open problem) carry the remaining work over instead;
* queues are bounded: an arrival routed to a full node is dropped.

Because nothing preempts the head job, the winner of the service/timeout
race is known at service start (:meth:`NodeCore._race`), so a host only
has to wait out one delay per busy node.

:class:`NodeCore` owns the per-run state (queues, time-averaged queue
lengths, counters, per-job samples, the job log) and every rule that
changes it: admission, the service race, completion, kill and forward
placement, crash handling, the warm-up reset and result assembly.  It
never waits and never schedules; two drivers supply time:

* :class:`repro.sim.runner.Simulation` -- a heap-of-events loop;
* :class:`repro.serve.dispatcher.DispatchRuntime` -- asyncio tasks on a
  virtual or wall :class:`~repro.serve.clock.Clock`, adding retries, a
  circuit breaker, a supervisor and a timeout controller on top.

Each driver calls the core at the model times its events fire and
draws from the shared RNG in its own fixed order, so a seeded run is
reproducible, and on a shared trace the two drivers' per-job outcomes
agree exactly (``tests/serve/test_equivalence.py``).

**Faults**: with a :class:`~repro.faults.FaultInjector` attached, a
crash bumps the node's epoch (a driver discards any race outcome started
under an older epoch), counts the interrupted attempt's accumulated
service as ``work_wasted`` and either keeps the queue for recovery
(``on_crash="requeue"``) or sheds it (``"drop"``).  Arrivals and
forwards to a down node are shed as ``lost_to_failure``; degraded speed
scales service at service start; ``single_node`` mode suppresses the
timeout while the forward target is down.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.faults.injector import FaultInjector
from repro.sim.stats import TimeAverage, batch_means_ci

__all__ = ["Job", "NodeCore", "SimulationResult"]


@dataclass(slots=True)
class Job:
    """One job: its arrival time, lifetime demand, and -- under resume
    policies -- the work still outstanding after kills.

    ``remaining`` is genuinely optional (``None`` means "not yet
    started": it is filled with the full demand on construction), so it
    is typed ``float | None`` rather than lying to the dataclass with a
    ``float`` annotation and a ``None`` default.
    """

    arrival_time: float
    demand: float
    remaining: float | None = None
    job_id: int = -1
    kills: int = 0

    def __post_init__(self) -> None:
        if self.remaining is None:
            self.remaining = self.demand


@dataclass
class SimulationResult:
    """Post-warm-up measurements of one run (either driver).

    ``demands`` is aligned with ``response_times``/``slowdowns`` (one entry
    per completed job), enabling per-size-class analysis -- TAGS's whole
    purpose is to treat short and long jobs differently, and
    Harchol-Balter's evaluation revolves around slowdown by job size.

    ``jobs`` (only with ``record_jobs=True``, never pruned at warm-up) is
    the per-job outcome log ``[(job_id, outcome, node, kills), ...]`` in
    event order, with ids assigned in arrival order -- the currency the
    equivalence tests compare between the two drivers.

    ``killed`` counts timeout kills and ``forwarded`` the killed jobs
    placed at their forward node.

    Failure accounting (all zero without fault injection):
    ``lost_to_failure`` counts jobs destroyed by node failure (crashed
    away under ``on_crash="drop"``, shed because the routed or forward
    node was down), ``work_wasted`` the demand-units of service an
    interrupted attempt had accumulated when its node crashed, and
    ``still_queued`` the jobs left in queues (or mid-forward) at
    ``t_end`` -- so every offered job is accounted for exactly once
    (:attr:`accounted`).
    """

    duration: float
    offered: int
    completed: int
    dropped_arrival: int
    dropped_forward: int
    mean_queue_lengths: tuple
    response_times: np.ndarray
    slowdowns: np.ndarray
    demands: np.ndarray = field(default_factory=lambda: np.empty(0))
    jobs: "list | None" = None
    lost_to_failure: int = 0
    work_wasted: float = 0.0
    still_queued: int = 0
    killed: int = 0
    forwarded: int = 0

    def job_outcomes(self) -> dict:
        """``job_id -> (outcome, node, kills)`` for finished jobs."""
        if self.jobs is None:
            raise ValueError("run with record_jobs=True to keep job logs")
        return {jid: (outcome, node, kills) for jid, outcome, node, kills in self.jobs}

    @property
    def throughput(self) -> float:
        return self.completed / self.duration

    @property
    def offered_rate(self) -> float:
        return self.offered / self.duration

    @property
    def loss_probability(self) -> float:
        total = self.dropped_arrival + self.dropped_forward
        return total / self.offered if self.offered else 0.0

    @property
    def accounted(self) -> int:
        """Jobs accounted for: completed + dropped + lost + queued.

        Equals :attr:`offered` whenever the measurement window starts at
        time zero (``warmup=0``) -- the job-conservation invariant the
        fault-injection property tests pin for every seeded plan.
        """
        return (
            self.completed
            + self.dropped_arrival
            + self.dropped_forward
            + self.lost_to_failure
            + self.still_queued
        )

    @property
    def failure_loss_probability(self) -> float:
        return self.lost_to_failure / self.offered if self.offered else 0.0

    @property
    def mean_jobs(self) -> float:
        return float(sum(self.mean_queue_lengths))

    @property
    def mean_response_time(self) -> float:
        return float(self.response_times.mean()) if self.response_times.size else 0.0

    @property
    def mean_slowdown(self) -> float:
        return float(self.slowdowns.mean()) if self.slowdowns.size else 0.0

    def response_time_ci(self, n_batches: int = 20) -> tuple:
        return batch_means_ci(self.response_times, n_batches)

    # -- per-size-class views ------------------------------------------
    def class_mask(self, threshold: float) -> np.ndarray:
        """Boolean mask of *short* completed jobs (demand <= threshold)."""
        if self.demands.size != self.response_times.size:
            raise ValueError("this result carries no per-job demands")
        return self.demands <= threshold

    def mean_slowdown_by_class(self, threshold: float) -> tuple:
        """(short-job mean slowdown, long-job mean slowdown)."""
        short = self.class_mask(threshold)
        s = float(self.slowdowns[short].mean()) if short.any() else float("nan")
        l = (
            float(self.slowdowns[~short].mean())
            if (~short).any()
            else float("nan")
        )
        return s, l

    def mean_response_by_class(self, threshold: float) -> tuple:
        """(short-job mean response, long-job mean response)."""
        short = self.class_mask(threshold)
        s = (
            float(self.response_times[short].mean())
            if short.any()
            else float("nan")
        )
        l = (
            float(self.response_times[~short].mean())
            if (~short).any()
            else float("nan")
        )
        return s, l

    def slowdown_percentile(self, q: float) -> float:
        """Slowdown percentile (q in [0, 100])."""
        if self.slowdowns.size == 0:
            return float("nan")
        return float(np.percentile(self.slowdowns, q))


class NodeCore:
    """Bounded FCFS nodes under an allocation policy: state and rules.

    The base of both drivers.  Parameters are the ones the drivers
    share: ``policy`` (``route``/``timeout``/``forward``, optional
    ``resume``), per-node ``capacities`` (queue + server) and
    ``speeds``, ``seed``/``rng`` (``rng`` wins when both are given),
    ``record_jobs`` (keep :attr:`SimulationResult.jobs`) and ``faults``
    (a :class:`~repro.faults.FaultPlan`, wrapped in a default
    :class:`~repro.faults.FaultInjector`, or a configured injector).

    Every mutating method takes the model time ``now`` of the event the
    driver is handling; none of them waits or schedules.
    """

    def __init__(
        self,
        policy,
        capacities,
        *,
        speeds=None,
        seed: int = 0,
        rng: "np.random.Generator | None" = None,
        record_jobs: bool = False,
        faults=None,
    ) -> None:
        self.policy = policy
        self.capacities = tuple(int(k) for k in capacities)
        if len(self.capacities) != policy.n_nodes():
            raise ValueError(
                f"policy expects {policy.n_nodes()} nodes, got "
                f"{len(self.capacities)} capacities"
            )
        if min(self.capacities) < 1:
            raise ValueError("capacities must be >= 1")
        if speeds is None:
            self.speeds = (1.0,) * len(self.capacities)
        else:
            self.speeds = tuple(float(s) for s in speeds)
            if len(self.speeds) != len(self.capacities):
                raise ValueError("need one speed per node")
            if min(self.speeds) <= 0:
                raise ValueError("speeds must be positive")
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.record_jobs = record_jobs
        if faults is None or isinstance(faults, FaultInjector):
            self.faults = faults
        else:
            self.faults = FaultInjector(faults)
        self._begin_run()

    def _begin_run(self) -> None:
        """Fresh per-run state (and a re-armed fault injector)."""
        n = len(self.capacities)
        self.queues: "list[deque]" = [deque() for _ in range(n)]
        self.q_avg = [TimeAverage() for _ in range(n)]
        # per-node epoch: a crash bumps it, voiding the race in progress
        self._epoch = [0] * n
        # per-node (start time, effective speed, work at start) of the
        # in-progress attempt; consulted on crash for waste accounting
        # and the requeue remaining-work restore
        self._service_start: list = [None] * n
        self._resume = getattr(self.policy, "resume", False)
        self.offered = self.completed = 0
        self.killed = self.forwarded = 0
        self.dropped_arrival = self.dropped_forward = 0
        self.lost_to_failure = 0
        self.work_wasted = 0.0
        self.responses: list = []
        self.slowdowns: list = []
        self.demands: list = []
        self.jobs: "list | None" = [] if self.record_jobs else None
        self._next_id = 0  # job ids by arrival order; never reset at warm-up
        if self.faults is not None:
            self.faults.reset(n)

    # -- rules ----------------------------------------------------------
    def _finish(self, job: Job, now: float, outcome: str, node: int) -> None:
        """A job leaves the system with ``outcome`` at ``node``."""
        if self.jobs is not None:
            self.jobs.append((job.job_id, outcome, node, job.kills))

    def _arrival_gap(self, gap: float) -> float:
        """An inter-arrival gap under the current arrival surge."""
        inj = self.faults
        if inj is not None and inj.arrival_factor != 1.0:
            gap = gap / inj.arrival_factor
        return gap

    def _admit(self, now: float, demand: float) -> "int | None":
        """Route a new job; return the node it joined, or None when it
        was shed (routed node down) or dropped (routed node full)."""
        self.offered += 1
        job = Job(now, demand, job_id=self._next_id)
        self._next_id += 1
        queues = self.queues
        target = self.policy.route([len(q) for q in queues], self.rng)
        inj = self.faults
        if inj is not None and not inj.up[target]:
            # a down node accepts nothing; the arrival is shed
            self.lost_to_failure += 1
            self._finish(job, now, "lost_to_failure", target)
            return None
        queue = queues[target]
        if len(queue) >= self.capacities[target]:
            self.dropped_arrival += 1
            self._finish(job, now, "dropped_arrival", target)
            return None
        queue.append(job)
        self.q_avg[target].update(now, len(queue))
        return target

    def _race(self, now: float, node: int) -> "tuple | None":
        """Start serving ``node``'s head job: ``(delay, completes)``.

        The race outcome is decided here: the job completes after
        ``delay`` when ``completes`` is True, else its timeout fires
        after ``delay``.  None when the node is down (service resumes
        on recovery).

        A node of speed ``s`` finishes a demand-``D`` job in ``D/s``
        wall time; the timeout races that wall-clock duration.  Under
        resume policies the job's *remaining* work is what is served
        (and decremented on a kill); under restart the full demand is
        re-served, so prior service is lost.  Degradation scales the
        effective speed; ``single_node`` mode suppresses the timeout
        while the forward target is down.
        """
        inj = self.faults
        if inj is not None and not inj.up[node]:
            return None
        job = self.queues[node][0]
        work = job.remaining if self._resume else job.demand
        speed = self.speeds[node]
        if inj is not None:
            speed = speed * inj.speed_factor[node]
        wall = work / speed
        self._service_start[node] = (now, speed, work)
        policy = self.policy
        sampler = policy.timeout(node)
        if sampler is None or (
            inj is not None and inj.suppress_timeout(policy.forward(node))
        ):
            return wall, True
        tau = sampler.sample(self.rng)
        if wall <= tau:
            return wall, True
        if self._resume:
            job.remaining = work - tau * speed
        return tau, False

    def _pop_head(self, now: float, node: int) -> Job:
        self._service_start[node] = None
        queue = self.queues[node]
        job = queue.popleft()
        self.q_avg[node].update(now, len(queue))
        return job

    def _complete(self, now: float, node: int) -> Job:
        """The head job of ``node`` won its race."""
        job = self._pop_head(now, node)
        self.completed += 1
        self.responses.append(now - job.arrival_time)
        self.slowdowns.append((now - job.arrival_time) / job.demand)
        self.demands.append(job.demand)
        self._finish(job, now, "completed", node)
        return job

    def _kill(self, now: float, node: int) -> Job:
        """The head job of ``node`` timed out; the caller places it."""
        job = self._pop_head(now, node)
        self.killed += 1
        job.kills += 1
        return job

    def _has_room(self, target: int) -> bool:
        inj = self.faults
        return (inj is None or inj.up[target]) and len(
            self.queues[target]
        ) < self.capacities[target]

    def _place(self, now: float, job: Job, target: int) -> None:
        """Queue a killed job at its forward target."""
        self.forwarded += 1
        queue = self.queues[target]
        queue.append(job)
        self.q_avg[target].update(now, len(queue))

    def _reject_forward(
        self, now: float, job: Job, node: int, target: "int | None"
    ) -> None:
        """A killed job found no place: shed when the target is down,
        dropped when it is full or there is none."""
        inj = self.faults
        if inj is not None and target is not None and not inj.up[target]:
            self.lost_to_failure += 1
            self._finish(job, now, "lost_to_failure", node)
        else:
            self.dropped_forward += 1
            self._finish(job, now, "dropped_forward", node)

    def _forward(self, now: float, job: Job, node: int) -> "int | None":
        """Place a job killed at ``node`` once, with no retry; return the
        node it joined, or None when it was shed or dropped."""
        target = self.policy.forward(node)
        if target is not None and self._has_room(target):
            self._place(now, job, target)
            return target
        self._reject_forward(now, job, node, target)
        return None

    def _apply_fault(self, event, now: float) -> "str | None":
        """Apply one plan event; return the injector's directive."""
        directive = self.faults.apply(event, now)
        if directive == "crash":
            self._crash(now, event.node)
        return directive

    def _crash(self, now: float, node: int) -> None:
        inj = self.faults
        self._epoch[node] += 1  # voids this node's race in progress
        attempt = self._service_start[node]
        self._service_start[node] = None
        queue = self.queues[node]
        if attempt is not None:
            start_t, att_speed, att_work = attempt
            self.work_wasted += (now - start_t) * att_speed
            if inj.on_crash == "requeue" and self._resume:
                # the destroyed attempt's partial service is lost, but
                # credit from earlier kills is kept
                queue[0].remaining = att_work
        if inj.on_crash == "drop" and queue:
            for job in queue:
                self.lost_to_failure += 1
                self._finish(job, now, "lost_to_failure", node)
            queue.clear()
            self.q_avg[node].update(now, 0)

    def _warm_reset(self, t: float) -> None:
        """Warm-up boundary: zero the measurements, keep jobs in flight.

        Queue lengths are unchanged between the last event and the one
        that crosses the boundary, so anchoring the integrators at
        exactly ``t`` makes the measurement window ``[t, t_end]``.
        """
        for node, avg in enumerate(self.q_avg):
            avg.reset(t, len(self.queues[node]))
        self.offered = self.completed = 0
        self.killed = self.forwarded = 0
        self.dropped_arrival = self.dropped_forward = 0
        self.lost_to_failure = 0
        self.work_wasted = 0.0
        self.responses.clear()
        self.slowdowns.clear()
        self.demands.clear()

    def _result(
        self,
        rec,
        host: str,
        t_wall0: float,
        t_end: float,
        warmup: float,
        in_flight: int = 0,
    ) -> SimulationResult:
        """Assemble the run's result; file the ``<host>.run`` span and
        end-of-run counters when ``rec`` is recording.  ``in_flight``
        counts jobs held by the driver outside any queue."""
        q_means = tuple(a.mean(t_end) for a in self.q_avg)
        if rec.enabled:
            rec.record_span(
                f"{host}.run",
                t_wall0,
                time.perf_counter() - t_wall0,
                t_end=t_end,
                warmup=warmup,
                nodes=len(self.capacities),
            )
            rec.add(f"{host}.offered", self.offered)
            rec.add(f"{host}.completed", self.completed)
            rec.add(f"{host}.killed", self.killed)
            rec.add(f"{host}.forwarded", self.forwarded)
            rec.add(f"{host}.dropped.arrival", self.dropped_arrival)
            rec.add(f"{host}.dropped.forward", self.dropped_forward)
            if self.faults is not None:
                rec.add(f"{host}.lost_to_failure", self.lost_to_failure)
                rec.gauge(f"{host}.work_wasted", self.work_wasted)
            for i, mean in enumerate(q_means):
                rec.gauge(f"{host}.mean_queue_length", mean, node=i)
        return SimulationResult(
            duration=max(t_end - warmup, 1e-12),
            offered=self.offered,
            completed=self.completed,
            dropped_arrival=self.dropped_arrival,
            dropped_forward=self.dropped_forward,
            mean_queue_lengths=q_means,
            response_times=np.asarray(self.responses),
            slowdowns=np.asarray(self.slowdowns),
            demands=np.asarray(self.demands),
            jobs=self.jobs,
            lost_to_failure=self.lost_to_failure,
            work_wasted=self.work_wasted,
            still_queued=sum(len(q) for q in self.queues) + in_flight,
            killed=self.killed,
            forwarded=self.forwarded,
        )
