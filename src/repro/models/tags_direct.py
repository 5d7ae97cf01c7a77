"""Direct CTMC constructions of the TAGS system.

These build exactly the chains induced by the paper's PEPA models (the test
suite pins PEPA-vs-direct steady-state metrics to ~1e-9), but enumerate
tuple states directly from a successor function.  That makes them an
independent check of the PEPA construction, and lets them carry
variants the PEPA builders do not (``t_of_q1``, ``restart_work``, N
nodes).  Sweeps explore each structure once and refill only the rate
column per point (:class:`~repro.ctmc.bfs.ChainTemplate`).

State encodings
---------------
Exponential service (Figure 3)::

    (q1, r1, q2, ph2, r2)

* ``q1``: jobs at node 1 (0..K1); ``r1``: timeout phases remaining
  (n-1..0; the ``timeout`` action fires at 0, so the full clock is
  Erlang(n, t)); invariant ``q1 == 0 -> r1 == n - 1``.
* ``q2``: jobs at node 2; ``ph2``: 0 = head in repeat phase, 1 = head in
  residual service; ``r2``: repeat-timer ticks remaining.

H2 service (Figure 5) adds the head-of-queue phase at node 1 (``ph1``: 0
short / 1 long) and splits node 2's residual into short/long::

    (q1, ph1, r1, q2, ph2, r2)   ph2 in {0 repeat, 1 short, 2 long}

The N-node extension (``TagsMultiNode``) chains the paper's node-2 pattern:
every node ``i >= 2`` gives a timed-out arrival one full repeat cycle
followed by an exponential residual, racing node ``i``'s own timeout
(except the last node, which serves to exhaustion).  For ``i >= 3`` this
under-counts the repeated work (a job restarting at node 3 should repeat
its node-1 *and* node-2 time); the exact multi-repeat encoding is
configurable via ``repeat_cycles`` and defaults to ``i - 1`` cycles, the
faithful kill-and-restart accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/layers.py times the sweep path's solves by patching this
# module-level binding; ChainModel solves through its own import
from repro.ctmc import steady_state  # noqa: F401
from repro.ctmc.bfs import ChainTemplate
from repro.dists.residual import h2_residual_mixing
from repro.models.chain import ChainModel
from repro.models.metrics import QueueMetrics

__all__ = ["TagsExponential", "TagsHyperExponential", "TagsMultiNode"]


def figure3_rules(
    s, lam, mu, t1, t2, mu2, n, K1, K2, restart_work=True, tick_during_residual=False
) -> list:
    """The Figure 3 transitions out of ``s = (q1, r1, q2, ph2, r2)``.

    ``lam`` is the arrival rate in force at ``s`` and ``t1`` the node-1
    clock rate; ``t2`` and ``mu2`` are node 2's repeat-clock and service
    rates.  The rules never check ``lam``: a zero arrival rate (an off
    MMPP phase) emits zero-rate ``arrival``/``arrloss`` entries, which
    :func:`~repro.ctmc.bfs.bfs_arrays` skips.
    """
    q1, r1, q2, ph2, r2 = s
    out = []
    # node 1
    if q1 < K1:
        out.append(("arrival", lam, (q1 + 1, r1, q2, ph2, r2)))
    else:
        out.append(("arrloss", lam, s))
    top = n - 1  # timer reset value (n Erlang phases: n-1 .. 0)
    if q1 >= 1:
        out.append(("service1", mu, (q1 - 1, top, q2, ph2, r2)))
        if r1 >= 1:
            out.append(("tick1", t1, (q1, r1 - 1, q2, ph2, r2)))
        else:  # r1 == 0: the timeout fires
            if q2 < K2:
                out.append(("timeout", t1, (q1 - 1, top, q2 + 1, ph2, r2)))
            else:
                out.append(("timeout", t1, (q1 - 1, top, q2, ph2, r2)))
    # node 2
    if q2 >= 1:
        if not restart_work:
            # resume/migrate semantics: no repeat phase -- the job's
            # memoryless residual is served directly (state keeps
            # ph2 = 1, r2 = top so the encoding stays uniform)
            out.append(("service2", mu2, (q1, r1, q2 - 1, 1, top)))
        elif ph2 == 0:  # repeat phase
            if r2 >= 1:
                out.append(("tick2", t2, (q1, r1, q2, 0, r2 - 1)))
            else:
                out.append(("repeatservice", t2, (q1, r1, q2, 1, top)))
        else:  # residual service
            if tick_during_residual and r2 >= 1:
                out.append(("tick2", t2, (q1, r1, q2, 1, r2 - 1)))
            new_r2 = top if not tick_during_residual else r2
            out.append(("service2", mu2, (q1, r1, q2 - 1, 0, new_r2)))
    return out


class _TagsBase(ChainModel):
    """What the direct TAGS chains share beyond :class:`ChainModel`."""

    lam: float
    SOLVE_ENGINE = "chain-template-v1"

    def metrics(self) -> QueueMetrics:
        return self._tags_metrics(self.lam)


@dataclass
class TagsExponential(_TagsBase):
    """Two-node TAGS, exponential service (the Figure 3 chain).

    Extensions beyond the paper's homogeneous model (both default off):

    * **heterogeneous nodes** (Section 3: "if the system is heterogeneous
      ... new rates for the ticks of the repeated service and for
      service2"): ``mu2_service`` sets node 2's service rate and
      ``t2`` the repeat-clock rate; both default to ``mu`` / ``t``.
    * **dynamic timeout** (Section 7 future work: "a dynamic timeout
      duration that adapts to queue length"): ``t_of_q1`` maps the
      node-1 queue length to the clock rate used for ticks and the
      timeout; overrides ``t`` at node 1 when given.
    * **resume instead of restart** (the open problem of Section 6:
      "nobody has yet studied the costs and benefits of resume against
      restart"): with ``restart_work=False`` a timed-out job *migrates*
      -- no repeat service at node 2, just its (memoryless) residual --
      turning the system into the multi-level-feedback variant the
      paper's introduction contrasts TAGS with.
    """

    lam: float = 5.0
    mu: float = 10.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10
    tick_during_residual: bool = False
    mu2_service: float | None = None
    t2: float | None = None
    t_of_q1: "callable | None" = None
    restart_work: bool = True

    def __post_init__(self) -> None:
        if min(self.lam, self.mu, self.t) <= 0:
            raise ValueError("rates must be positive")
        if self.n < 1 or self.K1 < 1 or self.K2 < 1:
            raise ValueError("n, K1, K2 must be >= 1")
        if self.mu2_service is not None and self.mu2_service <= 0:
            raise ValueError("mu2_service must be positive")
        if self.t2 is not None and self.t2 <= 0:
            raise ValueError("t2 must be positive")
        if self.t_of_q1 is not None:
            for q in range(1, self.K1 + 1):
                if self.t_of_q1(q) <= 0:
                    raise ValueError(f"t_of_q1({q}) must be positive")

    _node_fields = (0, 2)  # (q1, r1, q2, ph2, r2)

    def _successors(self, s):
        t1 = self.t if self.t_of_q1 is None else float(self.t_of_q1(s[0]))
        t2 = self.t if self.t2 is None else self.t2
        mu2 = self.mu if self.mu2_service is None else self.mu2_service
        return figure3_rules(
            s, self.lam, self.mu, t1, t2, mu2, self.n, self.K1, self.K2,
            self.restart_work, self.tick_during_residual,
        )

    def _initial(self):
        ph0 = 0 if self.restart_work else 1
        return (0, self.n - 1, 0, ph0, self.n - 1)

    def _structure_key(self):
        # lam / mu / t / mu2_service / t2 / t_of_q1 scale rates only (all
        # validated positive, so no transition ever drops to rate 0);
        # everything here changes which transitions exist
        return (
            type(self).__qualname__,
            self.n,
            self.K1,
            self.K2,
            self.tick_during_residual,
            self.restart_work,
        )

    def _template_rates(self, tpl: ChainTemplate) -> np.ndarray:
        # every transition's rate is one of a handful of scalars (or a
        # t_of_q1 lookup on the source queue length): identical floats to
        # what _successors emits, so refilled generators are bit-equal
        rate = np.empty(tpl.n_transitions, dtype=np.float64)
        lam = float(self.lam)
        mu = float(self.mu)
        t2 = float(self.t if self.t2 is None else self.t2)
        mu2 = float(self.mu if self.mu2_service is None else self.mu2_service)
        for action, value in (
            ("arrival", lam),
            ("arrloss", lam),
            ("service1", mu),
            ("tick2", t2),
            ("repeatservice", t2),
            ("service2", mu2),
        ):
            rate[tpl.action_mask(action)] = value
        clock = tpl.action_mask("tick1") | tpl.action_mask("timeout")
        if self.t_of_q1 is None:
            rate[clock] = float(self.t)
        else:
            # sources of tick1/timeout always have q1 >= 1 (the clock
            # only runs while node 1 is busy), so index by q1 - 1
            lookup = np.array(
                [float(self.t_of_q1(q)) for q in range(1, self.K1 + 1)]
            )
            q1 = tpl.state_array()[tpl.src[clock], 0]
            rate[clock] = lookup[q1 - 1]
        return rate


@dataclass
class TagsHyperExponential(_TagsBase):
    """Two-node TAGS, H2 service (the Figure 5 chain).

    ``alpha_prime=None`` computes the exact residual-mixing probability
    from the Erlang(n, t) timeout race.
    """

    lam: float = 11.0
    alpha: float = 0.99
    mu1: float = 100.0
    mu2: float = 1.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10
    alpha_prime: float | None = None
    tick_during_residual: bool = False

    def __post_init__(self) -> None:
        if min(self.lam, self.mu1, self.mu2, self.t) <= 0:
            raise ValueError("rates must be positive")
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must be in (0, 1)")
        if self.n < 1 or self.K1 < 1 or self.K2 < 1:
            raise ValueError("n, K1, K2 must be >= 1")

    @property
    def resolved_alpha_prime(self) -> float:
        if self.alpha_prime is not None:
            return self.alpha_prime
        return h2_residual_mixing(self.t, self.alpha, self.mu1, self.mu2, self.n)

    @property
    def mean_service(self) -> float:
        return self.alpha / self.mu1 + (1 - self.alpha) / self.mu2

    _node_fields = (0, 3)  # (q1, ph1, r1, q2, ph2, r2)

    def _successors(self, s):
        q1, ph1, r1, q2, ph2, r2 = s
        lam, t, n = self.lam, self.t, self.n
        a, ap = self.alpha, self.resolved_alpha_prime
        mu_head = self.mu1 if ph1 == 0 else self.mu2
        out = []

        top = n - 1  # timer reset value (n Erlang phases: n-1 .. 0)

        def node1_departure(action: str, rate: float, q2_next, ph2_next, r2_next):
            """Head leaves node 1; draw the next head's phase if any."""
            if q1 == 1:
                out.append((action, rate, (0, 0, top, q2_next, ph2_next, r2_next)))
            else:
                out.append(
                    (action, rate * a, (q1 - 1, 0, top, q2_next, ph2_next, r2_next))
                )
                out.append(
                    (
                        action,
                        rate * (1 - a),
                        (q1 - 1, 1, top, q2_next, ph2_next, r2_next),
                    )
                )

        # node 1
        if q1 == 0:
            out.append(("arrival", lam * a, (1, 0, top, q2, ph2, r2)))
            out.append(("arrival", lam * (1 - a), (1, 1, top, q2, ph2, r2)))
        elif q1 < self.K1:
            out.append(("arrival", lam, (q1 + 1, ph1, r1, q2, ph2, r2)))
        else:
            out.append(("arrloss", lam, s))
        if q1 >= 1:
            node1_departure("service1", mu_head, q2, ph2, r2)
            if r1 >= 1:
                out.append(("tick1", t, (q1, ph1, r1 - 1, q2, ph2, r2)))
            else:
                if q2 < self.K2:
                    node1_departure("timeout", t, q2 + 1, ph2, r2)
                else:
                    node1_departure("timeout", t, q2, ph2, r2)
        # node 2
        if q2 >= 1:
            if ph2 == 0:  # repeat phase
                if r2 >= 1:
                    out.append(("tick2", t, (q1, ph1, r1, q2, 0, r2 - 1)))
                else:
                    out.append(("repeatservice", t * ap, (q1, ph1, r1, q2, 1, top)))
                    out.append(
                        ("repeatservice", t * (1 - ap), (q1, ph1, r1, q2, 2, top))
                    )
            else:
                mu_res = self.mu1 if ph2 == 1 else self.mu2
                if self.tick_during_residual and r2 >= 1:
                    out.append(("tick2", t, (q1, ph1, r1, q2, ph2, r2 - 1)))
                new_r2 = top if not self.tick_during_residual else r2
                out.append(
                    ("service2", mu_res, (q1, ph1, r1, q2 - 1, 0, new_r2))
                )
        return out

    def _initial(self):
        return (0, 0, self.n - 1, 0, 0, self.n - 1)

    def _structure_key(self):
        # alpha is validated inside (0, 1) so its splits never vanish,
        # but alpha_prime is free: a degenerate value (0 or 1) zeroes one
        # repeatservice branch and drops those transitions, which is a
        # different structure
        ap = self.resolved_alpha_prime
        return (
            type(self).__qualname__,
            self.n,
            self.K1,
            self.K2,
            self.tick_during_residual,
            ap == 0.0,
            ap == 1.0,
        )

    def _template_rates(self, tpl: ChainTemplate) -> np.ndarray:
        S = tpl.state_array()
        src, dst = tpl.src, tpl.dst
        rate = np.empty(tpl.n_transitions, dtype=np.float64)
        lam, t = float(self.lam), float(self.t)
        a = float(self.alpha)
        ap = float(self.resolved_alpha_prime)
        mu1, mu2 = float(self.mu1), float(self.mu2)

        m = tpl.action_mask("arrival")
        # from an empty node 1 the stream splits by the entering head's
        # phase; otherwise the head is unchanged and the full lam flows
        rate[m] = np.where(
            S[src[m], 0] == 0,
            np.where(S[dst[m], 1] == 0, lam * a, lam * (1 - a)),
            lam,
        )
        rate[tpl.action_mask("arrloss")] = lam
        # node-1 departures: head-phase rate times the next head's
        # phase draw (no draw when the queue empties: q1 == 1)
        for action, clock in (("service1", False), ("timeout", True)):
            m = tpl.action_mask(action)
            if not m.any():
                continue
            base = t if clock else np.where(S[src[m], 1] == 0, mu1, mu2)
            branch = np.where(
                S[src[m], 0] == 1,
                1.0,
                np.where(S[dst[m], 1] == 0, a, 1 - a),
            )
            rate[m] = base * branch
        rate[tpl.action_mask("tick1")] = t
        rate[tpl.action_mask("tick2")] = t
        m = tpl.action_mask("repeatservice")
        rate[m] = np.where(S[dst[m], 4] == 1, t * ap, t * (1 - ap))
        m = tpl.action_mask("service2")
        rate[m] = np.where(S[src[m], 4] == 1, mu1, mu2)
        return rate


@dataclass
class TagsMultiNode(_TagsBase):
    """N-node TAGS chain with exponential service (paper Section 3: "a
    simple matter to add more nodes").

    Node 1 receives the Poisson stream; every node ``i < N`` races its
    Erlang(n+1, t_i) timeout against the head job's processing; node ``N``
    serves to exhaustion.  A job arriving at node ``i >= 2`` first performs
    ``repeat_cycles(i)`` full repeat cycles (defaults to ``i - 1``:
    kill-and-restart repeats *all* earlier timeout periods) and then its
    exponential residual.

    State: per node ``(q_i, r_i, c_i)`` with ``r_i`` ticks remaining and
    ``c_i`` the head's remaining repeat cycles (``0`` = in residual
    service).  The last node has no timer (``r_N`` fixed at 0).
    """

    lam: float = 5.0
    mu: float = 10.0
    timeouts: tuple = (51.0,)
    n: int = 2
    capacities: tuple = (5, 5)
    repeat_cycles: "callable | None" = None

    def __post_init__(self) -> None:
        self.N = len(self.capacities)
        if self.N < 2:
            raise ValueError("need at least two nodes")
        if len(self.timeouts) != self.N - 1:
            raise ValueError("need one timeout rate per non-final node")
        if min(self.lam, self.mu) <= 0 or min(self.timeouts) <= 0:
            raise ValueError("rates must be positive")
        # remember whether the cycle policy was customised before
        # defaulting it: a custom callable has no hashable identity, so
        # such instances opt out of the structure cache
        self._custom_cycles = self.repeat_cycles is not None
        if self.repeat_cycles is None:
            self.repeat_cycles = lambda i: i - 1  # node index is 1-based

    # ------------------------------------------------------------------
    def _initial(self):
        parts = []
        for i in range(self.N):
            has_timer = i < self.N - 1
            parts.append((0, self.n - 1 if has_timer else 0, 0))
        return tuple(parts)

    def _successors(self, s):
        lam, mu, n = self.lam, self.mu, self.n
        out = []
        state = list(s)

        def with_node(i, node):
            new = state.copy()
            new[i] = node
            return tuple(new)

        def push(i, updates: dict):
            """Apply updates to several nodes at once."""
            new = state.copy()
            for j, node in updates.items():
                new[j] = node
            return tuple(new)

        # arrivals at node 1
        q1, r1, c1 = s[0]
        if q1 < self.capacities[0]:
            out.append(("arrival", lam, with_node(0, (q1 + 1, r1, c1))))
        else:
            out.append(("arrloss", lam, s))

        for i in range(self.N):
            q, r, c = s[i]
            if q == 0:
                continue
            has_timer = i < self.N - 1
            t = self.timeouts[i] if has_timer else None

            def next_head(i=i):
                """Node i after the head departs: reset timer and set the
                repeat count for the next head."""
                cycles = self.repeat_cycles(i + 1) if i >= 1 else 0
                remaining = s[i][0] - 1
                cycles = cycles if remaining >= 1 else 0
                if i < self.N - 1:
                    r_new = self.n - 1
                else:  # last node: r is the repeat countdown
                    r_new = self.n - 1 if cycles >= 1 else 0
                return (remaining, r_new, cycles)

            # processing: repeat cycles then residual
            if c >= 1:
                # repeat cycle driven by a dedicated Erlang(n+1, t_rep);
                # reuse the node's own timer rate (last node uses the
                # previous node's rate, the period it must repeat)
                t_rep = self.timeouts[min(i, self.N - 2)]
                # the repeat cycle shares the countdown r of the node timer
                # only on nodes with a timer; the final node tracks the
                # repeat countdown in r directly.
                if has_timer:
                    # race: timeout (node timer) vs nothing else during
                    # repeat -- both countdowns run on the same Erlang clock
                    # approximation: one clock, timeout wins if it fires
                    # before the repeats finish.  We model the repeat with
                    # its own countdown in c as whole cycles of the shared
                    # clock: each time the clock completes, one repeat cycle
                    # finishes instead of a timeout.
                    if r >= 1:
                        out.append(("tick", t, with_node(i, (q, r - 1, c))))
                    else:
                        out.append(
                            ("repeatservice", t, with_node(i, (q, n - 1, c - 1)))
                        )
                else:
                    if r >= 1:
                        out.append(("tick", t_rep, with_node(i, (q, r - 1, c))))
                    else:
                        out.append(
                            (
                                "repeatservice",
                                t_rep,
                                with_node(i, (q, n - 1 if c > 1 else 0, c - 1)),
                            )
                        )
            else:
                # residual service races the timeout (if any)
                action = "service1" if i == 0 else "service2"
                out.append((action, mu, with_node(i, next_head())))
                if has_timer:
                    if r >= 1:
                        out.append(("tick", t, with_node(i, (q, r - 1, c))))
                    else:
                        # timeout: head moves to node i+1 (or is dropped)
                        qn, rn, cn = s[i + 1]
                        if qn < self.capacities[i + 1]:
                            if qn == 0:
                                cyc = self.repeat_cycles(i + 2)
                                if i + 1 < self.N - 1:
                                    rn2 = self.n - 1
                                else:
                                    rn2 = self.n - 1 if cyc >= 1 else 0
                                node_next = (1, rn2, cyc)
                            else:
                                node_next = (qn + 1, rn, cn)
                            out.append(
                                (
                                    "timeout",
                                    t,
                                    push(i, {i: next_head(), i + 1: node_next}),
                                )
                            )
                        else:
                            out.append(("timeout", t, with_node(i, next_head())))
        return out

    def _structure_key(self):
        if self._custom_cycles:
            return None
        # lam / mu / timeouts are rate-only (validated positive); the
        # node count, capacities, phase count and the default cycle
        # policy determine reachability
        return (type(self).__qualname__, self.n, self.capacities)

    def _populations(self) -> tuple:
        states = self.states
        return tuple(
            np.array([s[i][0] for s in states], dtype=float) for i in range(self.N)
        )

    def metrics(self) -> QueueMetrics:
        return self._metrics(
            throughput=self._throughput("service1") + self._throughput("service2"),
            offered_load=self.lam,
            arrival_loss=self._throughput("arrloss"),
        )
