"""PEPA model of two-node TAGS with exponential service (paper Figure 3).

The model is generated programmatically (queue sizes are parameters), with
component names matching the paper: ``Q1_i``, ``Timer1_i``, ``Q2_i`` /
``Q2r_i`` (the paper's primed ``Q2'_i``), ``Timer2_i``.

Structure (see DESIGN.md interpretation notes)::

    Node1  =  Q1_0  <service1, tick1, timeout>   Timer1_{n-1}
    Node2  =  Q2_0  <repeatservice, tick2>       Timer2_{n-1}
    System =  Node1 <timeout> Node2

``timeout`` is therefore a three-way synchronisation: Timer1 supplies rate
``t``, Q1 passively sheds the head job, Q2 passively admits it (or drops it
via a self-loop when full).  ``service2`` is *not* in Node2's cooperation
set: Timer2 never performs it (unlike Timer1, which resets on
``service1``), so including it -- as the paper's Figure 4 appears to --
would block queue 2 for ever.  Our well-formedness checker flags exactly
this mistake.

**Timer convention.** The paper is internally inconsistent about ``n``: the
printed component definitions give the timer ``n`` ticks plus the timeout
action (Erlang(n+1, t)), but the prose ("the average total timeout duration
... is simply n/t"), the Section 4 algebra (``(t/(t+mu))^n``) and the
reported state count (4331 at n=6, K1=K2=10) all treat ``n`` as the total
number of Erlang *phases*.  We follow the numerical results: the timer has
derivatives ``Timer_{n-1} .. Timer_0`` (``n-1`` ticks, then ``timeout``),
mean timeout ``n / t``.  With this convention the reachable state space at
n=6, K=10 is exactly ``(K1 n + 1)(K2 (n+1) + 1) = 61 * 71 = 4331``,
matching the paper.

Two encodings of the node-2 timer during the residual service are offered
(``tick_during_residual``): the paper's Figure 3 text includes a
``(tick2, T)`` self-loop in ``Q2'_i`` (the timer keeps running), while the
paper's own state-count formula ``K2 (n+2) + 1`` matches the timer being
frozen until the next repeat phase.  Both are built; metrics differ only
marginally (see ``benchmarks/bench_ablation_tick2.py``).

Loss accounting: a self-loop ``(arrloss, lam)`` is attached to the full
``Q1_K1`` derivative.  Self-loops do not alter the CTMC, but give the
node-1 drop rate directly as an action throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

# perfbench/layers.py times the sweep path's solves by patching this
# module-level binding; ChainModel solves through its own import
from repro.ctmc import steady_state  # noqa: F401
from repro.models._pepa_terms import _choice, _p
from repro.models.chain import ChainModel
from repro.models.metrics import QueueMetrics
from repro.pepa import Constant, Cooperation, Model, top
from repro.sweep.structure import structure_cache

__all__ = [
    "TagsParameters",
    "TagsPepa",
    "build_tags_model",
]


@dataclass(frozen=True)
class TagsParameters:
    """Parameters of the Figure 3 model.

    ``n`` is the total number of Erlang phases in the timeout clock
    (``n - 1`` ticks followed by the ``timeout`` action), so the timeout
    duration is Erlang(n, t) with mean ``n / t`` -- the convention of the
    paper's prose and numerical results (see the module docstring).
    """

    lam: float = 5.0
    mu: float = 10.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10
    tick_during_residual: bool = False

    def __post_init__(self) -> None:
        if min(self.lam, self.mu, self.t) <= 0:
            raise ValueError("rates must be positive")
        if self.n < 1 or self.K1 < 1 or self.K2 < 1:
            raise ValueError("n, K1, K2 must be >= 1")

    @property
    def mean_timeout(self) -> float:
        """Mean total timeout duration (n Erlang phases at rate t)."""
        return self.n / self.t


def build_tags_model(params: TagsParameters) -> Model:
    """Construct the Figure 3 PEPA model."""
    lam, mu, t = params.lam, params.mu, params.t
    n, K1, K2 = params.n, params.K1, params.K2
    defs: dict = {}

    # ------------------------------------------------------ queue 1
    defs["Q1_0"] = _p("arrival", lam, "Q1_1")
    for i in range(1, K1):
        defs[f"Q1_{i}"] = _choice(
            _p("arrival", lam, f"Q1_{i + 1}"),
            _p("service1", mu, f"Q1_{i - 1}"),
            _p("timeout", top(), f"Q1_{i - 1}"),
            _p("tick1", top(), f"Q1_{i}"),
        )
    defs[f"Q1_{K1}"] = _choice(
        _p("timeout", top(), f"Q1_{K1 - 1}"),
        _p("tick1", top(), f"Q1_{K1}"),
        _p("service1", mu, f"Q1_{K1 - 1}"),
        _p("arrloss", lam, f"Q1_{K1}"),
    )

    # ------------------------------------------------------ timer 1
    # n Erlang phases: Timer1_{n-1} .. Timer1_1 tick, Timer1_0 fires
    defs["Timer1_0"] = _choice(
        _p("timeout", t, f"Timer1_{n - 1}"),
        _p("service1", top(), f"Timer1_{n - 1}"),
    ) if n > 1 else _choice(
        _p("timeout", t, "Timer1_0"),
        _p("service1", top(), "Timer1_0"),
    )
    for i in range(1, n):
        defs[f"Timer1_{i}"] = _choice(
            _p("tick1", t, f"Timer1_{i - 1}"),
            _p("service1", top(), f"Timer1_{n - 1}"),
        )

    # ------------------------------------------------------ queue 2
    defs["Q2_0"] = _p("timeout", top(), "Q2_1")
    for i in range(1, K2):
        defs[f"Q2_{i}"] = _choice(
            _p("timeout", top(), f"Q2_{i + 1}"),
            _p("tick2", top(), f"Q2_{i}"),
            _p("repeatservice", top(), f"Q2r_{i}"),
        )
        residual_terms = [
            _p("timeout", top(), f"Q2r_{i + 1}"),
            _p("service2", mu, f"Q2_{i - 1}"),
        ]
        if params.tick_during_residual:
            residual_terms.insert(1, _p("tick2", top(), f"Q2r_{i}"))
        defs[f"Q2r_{i}"] = _choice(*residual_terms)
    defs[f"Q2_{K2}"] = _choice(
        _p("timeout", top(), f"Q2_{K2}"),
        _p("tick2", top(), f"Q2_{K2}"),
        _p("repeatservice", top(), f"Q2r_{K2}"),
    )
    residual_terms = [
        _p("timeout", top(), f"Q2r_{K2}"),
        _p("service2", mu, f"Q2_{K2 - 1}"),
    ]
    if params.tick_during_residual:
        residual_terms.insert(1, _p("tick2", top(), f"Q2r_{K2}"))
    defs[f"Q2r_{K2}"] = _choice(*residual_terms)

    # ------------------------------------------------------ timer 2
    defs["Timer2_0"] = _p(
        "repeatservice", t, f"Timer2_{n - 1}" if n > 1 else "Timer2_0"
    )
    for i in range(1, n):
        defs[f"Timer2_{i}"] = _p("tick2", t, f"Timer2_{i - 1}")

    node1 = Cooperation(
        Constant("Q1_0"),
        Constant(f"Timer1_{n - 1}"),
        frozenset({"service1", "tick1", "timeout"}),
    )
    node2 = Cooperation(
        Constant("Q2_0"),
        Constant(f"Timer2_{n - 1}"),
        frozenset({"repeatservice", "tick2"}),
    )
    system = Cooperation(node1, node2, frozenset({"timeout"}))
    return Model(defs, system)


def _q1_len(names) -> float:
    for nm in names:
        if nm.startswith("Q1_"):
            return float(nm[3:])
    raise AssertionError("no Q1 component in state")


def _q2_len(names) -> float:
    for nm in names:
        if nm.startswith("Q2_"):
            return float(nm[3:])
        if nm.startswith("Q2r_"):
            return float(nm[4:])
    raise AssertionError("no Q2 component in state")


@dataclass
class TagsPepa(ChainModel):
    """Sweepable Figure 3 PEPA model on the compiled engine.

    The Figure 3 model packaged as a class the sweep engine can drive,
    wired to the structure cache: the first instance of an ``(n, K1,
    K2, tick_during_residual)`` shape pays one compile + vectorized
    exploration (:mod:`repro.pepa.compiled`); every further rate point
    (lambda, mu, t) refills the cached
    :class:`~repro.pepa.compiled.CompiledSpace`'s rate column in ~a
    millisecond.  Rates are validated positive, so rate changes can
    never alter reachability and the refill's structural congruence
    check always passes for a correct key.

    ``SOLVE_ENGINE`` tags the sweep solve cache: entries computed here
    never collide with interpreter-path records from earlier releases.
    """

    lam: float = 5.0
    mu: float = 10.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10
    tick_during_residual: bool = False

    SOLVE_ENGINE = "pepa-compiled-v1"

    def __post_init__(self) -> None:
        self.params()  # TagsParameters validates ranges

    def params(self) -> TagsParameters:
        return TagsParameters(
            lam=self.lam,
            mu=self.mu,
            t=self.t,
            n=self.n,
            K1=self.K1,
            K2=self.K2,
            tick_during_residual=self.tick_during_residual,
        )

    def build(self) -> Model:
        return build_tags_model(self.params())

    # ------------------------------------------------------------------
    def _build(self):
        """Structure-cached compiled space, refilled with *this* model's
        rates.  The cache entry is shared, so the generator is assembled
        here, before a later instance can refill it; the rewards
        :meth:`_populations` reads depend on state names only, which a
        refill never changes."""
        from repro.pepa.compiled import TemplateMismatch, compile_model

        key = (
            type(self).__qualname__,
            self.n,
            self.K1,
            self.K2,
            self.tick_during_residual,
        )
        model = self.build()
        cache = structure_cache()

        def build_space():
            return compile_model(model).explore()

        space = cache.get_or_build(key, build_space)
        if space.model is not model:
            try:
                space.refill(model)
            except TemplateMismatch:
                cache.drop(key)
                space = cache.get_or_build(key, build_space)
        return space.generator(), space

    def _populations(self) -> tuple:
        return (self.states.state_reward(_q1_len), self.states.state_reward(_q2_len))

    def metrics(self) -> QueueMetrics:
        return self._tags_metrics(self.lam)
