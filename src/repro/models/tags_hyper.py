"""PEPA model of two-node TAGS with hyper-exponential (H2) service
(paper Figure 5).

The head-of-queue job's phase is tracked by the queue derivative: ``Q1_i``
has a *short* head (service rate ``mu1``), ``Q1p_i`` (the paper's primed
``Q1'_i``) a *long* head (rate ``mu2``).  On every completion that leaves
the queue non-empty the next head's phase is drawn Bernoulli(alpha); a job
arriving at an empty queue draws its phase on arrival.

At node 2 the ``repeatservice`` action branches with probability
``alpha'`` (the residual-mixing probability of Section 3.2) into
``Q2s_i`` (short residual, rate ``mu1``) or ``Q2l_i`` (long residual,
``mu2``).

Typo corrections applied to the printed Figure 5 (DESIGN.md note 4):
the ``timeout`` rates in ``Q1_i`` read ``alpha mu2 / (1-alpha) mu2`` in the
paper but must be ``alpha t / (1-alpha) t`` (the timeout race does not
depend on the head's phase), and ``(arrival, (1-alpha) lam).Q1_1'`` targets
``Q1'_1``.

Note on the ``t``-rates in the queue: Figure 5 attaches rate ``t`` (split
``alpha t`` / ``(1-alpha) t``) to the queue's ``timeout``/``repeatservice``
activities instead of the passive ``T`` used in Figure 3.  Under PEPA's
apparent-rate rule the synchronised rate is ``min(t, t) = t`` split in the
same proportions, so the two encodings yield the same CTMC; we keep the
paper's active-rate style here and the passive style in Figure 3, and the
test suite checks the exponential degenerate cases coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dists.residual import h2_residual_mixing
from repro.models._pepa_terms import _choice, _p
from repro.pepa import Constant, Cooperation, Model, top

__all__ = ["TagsH2Parameters", "build_tags_h2_model"]


@dataclass(frozen=True)
class TagsH2Parameters:
    """Parameters of the Figure 5 model.

    ``alpha_prime`` defaults to the exact residual-mixing probability
    computed from the Erlang(n, t) timeout race (Section 3.2).  ``n`` is
    the total number of Erlang phases in the timeout clock (see
    ``tags_pepa`` for the convention).
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
        if self.alpha_prime is not None and not (0 <= self.alpha_prime <= 1):
            raise ValueError("alpha_prime must be in [0, 1]")

    @property
    def resolved_alpha_prime(self) -> float:
        if self.alpha_prime is not None:
            return self.alpha_prime
        return h2_residual_mixing(self.t, self.alpha, self.mu1, self.mu2, self.n)

    @property
    def mean_service(self) -> float:
        return self.alpha / self.mu1 + (1 - self.alpha) / self.mu2


def build_tags_h2_model(params: TagsH2Parameters) -> Model:
    """Construct the Figure 5 PEPA model."""
    lam, t, n = params.lam, params.t, params.n
    a, m1, m2 = params.alpha, params.mu1, params.mu2
    ap = params.resolved_alpha_prime
    K1, K2 = params.K1, params.K2
    defs: dict = {}

    # ------------------------------------------------------ queue 1
    defs["Q1_0"] = _choice(
        _p("arrival", a * lam, "Q1_1"),
        _p("arrival", (1 - a) * lam, "Q1p_1"),
    )
    # head short (Q1) / head long (Q1p); i = 1 empties without branching
    defs["Q1_1"] = _choice(
        _p("arrival", lam, "Q1_2") if K1 > 1 else _p("arrloss", lam, "Q1_1"),
        _p("tick1", top(), "Q1_1"),
        _p("service1", m1, "Q1_0"),
        _p("timeout", t, "Q1_0"),
    )
    defs["Q1p_1"] = _choice(
        _p("arrival", lam, "Q1p_2") if K1 > 1 else _p("arrloss", lam, "Q1p_1"),
        _p("tick1", top(), "Q1p_1"),
        _p("service1", m2, "Q1_0"),
        _p("timeout", t, "Q1_0"),
    )
    for i in range(2, K1):
        defs[f"Q1_{i}"] = _choice(
            _p("arrival", lam, f"Q1_{i + 1}"),
            _p("tick1", top(), f"Q1_{i}"),
            _p("service1", (1 - a) * m1, f"Q1p_{i - 1}"),
            _p("service1", a * m1, f"Q1_{i - 1}"),
            _p("timeout", (1 - a) * t, f"Q1p_{i - 1}"),
            _p("timeout", a * t, f"Q1_{i - 1}"),
        )
        defs[f"Q1p_{i}"] = _choice(
            _p("arrival", lam, f"Q1p_{i + 1}"),
            _p("tick1", top(), f"Q1p_{i}"),
            _p("service1", (1 - a) * m2, f"Q1p_{i - 1}"),
            _p("service1", a * m2, f"Q1_{i - 1}"),
            _p("timeout", (1 - a) * t, f"Q1p_{i - 1}"),
            _p("timeout", a * t, f"Q1_{i - 1}"),
        )
    if K1 > 1:
        defs[f"Q1_{K1}"] = _choice(
            _p("tick1", top(), f"Q1_{K1}"),
            _p("timeout", a * t, f"Q1_{K1 - 1}"),
            _p("timeout", (1 - a) * t, f"Q1p_{K1 - 1}"),
            _p("service1", (1 - a) * m1, f"Q1p_{K1 - 1}"),
            _p("service1", a * m1, f"Q1_{K1 - 1}"),
            _p("arrloss", lam, f"Q1_{K1}"),
        )
        defs[f"Q1p_{K1}"] = _choice(
            _p("tick1", top(), f"Q1p_{K1}"),
            _p("timeout", a * t, f"Q1_{K1 - 1}"),
            _p("timeout", (1 - a) * t, f"Q1p_{K1 - 1}"),
            _p("service1", (1 - a) * m2, f"Q1p_{K1 - 1}"),
            _p("service1", a * m2, f"Q1_{K1 - 1}"),
            _p("arrloss", lam, f"Q1p_{K1}"),
        )

    # ------------------------------------------------------ timer 1
    # n Erlang phases: Timer1_{n-1} .. Timer1_1 tick, Timer1_0 enables
    # the (queue-driven) timeout
    top_ref = f"Timer1_{n - 1}" if n > 1 else "Timer1_0"
    defs["Timer1_0"] = _choice(
        _p("timeout", top(), top_ref),
        _p("service1", top(), top_ref),
    )
    for i in range(1, n):
        defs[f"Timer1_{i}"] = _choice(
            _p("tick1", t, f"Timer1_{i - 1}"),
            _p("service1", top(), top_ref),
        )

    # ------------------------------------------------------ queue 2
    # Q2_i: head in repeat phase; Q2s_i / Q2l_i: short / long residual.
    defs["Q2_0"] = _p("timeout", top(), "Q2_1")

    def residual(name: str, i: int, rate: float, kind: str):
        terms = [
            _p("timeout", top(), f"Q2{kind}_{min(i + 1, K2)}"),
            _p("service2", rate, f"Q2_{i - 1}"),
        ]
        if params.tick_during_residual:
            terms.insert(1, _p("tick2", top(), name))
        return _choice(*terms)

    for i in range(1, K2):
        defs[f"Q2_{i}"] = _choice(
            _p("timeout", top(), f"Q2_{i + 1}"),
            _p("tick2", top(), f"Q2_{i}"),
            _p("repeatservice", ap * t, f"Q2s_{i}"),
            _p("repeatservice", (1 - ap) * t, f"Q2l_{i}"),
        )
        defs[f"Q2s_{i}"] = residual(f"Q2s_{i}", i, m1, "s")
        defs[f"Q2l_{i}"] = residual(f"Q2l_{i}", i, m2, "l")
    defs[f"Q2_{K2}"] = _choice(
        _p("timeout", top(), f"Q2_{K2}"),
        _p("tick2", top(), f"Q2_{K2}"),
        _p("repeatservice", ap * t, f"Q2s_{K2}"),
        _p("repeatservice", (1 - ap) * t, f"Q2l_{K2}"),
    )
    defs[f"Q2s_{K2}"] = residual(f"Q2s_{K2}", K2, m1, "s")
    defs[f"Q2l_{K2}"] = residual(f"Q2l_{K2}", K2, m2, "l")

    # ------------------------------------------------------ timer 2
    defs["Timer2_0"] = _p(
        "repeatservice", top(), f"Timer2_{n - 1}" if n > 1 else "Timer2_0"
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
