"""One solve-and-measure base for the CTMC models.

Every chain model answers the paper's questions the same way: build the
chain once, solve it once, and read throughput, per-node populations,
loss and (by Little's law) response time off the stationary vector.
:class:`ChainModel` owns that plumbing, so the allocation strategies the
paper compares -- TAGS, shortest queue, round robin, and their MMPP and
breakdown variants -- are measured by one copy of the code.  A subclass
keeps only its state encoding, how a state maps to per-node
populations, and its ``extra`` diagnostics.
"""

from __future__ import annotations

import numpy as np

from repro.ctmc import action_throughput, steady_state
from repro.ctmc.bfs import ChainTemplate, StructureMismatch, bfs_generator
from repro.models.metrics import QueueMetrics, from_population_and_throughput
from repro.sweep.structure import structure_cache

__all__ = ["ChainModel"]


class ChainModel:
    """Lazy build, lazy solve and metric extraction of one CTMC.

    A subclass describes its chain in one of two ways:

    * a successor function over hashable tuple states: ``_initial()``
      and ``_successors(state) -> [(action, rate, next_state), ...]``,
      plus optionally ``_structure_key()`` and ``_template_rates(tpl)``
      (see :meth:`_build`);
    * or an override of :meth:`_build` returning ``(generator, states)``
      -- PEPA-backed models plug in a compiled or counted space here.

    It maps states to per-node job counts, either through ``_node_fields``
    (positions in a flat tuple state) or by overriding
    :meth:`_populations`, and implements ``metrics()`` with
    :meth:`_tags_metrics`, :meth:`_router_metrics` or :meth:`_metrics`.

    ``_pi`` is the one slot for the stationary vector.  :attr:`pi` fills
    it on first use; :func:`repro.sweep.engine.solve_point` reads
    :attr:`generator`, solves it with its own method, tolerance and warm
    start, and writes the result to ``_pi``, so the ``metrics()`` that
    follows measures that vector instead of solving again.
    """

    _gen = None
    _states = None
    _pi = None
    _node_fields: tuple = ()

    # -- chain description ---------------------------------------------
    def _initial(self):
        raise NotImplementedError

    def _successors(self, state):
        raise NotImplementedError

    def _structure_key(self):
        """Hashable key of the structure-shaping parameters (or None)."""
        return None

    def _template_rates(self, tpl: ChainTemplate):
        """Vectorised rate column for ``tpl``, or None for generic refill."""
        return None

    def _build(self):
        """Build ``(generator, states)``, through the structure cache.

        Models report the parameters that shape their reachability graph
        via ``_structure_key()`` (``None`` opts out, e.g. unhashable
        custom callables); rate-only parameters stay out of the key, so a
        sweep grid explores each structure once and every further point
        only recomputes the rate column -- vectorised when the class
        provides ``_template_rates``, otherwise by re-enumerating
        ``_successors`` over the frozen state list.  A refill whose
        transition structure disagrees with the template (a parameter
        combination the key failed to anticipate) drops the entry and
        rebuilds from scratch.
        """
        key = self._structure_key()
        initial = self._initial()
        if key is None:
            gen, states, _ = bfs_generator(initial, self._successors)
            return gen, states

        def build() -> ChainTemplate:
            return ChainTemplate.explore(initial, self._successors)

        cache = structure_cache()
        tpl = cache.get_or_build(key, build)
        rate = self._template_rates(tpl)
        if rate is None:
            try:
                rate = tpl.refill(self._successors)
            except StructureMismatch:
                cache.drop(key)
                tpl = cache.get_or_build(key, build)
                rate = tpl.rate
        return tpl.generator(rate), tpl.states

    def _chain(self):
        """The generator, built on first use (with ``states``)."""
        if self._gen is None:
            self._gen, self._states = self._build()
        return self._gen

    # -- lazy build and solve ------------------------------------------
    @property
    def generator(self):
        return self._chain()

    @property
    def states(self):
        """What :meth:`_build` enumerated: tuple states, or the PEPA space."""
        self._chain()
        return self._states

    @property
    def n_states(self) -> int:
        return self.generator.n_states

    @property
    def pi(self) -> np.ndarray:
        if self._pi is None:
            self._pi = steady_state(self._chain())
        return self._pi

    # -- measures --------------------------------------------------------
    def _throughput(self, action: str) -> float:
        """Steady-state rate of ``action``; 0 when the chain never enables
        it (the generator then holds no rate matrix for it)."""
        gen = self._chain()
        if action not in gen.action_rates:
            return 0.0
        return action_throughput(gen, self.pi, action)

    def _populations(self) -> tuple:
        """Per-node job counts over :attr:`states`, one array per node."""
        states = self.states
        return tuple(
            np.array([s[i] for s in states], dtype=float)
            for i in self._node_fields
        )

    def _metrics(
        self, *, throughput: float, offered_load: float, loss_per_node=(), **extra
    ) -> QueueMetrics:
        """Assemble ``QueueMetrics``; ``extra`` follows ``n_states``."""
        pi = self.pi
        return from_population_and_throughput(
            mean_jobs_per_node=[float(pi @ jobs) for jobs in self._populations()],
            throughput=throughput,
            offered_load=offered_load,
            loss_per_node=loss_per_node,
            extra={"n_states": self._chain().n_states, **extra},
        )

    def _tags_metrics(self, offered_load: float) -> QueueMetrics:
        """TAGS measures: jobs complete by ``service1`` or ``service2``;
        they are lost on arrival (``arrloss``) or when a ``timeout`` finds
        node 2 full (flow balance: ``timeout - service2``)."""
        x_s1 = self._throughput("service1")
        x_s2 = self._throughput("service2")
        x_to = self._throughput("timeout")
        return self._metrics(
            throughput=x_s1 + x_s2,
            offered_load=offered_load,
            loss_per_node=(self._throughput("arrloss"), x_to - x_s2),
            **self._tags_extra(x_to, x_s1, x_s2),
        )

    def _tags_extra(self, timeout: float, service1: float, service2: float) -> dict:
        """``extra`` entries of :meth:`_tags_metrics` after ``n_states``."""
        return {
            "timeout_throughput": timeout,
            "service1_throughput": service1,
            "service2_throughput": service2,
        }

    def _router_metrics(self, offered_load: float, **extra) -> QueueMetrics:
        """Measures of a router over parallel queues: jobs complete by
        ``service`` and are lost only on arrival (``arrloss``)."""
        return self._metrics(
            throughput=self._throughput("service"),
            offered_load=offered_load,
            loss_per_node=(self._throughput("arrloss"),),
            **extra,
        )
