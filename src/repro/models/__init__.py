"""The paper's queueing models.

Every allocation strategy the paper evaluates is available in two forms
where feasible:

* a **PEPA model** faithful to the figures/appendices (built
  programmatically, analysable with :mod:`repro.pepa`);
* a **direct CTMC** construction (a successor function over tuple
  states), cross-validated against the PEPA form in the test suite.  It
  is the independent check of the PEPA chains and covers variants PEPA
  has no form for (queue-dependent timeouts, N nodes, resume).  Its
  first build is 1.3-1.8x quicker than the compiled PEPA one, and both
  forms explore once per structure and refill rates per sweep point, so
  a sweep costs about the same either way.

Modules
-------
``chain``          ``ChainModel``, the base of every CTMC model: lazy
                   build through the structure cache, lazy solve, and
                   the shared throughput / TAGS / router metric
                   extraction.
``tags_pepa``      Figure 3 (exponential TAGS) PEPA builder and the
                   sweepable compiled-engine ``TagsPepa``.
``tags_hyper``     Figure 5 (H2-service TAGS) PEPA builder.
``tags_figure4``   Figure 4 per-place alternative, solved exactly by
                   component counting or as a fluid ODE.
``tags_direct``    direct CTMCs for TAGS with exponential or H2 service,
                   two nodes or the N-node extension.
``tags_breakdown`` breakdown/repair-extended TAGS (node-2 failure), the
                   CTMC ground truth for ``repro.faults`` injection.
``bursty``         TAGS and shortest queue under MMPP arrivals.
``random_alloc``   Appendix A weighted random allocation (exp analytic,
                   H2 via M/PH/1/K).
``shortest_queue`` Appendix B shortest-queue strategy (PEPA + direct,
                   exp and H2 service).
``round_robin``    round-robin allocation, exp and H2 service.
``tagged``         absorbing tagged-job chains: response-time
                   distributions and per-outcome means.
``mm1k``           analytic M/M/1/K formulas.
``mmck``           analytic M/M/c/K, Erlang B and C.
``mph1k``          M/PH/1/K matrix model.
``analytic``       closed-form M/M/1 and M/G/1 response times.
``metrics``        the shared metric record all solvers return.
"""

from repro.models.metrics import QueueMetrics
from repro.models.mm1k import MM1K
from repro.models.mmck import MMcK, erlang_b, erlang_c
from repro.models.mph1k import MPH1K
from repro.models.tags_breakdown import TagsBreakdown, build_tags_breakdown_model
from repro.models.tags_pepa import TagsPepa, build_tags_model
from repro.models.tags_hyper import build_tags_h2_model
from repro.models.tags_direct import (
    TagsExponential,
    TagsHyperExponential,
    TagsMultiNode,
)
from repro.models.random_alloc import RandomAllocation
from repro.models.round_robin import RoundRobin
from repro.models.tags_figure4 import Figure4Model
from repro.models.bursty import MMPP2, ShortestQueueMMPP, TagsMMPP
from repro.models.tagged import TaggedJobAnalysis, TaggedJobAnalysisH2
from repro.models.analytic import (
    mg1_response_time,
    mg1_waiting_time,
    mm1_response_time,
)
from repro.models.shortest_queue import ShortestQueue, build_jsq_pepa_model

__all__ = [
    "QueueMetrics",
    "MM1K",
    "MMcK",
    "erlang_b",
    "erlang_c",
    "MPH1K",
    "build_tags_model",
    "TagsPepa",
    "TagsBreakdown",
    "build_tags_breakdown_model",
    "build_tags_h2_model",
    "TagsExponential",
    "TagsHyperExponential",
    "TagsMultiNode",
    "Figure4Model",
    "MMPP2",
    "ShortestQueueMMPP",
    "TagsMMPP",
    "TaggedJobAnalysis",
    "TaggedJobAnalysisH2",
    "mg1_response_time",
    "mg1_waiting_time",
    "mm1_response_time",
    "RandomAllocation",
    "RoundRobin",
    "ShortestQueue",
    "build_jsq_pepa_model",
]
