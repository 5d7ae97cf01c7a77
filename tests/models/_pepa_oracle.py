"""Scratch-built metrics of the Figure 3 and Figure 5 PEPA models.

Each function builds its model, explores it with
:func:`repro.pepa.explore`, assembles a fresh generator with
:func:`repro.pepa.to_generator` and solves it with
:func:`repro.ctmc.steady_state`.  Nothing here goes through the
structure cache, the compiled-space refill or the shared metric
extraction of :class:`repro.models.chain.ChainModel`, so tests use these
functions as the independent oracle for the model classes
(:class:`repro.models.TagsPepa` must equal :func:`tags_pepa_metrics`
exactly; the direct chains agree with both to solver precision).
"""

from repro.ctmc import action_throughput, steady_state
from repro.models.metrics import QueueMetrics, from_population_and_throughput
from repro.models.tags_hyper import TagsH2Parameters, build_tags_h2_model
from repro.models.tags_pepa import TagsParameters, build_tags_model
from repro.pepa import explore, to_generator


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


def tags_pepa_metrics(params: TagsParameters) -> QueueMetrics:
    """Explore, solve and extract the paper's metrics from the Figure 3
    model."""
    model = build_tags_model(params)
    space = explore(model)
    gen = to_generator(space)
    pi = steady_state(gen)

    L1 = float(pi @ space.state_reward(_q1_len))
    L2 = float(pi @ space.state_reward(_q2_len))
    x_s1 = action_throughput(gen, pi, "service1")
    x_s2 = action_throughput(gen, pi, "service2")
    x_to = action_throughput(gen, pi, "timeout")
    loss1 = action_throughput(gen, pi, "arrloss")
    # flow balance at node 2: entries = timeouts that found space = service2
    loss2 = x_to - x_s2
    return from_population_and_throughput(
        mean_jobs_per_node=(L1, L2),
        throughput=x_s1 + x_s2,
        offered_load=params.lam,
        loss_per_node=(loss1, loss2),
        extra={
            "n_states": space.n_states,
            "timeout_throughput": x_to,
            "service1_throughput": x_s1,
            "service2_throughput": x_s2,
        },
    )


def tags_h2_pepa_metrics(params: TagsH2Parameters) -> QueueMetrics:
    """Explore, solve and extract metrics from the Figure 5 model."""
    model = build_tags_h2_model(params)
    space = explore(model)
    gen = to_generator(space)
    pi = steady_state(gen)

    def q1_len(names) -> float:
        for nm in names:
            if nm.startswith("Q1_") or nm.startswith("Q1p_"):
                return float(nm.split("_", 1)[1])
        raise AssertionError("no Q1 component in state")

    def q2_len(names) -> float:
        for nm in names:
            if nm.startswith(("Q2_", "Q2s_", "Q2l_")):
                return float(nm.split("_", 1)[1])
        raise AssertionError("no Q2 component in state")

    L1 = float(pi @ space.state_reward(q1_len))
    L2 = float(pi @ space.state_reward(q2_len))
    x_s1 = action_throughput(gen, pi, "service1")
    x_s2 = action_throughput(gen, pi, "service2")
    x_to = action_throughput(gen, pi, "timeout")
    try:
        loss1 = action_throughput(gen, pi, "arrloss")
    except KeyError:
        loss1 = 0.0
    loss2 = x_to - x_s2
    return from_population_and_throughput(
        mean_jobs_per_node=(L1, L2),
        throughput=x_s1 + x_s2,
        offered_load=params.lam,
        loss_per_node=(loss1, loss2),
        extra={
            "n_states": space.n_states,
            "timeout_throughput": x_to,
            "alpha_prime": params.resolved_alpha_prime,
        },
    )
