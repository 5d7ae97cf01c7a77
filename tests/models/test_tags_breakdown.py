"""Breakdown-extended TAGS CTMC: the two exact reductions + sanity.

The model earns its keep through two analytically exact pins:

* the breaker is autonomous, so stationary availability equals
  ``repair / (fail + repair)`` regardless of the queueing dynamics;
* permanently down, node 1 is a plain M/M/1/K1 birth-death chain and
  its marginal must match ``models.mm1k`` to solver precision.

Plus a continuity check: a vanishing failure rate recovers the base
Figure 3 model.
"""

import numpy as np
import pytest

from repro import obs
from repro.models import MM1K, TagsBreakdown, TagsExponential

# small state space keeps the whole module fast
SMALL = dict(lam=5.0, mu=10.0, t=51.0, n=3, K1=6, K2=6)


class TestExactReductions:
    def test_availability_is_autonomous(self):
        model = TagsBreakdown(fail=0.02, repair=0.1, **SMALL)
        m = model.metrics()
        assert m.extra["availability"] == pytest.approx(
            model.availability, abs=1e-10
        )
        assert model.availability == pytest.approx(0.1 / 0.12)

    def test_permanently_down_node1_is_mm1k(self):
        model = TagsBreakdown(permanently_down=True, **SMALL)
        marginal = model.node1_marginal()
        exact = MM1K(lam=SMALL["lam"], mu=SMALL["mu"], K=SMALL["K1"]).distribution()
        np.testing.assert_allclose(marginal, exact, atol=1e-10)

    def test_permanently_down_node2_never_serves(self):
        m = TagsBreakdown(permanently_down=True, **SMALL).metrics()
        assert m.extra["service2_throughput"] == pytest.approx(0.0, abs=1e-12)
        assert m.extra["timeout_throughput"] == pytest.approx(0.0, abs=1e-12)
        assert m.extra["availability"] == 0.0


class TestContinuity:
    def test_vanishing_failure_rate_recovers_base_tags(self):
        """fail -> 0 makes the breaker spend all its time Avail; every
        metric converges on the unmodified Figure 3 chain."""
        base = TagsExponential(**SMALL).metrics()
        degraded = TagsBreakdown(fail=1e-7, repair=1.0, **SMALL).metrics()
        assert degraded.throughput == pytest.approx(base.throughput, rel=1e-5)
        assert degraded.mean_jobs == pytest.approx(base.mean_jobs, rel=1e-4)
        assert degraded.extra["availability"] == pytest.approx(1.0, abs=1e-6)

    def test_failure_monotonically_hurts_throughput(self):
        ms = [
            TagsBreakdown(fail=f, repair=0.05, **SMALL).metrics().throughput
            for f in (0.001, 0.01, 0.1)
        ]
        assert ms[0] > ms[1] > ms[2]


class TestStructure:
    def test_state_space_is_base_times_breaker(self):
        """Attaching a 2-state breaker at most doubles the base space
        (reachability may trim the Down-side states)."""
        base = TagsExponential(**SMALL).metrics().extra["n_states"]
        down = TagsBreakdown(fail=0.01, repair=0.05, **SMALL).metrics()
        assert base < down.extra["n_states"] <= 2 * base

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError, match="rates"):
            TagsBreakdown(fail=0.0, repair=0.05, **SMALL).build()
        with pytest.raises(ValueError, match="rates"):
            TagsBreakdown(fail=0.01, repair=-1.0, **SMALL).build()


class TestSolveOnce:
    def test_metrics_and_marginal_share_one_build_and_solve(self):
        """The chain is explored and solved once per instance, however
        many measures are read from it."""
        model = TagsBreakdown(fail=0.02, repair=0.1, **SMALL)
        with obs.use(obs.Recorder()) as rec:
            model.metrics()
            model.node1_marginal()
        assert len(rec.find_spans("pepa.explore.fast")) == 1
        assert len(rec.find_spans("steady_state")) == 1

    def test_node1_marginal_matches_per_state_sum(self):
        """The vectorised marginal adds the same terms in the same order
        as a loop over states, so the two agree exactly."""
        model = TagsBreakdown(fail=0.02, repair=0.1, **SMALL)
        space, pi = model.states, model.pi
        expect = np.zeros(SMALL["K1"] + 1)
        for i in range(space.n_states):
            names = space.local_names(i)
            q1 = next(int(nm[3:]) for nm in names if nm.startswith("Q1_"))
            expect[q1] += pi[i]
        np.testing.assert_array_equal(model.node1_marginal(), expect)
