"""TAGS model tests: PEPA-vs-direct cross-validation, the paper's 4331-state
count, structural invariants and limiting behaviours."""

import numpy as np
import pytest

from repro.models import TagsExponential, TagsHyperExponential, build_tags_model
from repro.models.tags_pepa import TagsParameters
from repro.models.tags_hyper import TagsH2Parameters
from repro.pepa import check_model, explore
from tests.models._pepa_oracle import tags_h2_pepa_metrics, tags_pepa_metrics


class TestStateSpace:
    def test_paper_state_count(self):
        """The headline check: n=6, K1=K2=10 must give 4331 states."""
        p = TagsParameters(lam=5, mu=10, t=51, n=6, K1=10, K2=10)
        space = explore(build_tags_model(p))
        assert space.n_states == 4331

    def test_state_count_formula(self):
        """Reachable count is (K1*n + 1) * (K2*(n+1) + 1) for the frozen-
        timer encoding."""
        for n, K1, K2 in [(3, 4, 5), (2, 3, 3), (6, 10, 10)]:
            p = TagsParameters(lam=5, mu=10, t=20, n=n, K1=K1, K2=K2)
            space = explore(build_tags_model(p))
            assert space.n_states == (K1 * n + 1) * (K2 * (n + 1) + 1)

    def test_direct_matches_pepa_count(self):
        p = TagsParameters(lam=5, mu=10, t=51, n=4, K1=6, K2=6)
        space = explore(build_tags_model(p))
        d = TagsExponential(lam=5, mu=10, t=51, n=4, K1=6, K2=6)
        assert d.n_states == space.n_states

    def test_well_formed(self):
        p = TagsParameters(n=3, K1=3, K2=3)
        assert check_model(build_tags_model(p)).warnings == []


class TestPepaDirectAgreement:
    """The PEPA derivation and the direct chain are the same CTMC."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=5.0, mu=10.0, t=51.0, n=6, K1=10, K2=10),
            dict(lam=11.0, mu=10.0, t=42.0, n=6, K1=10, K2=10),
            dict(lam=5.0, mu=10.0, t=5.0, n=2, K1=4, K2=6),
            dict(
                lam=5.0, mu=10.0, t=20.0, n=3, K1=5, K2=5,
                tick_during_residual=True,
            ),
        ],
        ids=["fig6", "fig8-lam11", "small", "ticking-variant"],
    )
    def test_exponential(self, kwargs):
        mp = tags_pepa_metrics(TagsParameters(**kwargs))
        md = TagsExponential(**kwargs).metrics()
        assert md.mean_jobs == pytest.approx(mp.mean_jobs, rel=1e-9)
        assert md.throughput == pytest.approx(mp.throughput, rel=1e-9)
        assert md.loss_per_node[0] == pytest.approx(mp.loss_per_node[0], abs=1e-12)
        assert md.extra["n_states"] == mp.extra["n_states"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=11.0, alpha=0.99, mu1=19.9, mu2=0.199, t=40.0, n=3, K1=5, K2=5),
            dict(lam=11.0, alpha=0.9, mu1=19.0, mu2=1.9, t=20.0, n=2, K1=4, K2=4),
        ],
        ids=["fig9-small", "alpha09"],
    )
    def test_hyperexponential(self, kwargs):
        mp = tags_h2_pepa_metrics(TagsH2Parameters(**kwargs))
        md = TagsHyperExponential(**kwargs).metrics()
        assert md.mean_jobs == pytest.approx(mp.mean_jobs, rel=1e-9)
        assert md.throughput == pytest.approx(mp.throughput, rel=1e-9)
        assert md.extra["n_states"] == mp.extra["n_states"]


class TestH2Degeneracy:
    def test_h2_with_equal_rates_equals_exponential(self):
        """mu1 == mu2 == mu collapses Figure 5 to Figure 3."""
        exp = TagsExponential(lam=5, mu=10, t=30, n=3, K1=5, K2=5).metrics()
        h2 = TagsHyperExponential(
            lam=5, alpha=0.5, mu1=10.0, mu2=10.0, t=30.0, n=3, K1=5, K2=5
        ).metrics()
        assert h2.mean_jobs == pytest.approx(exp.mean_jobs, rel=1e-9)
        assert h2.throughput == pytest.approx(exp.throughput, rel=1e-9)
        assert h2.response_time == pytest.approx(exp.response_time, rel=1e-9)


class TestFlowBalance:
    def test_conservation(self):
        m = TagsExponential(lam=9, mu=10, t=45, n=6, K1=10, K2=10).metrics()
        # every admitted job leaves by service1 or service2
        assert m.throughput + m.loss_rate == pytest.approx(9.0, abs=1e-9)
        # node-2 flow balance: entries (timeout minus drops) = service2
        x2 = m.extra["service2_throughput"]
        assert m.extra["timeout_throughput"] - m.loss_per_node[1] == pytest.approx(
            x2, abs=1e-9
        )

    def test_losses_nonnegative(self):
        m = TagsExponential(lam=11, mu=10, t=5.0, n=6, K1=10, K2=10).metrics()
        assert m.loss_per_node[0] >= 0
        assert m.loss_per_node[1] >= -1e-12


class TestLimits:
    def test_huge_timeout_first_node_does_everything(self):
        """t -> 0 rate ... wait: huge MEAN timeout = tiny rate t is wrong
        way; a very SLOW clock (t small) means the timeout almost never
        fires, so node 1 behaves like M/M/1/K1 and node 2 idles."""
        m = TagsExponential(lam=5, mu=10, t=0.01, n=6, K1=10, K2=10).metrics()
        from repro.models import MM1K

        ana = MM1K(5, 10, 10)
        assert m.mean_jobs_per_node[0] == pytest.approx(ana.mean_jobs, rel=1e-2)
        assert m.mean_jobs_per_node[1] == pytest.approx(0.0, abs=1e-2)
        assert m.extra["timeout_throughput"] < 0.05

    def test_instant_timeout_everything_to_node2(self):
        """A very fast clock times every job out to node 2."""
        m = TagsExponential(lam=5, mu=10, t=5000.0, n=6, K1=10, K2=10).metrics()
        assert m.extra["service1_throughput"] < 0.1
        assert m.extra["service2_throughput"] > 4.5

    def test_monotone_loss_in_load(self):
        losses = [
            TagsExponential(lam=lam, mu=10, t=45, n=6, K1=10, K2=10)
            .metrics()
            .loss_rate
            for lam in (5.0, 9.0, 13.0, 18.0)
        ]
        assert all(a < b for a, b in zip(losses, losses[1:]))


class TestTickDuringResidualAblation:
    def test_variants_differ_but_slightly(self):
        base = dict(lam=5, mu=10, t=51.0, n=6, K1=10, K2=10)
        frozen = TagsExponential(**base).metrics()
        ticking = TagsExponential(**base, tick_during_residual=True).metrics()
        assert ticking.mean_jobs != pytest.approx(frozen.mean_jobs, rel=1e-12)
        # the encodings describe the same physical system to first order
        # (the ticking variant shortens the next job's repeat period, so it
        # holds ~17% fewer jobs at these parameters)
        assert ticking.mean_jobs == pytest.approx(frozen.mean_jobs, rel=0.3)
        assert ticking.mean_jobs < frozen.mean_jobs

    def test_ticking_variant_has_more_states(self):
        base = dict(lam=5, mu=10, t=51.0, n=6, K1=10, K2=10)
        frozen = TagsExponential(**base)
        ticking = TagsExponential(**base, tick_during_residual=True)
        assert ticking.n_states > frozen.n_states


class TestParameterValidation:
    def test_bad_rates(self):
        with pytest.raises(ValueError):
            TagsParameters(lam=-1.0)
        with pytest.raises(ValueError):
            TagsExponential(lam=5, mu=0.0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            TagsH2Parameters(alpha=1.0)
        with pytest.raises(ValueError):
            TagsHyperExponential(alpha=0.0)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            TagsParameters(n=0)
        with pytest.raises(ValueError):
            TagsParameters(K1=0)
