"""Precision-driven replication tests."""

import pytest

from repro.dists import Exponential
from repro.models import MM1K
from repro.sim import PoissonArrivals, RandomPolicy, Simulation, replicate_until


def make(seed):
    return Simulation(
        PoissonArrivals(4.0),
        Exponential(5.0),
        RandomPolicy(weights=(1.0,)),
        (8,),
        seed=seed,
    )


class TestReplicateUntil:
    def test_hits_target_and_covers_truth(self):
        mean, half, n = replicate_until(
            make,
            "mean_response_time",
            rel_half_width=0.05,
            t_end=2_000.0,
            warmup=200.0,
        )
        assert half / mean <= 0.05
        assert n >= 4
        truth = MM1K(4.0, 5.0, 8).response_time
        # 95% CI: allow a generous 2x half-width margin for this one draw
        assert abs(mean - truth) < 2 * half + 0.05 * truth

    def test_tighter_target_needs_more_reps(self):
        _, _, n_loose = replicate_until(
            make, "mean_jobs", rel_half_width=0.2, t_end=800.0, warmup=100.0
        )
        _, _, n_tight = replicate_until(
            make, "mean_jobs", rel_half_width=0.03, t_end=800.0, warmup=100.0
        )
        assert n_tight >= n_loose

    def test_max_reps_cap(self):
        mean, half, n = replicate_until(
            make,
            "mean_jobs",
            rel_half_width=1e-6,  # unreachable
            max_reps=5,
            t_end=300.0,
            warmup=50.0,
        )
        assert n == 5
        assert half > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate_until(make, rel_half_width=0.0)
        with pytest.raises(ValueError):
            replicate_until(make, min_reps=1)

    @pytest.mark.parametrize("max_reps", [1, 3])
    def test_max_reps_below_min_reps_raises(self, max_reps):
        """A cap under the minimum cannot give a CI over ``min_reps``
        replications (at one it gives a NaN half-width)."""
        with pytest.raises(ValueError, match="max_reps"):
            replicate_until(make, min_reps=4, max_reps=max_reps)
