"""Non-finite rates fail at assembly, not inside the steady-state solver.

``min(...) <= 0`` parameter checks let NaN through, and an infinite
timeout rate is positive; before assembly rejected non-finite rates such
chains reached ``steady_state`` and spun there without raising.
"""

import math

import pytest

from repro.models import TagsExponential, TagsPepa
from repro.sweep import structure_cache

SMALL = dict(n=2, K1=2, K2=2)


@pytest.fixture(autouse=True)
def fresh_cache():
    structure_cache().clear()
    yield
    structure_cache().clear()


@pytest.mark.parametrize(
    "make",
    [
        lambda: TagsExponential(lam=math.nan, **SMALL),
        lambda: TagsPepa(lam=math.nan, **SMALL),
        lambda: TagsExponential(t=math.inf, **SMALL),
    ],
    ids=["exponential-nan-lam", "pepa-nan-lam", "exponential-inf-t"],
)
def test_generator_rejects_non_finite_rate(make):
    model = make()
    with pytest.raises(ValueError, match=r"non-finite transition rate (nan|inf)"):
        model.generator
