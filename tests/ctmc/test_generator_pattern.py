"""The frozen-layout generator assembly against the SciPy COO oracle.

:class:`repro.ctmc.GeneratorPattern` is the only code that lays out a
labelled generator's CSR arrays.  These tests pin it to the reference
assembly in :mod:`tests.ctmc._assembly_oracle`: on random transition
lists (self-loops, rows without exits, parallel transitions, zero
rates), and bit for bit on every paper-size chain the figures solve.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import ChainTemplate, Generator, GeneratorPattern
from repro.experiments.config import FIG6_PARAMS, FIG9_PARAMS, h2_service_fig9
from repro.models import (
    TagsExponential,
    TagsHyperExponential,
    TagsMultiNode,
    TagsPepa,
)
from repro.models.tags_hyper import TagsH2Parameters, build_tags_h2_model
from repro.pepa import explore, to_generator
from repro.pepa.compiled import compile_model
from repro.sweep import structure_cache
from tests.ctmc._assembly_oracle import (
    assert_identical,
    assert_same_layout,
    reference_assembly,
)

LABELS = (None, "a", "b", "c")


@st.composite
def transition_lists(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 24))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    rate = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
            min_size=m,
            max_size=m,
        )
    )
    action = draw(st.lists(st.sampled_from(LABELS), min_size=m, max_size=m))
    return n, src, dst, rate, action


def _max_parallel(pairs) -> int:
    return max(Counter(pairs).values(), default=0)


class TestAgainstOracle:
    @given(transition_lists())
    @settings(max_examples=300, deadline=None)
    def test_random_transition_lists(self, case):
        n, src, dst, rate, action = case
        gen = GeneratorPattern(n, src, dst, action).fill(rate)
        Q, action_rates = reference_assembly(n, src, dst, rate, action)
        # no explicit zeros in Q: rows without an exit store no diagonal
        assert np.all(gen.Q.data != 0)
        exact_q = _max_parallel(
            (s, d) for s, d in zip(src, dst) if s != d
        ) < 3
        pairs = [(gen.Q, Q, exact_q)]
        assert sorted(gen.action_rates) == sorted(action_rates)
        for a, mat in action_rates.items():
            exact = _max_parallel(
                (s, d) for s, d, lab in zip(src, dst, action) if lab == a
            ) < 3
            pairs.append((gen.action_rates[a], mat, exact))
        for got, want, exact in pairs:
            assert_same_layout(got, want)
            if exact:
                assert got.data.tobytes() == want.data.tobytes()
            else:
                np.testing.assert_array_max_ulp(got.data, want.data, maxulp=4)

    def test_refill_matches_fresh_assembly(self):
        rng = np.random.default_rng(3)
        n, m = 30, 200
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        action = [LABELS[i] for i in rng.integers(0, len(LABELS), m)]
        pattern = GeneratorPattern(n, src, dst, action)
        for _ in range(3):
            rate = rng.uniform(0.1, 10.0, m)
            assert_identical(
                pattern.fill(rate), *reference_assembly(n, src, dst, rate, action)
            )


class TestPatternContract:
    def test_rows_without_exit_store_no_diagonal(self):
        # state 1 has only a self-loop, state 2 nothing at all
        gen = GeneratorPattern(3, [0, 1], [1, 1], ["go", "stay"]).fill([2.0, 5.0])
        assert gen.Q.nnz == 2
        assert gen.Q[0, 0] == -2.0 and gen.Q[0, 1] == 2.0
        assert gen.action_rates["stay"][1, 1] == 5.0

    def test_zero_rate_leaves_q_but_stays_in_action_matrix(self):
        gen = GeneratorPattern(2, [0, 1], [1, 0], ["go", "back"]).fill([0.0, 3.0])
        Q, action_rates = reference_assembly(2, [0, 1], [1, 0], [0.0, 3.0], ["go", "back"])
        assert_identical(gen, Q, action_rates)
        assert gen.Q.nnz == 2
        assert gen.action_rates["go"].nnz == 1

    def test_unlabelled_transitions_enter_q_only(self):
        gen = GeneratorPattern(2, [0, 1], [1, 0], [None, "back"]).fill([1.0, 3.0])
        assert set(gen.action_rates) == {"back"}
        np.testing.assert_allclose(gen.dense(), [[-1.0, 1.0], [3.0, -3.0]])

    def test_rate_length_checked(self):
        with pytest.raises(ValueError, match="2 transitions"):
            GeneratorPattern(2, [0, 1], [1, 0]).fill([1.0])

    def test_endpoints_checked(self):
        with pytest.raises(ValueError, match="outside states 0..1"):
            GeneratorPattern(2, [0, 2], [1, 0])

    def test_label_count_checked(self):
        with pytest.raises(ValueError, match="1 action labels"):
            GeneratorPattern(2, [0, 1], [1, 0], ["a"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_names_the_transition(self, bad):
        pattern = GeneratorPattern(3, [0, 1, 2], [1, 2, 0], ["a", "b", "c"])
        with pytest.raises(ValueError, match=r"non-finite.*transition 1 'b' \(1 -> 2\)"):
            pattern.fill([1.0, bad, 2.0])

    def test_negative_rate_names_the_transition(self):
        with pytest.raises(ValueError, match=r"negative.*transition 0 \(0 -> 1\)"):
            Generator.from_triples(2, [0], [1], [-1.0])

    def test_validating_constructor_rejects_non_finite_entries(self):
        Q = np.array([[-1.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match=r"non-finite.*\(1, 0\)"):
            Generator.from_dense(Q)


# ----------------------------------------------------------------------
# paper-size chains, bit for bit
# ----------------------------------------------------------------------


@pytest.fixture
def fresh_cache():
    structure_cache().clear()
    yield
    structure_cache().clear()


def _fig9_h2(t: float) -> dict:
    service = h2_service_fig9()
    mu1, mu2 = service.rates
    return dict(
        lam=FIG9_PARAMS["lam"],
        alpha=float(service.probs[0]),
        mu1=float(mu1),
        mu2=float(mu2),
        t=t,
        n=FIG9_PARAMS["n"],
        K1=FIG9_PARAMS["K1"],
        K2=FIG9_PARAMS["K2"],
    )


def _assert_direct_chain_matches(cls, warm: dict, point: dict):
    """``cls(**point).generator`` -- refilled from a structure first
    built at ``warm`` -- equals the oracle over a fresh exploration."""
    _ = cls(**warm).generator
    model = cls(**point)
    fresh = ChainTemplate.explore(model._initial(), model._successors)
    ref = reference_assembly(
        fresh.n_states, fresh.src, fresh.dst, fresh.rate, fresh.act
    )
    assert_identical(model.generator, *ref)


@pytest.mark.usefixtures("fresh_cache")
class TestPaperChainsBitIdentical:
    def test_tags_exponential_fig6(self):
        _assert_direct_chain_matches(
            TagsExponential,
            dict(FIG6_PARAMS, t=4.0),
            dict(FIG6_PARAMS, t=52.0),
        )

    def test_tags_hyperexponential_fig9(self):
        _assert_direct_chain_matches(
            TagsHyperExponential, _fig9_h2(10.0), _fig9_h2(90.0)
        )

    def test_tags_multinode_three_nodes(self):
        params = dict(lam=5.0, mu=10.0, n=2, capacities=(4, 4, 4))
        _assert_direct_chain_matches(
            TagsMultiNode,
            dict(params, timeouts=(20.0, 10.0)),
            dict(params, timeouts=(30.0, 15.0)),
        )

    def test_tags_pepa_fig6(self):
        _ = TagsPepa(**FIG6_PARAMS, t=4.0).generator
        model = TagsPepa(**FIG6_PARAMS, t=52.0)
        space = compile_model(model.build()).explore()
        ref = reference_assembly(
            space.n_states, space.src, space.dst, space.rate, space.action
        )
        assert_identical(model.generator, *ref)

    def test_fig5_pepa_model(self):
        p = _fig9_h2(90.0)
        params = TagsH2Parameters(
            lam=p["lam"], alpha=p["alpha"], mu1=p["mu1"], mu2=p["mu2"], t=p["t"]
        )
        space = explore(build_tags_h2_model(params))
        ref = reference_assembly(
            space.n_states, space.src, space.dst, space.rate, space.action
        )
        assert_identical(to_generator(space), *ref)
