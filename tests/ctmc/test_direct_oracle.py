"""The ordered direct solve against the default-ordered SciPy solve.

:func:`repro.ctmc.steady_state_direct` factors the anchored ``Q^T`` with
a symmetric minimum-degree ordering and diagonal pivots.  The oracle in
``_direct_oracle.py`` is the plain ``spsolve`` it replaced (COLAMD,
partial pivoting).  At the paper's sizes the two must give the same
stationary distribution to 1e-12 relative to its largest entry, and the
ordered factor must swap no rows: its fill bound, and so its speed,
depends on that.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs
from repro.ctmc.passage import mean_first_passage_times
from repro.ctmc.steady import _ordered_lu, steady_state_direct
from repro.experiments.config import FIG6_PARAMS, FIG9_PARAMS, h2_service_fig9
from repro.models import TagsBreakdown, TagsExponential, TagsHyperExponential, TagsPepa
from repro.pepa import explore, to_generator
from tests.ctmc._direct_oracle import reference_direct

RTOL = 1e-12


def fig6(t):
    return TagsExponential(**FIG6_PARAMS, t=t).generator


def fig9(t):
    service = h2_service_fig9()
    mu1, mu2 = service.rates
    return TagsHyperExponential(
        lam=FIG9_PARAMS["lam"],
        alpha=float(service.probs[0]),
        mu1=float(mu1),
        mu2=float(mu2),
        n=FIG9_PARAMS["n"],
        K1=FIG9_PARAMS["K1"],
        K2=FIG9_PARAMS["K2"],
        t=t,
    ).generator


def pepa(t):
    return TagsPepa(**FIG6_PARAMS, t=t).generator


def breakdown(t):
    return to_generator(explore(TagsBreakdown(t=t).build()))


def assert_agrees(gen):
    info = {}
    pi = steady_state_direct(gen, info=info)
    ref = reference_direct(gen.Q)
    assert np.abs(pi - ref).max() <= RTOL * ref.max()
    assert info["residual"] == pytest.approx(np.abs(pi @ gen.Q).max(), abs=0.0)
    assert info["residual"] <= 1e-14


@pytest.mark.parametrize("t", [4.0, 51.0, 120.0])
def test_fig6_exponential(t):
    assert_agrees(fig6(t))


@pytest.mark.parametrize("t", [10.0, 90.0])
def test_fig9_hyperexponential(t):
    assert_agrees(fig9(t))


def test_pepa_chain():
    assert_agrees(pepa(51.0))


def test_breakdown_chain():
    assert_agrees(breakdown(51.0))


@pytest.fixture
def factors(monkeypatch):
    """Every ordered factor the solvers make, in order."""
    import repro.ctmc.passage as passage
    import repro.ctmc.steady as steady

    made = []

    def recording(A):
        lu = _ordered_lu(A)
        made.append(lu)
        return lu

    monkeypatch.setattr(steady, "_ordered_lu", recording)
    monkeypatch.setattr(passage, "_ordered_lu", recording)
    return made


@pytest.mark.parametrize("build", [fig6, fig9], ids=["fig6", "fig9"])
def test_anchored_factor_swaps_no_rows(build, factors):
    gen = build(51.0)
    with obs.use(obs.Recorder()) as rec:
        steady_state_direct(gen)
    (lu,) = factors
    assert np.array_equal(lu.perm_r, lu.perm_c)
    # the fill the symmetric ordering buys over SuperLU's default COLAMD
    # (0.44x on both chains)
    n = gen.n_states
    default = spla.splu(sp.csc_matrix(gen.Q[: n - 1, : n - 1].T))
    (span,) = rec.find_spans("steady_state")
    assert span.attrs["lu_nnz"] == lu.nnz <= 0.6 * default.nnz


def test_passage_factor_swaps_no_rows(factors):
    """``Q_TT`` is row-dominant, so the passage solves factor its
    transpose; factoring ``Q_TT`` itself would swap rows."""
    mean_first_passage_times(fig6(51.0), [0])
    (lu,) = factors
    assert np.array_equal(lu.perm_r, lu.perm_c)
