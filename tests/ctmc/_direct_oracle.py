"""Reference anchored direct solve through SciPy's default ``spsolve``.

This is the steady-state solve :func:`repro.ctmc.steady_state_direct`
ran before it factored with a symmetric ordering: the last state is
anchored (``pi[n-1] = 1``), its row and column are deleted from
``Q^T`` and the reduced system is handed to ``spsolve``, i.e. SuperLU
with its COLAMD column ordering and ordinary partial pivoting.  It
shares no factorisation code with the production path, so tests use it
as the oracle for the ordered factor.
"""

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def reference_direct(Q) -> np.ndarray:
    """Stationary distribution of the irreducible generator ``Q``."""
    Q = sp.csr_matrix(Q)
    n = Q.shape[0]
    keep = np.arange(n) != n - 1
    A = sp.csc_matrix(Q[keep][:, keep].T)
    c = np.asarray(Q[n - 1, :].todense()).ravel()[keep]
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        y = spla.spsolve(A, -c)
    pi = np.append(y, 1.0)
    if not np.all(np.isfinite(pi)):
        raise ArithmeticError("reference solve produced non-finite entries")
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()
