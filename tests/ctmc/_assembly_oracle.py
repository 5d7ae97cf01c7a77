"""Reference generator assembly through SciPy's COO conversion.

This is the straightforward construction the production
:class:`repro.ctmc.generator.GeneratorPattern` replaces: one
``csr_matrix((rate, (src, dst)))`` per action label (parallel
transitions summed, self-loops kept), and ``Q = R - diags(R.sum(1))``
over the off-diagonal transitions.  It shares no code with the pattern,
so tests use it as the oracle for the frozen-layout assembly.
"""

import numpy as np
import scipy.sparse as sp


def reference_assembly(n, src, dst, rate, action=None):
    """Return ``(Q, action_rates)`` for transitions ``src -> dst``.

    ``action`` labels each transition (``None`` = unlabelled); the
    result maps each label to its CSR rate matrix.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    rate = np.asarray(rate, dtype=np.float64)
    action_rates = {}
    if action is not None:
        labels = np.asarray(action, dtype=object)
        for a in sorted({a for a in action if a is not None}):
            mask = labels == a
            action_rates[a] = sp.csr_matrix(
                (rate[mask], (src[mask], dst[mask])), shape=(n, n)
            )
    keep = src != dst
    R = sp.csr_matrix((rate[keep], (src[keep], dst[keep])), shape=(n, n))
    R.sum_duplicates()
    exit_rates = np.asarray(R.sum(axis=1)).ravel()
    Q = R - sp.diags(exit_rates, format="csr")
    return Q, action_rates


def assert_same_layout(a, b):
    """``a`` and ``b`` have identical CSR ``indptr`` and ``indices``."""
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)


def assert_identical(gen, Q, action_rates):
    """``gen`` equals the reference ``(Q, action_rates)`` entry for entry:
    same CSR ``indptr``/``indices`` and bitwise-equal ``data``."""
    pairs = [(gen.Q, Q)]
    assert sorted(gen.action_rates) == sorted(action_rates)
    pairs += [(gen.action_rates[a], m) for a, m in action_rates.items()]
    for got, want in pairs:
        assert_same_layout(got, want)
        assert got.data.tobytes() == want.data.tobytes()
