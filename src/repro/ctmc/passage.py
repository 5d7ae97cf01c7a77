"""First-passage and absorption analysis.

Beyond steady state, the natural questions about a bounded-queue system
are transient-structural: *how long until the first job is dropped?*,
*which node drops first?*  These reduce to first-passage times and
absorption probabilities:

* :func:`mean_first_passage_times` -- ``E[time to hit target set]`` from
  every state, by solving ``Q_TT m = -1`` on the complement ``T``.
* :func:`absorption_probabilities` -- for a chain with several absorbing
  classes, ``P[absorbed in class c | start at i]`` via ``Q_TT B = -Q_TA``.
* :func:`absorbing_on_action` -- rewire every transition carrying a given
  action label into a fresh absorbing state, turning an *event* ("a loss
  occurred") into a *state* so the two functions above apply.

Every linear system here is a restriction ``Q_TT`` of a generator to
states that can reach the target set.  Its rows are diagonally dominant,
so ``Q_TT^T`` is factored with the ordered sparse LU of
:mod:`repro.ctmc.steady` (no row is ever swapped) and solved transposed;
one factor serves every right-hand side of a call.  Unreachable-target
states are reported as ``inf`` passage time rather than raising.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ctmc.generator import Generator
from repro.ctmc.steady import _ordered_lu

__all__ = [
    "mean_first_passage_times",
    "absorption_probabilities",
    "conditional_absorption_times",
    "absorbing_on_action",
]


def _as_gen(g) -> Generator:
    return g if isinstance(g, Generator) else Generator(sp.csr_matrix(g))


def mean_first_passage_times(generator, targets) -> np.ndarray:
    """Expected time to reach ``targets`` (a set/array of state ids) from
    every state.

    Target states get 0; states that cannot reach the target set get
    ``inf``.
    """
    g = _as_gen(generator)
    n = g.n_states
    targets = np.asarray(sorted(set(int(t) for t in targets)), dtype=np.int64)
    if targets.size == 0:
        raise ValueError("empty target set")
    if targets.min() < 0 or targets.max() >= n:
        raise ValueError("target id out of range")
    mask = np.ones(n, dtype=bool)
    mask[targets] = False
    T = np.flatnonzero(mask)
    out = np.zeros(n)
    if T.size == 0:
        return out

    # restrict to states that can reach the targets at all
    can_reach = _backward_reachable(g.Q, targets)
    solvable = T[can_reach[T]]
    out[~can_reach] = np.inf
    if solvable.size == 0:
        return out
    lu = _ordered_lu(g.Q[solvable][:, solvable].T)
    m = lu.solve(-np.ones(solvable.size), trans="T")
    if not np.all(np.isfinite(m)) or m.min() < -1e-9:
        raise RuntimeError("first-passage solve failed (singular system)")
    out[solvable] = np.maximum(m, 0.0)
    return out


def _absorption(g: Generator, classes):
    """``(B, T, lu)``: absorption probabilities, the transient states
    that can reach some class, and the ordered factor of ``Q_TT^T``
    (``None`` when ``T`` is empty)."""
    n = g.n_states
    classes = [np.asarray(sorted(set(int(i) for i in c)), np.int64) for c in classes]
    all_abs = np.concatenate(classes) if classes else np.empty(0, np.int64)
    if len(np.unique(all_abs)) != all_abs.size:
        raise ValueError("absorbing classes must be disjoint")
    B = np.zeros((n, len(classes)))
    for c, ids in enumerate(classes):
        B[ids, c] = 1.0
    if all_abs.size == 0:
        return B, np.empty(0, np.int64), None
    # states that can never be absorbed keep a zero row: leaving them out
    # of Q_TT is exact and keeps it nonsingular
    reach = _backward_reachable(g.Q, all_abs)
    reach[all_abs] = False
    T = np.flatnonzero(reach)
    if T.size == 0:
        return B, T, None
    Q_T = g.Q[T]
    lu = _ordered_lu(Q_T[:, T].T)
    rhs = -np.column_stack(
        [np.asarray(Q_T[:, ids].sum(axis=1)).ravel() for ids in classes]
    )
    B[T] = np.clip(lu.solve(rhs, trans="T"), 0.0, 1.0)
    return B, T, lu


def absorption_probabilities(generator, classes) -> np.ndarray:
    """``P[absorbed in classes[c]]`` from every state.

    ``classes`` is a list of disjoint state-id collections, each treated
    as absorbing (their outgoing transitions are ignored).  Returns an
    ``(n_states, len(classes))`` matrix; rows of states inside a class are
    the corresponding unit vector.  Transient states that can avoid
    absorption forever (a closed recurrent class outside every target)
    yield rows summing to < 1; rows of states that can never be absorbed
    are zero.
    """
    return _absorption(_as_gen(generator), classes)[0]


def conditional_absorption_times(generator, classes):
    """``(B, M)``: absorption probabilities and *conditional* mean
    absorption times per class.

    ``B[i, c] = P[absorbed in classes[c] | start i]`` (as in
    :func:`absorption_probabilities`) and ``M[i, c] = E[absorption time |
    start i, absorbed in classes[c]]`` (``nan`` where ``B`` is zero).

    Computed from ``H[i, c] = E[tau * 1{absorbed in c}]`` which satisfies
    ``Q_TT H = -B_T`` on the transient states, then ``M = H / B``.  This
    is what turns a tagged-job chain into per-outcome response times:
    "how long do the jobs that *complete* take, versus the ones that are
    eventually dropped?".  Both systems share one factor of ``Q_TT``.
    """
    g = _as_gen(generator)
    B, T, lu = _absorption(g, classes)
    H = np.zeros_like(B)
    if T.size:
        H[T] = lu.solve(-B[T], trans="T")
    with np.errstate(divide="ignore", invalid="ignore"):
        M = np.where(B > 0, H / np.where(B > 0, B, 1.0), np.nan)
    return B, M


def absorbing_on_action(generator: Generator, action: str):
    """Return ``(new_generator, sink_id)`` where every ``action``-labelled
    transition is redirected into a fresh absorbing sink state.

    Use with :func:`mean_first_passage_times` to answer "expected time
    until the first occurrence of *action*" -- e.g. the first job loss of
    a bounded queueing system.
    """
    if action not in generator.action_rates:
        raise KeyError(
            f"no rate matrix for action {action!r}; known: "
            f"{sorted(generator.action_rates)}"
        )
    n = generator.n_states
    R = generator.off_diagonal().tolil()
    A = generator.action_rates[action].tocoo()
    # remove the action's rates from their original destinations (only the
    # portion that went into the generator, i.e. non-self-loop part)...
    for i, j, r in zip(A.row, A.col, A.data):
        if i != j:
            R[i, j] = max(R[i, j] - r, 0.0)
    R = R.tocoo()
    src = list(R.row)
    dst = list(R.col)
    rate = list(R.data)
    # ...and redirect the full action rate (including self-loop "drop"
    # transitions, which are real events) into the sink
    per_state = np.asarray(generator.action_rates[action].sum(axis=1)).ravel()
    for i in np.flatnonzero(per_state):
        src.append(int(i))
        dst.append(n)
        rate.append(float(per_state[i]))
    new = Generator.from_triples(n + 1, src, dst, rate)
    return new, n


def _backward_reachable(Q: sp.csr_matrix, targets: np.ndarray) -> np.ndarray:
    """Boolean mask of states from which ``targets`` is reachable."""
    A = Q.copy()
    A.setdiag(0.0)
    A.eliminate_zeros()
    AT = sp.csr_matrix(A.T)
    n = Q.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[targets] = True
    frontier = targets
    indptr, indices = AT.indptr, AT.indices
    while frontier.size:
        nxt = (
            np.unique(
                np.concatenate(
                    [indices[indptr[v]: indptr[v + 1]] for v in frontier]
                )
            )
            if frontier.size
            else np.empty(0, np.int64)
        )
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        frontier = nxt
    return seen
