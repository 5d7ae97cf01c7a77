"""Accumulated rewards before absorption.

Complements :mod:`repro.ctmc.passage`: instead of the expected *time* to
hit a target set, compute the expected *integral of a state reward* along
the way::

    a_i = E[ integral_0^{T_hit} r(X_s) ds | X_0 = i ]

solving ``Q_TT a = -r_T`` on the complement of the target set.  With
``r = 1`` this reduces to the mean first-passage time; with ``r`` = queue
length it gives (by Little-style reasoning) the expected job-seconds
accumulated before the event -- e.g. the work in flight before the first
loss of a bounded queue.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ctmc.generator import Generator
from repro.ctmc.passage import _backward_reachable
from repro.ctmc.steady import _ordered_lu

__all__ = ["expected_accumulated_reward"]


def expected_accumulated_reward(generator, reward, targets) -> np.ndarray:
    """Expected accumulated ``reward`` until first hitting ``targets``.

    Target states return 0; states that cannot reach the targets return
    ``inf`` when their reward inflow is positive (the integral diverges)
    and ``nan`` when it is identically zero on their recurrent class (the
    limit is ill-defined without further structure).
    """
    g = generator if isinstance(generator, Generator) else Generator(
        sp.csr_matrix(generator)
    )
    n = g.n_states
    reward = np.asarray(reward, dtype=float)
    if reward.shape != (n,):
        raise ValueError(f"reward shape {reward.shape} != ({n},)")
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
    can_reach = _backward_reachable(g.Q, targets)
    stuck = T[~can_reach[T]]
    out[stuck] = np.where(reward[stuck] > 0, np.inf, np.nan)
    solvable = T[can_reach[T]]
    if solvable.size == 0:
        return out
    lu = _ordered_lu(g.Q[solvable][:, solvable].T)
    a = lu.solve(-reward[solvable], trans="T")
    if not np.all(np.isfinite(a)):
        raise RuntimeError("accumulated-reward solve failed")
    out[solvable] = a
    return out
