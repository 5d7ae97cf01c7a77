"""Sparse CTMC generator matrices.

A continuous-time Markov chain on states ``0 .. n-1`` is described by its
generator matrix ``Q`` where ``Q[i, j]`` (``i != j``) is the transition rate
from state ``i`` to state ``j`` and each diagonal entry makes the row sum to
zero.  :class:`Generator` wraps a SciPy CSR matrix, validates the generator
property on construction and keeps (optionally) a per-action decomposition
``Q = sum_a R_a + diagonal`` so that action throughputs can be computed for
process-algebra derived chains.

Every labelled transition list ``(src, dst, rate, action)`` becomes a
generator through one assembly, :class:`GeneratorPattern`: the CSR layout
of ``Q`` and of each action matrix depends only on ``(src, dst, action)``,
so it is laid out once per structure and :meth:`GeneratorPattern.fill`
writes nothing but data arrays for a rate vector.  Duplicate ``(src,
dst)`` pairs are summed, matching the multi-transition-system semantics of
PEPA (two distinct activities between the same pair of states add their
rates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = ["Generator", "GeneratorPattern", "TransitionBatch"]


def _segments(key: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in sorted ``key``."""
    if not key.size:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))


def _merge_plan(gather: np.ndarray, key: np.ndarray):
    """How to sum the runs of equal sorted ``key`` over ``rate[gather]``.

    Returns ``(first, extra)``: the rate index of each run's first
    transition, and per further run position the runs that reach it with
    the rate indices to add, so :func:`_merged` sums every run left to
    right in ``gather`` order.
    """
    starts = _segments(key)
    lengths = np.diff(np.append(starts, key.size))
    extra = []
    for j in range(1, int(lengths.max(initial=1))):
        runs = np.flatnonzero(lengths > j)
        extra.append((runs, gather[starts[runs] + j]))
    return gather[starts], extra


def _merged(rate: np.ndarray, first: np.ndarray, extra: list) -> np.ndarray:
    out = rate[first]
    for runs, idx in extra:
        out[runs] += rate[idx]
    return out


def _csr_layout(n: int, key: np.ndarray):
    """``(indices, indptr)`` of the sorted unique entry keys ``row*n+col``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return key % n, indptr


class GeneratorPattern:
    """Structure-frozen CSR layout of a labelled generator.

    Built once from the transition structure ``(n_states, src, dst,
    action)`` -- ``action`` is one label per transition, ``None`` for an
    unlabelled one -- it holds the CSR ``indices``/``indptr`` of ``Q``
    (off-diagonal pairs merged, a diagonal slot only for rows with an
    exit) and of one rate matrix per action (self-loops included), plus
    the gather and segment indices that sum parallel transitions.
    :meth:`fill` then writes only data arrays for a rate vector.

    The fill reproduces SciPy's COO assembly (``R - diags(R.sum(1))``
    with per-action ``csr_matrix((rate, (src, dst)))``) bit for bit
    whenever no ``(src, dst)`` pair carries three or more parallel
    transitions: parallel transitions are summed left to right in input
    order, exit rates are ``np.add.reduceat`` over each row's merged
    entries (the order ``sum(axis=1)`` uses), and entries of ``Q`` that
    come out exactly zero are not stored.  Three or more parallel
    transitions can be summed in another order than SciPy's, whose
    duplicate sort is not stable on long rows, so such sums may differ
    in the last bits.
    """

    __slots__ = (
        "n_states",
        "src",
        "dst",
        "action",
        "labels",
        "_first",
        "_extra",
        "_row_starts",
        "_off_pos",
        "_diag_pos",
        "_indices",
        "_indptr",
        "_actions",
    )

    def __init__(self, n_states: int, src, dst, action=None) -> None:
        n = self.n_states = int(n_states)
        src = self.src = np.asarray(src, dtype=np.int64)
        dst = self.dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError(f"src/dst shapes differ: {src.shape} {dst.shape}")
        if src.size and not (
            0 <= min(src.min(), dst.min()) and max(src.max(), dst.max()) < n
        ):
            raise ValueError(f"transition endpoint outside states 0..{n - 1}")
        key = src * n + dst

        # Q: off-diagonal transitions in (row, col) order, stable within a
        # pair; one merged entry per pair, one diagonal per row with exits
        off = np.flatnonzero(src != dst)
        gather = off[np.argsort(key[off], kind="stable")]
        self._first, self._extra = _merge_plan(gather, key[gather])
        ukey = key[self._first]
        urow = ukey // n
        self._row_starts = _segments(urow)
        dkey = urow[self._row_starts] * (n + 1)
        qkey = np.sort(np.concatenate((ukey, dkey)))
        self._off_pos = np.searchsorted(qkey, ukey)
        self._diag_pos = np.searchsorted(qkey, dkey)
        self._indices, self._indptr = _csr_layout(n, qkey)

        # one rate matrix per action label, sorted by name
        self.action = action
        self.labels: list = []
        self._actions: list = []
        if action is None:
            return
        if len(action) != src.size:
            raise ValueError(
                f"{len(action)} action labels for {src.size} transitions"
            )
        self.labels = sorted({a for a in action if a is not None})
        code = {a: i for i, a in enumerate(self.labels)}
        code[None] = -1
        codes = np.fromiter(map(code.__getitem__, action), np.int64, src.size)
        order = np.lexsort((key, codes))
        bounds = np.searchsorted(codes[order], np.arange(len(self.labels) + 1))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            gather = order[lo:hi]
            first, extra = _merge_plan(gather, key[gather])
            indices, indptr = _csr_layout(n, key[first])
            self._actions.append((first, extra, indices, indptr))

    def _check_rates(self, rate: np.ndarray) -> None:
        ok = np.isfinite(rate) & (rate >= 0)
        if ok.all():
            return
        k = int(np.argmin(ok))
        kind = "negative" if np.isfinite(rate[k]) else "non-finite"
        label = f" {self.action[k]!r}" if self.action is not None else ""
        raise ValueError(
            f"{kind} transition rate {float(rate[k])!r} on transition {k}{label} "
            f"({self.src[k]} -> {self.dst[k]})"
        )

    def fill(self, rate) -> "Generator":
        """Assemble the generator for ``rate`` (one entry per transition).

        Raises ``ValueError`` naming the first transition whose rate is
        negative, NaN or infinite.
        """
        rate = np.asarray(rate, dtype=np.float64)
        if rate.shape != self.src.shape:
            raise ValueError(
                f"rate vector has {rate.size} entries, pattern has "
                f"{self.src.size} transitions"
            )
        self._check_rates(rate)
        n = self.n_states
        data = np.empty(self._indices.size, dtype=np.float64)
        if self._first.size:
            merged = _merged(rate, self._first, self._extra)
            data[self._off_pos] = merged
            data[self._diag_pos] = -np.add.reduceat(merged, self._row_starts)
        Q = sp.csr_matrix(
            (data, self._indices.copy(), self._indptr.copy()), shape=(n, n)
        )
        if not data.all():  # zero rates: store no explicit zeros in Q
            Q.eliminate_zeros()
        action_rates = {
            name: sp.csr_matrix(
                (_merged(rate, first, extra), indices.copy(), indptr.copy()),
                shape=(n, n),
            )
            for name, (first, extra, indices, indptr) in zip(
                self.labels, self._actions
            )
        }
        return Generator(Q, action_rates=action_rates, validate=False)


@dataclass
class TransitionBatch:
    """Accumulator for transition triples, optionally labelled by action.

    Appending is O(1) amortised per call; ``to_generator`` assembles a
    :class:`Generator` in one vectorised pass.
    """

    n_states: int | None = None
    _src: list = field(default_factory=list)
    _dst: list = field(default_factory=list)
    _rate: list = field(default_factory=list)
    _action: list = field(default_factory=list)

    def add(self, src, dst, rate, action: str | None = None) -> None:
        """Add one transition or an array batch of transitions.

        ``src``, ``dst`` and ``rate`` may be scalars or equal-length
        sequences.  ``action`` labels the whole batch.
        """
        src = np.atleast_1d(np.asarray(src, dtype=np.int64))
        dst = np.atleast_1d(np.asarray(dst, dtype=np.int64))
        rate = np.atleast_1d(np.asarray(rate, dtype=np.float64))
        if not (src.shape == dst.shape == rate.shape):
            raise ValueError(
                f"src/dst/rate shapes differ: {src.shape} {dst.shape} {rate.shape}"
            )
        self._src.append(src)
        self._dst.append(dst)
        self._rate.append(rate)
        self._action.append(action)

    def to_generator(self, n_states: int | None = None) -> "Generator":
        """Assemble the accumulated triples into a :class:`Generator`."""
        n = n_states if n_states is not None else self.n_states
        if n is None:
            if not self._src:
                raise ValueError("cannot infer state count from an empty batch")
            n = int(max(int(s.max()) for s in self._src if s.size) + 1)
            n = max(n, int(max(int(d.max()) for d in self._dst if d.size) + 1))
        src = np.concatenate(self._src) if self._src else np.empty(0, np.int64)
        dst = np.concatenate(self._dst) if self._dst else np.empty(0, np.int64)
        rate = np.concatenate(self._rate) if self._rate else np.empty(0, np.float64)
        sizes = [s.size for s in self._src]
        action = np.repeat(np.array(self._action, dtype=object), sizes)
        return GeneratorPattern(n, src, dst, action).fill(rate)


class Generator:
    """A validated sparse CTMC generator matrix.

    Parameters
    ----------
    Q :
        Square sparse matrix with non-negative off-diagonal entries and zero
        row sums (within ``atol``).
    action_rates :
        Optional mapping ``action -> sparse rate matrix`` whose entries are
        the rates of transitions carrying that action label.  Used for
        throughput rewards; the off-diagonal part of ``Q`` need not equal the
        sum of the labelled matrices (hidden/unlabelled transitions are
        allowed).
    """

    def __init__(
        self,
        Q: sp.spmatrix,
        action_rates: Mapping[str, sp.spmatrix] | None = None,
        *,
        atol: float = 1e-9,
        validate: bool = True,
    ) -> None:
        Q = sp.csr_matrix(Q, dtype=np.float64)
        if Q.shape[0] != Q.shape[1]:
            raise ValueError(f"generator must be square, got {Q.shape}")
        if validate:
            if not np.isfinite(Q.data).all():
                k = int(np.argmin(np.isfinite(Q.data)))
                i = int(np.searchsorted(Q.indptr, k, side="right") - 1)
                raise ValueError(
                    f"non-finite generator entry {float(Q.data[k])!r} at "
                    f"({i}, {int(Q.indices[k])})"
                )
            off = Q.copy()
            off.setdiag(0.0)
            off.eliminate_zeros()
            if off.nnz and off.data.min() < -atol:
                raise ValueError(
                    "negative off-diagonal rate in generator: "
                    f"min={off.data.min():g}"
                )
            rowsum = np.asarray(Q.sum(axis=1)).ravel()
            scale = np.maximum(1.0, np.abs(Q.diagonal()))
            bad = np.abs(rowsum) > atol * scale
            if bad.any():
                i = int(np.argmax(np.abs(rowsum)))
                raise ValueError(
                    f"generator row sums not zero (e.g. row {i}: {rowsum[i]:g})"
                )
        self.Q = Q
        self.action_rates: dict[str, sp.csr_matrix] = {
            a: sp.csr_matrix(m, dtype=np.float64)
            for a, m in (action_rates or {}).items()
        }

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_triples(
        cls,
        n_states: int,
        src: Sequence[int],
        dst: Sequence[int],
        rate: Sequence[float],
    ) -> "Generator":
        """Build from off-diagonal transition triples; the diagonal is set
        so each row sums to zero.  Self-loop triples (``src == dst``) are
        legal and simply cancel out of the generator, matching the CTMC
        semantics where a self-loop is unobservable in the stationary
        distribution.  Labelled transitions (with per-action rate
        matrices) go through :class:`GeneratorPattern` directly.
        """
        return GeneratorPattern(n_states, src, dst).fill(rate)

    @classmethod
    def from_dense(cls, Q: np.ndarray, **kw) -> "Generator":
        """Build from a dense generator matrix (small models, tests)."""
        return cls(sp.csr_matrix(np.asarray(Q, dtype=np.float64)), **kw)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        return self.Q.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        """Total rate out of each state (non-negative vector)."""
        return -self.Q.diagonal()

    @property
    def uniformization_rate(self) -> float:
        """Smallest valid uniformization constant (max exit rate)."""
        d = self.exit_rates
        return float(d.max()) if d.size else 0.0

    def off_diagonal(self) -> sp.csr_matrix:
        """The rate matrix ``R`` with the diagonal removed."""
        R = self.Q.copy()
        R.setdiag(0.0)
        R.eliminate_zeros()
        return R

    def embedded_dtmc(self) -> sp.csr_matrix:
        """Jump-chain transition matrix (rows of absorbing states are
        identity)."""
        R = self.off_diagonal()
        d = self.exit_rates
        inv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)
        P = sp.diags(inv) @ R
        P = sp.csr_matrix(P)
        absorbing = np.flatnonzero(d <= 0)
        if absorbing.size:
            eye = sp.csr_matrix(
                (np.ones(absorbing.size), (absorbing, absorbing)),
                shape=P.shape,
            )
            P = P + eye
        return sp.csr_matrix(P)

    def dense(self) -> np.ndarray:
        return self.Q.toarray()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Generator(n_states={self.n_states}, nnz={self.Q.nnz}, "
            f"actions={sorted(self.action_rates)})"
        )


def _as_distribution(p: Iterable[float], n: int) -> np.ndarray:
    p = np.asarray(list(p) if not isinstance(p, np.ndarray) else p, dtype=float)
    if p.shape != (n,):
        raise ValueError(f"distribution has shape {p.shape}, expected ({n},)")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("not a probability distribution")
    return np.maximum(p, 0.0)
