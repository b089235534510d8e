"""Core domain types: labelled probabilistic transition systems and state
classifications.

A system stores each action label's transitions as CSR edge arrays
(``Edges``): row ``s`` holds the targets ``dst[indptr[s]:indptr[s + 1]]``
with probabilities ``prob[indptr[s]:indptr[s + 1]]``, sorted by (source,
target), exact zeros left out.  Memory is O(n + E) for n states and E
transitions, and validation, union, lumpability and quotienting run in
O(n + E) (plus sorting).  An empty row means the action is not enabled in
that state (reactive-system convention: a transition is either a full
distribution or absent).  No dense n x n matrix is kept: code that needs
one for a small system (approximate bisimilarity) builds it from the edges.
Every value here is immutable after construction and every operation is a
pure function, so instances can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyActionSetError,
    NegativeEntryError,
    NonSurjectiveError,
    RowSumError,
    ValidationError,
)

DEFAULT_TOL = 1e-9


class Edges(NamedTuple):
    """One action's transitions in CSR form, sorted by (source, target)."""

    indptr: np.ndarray
    dst: np.ndarray
    prob: np.ndarray

    def src(self) -> np.ndarray:
        """Source state of every edge."""
        return np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))


def edges_from_sorted(n: int, src: np.ndarray, dst: np.ndarray, prob: np.ndarray) -> Edges:
    """CSR arrays of edges already sorted by (source, target); zeros are dropped."""
    keep = prob != 0.0
    if not keep.all():
        src, dst, prob = src[keep], dst[keep], prob[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    edges = Edges(indptr, np.asarray(dst, dtype=np.int64), np.asarray(prob, dtype=float))
    for arr in edges:
        arr.setflags(write=False)
    return edges


class LabelledPTS:
    """Finite reactive probabilistic transition system.

    Attributes:
        n: number of states, indexed ``0..n-1``.
        actions: ordered action alphabet.
        edges: CSR ``Edges`` per action, the only stored form.

    The constructor takes a matrix (or nested sequence) per action, with
    ``trans[a][s, t]`` the probability of moving from ``s`` to ``t`` on
    action ``a``, for small systems written by hand; ``from_edges`` takes
    CSR arrays, as the parser and generators build them.
    """

    def __init__(self, n: int, actions: Sequence[str], trans: Mapping[str, object]):
        actions = tuple(actions)
        edges = {}
        for a in actions:
            if a not in trans:
                raise ValidationError(f"no matrix for action {a!r}")
            m = np.array(trans[a], dtype=float)
            if m.shape != (n, n):
                raise ValidationError(
                    f"matrix for action {a!r} has shape {m.shape}, "
                    f"expected {(n, n)}"
                )
            s, t = np.nonzero(m)
            edges[a] = edges_from_sorted(n, s, t, m[s, t])
        if set(trans) != set(actions):
            raise ValidationError("trans has matrices for undeclared actions")
        self._set(n, actions, edges)

    @classmethod
    def from_edges(cls, n: int, actions: Sequence[str], edges: Mapping[str, Edges]) -> "LabelledPTS":
        """System over canonical edge arrays (as built by ``edges_from_sorted``)."""
        pts = cls.__new__(cls)
        pts._set(n, tuple(actions), dict(edges))
        return pts

    def _set(self, n: int, actions: tuple[str, ...], edges: dict[str, Edges]) -> None:
        self.n = n
        self.actions = actions
        self.edges = edges
        self._flat: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._on: np.ndarray | None = None

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All actions' edges as ``(row, dst, prob)``, cached.

        ``row = i * n + source`` for the ``i``-th action, and the edges are
        sorted by row, then target.
        """
        if self._flat is None:
            edges = [self.edges[a] for a in self.actions]
            self._flat = (
                np.concatenate([np.zeros(0, dtype=np.int64)] + [e.src() + i * self.n for i, e in enumerate(edges)]),
                np.concatenate([np.zeros(0, dtype=np.int64)] + [e.dst for e in edges]),
                np.concatenate([np.zeros(0)] + [e.prob for e in edges]),
            )
        return self._flat

    def enabled_rows(self) -> np.ndarray:
        """Whether the ``i``-th action is enabled in state ``s`` (row sum
        above 0.5), as a cached (actions, n) table."""
        if self._on is None:
            row, _, prob = self.flat()
            total = np.bincount(row, weights=prob, minlength=len(self.actions) * self.n)
            self._on = (total > 0.5).reshape(len(self.actions), self.n)
            self._on.setflags(write=False)
        return self._on

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelledPTS):
            return NotImplemented
        return (
            self.n == other.n
            and self.actions == other.actions
            and all(
                all(np.array_equal(x, y) for x, y in zip(self.edges[a], other.edges[a]))
                for a in self.actions
            )
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"LabelledPTS(n={self.n}, actions={list(self.actions)})"


@dataclass(frozen=True)
class Classification:
    """Surjective assignment of states to class indices ``0..m-1``.

    This is the paper's classification matrix K: the partition of the
    states into classes, with the classes numbered.  It is canonical when
    classes are numbered in order of their smallest state, so that
    ``assign`` is a restricted-growth string; equal partitions then have
    equal canonical classifications.
    """

    assign: tuple[int, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "assign", tuple(int(v) for v in self.assign))
        if self.m < 1:
            raise ValidationError(f"class count must be >= 1, got {self.m}")
        if not self.assign:
            raise ValidationError("empty assignment")
        hit = [False] * self.m
        for s, v in enumerate(self.assign):
            if not 0 <= v < self.m:
                raise ValidationError(f"state {s} assigned to class {v} outside 0..{self.m - 1}")
            hit[v] = True
        for j, h in enumerate(hit):
            if not h:
                raise NonSurjectiveError(j)

    @property
    def n(self) -> int:
        return len(self.assign)


def validate_pts(pts: LabelledPTS, tol: float = DEFAULT_TOL) -> None:
    """Check the reactive-system invariants; raise on the first violation.

    Every entry must be non-negative and every row must sum to 0 (action
    disabled) or 1 (full distribution) within ``tol``.  Violations are
    reported in action order, then state order, a negative entry before its
    row's sum, and a row's sum as the dense row's ``sum()`` gives it.
    """
    if pts.n < 1:
        raise ValidationError("state count must be >= 1")
    if not pts.actions:
        raise EmptyActionSetError()
    for a in pts.actions:
        e = pts.edges[a]
        if not np.all(np.isfinite(e.prob)):
            raise ValidationError(f"non-finite entry in action {a!r}")
        src = e.src()
        totals = np.bincount(src, weights=e.prob, minlength=pts.n)
        # The dense row's sum adds the same k entries in another order,
        # which moves the total by less than k ulps of the row's absolute
        # sum; only rows within a few times that of a bound, or beyond it,
        # are summed again as dense rows.
        slack = 4 * np.finfo(float).eps * (np.diff(e.indptr) + 1) * (
            np.bincount(src, weights=np.abs(e.prob), minlength=pts.n) + 1.0
        )
        suspect = (np.abs(totals) > tol - slack) & (np.abs(totals - 1.0) > tol - slack)
        suspect[src[e.prob < -tol]] = True
        for s in np.flatnonzero(suspect).tolist():
            lo, hi = e.indptr[s], e.indptr[s + 1]
            bad = np.flatnonzero(e.prob[lo:hi] < -tol)
            if bad.size:
                raise NegativeEntryError(s, a, float(e.prob[lo + bad[0]]))
            row = np.zeros(pts.n)
            row[e.dst[lo:hi]] = e.prob[lo:hi]
            total = float(row.sum())
            if abs(total) > tol and abs(total - 1.0) > tol:
                raise RowSumError(s, a, total)


def disjoint_union(p1: LabelledPTS, p2: LabelledPTS) -> tuple[LabelledPTS, int]:
    """Block-diagonal union of two systems.

    The union alphabet keeps ``p1``'s action order and appends labels only
    found in ``p2``.  States of ``p2`` are shifted by ``p1.n``, which is
    returned as the offset.  Actions missing from one side contribute empty
    rows for that side's states.
    """
    actions = union_actions(p1, p2)
    edges = {}
    for a in actions:
        e1 = p1.edges.get(a, _no_edges(p1.n))
        e2 = p2.edges.get(a, _no_edges(p2.n))
        edges[a] = Edges(
            np.concatenate((e1.indptr, e2.indptr[1:] + e1.dst.size)),
            np.concatenate((e1.dst, e2.dst + p1.n)),
            np.concatenate((e1.prob, e2.prob)),
        )
        for arr in edges[a]:
            arr.setflags(write=False)
    return LabelledPTS.from_edges(p1.n + p2.n, actions, edges), p1.n


def union_actions(p1: LabelledPTS, p2: LabelledPTS) -> tuple[str, ...]:
    """``p1``'s actions in order, then the labels found only in ``p2``."""
    return tuple(p1.actions) + tuple(a for a in p2.actions if a not in p1.actions)


def _no_edges(n: int) -> Edges:
    return Edges(np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
