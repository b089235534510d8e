"""Core domain types: labelled probabilistic transition systems and state
classifications.

A system stores all its transitions in one edge table of three read-only
arrays: edge ``e`` moves from state ``row[e] % n`` to state ``dst[e]`` on
the ``row[e] // n``-th action with probability ``prob[e]``.  The table is
sorted by row, then target, with exact zeros left out, so memory is
O(n + E) for n states and E transitions, and validation, union,
lumpability and quotienting run in O(n + E) (plus sorting).  An empty row
means the action is not enabled in that state (reactive-system
convention: a transition is either a full distribution or absent).  No
dense n x n matrix is kept or built: lumping, quotients and approximate
bisimilarity all read the table.  Every value here is
immutable after construction and every operation is a pure function, so
instances can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DEFAULT_TOL,
    EmptyActionSetError,
    NegativeEntryError,
    NonSurjectiveError,
    RowSumError,
    ValidationError,
)


class LabelledPTS:
    """Finite reactive probabilistic transition system.

    Attributes:
        n: number of states, indexed ``0..n-1``.
        actions: ordered action alphabet.
        row, dst, prob: the edge table, the only stored form; ``row = i *
            n + source`` for the ``i``-th action, sorted by row, then target.

    The constructor takes a matrix (or nested sequence) per action, with
    ``trans[a][s, t]`` the probability of moving from ``s`` to ``t`` on
    action ``a``, for small systems written by hand; ``from_edges`` takes
    the table's arrays, as the parser and generators build them.
    """

    def __init__(self, n: int, actions: Sequence[str], trans: Mapping[str, object]):
        actions = tuple(actions)
        mats = []
        for a in actions:
            if a not in trans:
                raise ValidationError(f"no matrix for action {a!r}")
            mats.append(np.array(trans[a], dtype=float))
            if mats[-1].shape != (n, n):
                raise ValidationError(
                    f"matrix for action {a!r} has shape {mats[-1].shape}, "
                    f"expected {(n, n)}"
                )
        if set(trans) != set(actions):
            raise ValidationError("trans has matrices for undeclared actions")
        mats = np.array(mats).reshape(len(actions), n, n)
        i, s, t = np.nonzero(mats)
        self._set(n, actions, i * n + s, t, mats[i, s, t])

    @classmethod
    def from_edges(cls, n: int, actions: Sequence[str], row, dst, prob) -> "LabelledPTS":
        """System over an edge table already sorted by (row, target); zeros are dropped."""
        pts = cls.__new__(cls)
        pts._set(n, tuple(actions), row, dst, prob)
        return pts

    def _set(self, n: int, actions: tuple[str, ...], row, dst, prob) -> None:
        row, dst = np.asarray(row, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        prob = np.asarray(prob, dtype=float)
        keep = prob != 0.0
        if not keep.all():
            row, dst, prob = row[keep], dst[keep], prob[keep]
        for arr in (row, dst, prob):
            arr.setflags(write=False)
        self.n = n
        self.actions = actions
        self.row, self.dst, self.prob = row, dst, prob
        self._on: np.ndarray | None = None

    def enabled_rows(self) -> np.ndarray:
        """Whether the ``i``-th action is enabled in state ``s`` (row sum
        above 0.5), as a cached (actions, n) table."""
        if self._on is None:
            total = np.bincount(self.row, weights=self.prob, minlength=len(self.actions) * self.n)
            self._on = (total > 0.5).reshape(len(self.actions), self.n)
            self._on.setflags(write=False)
        return self._on

    def enabled_blocks(self) -> np.ndarray:
        """Each state's block in the partition by enabled actions, numbered
        in lexicographic order of the ``enabled_rows`` columns (action 0 first)."""
        block = np.zeros(self.n, dtype=np.int64)
        for on in self.enabled_rows():
            block = np.unique(2 * block + on, return_inverse=True)[1]
        return block

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelledPTS):
            return NotImplemented
        return (
            self.n == other.n
            and self.actions == other.actions
            and all(map(np.array_equal, (self.row, self.dst, self.prob), (other.row, other.dst, other.prob)))
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
        assign = tuple(map(int, self.assign))
        object.__setattr__(self, "assign", assign)
        if self.m < 1:
            raise ValidationError(f"class count must be >= 1, got {self.m}")
        if not assign:
            raise ValidationError("empty assignment")
        used = set(assign)
        if min(used) < 0 or max(used) >= self.m:
            s, v = next((s, v) for s, v in enumerate(assign) if not 0 <= v < self.m)
            raise ValidationError(f"state {s} assigned to class {v} outside 0..{self.m - 1}")
        if len(used) < self.m:
            # some class below len(used) + 1 is empty, whatever m is
            raise NonSurjectiveError(min(set(range(len(used) + 1)) - used))

    @property
    def n(self) -> int:
        return len(self.assign)


def validate_pts(pts: LabelledPTS, tol: float = DEFAULT_TOL) -> None:
    """Check the reactive-system invariants; raise on the first violation.

    Every entry must be finite and non-negative and every row must sum to
    0 (action disabled) or 1 (full distribution) within ``tol``.
    Violations are reported in action order, a non-finite entry first,
    then state order, a negative entry before its row's sum, and a row's
    sum as the dense row's ``sum()`` gives it.
    """
    n = pts.n
    if n < 1:
        raise ValidationError("state count must be >= 1")
    if not pts.actions:
        raise EmptyActionSetError()
    finite = np.isfinite(pts.prob)
    # the rows checked: those of the actions before the first one with a
    # non-finite entry
    rows = len(pts.actions) * n if finite.all() else int(pts.row[np.argmin(finite)]) // n * n
    end = np.searchsorted(pts.row, rows)
    row, dst, prob = pts.row[:end], pts.dst[:end], pts.prob[:end]
    indptr = np.searchsorted(row, np.arange(rows + 1))
    totals = np.bincount(row, weights=prob, minlength=rows)
    # The dense row's sum adds the same k entries in another order, which
    # moves the total by less than k ulps of the row's absolute sum; only
    # rows within a few times that of a bound, or beyond it, are summed
    # again as dense rows.
    slack = 4 * np.finfo(float).eps * (np.diff(indptr) + 1) * (
        np.bincount(row, weights=np.abs(prob), minlength=rows) + 1.0
    )
    suspect = (np.abs(totals) > tol - slack) & (np.abs(totals - 1.0) > tol - slack)
    suspect[row[prob < -tol]] = True
    for r in np.flatnonzero(suspect).tolist():
        lo, hi = indptr[r], indptr[r + 1]
        s, a = r % n, pts.actions[r // n]
        bad = np.flatnonzero(prob[lo:hi] < -tol)
        if bad.size:
            raise NegativeEntryError(s, a, float(prob[lo + bad[0]]))
        dense = np.zeros(n)
        dense[dst[lo:hi]] = prob[lo:hi]
        total = float(dense.sum())
        if abs(total) > tol and abs(total - 1.0) > tol:
            raise RowSumError(s, a, total)
    if rows < len(pts.actions) * n:
        raise ValidationError(f"non-finite entry in action {pts.actions[rows // n]!r}")


def disjoint_union(p1: LabelledPTS, p2: LabelledPTS) -> tuple[LabelledPTS, int]:
    """Block-diagonal union of two systems.

    The union alphabet keeps ``p1``'s action order and appends labels only
    found in ``p2``.  States of ``p2`` are shifted by ``p1.n``, which is
    returned as the offset.  Actions missing from one side contribute empty
    rows for that side's states.
    """
    actions = union_actions(p1, p2)
    n = p1.n + p2.n
    size = p1.row.size + p2.row.size
    row, dst, prob = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64), np.empty(size)
    at = 0  # the union's runs in order: per action, p1's edges, then p2's
    for i, a in enumerate(actions):
        for p, off in ((p1, 0), (p2, p1.n)):
            if a in p.actions:
                j = p.actions.index(a)
                lo, hi = np.searchsorted(p.row, (j * p.n, j * p.n + p.n)).tolist()
                to = slice(at, at + hi - lo)
                np.add(p.row[lo:hi], i * n + off - j * p.n, out=row[to])
                np.add(p.dst[lo:hi], off, out=dst[to])
                prob[to] = p.prob[lo:hi]
                at = to.stop
    return LabelledPTS.from_edges(n, actions, row, dst, prob), p1.n


def union_actions(p1: LabelledPTS, p2: LabelledPTS) -> tuple[str, ...]:
    """``p1``'s actions in order, then the labels found only in ``p2``."""
    return tuple(p1.actions) + tuple(a for a in p2.actions if a not in p1.actions)
