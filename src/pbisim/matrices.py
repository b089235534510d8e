"""Classification matrices, their pseudo-inverses, lumping and norms.

A classification matrix K is the n x m 0/1 matrix of a surjective
state-to-class assignment: exactly one 1 per row, no zero column.  For such
K the Moore-Penrose pseudo-inverse has a closed form, the row-normalised
transpose, so no numerical factorisation is ever needed here.  Lumping a
square matrix M through K gives the m x m matrix K+ M K whose (i, j) entry
is the average, over the states of class i, of their total mass into class
j (Kemeny-Snell style strong lumping).

Every command lumps on the edge table (``lumped``); the dense forms
(``classification_matrix``, ``pseudo_inverse``, ``lump``) are the
reference.  ``matrix_norm`` and ``table_norm`` add in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Classification, LabelledPTS, DEFAULT_TOL
from .errors import NORM_KINDS, DimensionMismatchError, NotClassificationMatrixError


def classification_matrix(c: Classification, n: int | None = None) -> np.ndarray:
    """0/1 matrix of a classification: K[s, j] = 1 iff state s is in class j."""
    if n is None:
        n = c.n
    elif n != c.n:
        raise DimensionMismatchError(
            f"classification covers {c.n} states, expected {n}"
        )
    k = np.zeros((n, c.m))
    k[np.arange(n), list(c.assign)] = 1.0
    return k


def _check_classification_matrix(k: np.ndarray) -> None:
    if k.ndim != 2:
        raise NotClassificationMatrixError(f"expected a matrix, got ndim={k.ndim}")
    if not np.all((k == 0.0) | (k == 1.0)):
        raise NotClassificationMatrixError("entries must be exactly 0 or 1")
    if not np.all(k.sum(axis=1) == 1.0):
        raise NotClassificationMatrixError("each row must contain exactly one 1")
    if np.any(k.sum(axis=0) == 0.0):
        raise NotClassificationMatrixError("every column must be inhabited")


def pseudo_inverse(k: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a classification matrix.

    Closed form: transpose K and divide each row by its sum (the class
    size).  The result satisfies all four Penrose identities exactly up to
    the division rounding.
    """
    k = np.asarray(k, dtype=float)
    _check_classification_matrix(k)
    return k.T / k.sum(axis=0)[:, None]


def penrose_check(k: np.ndarray, p: np.ndarray, tol: float = 1e-12) -> bool:
    """Entrywise check of the four Penrose identities.

    KPK = K, PKP = P, (KP)^T = KP and (PK)^T = PK, each within ``tol``.
    """
    k = np.asarray(k, dtype=float)
    p = np.asarray(p, dtype=float)
    if k.ndim != 2 or p.ndim != 2 or k.shape != p.shape[::-1]:
        raise DimensionMismatchError(
            f"incompatible shapes {k.shape} and {p.shape}"
        )
    kp = k @ p
    pk = p @ k
    return (
        np.allclose(kp @ k, k, rtol=0.0, atol=tol)
        and np.allclose(pk @ p, p, rtol=0.0, atol=tol)
        and np.allclose(kp.T, kp, rtol=0.0, atol=tol)
        and np.allclose(pk.T, pk, rtol=0.0, atol=tol)
    )


def lump(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Quotient transform K+ M K for a classification matrix K.

    ``m`` is one n x n matrix or a stack ``(..., n, n)`` of them, such as
    one matrix per action; each is lumped as if alone.  Evaluated as block
    sums followed by a single division per class, so that exactly
    representable inputs stay exact (dividing each addend first would round
    before the cancellation).
    """
    m = np.asarray(m, dtype=float)
    k = np.asarray(k, dtype=float)
    _check_classification_matrix(k)
    if m.shape[-2:] != (k.shape[0], k.shape[0]):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match {k.shape[0]} states"
        )
    return (k.T @ (m @ k)) / k.sum(axis=0)[:, None]


@dataclass(frozen=True)
class LumpabilityViolation:
    """First witness that two same-class states behave differently."""

    action: str
    state_a: int
    state_b: int
    target_block: int | None  # None when enabledness itself differs
    reason: str

    def __str__(self) -> str:
        where = (
            f"masses into block {self.target_block} differ"
            if self.target_block is not None
            else "enabledness differs"
        )
        return (
            f"action {self.action!r}: states {self.state_a} and {self.state_b} "
            f"share a class but {where} ({self.reason})"
        )


# Below about this many unordered keys timsort is as fast (16 to 16,384 measured).
_SORT_CROSSOVER = 1024


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for non-negative integer keys.

    On integers that call runs timsort, which is slow on long unordered
    keys.  The composites ``key * size + index`` are distinct, so numpy's
    default (SIMD) sort orders them stably, and ``% size`` decodes the
    permutation: 0.3 ms against 1.8 ms on 26,638 keys.  Short input, or keys
    large enough that a composite could overflow int64, take timsort.
    """
    size = key.size
    if size < _SORT_CROSSOVER or int(key.max()) >= np.iinfo(np.int64).max // size:
        return np.argsort(key, kind="stable")
    return np.sort(key.astype(np.int64) * size + np.arange(size)) % size


def sum_by_key(key: np.ndarray, values: np.ndarray, order=None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys, ascending, and the sum of ``values`` per key.

    Each sum is taken in input order, one addition at a time.  ``order``,
    if given, is ``key``'s stable sorting permutation.
    """
    order = np.argsort(key, kind="stable") if order is None else order
    key = key[order]
    head = np.empty(key.size, dtype=bool)
    head[:1] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    return key[head], np.bincount(np.cumsum(head) - 1, weights=values[order])


def class_masses(pts: LabelledPTS, assign: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every state's total mass into every class on every action: ``M K``.

    ``assign`` maps states to the classes ``0..m-1``.  Returns ``(key,
    mass)`` with ``key = (i * n + state) * m + class`` for the ``i``-th
    action, ascending, one entry per triple that some edge connects; absent
    triples have mass 0.  Each mass is summed over the state's edges into
    the class in ascending target order.  O(E log E) for E edges.
    """
    return sum_by_key(pts.row * m + assign[pts.dst], pts.prob)


def lumped(pts: LabelledPTS, assign: np.ndarray, m: int) -> LabelledPTS:
    """``K+ M K`` on the edge table: ``pts`` lumped onto the ``m`` classes
    of ``assign``, which need not be a lumping.

    Entry (i, j) of each action is class i's mass into class j, summed
    over the class's states in ascending order (each state's mass as
    ``class_masses`` sums it), then divided by the class size, so dyadic
    inputs give exact entries.  Relabelling the classes permutes the
    entries and changes no bit of them.  O(E log E) time, O(n + E) memory.
    """
    sizes = np.bincount(assign, minlength=m)
    key, mass = class_masses(pts, assign, m)
    action, state = np.divmod(key // m, pts.n)
    # one total per (action, source class, target class)
    key, total = sum_by_key((action * m + assign[state]) * m + key % m, mass)
    row = key // m
    return LabelledPTS.from_edges(m, pts.actions, row, key % m, total / sizes[row % m])


def is_lumpable(
    pts: LabelledPTS, c: Classification, tol: float = DEFAULT_TOL
) -> tuple[bool, LumpabilityViolation | None]:
    """Strong lumpability of a classification, with equal enabledness.

    True iff for every action, all states of a class agree on whether the
    action is enabled and, when enabled, place equal total mass (within
    ``tol``) into every class.  Each state is compared with its class's
    smallest state (the lead).  Returns the first violation in action /
    class / state order, with the first class whose masses differ, or
    ``None``.  O(E log E) for E edges.
    """
    if c.n != pts.n:
        raise DimensionMismatchError(
            f"classification covers {c.n} states, system has {pts.n}"
        )
    n, m = pts.n, c.m
    if m == n:
        return True, None  # every class is one state
    firsts: dict[int, int] = {}
    lead = np.array([firsts.setdefault(v, s) for s, v in enumerate(c.assign)])
    on = pts.enabled_rows()
    key, mass = class_masses(pts, np.asarray(c.assign), m)
    row = key // m
    state = row % n
    # each entry's counterpart in the lead's row; it sorts no later
    lead_key = key + (lead[state] - state) * m
    at = np.searchsorted(key, lead_key)
    found = key[at] == lead_key
    lead_mass = np.where(found, mass[at], 0.0)
    bad = on != on[:, lead]
    bad.reshape(-1)[row[np.abs(mass - lead_mass) > tol]] = True
    # a state also differs where it lacks a class its lead reaches with
    # more than tol
    wanted = np.bincount(row[(lead[state] == state) & (np.abs(mass) > tol)], minlength=bad.size)
    have = np.bincount(row[found & (np.abs(lead_mass) > tol)], minlength=bad.size)
    bad |= have.reshape(-1, n) < wanted.reshape(-1, n)[:, lead]
    hits = np.flatnonzero(bad).tolist()
    if not hits:
        return True, None
    # the first violation: first action, then first class, then first state
    i = hits[0] // n
    s = min((h - i * n for h in hits if h < (i + 1) * n), key=c.assign.__getitem__)
    ld = firsts[c.assign[s]]
    a = pts.actions[i]
    if on[i, s] != on[i, ld]:
        return False, LumpabilityViolation(
            a, ld, s, None,
            f"enabled({ld})={bool(on[i, ld])}, enabled({s})={bool(on[i, s])}",
        )
    x, y = np.zeros(m), np.zeros(m)
    for out, u in ((x, ld), (y, s)):
        lo, hi = np.searchsorted(key, [(i * n + u) * m, (i * n + u + 1) * m])
        out[key[lo:hi] % m] = mass[lo:hi]
    x, y = x.tolist(), y.tolist()
    j = next(j for j, (u, v) in enumerate(zip(x, y)) if abs(v - u) > tol)
    return False, LumpabilityViolation(a, ld, s, j, f"{x[j]!r} vs {y[j]!r}")


def matrix_norm(m: np.ndarray, kind: str = "op-inf") -> float | np.ndarray:
    """Matrix norm used to compare lumped systems.

    op-inf: operator norm induced by the max vector norm, i.e. the largest
    absolute row sum.  entry-max: largest absolute entry.  frobenius:
    square root of the sum of squared entries.  Sums run in ascending
    (row, column) order, one term at a time.  A matrix gives a float; a
    stack ``(..., n, m)`` gives the array of its matrices' norms, each
    equal to the matrix's own.
    """
    m = np.asarray(m, dtype=float)
    if kind == "op-inf":
        norm = np.abs(m).cumsum(axis=-1)[..., -1].max(axis=-1)
    elif kind == "entry-max":
        norm = np.abs(m).max(axis=(-2, -1))
    elif kind == "frobenius":
        norm = np.sqrt((m * m).reshape(*m.shape[:-2], -1).cumsum(axis=-1)[..., -1])
    else:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
    return float(norm) if m.ndim == 2 else norm


def table_norm(key: np.ndarray, value: np.ndarray, m: int, kind: str = "op-inf") -> float:
    """``matrix_norm`` of an m x m matrix given as a table.

    ``value[e]`` is the entry at ``key[e] = row * m + column``, keys
    ascending and distinct; every other entry is 0.  Sums run in key
    order, one term at a time, as ``matrix_norm``'s do, and adding an
    exact zero never changes such a sum, so the norm equals the dense
    matrix's bit for bit.  O(m) memory besides the table, whatever the
    number of zeros.
    """
    if kind == "op-inf":
        return float(np.bincount(key // m, weights=np.abs(value), minlength=m).max())
    if kind == "entry-max":
        return float(np.abs(value).max(initial=0.0))
    if kind == "frobenius":
        return math.sqrt(float(np.cumsum(value * value)[-1])) if value.size else 0.0
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
