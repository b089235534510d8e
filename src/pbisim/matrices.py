"""Classification matrices, their pseudo-inverses, lumping and norms.

A classification matrix K is the n x m 0/1 matrix of a surjective
state-to-class assignment: exactly one 1 per row, no zero column.  For such
K the Moore-Penrose pseudo-inverse has a closed form, the row-normalised
transpose, so no numerical factorisation is ever needed here.  Lumping a
square matrix M through K gives the m x m matrix K+ M K whose (i, j) entry
is the average, over the states of class i, of their total mass into class
j (Kemeny-Snell style strong lumping).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Classification, LabelledPTS, DEFAULT_TOL
from .errors import DimensionMismatchError, NotClassificationMatrixError

NORM_KINDS = ("op-inf", "entry-max", "frobenius")


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

    Evaluated as block sums followed by a single division per class, so
    that exactly representable inputs stay exact (dividing each addend
    first would round before the cancellation).
    """
    m = np.asarray(m, dtype=float)
    k = np.asarray(k, dtype=float)
    _check_classification_matrix(k)
    if m.shape != (k.shape[0], k.shape[0]):
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


def sum_by_key(key: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys, ascending, and the sum of ``values`` per key.

    Each sum is taken in input order, one addition at a time.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.empty(key.size, dtype=bool)
    head[:1] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    return key[head], np.bincount(np.cumsum(head) - 1, weights=values[order])


# Up to this many (action, state, class) triples, is_lumpable compares the
# masses as a dense table, state by state up to the first violation; on
# small systems this beats the sparse lookup's fixed cost of some twenty
# array operations.
DENSE_MASSES = 1 << 12


def class_masses(
    pts: LabelledPTS, assign: np.ndarray, m: int, dense: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Every state's total mass into every class on every action: ``M K``.

    ``assign`` maps states to the classes ``0..m-1``.  Returns ``(key,
    mass)`` with ``key = (i * n + state) * m + class`` for the ``i``-th
    action, ascending, one entry per triple that some edge connects; absent
    triples have mass 0.  With ``dense``, returns ``(None, table)``, the
    masses of all triples as an (actions, n, m) array.  Either way each
    mass is summed over the state's edges into the class in ascending
    target order.  O(E log E) for E edges; ``dense`` adds O(n m) per action.
    """
    row, dst, prob = pts.flat()
    key = row * m + assign[dst]
    if dense:
        size = len(pts.actions) * pts.n * m
        return None, np.bincount(key, weights=prob, minlength=size).reshape(-1, pts.n, m)
    return sum_by_key(key, prob)


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
    assign = np.asarray(c.assign)
    firsts: dict[int, int] = {}
    lead = [firsts.setdefault(v, s) for s, v in enumerate(c.assign)]
    on = pts.enabled_rows()
    if on.size * m <= DENSE_MASSES:
        # state by state in class order, up to the first violation
        key, table = class_masses(pts, assign, m, dense=True)
        rows, flags = table.tolist(), on.tolist()
        order = [s for s in sorted(range(n), key=c.assign.__getitem__) if lead[s] != s]
        i, s = next(
            (
                (i, s)
                for i in range(len(pts.actions))
                for s in order
                if flags[i][s] != flags[i][lead[s]]
                or any(abs(x - y) > tol for x, y in zip(rows[i][s], rows[i][lead[s]]))
            ),
            (None, None),
        )
        if i is None:
            return True, None
    else:
        lead = np.array(lead)
        key, mass = class_masses(pts, assign, m)
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
    if key is None:
        x, y = table[i, ld], table[i, s]
    else:
        x, y = np.zeros(m), np.zeros(m)
        for out, u in ((x, ld), (y, s)):
            lo, hi = np.searchsorted(key, [(i * n + u) * m, (i * n + u + 1) * m])
            out[key[lo:hi] % m] = mass[lo:hi]
    j = next(j for j, (u, v) in enumerate(zip(x.tolist(), y.tolist())) if abs(v - u) > tol)
    return False, LumpabilityViolation(a, ld, s, j, f"{x[j]!r} vs {y[j]!r}")


def matrix_norm(m: np.ndarray, kind: str = "op-inf") -> float:
    """Matrix norm used to compare lumped systems.

    op-inf: operator norm induced by the max vector norm, i.e. the largest
    absolute row sum.  entry-max: largest absolute entry.  frobenius:
    square root of the sum of squared entries.
    """
    m = np.asarray(m, dtype=float)
    if kind == "op-inf":
        return float(np.abs(m).sum(axis=1).max())
    if kind == "entry-max":
        return float(np.abs(m).max())
    if kind == "frobenius":
        return float(math.sqrt(float((m * m).sum())))
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
