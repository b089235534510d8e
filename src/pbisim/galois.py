"""Kripke structures, simulation relations and Galois connections.

Simulation checking follows the step-matching definition: a relation R
relates concrete to abstract states, and every concrete step from a
related state must be answered by some abstract step staying in R.  Edge
sets and relations are sorted arrays of distinct pairs, from which a
structure builds its successor and predecessor lists once, as CSR arrays.
``is_simulation`` compares the (c', a) that related pairs must answer
with those answered through abstract predecessors, in O(|R| * degree).  The
largest simulation is the greatest fixpoint, computed by the counter-based
refinement of Henzinger, Henzinger and Kopke (*Computing simulations on
finite and infinite graphs*, FOCS 1995) in numpy batches, in
O(n_c*E_a + n_a*E_c) work plus a sort per round.

Galois connections are represented compactly: the concrete lattice is the
powerset of the concrete states, the abstract side is an explicit finite
lattice, and the abstraction map is given on singletons only.  Its join
extension to all subsets is the unique union-preserving completion, so a
Galois connection by construction; the concretisation map is derived, never
user-supplied.  The checker can also verify an explicitly tabulated
abstraction map, which is how inconsistent (hand-built) tables are rejected.
Lattice join and meet tables come from the closed order one row at a time
(O(size^3) work in O(size^2) memory).  The basis check tests one subset per
lattice element; only an explicit abstraction table has one entry per subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import NotALatticeError, ValidationError

_STEPS = 1 << 20  # the steps that is_simulation gathers at once


def _indptr(keys: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer for entries whose rows are ``keys`` (each in ``0..n-1``)."""
    return np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))))


def _gather(indptr: np.ndarray, nbr: np.ndarray, nodes: np.ndarray):
    """Concatenated CSR lists of ``nodes``: (index into ``nodes``, neighbour)."""
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    owner = np.repeat(np.arange(len(nodes)), lens)
    offsets = np.arange(len(owner)) - np.repeat(np.cumsum(lens) - lens, lens)
    return owner, nbr[starts[owner] + offsets]


def _cuts(lens: np.ndarray, size: int, group: np.ndarray | None = None) -> list[int]:
    """Ascending cut points, from 0 to ``len(lens)``, between runs whose
    ``lens`` add up to at most ``size`` plus the run's first entry's.  With
    ``group`` (ascending, one per entry), a cut moves down to the start of
    its group, so that no group is cut."""
    ends = np.cumsum(lens)
    cuts = np.searchsorted(ends, np.arange(size, ends[-1] if ends.size else 0, size), side="right")
    if group is not None:
        cuts = np.searchsorted(group, group[cuts])
    return sorted({0, *cuts.tolist(), lens.size})


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, without np.unique (whose plain form imports numpy.ma)."""
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def _increasing(rows: np.ndarray) -> bool:
    """Whether the rows of a 2-D array are strictly increasing, in lexicographic order."""
    later, earlier = rows[1:], rows[:-1]
    up = later[:, -1] > earlier[:, -1]
    for col in range(rows.shape[1] - 2, -1, -1):
        up = (later[:, col] > earlier[:, col]) | ((later[:, col] == earlier[:, col]) & up)
    return bool(up.all())


def _sorted_rows(values, width: int) -> np.ndarray:
    """Distinct rows of ``width`` ints as a read-only int64 array, in lexicographic order.

    Rows that already come strictly increasing, as from ``np.argwhere``,
    are copied without sorting.  A prefix is tested first, so that rows in
    another order pay next to nothing for the test.
    """
    arr = np.asarray(values if isinstance(values, np.ndarray) else [*values], np.int64)
    arr = arr.reshape(-1, width)
    if _increasing(arr[:1024]) and _increasing(arr):
        arr = arr.copy()
    else:
        arr = arr[np.lexsort(arr.T[::-1])]
        arr = np.concatenate((arr[:1], arr[1:][(arr[1:] != arr[:-1]).any(axis=1)]))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class KripkeStructure:
    """Finite transition graph with a distinguished state set.

    ``edges`` are the distinct (source, target) pairs, a read-only (k, 2)
    int64 array sorted by source, then target; ``marked`` is a sorted
    read-only int64 array that simulation checking ignores.  Both are built
    from any iterable; equality compares contents.
    """

    n: int
    edges: np.ndarray
    marked: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", _sorted_rows(self.edges, 2))
        object.__setattr__(self, "marked", _sorted_rows(self.marked, 1).ravel())
        if self.n < 1:
            raise ValidationError("state count must be >= 1")
        outside = ((self.edges < 0) | (self.edges >= self.n)).any(axis=1)
        if outside.any():
            x, y = self.edges[np.argmax(outside)].tolist()
            raise ValidationError(f"edge ({x}, {y}) out of range")
        outside = self.marked[(self.marked < 0) | (self.marked >= self.n)]
        if outside.size:
            raise ValidationError(f"marked state {outside[0]} out of range")

    def __eq__(self, other):
        return isinstance(other, KripkeStructure) and self.n == other.n and all(
            map(np.array_equal, (self.edges, self.marked), (other.edges, other.marked)))

    @cached_property
    def _succ(self) -> tuple[np.ndarray, np.ndarray]:
        """Successor lists as CSR arrays (indptr, targets ascending per source)."""
        return _indptr(self.edges[:, 0], self.n), self.edges[:, 1]

    @cached_property
    def _pred(self) -> tuple[np.ndarray, np.ndarray]:
        """Predecessor lists as CSR arrays (indptr, sources ascending per target)."""
        src, dst = self.edges.T
        return _indptr(dst, self.n), src[np.argsort(dst, kind="stable")]

    def successors(self, s: int) -> tuple[int, ...]:
        if not 0 <= s < self.n:
            return ()
        indptr, dst = self._succ
        return tuple(dst[indptr[s] : indptr[s + 1]].tolist())


@dataclass(frozen=True, eq=False)
class Relation:
    """Relation between two structures' states; ``pairs`` as for ``KripkeStructure.edges``."""

    pairs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pairs", _sorted_rows(self.pairs, 2))

    def __eq__(self, other):
        return isinstance(other, Relation) and np.array_equal(self.pairs, other.pairs)


def full_relation(c: KripkeStructure, a: KripkeStructure) -> Relation:
    return Relation(np.argwhere(np.ones((c.n, a.n), dtype=bool)))


def is_simulation(
    c: KripkeStructure, a: KripkeStructure, r: Relation
) -> tuple[bool, tuple[int, int, int] | None]:
    """Check the step-matching condition for every related pair.

    Returns the lexicographically smallest violation (c, a, c') when the
    condition fails: c R a, c steps to c', and no abstract successor a' of
    a satisfies c' R a'.  Raises ValidationError when a pair names a state
    outside its structure.

    The pairs arrive sorted by (c, a), the order of keys ``c * a.n + a``.
    The (c', a) that are answered are those with c' R a' for a successor a'
    of a: gathers over the abstract predecessors of every related a', in
    runs of whole c', each run's keys sorted and made distinct, so that
    the runs join into one sorted array.  The (c', a) that must be
    answered are gathered over the concrete successors of every related c,
    about ``_STEPS`` at a time, already in witness order; each chunk's
    distinct keys are searched among the answered ones, and the first
    chunk with a missing key holds the witness: its first step whose key
    is missing.  Work is O(|R| * (outdeg + indeg)) plus the sorts, and memory
    O(|R| + answered pairs + _STEPS), following the relation rather than
    the state counts.
    """
    outside = ((r.pairs < 0) | (r.pairs >= (c.n, a.n))).any(axis=1)
    if outside.any():
        x, y = r.pairs[np.argmax(outside)].tolist()
        raise ValidationError(f"relation pair ({x}, {y}) out of range")
    rc, ra = r.pairs.T
    pred_ptr, pred = a._pred
    cuts = _cuts(np.diff(pred_ptr)[ra], _STEPS, rc)
    runs = []
    for lo, hi in zip(cuts, cuts[1:]):
        owner, below = _gather(pred_ptr, pred, ra[lo:hi])
        runs.append(_distinct(rc[lo:hi][owner] * a.n + below))
    # the largest int64 follows every key, so each search lands on a key
    answered = np.concatenate(runs + [[np.iinfo(np.int64).max]])
    succ_ptr, succ = c._succ
    cuts = _cuts(np.diff(succ_ptr)[rc], _STEPS)
    for lo, hi in zip(cuts, cuts[1:]):
        step, c2 = _gather(succ_ptr, succ, rc[lo:hi])
        key = c2 * a.n + ra[lo:hi][step]
        # searched sorted and distinct, which keeps the reads of answered local
        wanted = _distinct(key)
        missing = wanted[answered[np.searchsorted(answered, wanted)] != wanted]
        if missing.size:
            k = int(np.argmax(np.isin(key, missing)))
            return False, (int(rc[lo + step[k]]), int(ra[lo + step[k]]), int(c2[k]))
    return True, None


def largest_simulation(c: KripkeStructure, a: KripkeStructure) -> Relation:
    """Greatest simulation of ``c`` by ``a``.

    Counter-based refinement (Henzinger, Henzinger & Kopke, FOCS 1995)
    from the full relation.  ``count[c', a]`` is the number of successors
    a' of a with c' R a'; once it is zero, every (x, a) with x -> c' is a
    violation.  Each round removes all current violations at once and
    decrements counts only through the abstract predecessors of the
    removed pairs; the counts that reach zero yield the next round's
    violations through their concrete predecessors.  Each pair is removed
    and each count reaches zero at most once, so the work is
    O(n_c*E_a + n_a*E_c) plus one sort per round (a chain takes about n
    rounds), in O(n_c*n_a) memory.  The result contains every simulation
    between the two structures.
    """
    width = a.n
    a_out = np.diff(a._succ[0])
    rel = np.ones((c.n, width), dtype=bool)
    count = np.repeat(a_out[None, :], c.n, axis=0)
    rel_flat, count_flat = rel.reshape(-1), count.reshape(-1)
    a_pred_ptr, a_pred = a._pred
    c_pred_ptr, c_pred = c._pred
    # first round: every concrete state with a step, against every dead end
    removed = np.flatnonzero((np.diff(c._succ[0]) > 0)[:, None] & (a_out == 0)[None, :])
    while removed.size:
        rel_flat[removed] = False
        rc, ra = np.divmod(removed, width)
        owner, above = _gather(a_pred_ptr, a_pred, ra)
        cells, times = np.unique(rc[owner] * width + above, return_counts=True)
        count_flat[cells] -= times
        zc, za = np.divmod(cells[count_flat[cells] == 0], width)
        owner, x = _gather(c_pred_ptr, c_pred, zc)
        cand = x * width + za[owner]
        removed = _distinct(cand[rel_flat[cand]])
    return Relation(np.argwhere(rel))


def _least_bounds(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-upper-bound table of a closed partial order, and where one exists.

    ``order[x, y]`` says x <= y.  A least upper bound of i and j lies below
    every other upper bound, so it has strictly the most elements above
    it: the candidate per pair is the upper bound with the most elements
    above, and it exists when it is below every upper bound.
    """
    size = len(order)
    above = order.sum(axis=1)
    table = np.empty((size, size), dtype=int)
    found = np.empty((size, size), dtype=bool)
    for i in range(size):
        bounds = order[i] & order
        table[i] = np.where(bounds, above, -1).argmax(axis=1)
        found[i] = bounds.any(axis=1) & ~(bounds & ~order[table[i]]).any(axis=1)
    return table, found


class FiniteLattice:
    """Explicit finite lattice over elements ``0..size-1``.

    The order must be a partial order in which every pair of elements has
    a least upper bound and a greatest lower bound; for a finite carrier
    this is equivalent to every subset having both (folds of the pairwise
    operations), and it forces a top and a bottom.  Join and meet tables
    are precomputed (meet is join in the dual order); construction raises
    NotALatticeError otherwise, naming the first pair in row-major order
    that lacks a join or, failing that, a meet.
    """

    def __init__(self, size: int, leq: Iterable[tuple[int, int]]):
        if size < 1:
            raise NotALatticeError("carrier must be non-empty")
        self.size = size
        mat = np.zeros((size, size), dtype=bool)
        for x, y in leq:
            if not (0 <= x < size and 0 <= y < size):
                raise ValidationError(f"leq pair ({x}, {y}) out of range")
            mat[x, y] = True
        np.fill_diagonal(mat, True)
        # transitive closure (Warshall)
        for k in range(size):
            mat |= np.outer(mat[:, k], mat[k, :])
        mutual = np.triu(mat & mat.T, 1)
        if mutual.any():
            i, j = divmod(int(np.argmax(mutual)), size)
            raise NotALatticeError(
                f"antisymmetry fails: elements {i} and {j} are mutually ordered"
            )
        self._leq = mat
        self.join_table, has_join = _least_bounds(mat)
        self.meet_table, has_meet = _least_bounds(mat.T)
        missing = ~(has_join & has_meet)
        if missing.any():
            i, j = divmod(int(np.argmax(missing)), size)
            kind = "join" if not has_join[i, j] else "meet"
            raise NotALatticeError(f"elements {i} and {j} have no {kind}")
        self.top = int(np.argmax(mat.all(axis=0)))
        self.bottom = int(np.argmax(mat.all(axis=1)))

    def leq(self, x: int, y: int) -> bool:
        return bool(self._leq[x, y])

    def join(self, x: int, y: int) -> int:
        return int(self.join_table[x, y])

    def meet(self, x: int, y: int) -> int:
        return int(self.meet_table[x, y])


@dataclass(frozen=True)
class GaloisSpec:
    """Abstraction of a powerset of concrete states into a finite lattice.

    ``alpha_singleton[c]`` is the abstract element covering concrete state
    ``c``; the abstraction of an arbitrary subset is the join of its
    singleton images, and the concretisation of an abstract element is the
    set of concrete states whose singleton image lies below it.
    """

    concrete_n: int
    lattice: FiniteLattice
    alpha_singleton: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha_singleton", tuple(int(v) for v in self.alpha_singleton))
        if self.concrete_n < 1:
            raise ValidationError("need at least one concrete state")
        if len(self.alpha_singleton) != self.concrete_n:
            raise ValidationError(
                f"alpha maps {len(self.alpha_singleton)} states, expected {self.concrete_n}"
            )
        for c, e in enumerate(self.alpha_singleton):
            if not 0 <= e < self.lattice.size:
                raise ValidationError(f"alpha({c}) = {e} is not a lattice element")


@dataclass(frozen=True)
class GaloisViolation:
    """First failed condition of a Galois-connection check.

    ``kind`` is 'alpha-monotone' (``subject`` is a pair of subset
    bitmasks, the second one state larger but its image not above) or
    'alpha-gamma' (alpha after gamma must be below the identity on
    abstract elements; ``subject`` is the element index).  The other two
    adjunction conditions cannot fail; see ``check_galois``.
    """

    kind: str
    subject: tuple

    def __str__(self) -> str:
        return f"{self.kind} violated at {self.subject}"


def check_galois(
    g: GaloisSpec, alpha_table: Sequence[int] | None = None
) -> tuple[bool, GaloisViolation | None]:
    """Verify the adjunction of ``g``, or of an explicit abstraction table.

    The join-extended table of ``g`` is an adjunction by construction
    (alpha(S) is below e iff every singleton image in S is, iff S lies
    inside gamma(e)), so without ``alpha_table`` nothing is built.  An
    explicit ``alpha_table`` (one abstract element per subset bitmask, 2^n
    entries) is checked for the two conditions that can fail, in order:
    alpha is monotone ('alpha-monotone'), then alpha(gamma(e)) is below e
    ('alpha-gamma').  The other two cannot fail: gamma(e) = {c : alpha{c}
    below e} is read off a transitively closed order, so e below f gives
    gamma(e) inside gamma(f); and a monotone alpha puts alpha{c} below
    alpha(S) for every c in S, so S lies inside gamma(alpha(S)).
    """
    if alpha_table is None:
        return True, None
    size = 1 << g.concrete_n
    table = list(alpha_table)
    if len(table) != size:
        raise ValidationError(f"alpha table has {len(table)} entries, expected {size}")
    for e in table:
        if not 0 <= e < g.lattice.size:
            raise ValidationError(f"alpha table entry {e} is not a lattice element")
    table = np.array(table, dtype=np.int64)
    leq = g.lattice._leq
    masks = np.arange(size)
    bits = 1 << np.arange(g.concrete_n)

    # alpha monotone: adding one state never decreases the image
    worse = ((masks[:, None] & bits) == 0) & ~leq[table[:, None], table[masks[:, None] | bits]]
    if worse.any():
        mask, c = divmod(int(np.argmax(worse)), g.concrete_n)
        return False, GaloisViolation("alpha-monotone", (mask, mask | (1 << c)))

    # gamma(e) as a bitmask: concrete states whose singleton image is <= e
    gamma = bits @ leq[table[bits]]
    worse = ~leq[table[gamma], np.arange(g.lattice.size)]
    if worse.any():
        return False, GaloisViolation("alpha-gamma", (int(np.argmax(worse)),))

    return True, None


def check_abstraction_basis(
    c: KripkeStructure,
    a: KripkeStructure,
    g: GaloisSpec,
    state_of_element: Sequence[int] | None = None,
) -> tuple[bool, tuple[int, int] | None]:
    """Check that the induced relation simulates the collecting semantics.

    The concrete structure is lifted to subsets by strongest post:
    ``S`` steps to ``post(S)``, the set of all one-step successors,
    restricted to non-empty posts.  For every subset S and abstract
    element e with alpha(S) below e and post(S) non-empty there must be an
    abstract edge from e's state to some a' with alpha(post(S)) below a'.
    Returns ``(True, None)``, or ``False`` with the smallest violating
    (subset bitmask, element index).

    alpha(S) is below e iff S lies inside gamma(e), and a larger S has a
    larger post, which fewer elements cover: the violating subsets at e are
    closed upwards within gamma(e), so e has one iff gamma(e) is one.  All
    elements are checked at once on gamma as a (size, n) array, and the
    smallest violating subset drops states, highest first, while the rest
    still violates.  ``state_of_element`` maps elements to states of ``a``.
    """
    size = g.lattice.size
    if c.n != g.concrete_n:
        raise ValidationError(f"concrete structure has {c.n} states but the spec has {g.concrete_n}")
    if state_of_element is None:
        if a.n != size:
            raise ValidationError(
                f"abstract structure has {a.n} states but the lattice has "
                f"{size} elements; provide state_of_element"
            )
        state_of_element = range(size)
    soe = np.array(state_of_element, dtype=np.int64)
    if soe.shape != (size,):
        raise ValidationError(f"state_of_element has {len(soe)} entries, expected {size}")
    outside = (soe < 0) | (soe >= a.n)
    if outside.any():
        e = int(np.argmax(outside))
        raise ValidationError(f"state_of_element[{e}] = {soe[e]} is not an abstract state")
    gamma = g.lattice._leq[list(g.alpha_singleton)].T
    # escapes[x, f]: a successor of x lies outside gamma(f); last column: x
    # has a successor.  post(S) is the union of its states' posts, so S
    # violates at e iff S escapes the last column and each f whose state
    # e's state steps to; hits counts S's escaping states (exact below 2^24).
    src, dst = c.edges.T
    escapes = np.zeros((c.n, size + 1), dtype=bool)
    np.logical_or.at(escapes, src, np.column_stack((~gamma.T[dst], np.ones(len(dst), dtype=bool))))
    needed = np.isin(soe[:, None] * a.n + soe, a.edges[:, 0] * a.n + a.edges[:, 1])
    needed = np.column_stack((needed, np.ones(size, dtype=bool)))
    hits = gamma.astype(np.float32) @ escapes.astype(np.float32)
    elems = np.flatnonzero(((hits > 0) | ~needed).all(axis=1))
    if not elems.size:
        return True, None
    sets, hits, needed = gamma[elems], hits[elems], needed[elems]
    for k in reversed(range(c.n)):
        # drop k unless it is the set's last state escaping a needed column
        drop = sets[:, k] & ~((hits == 1) & needed & escapes[k]).any(axis=1)
        sets[drop, k] = False
        hits[drop] -= escapes[k]
    masks = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in sets]
    return False, min(zip(masks, elems.tolist()))
