"""Kripke structures, simulation relations and Galois connections.

Simulation checking follows the step-matching definition: a relation R
relates concrete to abstract states, and every concrete step from a
related state must be answered by some abstract step staying in R.  The
largest simulation is the greatest fixpoint, computed by deleting
violating pairs from the full relation until stable.

Galois connections are represented compactly: the concrete lattice is the
powerset of the concrete states, the abstract side is an explicit finite
lattice, and the abstraction map is given on singletons only.  Its join
extension to all subsets is the unique union-preserving completion; the
concretisation map is derived, never user-supplied.  The checker can also
verify an explicitly tabulated abstraction map, which is how inconsistent
(hand-built) tables are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CarrierTooLargeError, NotALatticeError, ValidationError

DEFAULT_CONCRETE_CAP = 16


@dataclass(frozen=True)
class KripkeStructure:
    """Finite transition graph with a distinguished state set.

    The distinguished set ``marked`` is carried through parsing and
    reporting but plays no role in simulation checking.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    marked: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset((int(a), int(b)) for a, b in self.edges))
        object.__setattr__(self, "marked", frozenset(int(s) for s in self.marked))
        if self.n < 1:
            raise ValidationError("state count must be >= 1")
        for a, b in self.edges:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValidationError(f"edge ({a}, {b}) out of range")
        for s in self.marked:
            if not 0 <= s < self.n:
                raise ValidationError(f"marked state {s} out of range")

    def successors(self, s: int) -> tuple[int, ...]:
        return tuple(sorted(b for a, b in self.edges if a == s))


@dataclass(frozen=True)
class Relation:
    """Binary relation between the states of two structures."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset((int(c), int(a)) for c, a in self.pairs))


def full_relation(c: KripkeStructure, a: KripkeStructure) -> Relation:
    return Relation(frozenset((i, j) for i in range(c.n) for j in range(a.n)))


def is_simulation(
    c: KripkeStructure, a: KripkeStructure, r: Relation
) -> tuple[bool, tuple[int, int, int] | None]:
    """Check the step-matching condition for every related pair.

    Returns the lexicographically smallest violation (c, a, c') when the
    condition fails: c R a, c steps to c', and no abstract successor a' of
    a satisfies c' R a'.
    """
    for cs, as_ in sorted(r.pairs):
        for ct in c.successors(cs):
            if not any((ct, at) in r.pairs for at in a.successors(as_)):
                return False, (cs, as_, ct)
    return True, None


def largest_simulation(c: KripkeStructure, a: KripkeStructure) -> Relation:
    """Greatest simulation of ``c`` by ``a``.

    Computed as a greatest fixpoint: start from the full relation and
    repeatedly delete pairs whose steps cannot be matched, until stable.
    The result contains every simulation between the two structures.
    """
    pairs = set((i, j) for i in range(c.n) for j in range(a.n))
    changed = True
    while changed:
        changed = False
        for cs, as_ in sorted(pairs):
            ok = all(
                any((ct, at) in pairs for at in a.successors(as_))
                for ct in c.successors(cs)
            )
            if not ok:
                pairs.discard((cs, as_))
                changed = True
    return Relation(frozenset(pairs))


class FiniteLattice:
    """Explicit finite lattice over elements ``0..size-1``.

    The order must be a partial order in which every pair of elements has
    a least upper bound and a greatest lower bound; for a finite carrier
    this is equivalent to every subset having both (folds of the pairwise
    operations), and it forces a top and a bottom.  Join and meet tables
    are precomputed; construction raises NotALatticeError otherwise.
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
        for i in range(size):
            mat[i, i] = True
        # transitive closure (Warshall)
        for k in range(size):
            mat |= np.outer(mat[:, k], mat[k, :])
        for i in range(size):
            for j in range(i + 1, size):
                if mat[i, j] and mat[j, i]:
                    raise NotALatticeError(
                        f"antisymmetry fails: elements {i} and {j} are mutually ordered"
                    )
        self._leq = mat
        self.join_table = np.zeros((size, size), dtype=int)
        self.meet_table = np.zeros((size, size), dtype=int)
        for i in range(size):
            for j in range(size):
                self.join_table[i, j] = self._bound(i, j, upper=True)
                self.meet_table[i, j] = self._bound(i, j, upper=False)
        self.top = self._fold(self.join_table)
        self.bottom = self._fold(self.meet_table)

    def _bound(self, i: int, j: int, upper: bool) -> int:
        if upper:
            cands = [u for u in range(self.size) if self._leq[i, u] and self._leq[j, u]]
            least = [u for u in cands if all(self._leq[u, v] for v in cands)]
        else:
            cands = [u for u in range(self.size) if self._leq[u, i] and self._leq[u, j]]
            least = [u for u in cands if all(self._leq[v, u] for v in cands)]
        if len(least) != 1:
            kind = "join" if upper else "meet"
            raise NotALatticeError(f"elements {i} and {j} have no {kind}")
        return least[0]

    def _fold(self, table: np.ndarray) -> int:
        acc = 0
        for i in range(1, self.size):
            acc = int(table[acc, i])
        return acc

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


def alpha_join_table(g: GaloisSpec, cap: int = DEFAULT_CONCRETE_CAP) -> list[int]:
    """Abstraction of every subset (indexed by bitmask) via join extension."""
    if g.concrete_n > cap:
        raise CarrierTooLargeError(g.concrete_n, cap)
    size = 1 << g.concrete_n
    table = [g.lattice.bottom] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        table[mask] = g.lattice.join(table[mask & (mask - 1)], g.alpha_singleton[low])
    return table


@dataclass(frozen=True)
class GaloisViolation:
    """First failed condition of a Galois-connection check.

    ``kind`` is one of 'alpha-monotone', 'gamma-monotone', 'gamma-alpha'
    (gamma after alpha must dominate the identity on subsets) and
    'alpha-gamma' (alpha after gamma must be below the identity on
    abstract elements).  ``subject`` identifies the witness: subset
    bitmasks for the powerset side, element indices for the lattice side.
    """

    kind: str
    subject: tuple

    def __str__(self) -> str:
        return f"{self.kind} violated at {self.subject}"


def _derived_gamma(g: GaloisSpec, table: Sequence[int]) -> list[int]:
    # gamma(e) as a bitmask: concrete states whose singleton image is <= e
    out = []
    for e in range(g.lattice.size):
        mask = 0
        for c in range(g.concrete_n):
            if g.lattice.leq(table[1 << c], e):
                mask |= 1 << c
        out.append(mask)
    return out


def check_galois(
    g: GaloisSpec,
    alpha_table: Sequence[int] | None = None,
    cap: int = DEFAULT_CONCRETE_CAP,
) -> tuple[bool, GaloisViolation | None]:
    """Verify the adjunction over the full (finite) powerset.

    Checks monotonicity of the abstraction table and of the derived
    concretisation, and the two composite inequalities.  With the default
    join-extended table these hold by construction; passing an explicit
    ``alpha_table`` (one abstract element per subset bitmask) verifies that
    table instead and reports the first violation found.
    """
    if g.concrete_n > cap:
        raise CarrierTooLargeError(g.concrete_n, cap)
    size = 1 << g.concrete_n
    if alpha_table is None:
        table = alpha_join_table(g, cap)
    else:
        table = list(alpha_table)
        if len(table) != size:
            raise ValidationError(f"alpha table has {len(table)} entries, expected {size}")
        for e in table:
            if not 0 <= e < g.lattice.size:
                raise ValidationError(f"alpha table entry {e} is not a lattice element")

    # alpha monotone: adding one state never decreases the image
    for mask in range(size):
        for c in range(g.concrete_n):
            if mask & (1 << c):
                continue
            if not g.lattice.leq(table[mask], table[mask | (1 << c)]):
                return False, GaloisViolation("alpha-monotone", (mask, mask | (1 << c)))

    gamma = _derived_gamma(g, table)
    for e in range(g.lattice.size):
        for f in range(g.lattice.size):
            if g.lattice.leq(e, f) and gamma[e] & ~gamma[f]:
                return False, GaloisViolation("gamma-monotone", (e, f))

    for mask in range(size):
        if mask & ~gamma[table[mask]]:
            return False, GaloisViolation("gamma-alpha", (mask,))

    for e in range(g.lattice.size):
        if not g.lattice.leq(table[gamma[e]], e):
            return False, GaloisViolation("alpha-gamma", (e,))

    return True, None


def induced_relation(
    g: GaloisSpec,
    element_filter: Iterable[int] | None = None,
    cap: int = DEFAULT_CONCRETE_CAP,
) -> list[tuple[int, int]]:
    """Pairs (subset bitmask, abstract element) with alpha(S) below the element."""
    table = alpha_join_table(g, cap)
    elems = sorted(element_filter) if element_filter is not None else range(g.lattice.size)
    return [
        (mask, e)
        for mask in range(1 << g.concrete_n)
        for e in elems
        if g.lattice.leq(table[mask], e)
    ]


def check_abstraction_basis(
    c: KripkeStructure,
    a: KripkeStructure,
    g: GaloisSpec,
    state_of_element: Sequence[int] | None = None,
    cap: int = DEFAULT_CONCRETE_CAP,
) -> tuple[bool, tuple[int, int] | None]:
    """Check that the induced relation simulates the collecting semantics.

    The concrete structure is lifted to subsets by strongest post:
    ``S`` steps to ``post(S)``, the set of all one-step successors,
    restricted to non-empty posts.  For every subset S and abstract
    element e with alpha(S) below e and post(S) non-empty there must be an
    abstract edge from e's state to some a' with alpha(post(S)) below a'.
    Requires a prior successful ``check_galois``; returns the smallest
    violating (subset bitmask, element index) otherwise.
    """
    if state_of_element is None:
        if a.n != g.lattice.size:
            raise ValidationError(
                f"abstract structure has {a.n} states but the lattice has "
                f"{g.lattice.size} elements; provide state_of_element"
            )
        state_of_element = list(range(g.lattice.size))
    table = alpha_join_table(g, cap)
    post_of_state = [0] * g.concrete_n
    for x, y in c.edges:
        post_of_state[x] |= 1 << y

    for mask in range(1 << g.concrete_n):
        post = 0
        rest = mask
        while rest:
            low = (rest & -rest).bit_length() - 1
            post |= post_of_state[low]
            rest &= rest - 1
        if post == 0:
            continue
        target = table[post]
        for e in range(g.lattice.size):
            if not g.lattice.leq(table[mask], e):
                continue
            matched = any(
                g.lattice.leq(target, elem)
                for elem in range(g.lattice.size)
                if (state_of_element[e], state_of_element[elem]) in a.edges
            )
            if not matched:
                return False, (mask, e)
    return True, None
