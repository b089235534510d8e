"""Independent oracles that give the benchmark its expected answers.

Nothing here imports pbisim.  The oracles follow the definitions directly:

* ``lump`` is ``K+ M K`` with ``K+`` in closed form, the row-normalised
  transpose: entry (i, j) is the mean over class i of the mass into class j.
* ``lumpable`` checks equal enabledness and equal mass into every class
  within each class.
* ``lumpable_partitions`` enumerates every set partition (restricted growth
  strings) and keeps the lumpable ones; the coarsest bisimulation is the one
  with fewest classes, so bisimilarity follows by brute force for n <= 8.
* ``exact_epsilon`` minimises the op-inf distance over lumpable pairs and
  all class relabelings, vectorised over relabelings with numpy.
* ``refinement_rounds`` counts the rounds of synchronous signature
  refinement, the depth at which k-step bisimilarity stops changing.
* ``largest_simulation`` is the greatest fixpoint on boolean matrices.
* ``Basis`` evaluates the abstraction-basis condition of a Galois spec
  over every subset at once.
"""

from __future__ import annotations

import itertools

import numpy as np

from inputs import Kripke, System

TOL = 1e-9


def lump(sys: System, assign: list[int], m: int, actions=None) -> np.ndarray:
    """Lumped family, shape (actions, m, m); absent actions lump to zero."""
    actions = sys.actions if actions is None else actions
    size = [0] * m
    for v in assign:
        size[v] += 1
    out = np.zeros((len(actions), m, m))
    for ai, a in enumerate(actions):
        if a not in sys.rows:
            continue
        for s, row in enumerate(sys.rows[a]):
            i = assign[s]
            for t, p in row.items():
                out[ai, i, assign[t]] += p
        out[ai] /= np.array(size, dtype=float)[:, None]
    return out


def lumpable(sys: System, assign: list[int], tol: float = TOL) -> bool:
    """Strong lumpability with equal enabledness, by definition."""
    for a in sys.actions:
        lead: dict[int, dict[int, float] | None] = {}
        for s, row in enumerate(sys.rows[a]):
            mass: dict[int, float] = {}
            for t, p in row.items():
                mass[assign[t]] = mass.get(assign[t], 0.0) + p
            sig = mass if row else None
            c = assign[s]
            if c not in lead:
                lead[c] = sig
                continue
            ref = lead[c]
            if (ref is None) != (sig is None):
                return False
            if sig is not None:
                for j in set(ref) | set(sig):
                    if abs(ref.get(j, 0.0) - sig.get(j, 0.0)) > tol:
                        return False
    return True


def set_partitions(n: int):
    """Every set partition of 0..n-1 as a restricted growth string."""
    assign = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield tuple(assign), used
            return
        for v in range(used + 1):
            assign[i] = v
            yield from rec(i + 1, used + (v == used))

    if n:
        assign[0] = 0
        yield from rec(1, 1)


def lumpable_partitions(sys: System) -> dict[int, list[tuple[int, ...]]]:
    """Lumpable partitions by class count, brute force over all partitions."""
    out: dict[int, list[tuple[int, ...]]] = {}
    for assign, m in set_partitions(sys.n):
        if lumpable(sys, assign):
            out.setdefault(m, []).append(assign)
    return out


def union_actions(p1: System, p2: System) -> list[str]:
    return list(p1.actions) + [a for a in p2.actions if a not in p1.actions]


def op_inf_distance(f1: np.ndarray, f2: np.ndarray) -> float:
    """Max over actions of the largest absolute row sum of the difference."""
    return float(np.abs(f1 - f2).sum(axis=2).max())


def _min_over_relabelings(f1: np.ndarray, f2: np.ndarray) -> float:
    m = f1.shape[1]
    perms = np.array(list(itertools.permutations(range(m))))
    g = f2[:, perms[:, :, None], perms[:, None, :]]  # (actions, m!, m, m)
    return float(np.abs(f1[:, None] - g).sum(axis=3).max(axis=2).max(axis=0).min())


def exact_epsilon(p1: System, p2: System, parts1=None, parts2=None) -> float:
    """Minimum op-inf distance over lumpable pairs of equal class count."""
    parts1 = lumpable_partitions(p1) if parts1 is None else parts1
    parts2 = lumpable_partitions(p2) if parts2 is None else parts2
    actions = union_actions(p1, p2)
    best = float("inf")
    for m in sorted(set(parts1) & set(parts2)):
        fams2 = [lump(p2, list(k2), m, actions) for k2 in parts2[m]]
        for k1 in parts1[m]:
            f1 = lump(p1, list(k1), m, actions)
            for f2 in fams2:
                best = min(best, _min_over_relabelings(f1, f2))
    return best


def refinement_rounds(sys: System) -> int:
    """Rounds, the last and unchanged one included, until the partition is stable.

    Each round splits every block by the states' mass, per action, into
    every block; a state with an action disabled has mass 0 for it.  The
    count is a property of the system, not of any solver: the least k at
    which k-step and (k+1)-step bisimilarity agree, plus one.
    """
    mats = []
    for a in sys.actions:
        m = np.zeros((sys.n, sys.n))
        for s, row in enumerate(sys.rows[a]):
            for t, p in row.items():
                m[s, t] += p
        mats.append(m)
    block = np.zeros(sys.n, dtype=np.int64)
    rounds = 0
    while True:
        rounds += 1
        k = np.eye(block.max() + 1)[block]
        sig = np.hstack([block[:, None]] + [m @ k for m in mats])
        new = np.unique(sig, axis=0, return_inverse=True)[1].ravel()
        if new.max() == block.max():
            return rounds
        block = new


def bisimilar(p1: System, p2: System, parts1=None, parts2=None) -> bool:
    """Brute force: the coarsest lumpings' quotients agree up to relabeling."""
    parts1 = lumpable_partitions(p1) if parts1 is None else parts1
    parts2 = lumpable_partitions(p2) if parts2 is None else parts2
    m1, m2 = min(parts1), min(parts2)
    if m1 != m2:
        return False
    actions = union_actions(p1, p2)
    f1 = lump(p1, list(parts1[m1][0]), m1, actions)
    f2 = lump(p2, list(parts2[m2][0]), m2, actions)
    return _min_over_relabelings(f1, f2) <= TOL


def _adjacency(k: Kripke) -> np.ndarray:
    adj = np.zeros((k.n, k.n), dtype=bool)
    for s, t in k.edges:
        adj[s, t] = True
    return adj


def largest_simulation(c: Kripke, a: Kripke) -> set[tuple[int, int]]:
    """Greatest R with: c R a and c -> c' imply a -> a' with c' R a'."""
    return largest_simulation_rounds(c, a)[0]


def largest_simulation_rounds(c: Kripke, a: Kripke) -> tuple[set[tuple[int, int]], int]:
    """The largest simulation and the number of rounds the fixpoint took.

    A round removes, all at once, every pair that the previous relation
    cannot answer; the count is a property of the pair, not of any solver.
    """
    cadj = _adjacency(c).astype(np.int64)
    aadj = _adjacency(a).astype(np.int64)
    rel = np.ones((c.n, a.n), dtype=bool)
    rounds = 0
    while True:
        rounds += 1
        # answered[c', a] holds when some successor a' of a has c' R a'
        answered = (rel.astype(np.int64) @ aadj.T) > 0
        # keep (c, a) unless some successor c' of c is unanswered from a
        keep = rel & ((cadj @ (~answered).astype(np.int64)) == 0)
        if (keep == rel).all():
            break
        rel = keep
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(rel))}, rounds


def simulation_violation(c: Kripke, a: Kripke, rel, cex) -> bool:
    """True iff ``cex`` = (c, a, c') is a real violation of ``rel``."""
    cs, as_, ct = cex
    if (cs, as_) not in rel or (cs, ct) not in c.edges:
        return False
    return not any((as_, at) in a.edges and (ct, at) in rel for at in range(a.n))


class Lattice:
    """Powerset lattice of ``size`` bitmasks ordered by inclusion, or a chain."""

    def __init__(self, kind: str, size: int):
        self.kind = kind
        self.size = size
        x = np.arange(size)
        if kind == "powerset":
            self.leq = (x[:, None] & ~x[None, :]) == 0
        else:
            self.leq = x[:, None] <= x[None, :]

    def join(self, x: np.ndarray, y) -> np.ndarray:
        return (x | y) if self.kind == "powerset" else np.maximum(x, y)


class Basis:
    """Abstraction-basis condition of a Galois spec over every subset.

    ``a_edges`` are abstract edges between lattice elements.  Subset S with
    non-empty post(S) and element e above alpha(S) are violating when e has
    no edge to an element above alpha(post(S)).
    """

    def __init__(self, c: Kripke, a_edges, lat: Lattice, alpha: list[int]):
        k = c.n
        masks = np.arange(1 << k)
        self.table = np.zeros(1 << k, dtype=np.int64)  # alpha(S); bottom is 0
        self.post = np.zeros(1 << k, dtype=np.int64)
        post_of = [0] * k
        for s, t in c.edges:
            post_of[s] |= 1 << t
        for i in range(k):
            has = (masks >> i) & 1 == 1
            self.table[has] = lat.join(self.table[has], alpha[i])
            self.post[has] |= post_of[i]
        self.lat = lat
        edge = np.zeros((lat.size, lat.size), dtype=bool)
        for e, f in a_edges:
            edge[e, f] = True
        # ok[e, t]: element e has an edge to some element above t
        self.ok = (edge.astype(np.int64) @ lat.leq.T.astype(np.int64)) > 0
        # bad[x, t]: some element e above x fails ok[e, t]
        bad = (lat.leq.astype(np.int64) @ (~self.ok).astype(np.int64)) > 0
        hit = (self.post != 0) & bad[self.table, self.table[self.post]]
        self.violations = {int(m) for m in masks[hit]}

    def violated(self, mask: int, e: int) -> bool:
        post = int(self.post[mask])
        return (post != 0 and bool(self.lat.leq[self.table[mask], e])
                and not self.ok[e, self.table[post]])
