"""Approximate bisimilarity as a minimised lumped-matrix distance.

Two systems are compared by classifying each into the same number of
classes, lumping both, and taking the largest per-action matrix norm of
the difference over the union action alphabet.  The reported epsilon is the
minimum of that distance over admissible classification pairs; epsilon 0
coincides exactly with probabilistic bisimilarity.

Admissibility: both classifications must be strong lumpings of their own
system (see ``matrices.is_lumpable``).  Without this restriction the
minimum degenerates, because the single-class pair already maps any two
systems with equal per-action enabled fractions to identical 1 x 1
matrices, and zero distance would no longer certify bisimilarity.  The
distance function itself (``epsilon_distance``) stays unrestricted and can
be evaluated on any classification pair of equal class count.

The exact minimiser enumerates canonical set partitions (restricted growth
strings) of one side against all class relabelings of the other, in one
serial scan; a seeded hill-climbing search provides upper bounds when
enumeration is too large.  Both lump through the paper's ``K+ M K`` on
dense per-action matrices, which each call builds once from the edges.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .bisim import coarsest_bisimulation
from .core import Classification, DEFAULT_TOL, LabelledPTS
from .errors import BudgetExceededError, ClassCountMismatchError, InvalidRangeError
from .matrices import classification_matrix, is_lumpable, lump, matrix_norm

DEFAULT_PAIR_BUDGET = 10_000_000


@dataclass(frozen=True)
class EpsilonResult:
    """Outcome of an epsilon computation.

    ``epsilon`` is the achieved distance for the witness pair ``(k1, k2)``;
    ``optimal`` is True only for exhaustive enumeration.  When no admissible
    pair exists at any class count (possible only for systems of different
    sizes), ``epsilon`` is infinite and the witnesses are ``None``.
    """

    epsilon: float
    k1: Classification | None
    k2: Classification | None
    norm_kind: str
    method: str
    optimal: bool

    @property
    def m(self) -> int | None:
        return self.k1.m if self.k1 is not None else None


@lru_cache(maxsize=None)
def stirling2(n: int, m: int) -> int:
    """Number of partitions of an n-set into m non-empty blocks."""
    if n == 0 and m == 0:
        return 1
    if n == 0 or m == 0 or m > n:
        return 0
    return m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)


def enumerate_classifications(n: int, m: int) -> Iterator[Classification]:
    """All canonical classifications of n states into exactly m classes.

    Canonical form is the restricted growth string: class labels appear in
    order of first occurrence, so each set partition is produced exactly
    once.  Yields in ascending lexicographic order of the assignment;
    the count is the Stirling partition number S(n, m).
    """
    if not 1 <= m <= n:
        raise InvalidRangeError(f"need 1 <= m <= n, got m={m}, n={n}")
    assign = [0] * n

    def rec(i: int, used: int) -> Iterator[Classification]:
        if n - i < m - used:
            return
        if i == n:
            yield Classification(tuple(assign), m)
            return
        limit = used + 1 if used < m else used
        for v in range(limit):
            assign[i] = v
            yield from rec(i + 1, used + 1 if v == used else used)

    yield from rec(0, 0)


def pair_budget(n1: int, n2: int) -> int:
    """A-priori size of the exhaustive search space over both systems."""
    return sum(
        stirling2(n1, m) * stirling2(n2, m) * math.factorial(m)
        for m in range(1, min(n1, n2) + 1)
    )


def _union_actions(p1: LabelledPTS, p2: LabelledPTS) -> tuple[str, ...]:
    return tuple(p1.actions) + tuple(a for a in p2.actions if a not in p1.actions)


def _dense(pts: LabelledPTS, actions) -> list[np.ndarray]:
    """Matrix per action of ``actions``, all zero where ``pts`` lacks the label."""
    mats = []
    for a in actions:
        m = np.zeros((pts.n, pts.n))
        if a in pts.edges:
            e = pts.edges[a]
            m[e.src(), e.dst] = e.prob
        mats.append(m)
    return mats


def _lumped_family(mats: list[np.ndarray], c: Classification) -> np.ndarray:
    k = classification_matrix(c)
    return np.stack([lump(m, k) for m in mats])


def _family_distance(f1: np.ndarray, f2: np.ndarray, norm_kind: str) -> float:
    return max(matrix_norm(f1[i] - f2[i], norm_kind) for i in range(f1.shape[0]))


def _result(best, norm_kind: str, method: str, optimal: bool) -> EpsilonResult:
    """Result for the best candidate ``(epsilon, m, k1 assign, k2 assign)``, or none."""
    if best is None:
        return EpsilonResult(math.inf, None, None, norm_kind, method, optimal)
    eps, m, a1, a2 = best
    return EpsilonResult(
        eps, Classification(a1, m), Classification(a2, m), norm_kind, method, optimal
    )


def epsilon_distance(
    p1: LabelledPTS,
    p2: LabelledPTS,
    k1: Classification,
    k2: Classification,
    norm_kind: str = "op-inf",
) -> float:
    """Norm of the difference of the two lumped systems.

    The largest per-action norm over the union alphabet, which is the norm
    of the block-diagonal joint operator.  Actions absent from one system
    lump to zero matrices on that side.
    """
    if k1.m != k2.m:
        raise ClassCountMismatchError(f"k1 has {k1.m} classes, k2 has {k2.m}")
    actions = _union_actions(p1, p2)
    f1 = _lumped_family(_dense(p1, actions), k1)
    f2 = _lumped_family(_dense(p2, actions), k2)
    return _family_distance(f1, f2, norm_kind)


def epsilon_bisim_exact(
    p1: LabelledPTS,
    p2: LabelledPTS,
    norm_kind: str = "op-inf",
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> EpsilonResult:
    """Exact epsilon by exhaustive enumeration of admissible pairs.

    For each shared class count m the left system ranges over canonical
    classifications, the right over canonical classifications times all m!
    class relabelings; pairs where either side is not a lumping of its own
    system are discarded.  The minimum is taken in the order of
    ``(epsilon, m, k1 assign, k2 assign)``, so ties go to fewer classes,
    then to the lexicographically smaller assignments.  Raises
    BudgetExceededError when the a-priori pair count exceeds ``budget``.
    """
    total = pair_budget(p1.n, p2.n)
    if total > budget:
        raise BudgetExceededError(total, budget)
    actions = _union_actions(p1, p2)
    mats1, mats2 = _dense(p1, actions), _dense(p2, actions)
    best = None
    for m in range(1, min(p1.n, p2.n) + 1):
        k1s = [c for c in enumerate_classifications(p1.n, m) if is_lumpable(p1, c, tol)[0]]
        if not k1s:
            continue
        k2s = [c for c in enumerate_classifications(p2.n, m) if is_lumpable(p2, c, tol)[0]]
        if not k2s:
            continue
        fams2 = [(c, _lumped_family(mats2, c)) for c in k2s]
        perms = list(itertools.permutations(range(m)))
        invs = [np.argsort(np.array(s)) for s in perms]
        for c1 in k1s:
            f1 = _lumped_family(mats1, c1)
            for c2, f2 in fams2:
                for sigma, inv in zip(perms, invs):
                    d = _family_distance(f1, f2[:, inv][:, :, inv], norm_kind)
                    cand = (d, m, c1.assign, tuple(sigma[v] for v in c2.assign))
                    if best is None or cand < best:
                        best = cand
    return _result(best, norm_kind, "exhaustive", True)


def _random_surjection(rng: random.Random, n: int, m: int) -> tuple[int, ...]:
    for _ in range(64):
        assign = tuple(rng.randrange(m) for _ in range(n))
        if len(set(assign)) == m:
            return assign
    forced = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
    rng.shuffle(forced)
    return tuple(forced)


def epsilon_bisim_search(
    p1: LabelledPTS,
    p2: LabelledPTS,
    norm_kind: str = "op-inf",
    budget: int = 2000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> EpsilonResult:
    """Seeded hill-climbing upper bound on the exact epsilon.

    Deterministic for a fixed seed and budget.  The climb starts from a few
    canonical pairs (discrete classifications when the systems have equal
    size, and the coarsest bisimulation classifications when their class
    counts agree) plus random restarts over the shared class count; moves
    reassign one state, merge a class pair on both sides, or split one
    class on both sides.  Proposals that are not lumpings of their own
    system are rejected; every proposal counts against ``budget``.
    """
    actions = _union_actions(p1, p2)
    mats1, mats2 = _dense(p1, actions), _dense(p2, actions)
    mmin = min(p1.n, p2.n)
    best = None

    def evaluate(c1: Classification, c2: Classification) -> float | None:
        if not is_lumpable(p1, c1, tol)[0] or not is_lumpable(p2, c2, tol)[0]:
            return None
        return _family_distance(_lumped_family(mats1, c1), _lumped_family(mats2, c2), norm_kind)

    def consider(c1, c2, d):
        nonlocal best
        cand = (d, c1.m, c1.assign, c2.assign)
        if best is None or cand < best:
            best = cand

    seeds: list[tuple[Classification, Classification]] = []
    if p1.n == p2.n:
        disc = Classification(tuple(range(p1.n)), p1.n)
        seeds.append((disc, Classification(tuple(range(p2.n)), p2.n)))
    c1_coarse = coarsest_bisimulation(p1, tol)
    c2_coarse = coarsest_bisimulation(p2, tol)
    if c1_coarse.m == c2_coarse.m:
        seeds.append((c1_coarse, c2_coarse))
    seeds.append(
        (Classification((0,) * p1.n, 1), Classification((0,) * p2.n, 1))
    )
    for c1, c2 in seeds:
        d = evaluate(c1, c2)
        if d is not None:
            consider(c1, c2, d)

    restarts = max(1, min(8, budget // 64))
    per_restart = max(1, budget // restarts)
    for r in range(restarts):
        rng = random.Random(seed * 1_000_003 + r)
        left = per_restart

        cur = None
        while left > 0 and cur is None:
            m = rng.randint(1, mmin)
            c1 = Classification(_random_surjection(rng, p1.n, m), m)
            c2 = Classification(_random_surjection(rng, p2.n, m), m)
            left -= 1
            d = evaluate(c1, c2)
            if d is not None:
                cur = (c1, c2, d)
                consider(c1, c2, d)
        if cur is None:
            continue

        while left > 0:
            left -= 1
            c1, c2, d = cur
            prop = _propose_move(rng, c1, c2, mmin)
            if prop is None:
                continue
            nd = evaluate(*prop)
            if nd is None:
                continue
            consider(prop[0], prop[1], nd)
            if nd < d:
                cur = (prop[0], prop[1], nd)

    return _result(best, norm_kind, "local-search", False)


def _propose_move(rng, c1, c2, mmin):
    m = c1.m
    kinds = []
    if m >= 2:
        kinds += ["reassign1", "reassign2", "merge"]
    if m < mmin:
        kinds.append("split")
    if not kinds:
        return None
    kind = kinds[rng.randrange(len(kinds))]

    if kind in ("reassign1", "reassign2"):
        c = c1 if kind == "reassign1" else c2
        s = rng.randrange(c.n)
        v = c.assign[s]
        if c.assign.count(v) < 2:
            return None  # would empty the class
        w = rng.randrange(m - 1)
        if w >= v:
            w += 1
        assign = list(c.assign)
        assign[s] = w
        moved = Classification(tuple(assign), m)
        return (moved, c2) if kind == "reassign1" else (c1, moved)

    if kind == "merge":
        i = rng.randrange(m)
        j = rng.randrange(m - 1)
        if j >= i:
            j += 1
        x, y = min(i, j), max(i, j)

        def merged(c):
            out = []
            for v in c.assign:
                if v == y:
                    v = x
                elif v > y:
                    v -= 1
                out.append(v)
            return Classification(tuple(out), m - 1)

        return merged(c1), merged(c2)

    # split: move a non-empty proper subset of one class into a new class,
    # independently on both sides
    cidx = rng.randrange(m)

    def split(c):
        members = [s for s, v in enumerate(c.assign) if v == cidx]
        if len(members) < 2:
            return None
        chosen = [s for s in members if rng.random() < 0.5]
        if not chosen or len(chosen) == len(members):
            chosen = [members[rng.randrange(len(members))]]
        assign = list(c.assign)
        for s in chosen:
            assign[s] = m
        return Classification(tuple(assign), m + 1)

    s1 = split(c1)
    s2 = split(c2)
    if s1 is None or s2 is None:
        return None
    return s1, s2
