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

The exact minimiser visits only the admissible space: each side enumerates
the canonical refinements of its lumping hull (``lumping_hull``, a
partition every lumping refines), keeps the lumpings, and the class
relabelings of each admitted pair are searched by branch and bound,
bounding a branch by the ``matrix_norm`` of the top-left block of the
difference assigned so far.  Each classification is lumped once on the
edge table (``matrices.lumped``) and only its m-state quotient is laid
out as an (actions, m, m) stack for the relabelings.

The seeded hill-climbing search (``epsilon_bisim_search``, run by
``pbisim.search``) gives upper bounds when even the a-priori space is too
large.  It moves states between classes on each system's edge table,
checks a move's lumpability on the masses the move changed, and scores a
pair with ``epsilon_distance``.

``epsilon_distance`` scores the difference of the ``matrices.lumped``
tables with ``matrices.table_norm`` in O(n + E) memory, summing as the
dense ``matrix_norm`` does, so both minimisers' witnesses reproduce
their epsilon through it bit for bit.  No path builds an n x n
transition matrix: the exact scan, under its pair budget, lays out only
the hull's masses into at most min(n1, n2) blocks and the quotients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .core import Classification, DEFAULT_TOL, LabelledPTS, union_actions
from .errors import MAX_DIGITS, BudgetExceededError, ClassCountMismatchError, InvalidRangeError
from .errors import DEFAULT_PAIR_BUDGET, DimensionMismatchError
from .matrices import is_lumpable, lumped, matrix_norm, sum_by_key, table_norm

EPS = float(np.finfo(float).eps)


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


@lru_cache(maxsize=8)
def _stirling_row(n: int, k: int) -> tuple[int, ...]:
    """``S(n, 0..k)``, ``k <= n``, built row by row without recursion."""
    row = [1]
    for i in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, min(i, k + 1))] + [1] * (i <= k)
    return tuple(row)


def stirling2(n: int, m: int) -> int:
    """Number of partitions of an n-set into m non-empty blocks."""
    return _stirling_row(n, m)[m] if 0 <= m <= n else 0


def enumerate_classifications(
    n: int, m: int, within: Classification | None = None
) -> Iterator[Classification]:
    """All canonical classifications of n states into exactly m classes.

    Canonical form is the restricted growth string: class labels appear in
    order of first occurrence, so each set partition is produced exactly
    once.  Yields in ascending lexicographic order of the assignment;
    the count is the Stirling partition number S(n, m).  With ``within``,
    only the classifications that refine it are produced (states of
    different classes of ``within`` never share a class): the product of
    per-class set partitions, canonically labelled.
    """
    if not 1 <= m <= n:
        raise InvalidRangeError(f"need 1 <= m <= n, got m={m}, n={n}")
    block = [0] * n if within is None else within.assign
    first: dict[int, int] = {}
    for s, b in enumerate(block):
        first.setdefault(b, s)
    # fresh[i]: blocks whose first state is i or later, each needing a new class
    fresh = [0] * (n + 1)
    for s in range(n - 1, -1, -1):
        fresh[s] = fresh[s + 1] + (first[block[s]] == s)
    assign = [0] * n
    owner = [0] * m  # block of each class opened so far
    used = [0] * (n + 1)  # used[i]: classes opened by states before i
    # depth-first with an explicit stack (assign[:i]), so n is not bounded
    # by the recursion limit; state i tries class v, then v + 1, ...
    i, v = 0, 0
    while i >= 0:
        u = used[i]
        while v < u and owner[v] != block[i]:
            v += 1
        if v == m or v > u:
            i -= 1
            v = assign[i] + 1
            continue
        assign[i] = v
        owner[v] = block[i]
        u += v == u
        if not fresh[i + 1] <= m - u <= n - i - 1:
            v += 1
        elif i + 1 == n:
            yield Classification(tuple(assign), m)
            v += 1
        else:
            used[i + 1] = u
            i, v = i + 1, 0


def pair_space(n1: int, n2: int) -> int | None:
    """Size of the exhaustive search space, the sum of ``S(n1, m) S(n2, m) m!``,
    or None past ``MAX_DIGITS`` digits (above any budget a command line reads).

    Floats decide where they can, with a digit of slack far above their
    rounding: ``S(n, m) >= m^(n - m)``, then the Stirling recurrence in log
    space.  The exact Stirling rows are built only when both leave it open.
    """
    if min(n1, n2) == 1:
        return 1  # S(n, 1) = 1: one classification a side, one pair
    j = np.arange(1, min(n1, n2) + 1)
    logj, limit = np.log(j), (MAX_DIGITS + 1) * math.log(10)
    logfact = np.cumsum(logj)
    if ((n1 + n2 - 2 * j) * logj + logfact).max(initial=0.0) >= limit:
        return None
    rows = []
    for n in (n1, n2):
        row = np.where(j == 1, 0.0, -np.inf)  # log S(i, j) from i = 1 to n
        for _ in range(n - 1):
            row = np.logaddexp(logj + row, np.concatenate(([-np.inf], row[:-1])))
        rows.append(row)
    if np.logaddexp.reduce(rows[0] + rows[1] + logfact, initial=-np.inf) >= limit:
        return None
    k = min(n1, n2)
    r1, r2 = _stirling_row(n1, k), _stirling_row(n2, k)
    space = sum(r1[m] * r2[m] * math.factorial(m) for m in range(1, k + 1))
    return space if space < 10**MAX_DIGITS else None


def lumping_hull(
    pts: LabelledPTS, tol: float = DEFAULT_TOL, limit: int | None = None
) -> Classification:
    """A partition (as a classification) that every lumping refines.

    Every classification that ``is_lumpable`` admits at ``tol`` refines the
    returned partition (the hull).  Refinement in synchronous rounds: start
    from the states' enabledness, then split every block by each (action,
    block) column of masses, only at sorted gaps wider than ``tau = 2 n
    tol`` plus a float slack (single linkage).  Soundness, by induction
    over the rounds: if an admitted classification refines the current
    blocks, each target block is a union of its classes, and two states of
    one class have masses within ``tol`` of their class lead's into every
    class, so within ``2 tol`` of each other per class and, summed over
    the at most n classes in the block, within ``tau`` into the block.
    The states of a class then span at most ``tau`` in
    the column, so no gap wider than ``tau`` falls between them, and the
    class stays inside one piece.  The slack bounds the rounding of all
    these sums.  This is not ``coarsest_bisimulation``, whose groups span
    at most ``tol``: under ``tol`` it can be finer than an admitted
    lumping.  Stops early once there are more than ``limit`` blocks, which
    no classification into at most ``limit`` classes refines.  Exact
    epsilon passes its class cap because its pair budget does not bound
    the rounds: a 600-state chain has one pair to score against one state,
    but its hull takes about 600 rounds uncapped (16 s against 1 ms).
    """
    n = pts.n
    scale = max(1.0, float(np.bincount(pts.row, weights=np.abs(pts.prob)).max(initial=0.0)))
    tau = 2 * n * tol + 8 * (n + 1) ** 2 * EPS * scale
    block = pts.enabled_blocks()
    while limit is None or block.max() < limit:
        m = int(block.max()) + 1
        # one row per (action, block) column, masses added in edge order
        table = np.bincount(pts.row * m + block[pts.dst], weights=pts.prob, minlength=len(pts.actions) * n * m)
        cols = table.reshape(-1, n, m).transpose(0, 2, 1).reshape(-1, n)
        order = np.lexsort((cols, np.broadcast_to(block, cols.shape)))  # each row by block, then mass
        b, x = block[order], np.take_along_axis(cols, order, 1)
        head = np.ones(order.shape, dtype=bool)
        head[:, 1:] = (b[:, 1:] != b[:, :-1]) | (np.diff(x) > tau)
        piece = np.empty_like(order)
        np.put_along_axis(piece, order, np.cumsum(head, axis=1), 1)
        refined = np.unique(np.vstack((block, piece)).T, axis=0, return_inverse=True)[1].reshape(-1)
        if refined.max() == block.max():
            break
        block = refined
    return Classification(block.tolist(), int(block.max()) + 1)


def _dense(pts: LabelledPTS, actions: tuple[str, ...]) -> np.ndarray:
    """Matrix per action of ``actions`` as an (actions, n, n) array, all
    zero where ``pts`` lacks the label."""
    mats = np.zeros((len(actions), pts.n, pts.n))
    where = np.array([actions.index(a) for a in pts.actions], dtype=np.int64)
    action, state = np.divmod(pts.row, pts.n)
    mats[where[action], state, pts.dst] = pts.prob
    return mats


def _family_distance(f1: np.ndarray, f2: np.ndarray, norm_kind: str) -> float:
    return float(matrix_norm(f1 - f2, norm_kind).max())


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
    lump to zero matrices on that side.  Each action of each system is
    lumped alone on its edge table, and the difference is a table in
    ascending (row, column) order, scored by ``table_norm``: O(n + E)
    memory for any class count, and bit for bit the float that
    ``matrix_norm`` gives on the dense difference.
    """
    if k1.m != k2.m:
        raise ClassCountMismatchError(f"k1 has {k1.m} classes, k2 has {k2.m}")
    for p, c in ((p1, k1), (p2, k2)):
        if c.n != p.n:
            raise DimensionMismatchError(f"classification covers {c.n} states, system has {p.n}")
    m = k1.m
    worst = 0.0
    for a in union_actions(p1, p2):
        keys, values = [], []
        for p, c, sign in ((p1, k1, 1.0), (p2, k2, -1.0)):
            if a in p.actions:
                i, n = p.actions.index(a), p.n
                lo, hi = np.searchsorted(p.row, (i * n, i * n + n))
                one = LabelledPTS.from_edges(n, (a,), p.row[lo:hi] - i * n, p.dst[lo:hi], p.prob[lo:hi])
                q = lumped(one, np.asarray(c.assign), m)
                keys.append(q.row * m + q.dst)
                values.append(sign * q.prob)
        # each entry on the left minus its counterpart on the right
        key, diff = sum_by_key(np.concatenate(keys), np.concatenate(values))
        worst = max(worst, table_norm(key, diff, m, norm_kind))
    return worst


def _beaten(bound: float, m: int, a1: tuple[int, ...], best) -> bool:
    """Whether every candidate ``(d >= bound, m, a1, .)`` loses to ``best``."""
    return best is not None and (bound, m, a1) > best[:3]


def _best_relabeling(f1, f2, a1, a2, norm_kind: str, best):
    """``best`` improved by the class relabelings of the right side.

    Branch and bound: new class ``i`` takes old class ``inv[i]`` of ``f2``
    for ``i = 0, 1, ...``; the bound of a branch is the ``matrix_norm`` of
    the top-left block of ``f1 - f2`` assigned so far.  The block's terms
    are some of each leaf's, in the same ascending order, and adding a
    term ``>= 0`` never lowers a rounded sum, so the bound never exceeds
    the float that ``_family_distance`` returns at any leaf below, and a
    branch is pruned only when its candidates all lose in the order of
    ``(epsilon, m, k1, k2)``.  Leaves are scored by ``_family_distance``
    on the relabelled family, as the full scan did, so epsilon is
    bit-identical.
    """
    m = f1.shape[1]
    inv: list[int] = []

    def leaf(order: list[int]) -> None:
        nonlocal best
        p = np.array(order)
        d = _family_distance(f1, f2[:, p[:, None], p], norm_kind)
        if best is not None and d > best[0]:
            return
        sigma = [0] * m
        for new, old in enumerate(order):
            sigma[old] = new
        cand = (d, m, a1, tuple(sigma[v] for v in a2))
        if best is None or cand < best:
            best = cand

    def visit(i: int) -> None:
        free = [j for j in range(m) if j not in inv]
        if i >= m - 2:
            # each child is a single relabeling: its bound would cost about
            # as much as scoring it
            for rest in itertools.permutations(free):
                leaf(inv + list(rest))
            return
        # the assigned blocks of all children at once, (actions, child, i+1, i+1)
        p = np.array([inv + [j] for j in free])
        blocks = f1[:, None, : i + 1, : i + 1] - f2[:, p[:, :, None], p[:, None, :]]
        bounds = matrix_norm(blocks, norm_kind).max(axis=0)
        for bound, j in sorted(zip(bounds.tolist(), free)):
            if _beaten(bound, m, a1, best):
                break  # the rest have larger bounds
            inv.append(j)
            visit(i + 1)
            inv.pop()

    visit(0)
    return best


def epsilon_bisim_exact(
    p1: LabelledPTS,
    p2: LabelledPTS,
    norm_kind: str = "op-inf",
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> EpsilonResult:
    """Exact epsilon by exhaustive search of the admissible pairs.

    For each class count m that both sides can reach, each side ranges over
    the canonical classifications that refine its ``lumping_hull`` and are
    lumpings of its own system; every left-right pair then ranges over all
    m! class relabelings of the right side, searched by branch and bound
    (``_best_relabeling``).  Classifications that do not refine the hull
    are never lumpings, and pruned relabelings never win, so the result is
    that of scoring every admissible pair.  The minimum is taken in the
    order of ``(epsilon, m, k1 assign, k2 assign)``, so ties go to fewer
    classes, then to the lexicographically smaller assignments.  Raises
    BudgetExceededError first when the a-priori pair count (``pair_space``,
    under a second at any size) is None or exceeds ``budget``.
    """
    total = pair_space(p1.n, p2.n)
    if total is None or total > budget:
        raise BudgetExceededError(total, budget)
    actions = union_actions(p1, p2)
    mmax = min(p1.n, p2.n)
    hull1, hull2 = lumping_hull(p1, tol, mmax), lumping_hull(p2, tol, mmax)
    best = None
    for m in range(max(hull1.m, hull2.m), mmax + 1):
        if _beaten(0.0, m, (), best):
            break  # epsilon 0 at fewer classes
        k1s = [c for c in enumerate_classifications(p1.n, m, hull1) if is_lumpable(p1, c, tol)[0]]
        if not k1s:
            continue
        k2s = [c for c in enumerate_classifications(p2.n, m, hull2) if is_lumpable(p2, c, tol)[0]]
        if not k2s:
            continue
        fams2 = [(c, _dense(lumped(p2, np.asarray(c.assign), m), actions)) for c in k2s]
        for c1 in k1s:
            if _beaten(0.0, m, c1.assign, best):
                break
            f1 = _dense(lumped(p1, np.asarray(c1.assign), m), actions)
            for c2, f2 in fams2:
                best = _best_relabeling(f1, f2, c1.assign, c2.assign, norm_kind, best)
    return _result(best, norm_kind, "exhaustive", True)


def epsilon_bisim_search(
    p1: LabelledPTS,
    p2: LabelledPTS,
    norm_kind: str = "op-inf",
    budget: int = 2000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> EpsilonResult:
    """Seeded hill-climbing upper bound on the exact epsilon.

    Deterministic for a fixed seed and budget.  The search starts from
    the lumpings it knows of each system: the discrete one, the coarsest
    bisimulation and, when it is a lumping, the single class.  Every pair
    of these with equal class counts is a seed pair, scored first and not
    counted against ``budget``.  When no pair has equal counts, every pair
    is a seed, and a restart from one first merges classes on the side
    with more or splits classes on the other until the counts agree; the
    result is unbounded if they never do.

    Restarts: the budget is split over up to eight restarts.  Restart
    ``r`` starts from seed pair ``r`` (cycling) and climbs, keeping a move
    only when it lowers the distance; from the second visit of a seed on,
    a restart first spends a quarter of its moves on a random walk that
    keeps every move leaving both sides lumpings, and climbs from there.
    Moves: reassign one state of one side, merge a class pair on both
    sides, or split one class on both sides; the walk also swaps two class
    labels of one side, which changes how the classes pair up.  A swap
    always passes the lumpability check, so the climb leaves it out rather
    than score one pair per swap.  Every move proposed counts against
    ``budget``.  Once the current pair is at distance 0, a move is scored
    only if its pair could still beat the best, and the search ends once
    the best is epsilon 0 at one class, which nothing beats.

    Cost per move: each side keeps only its assignment, classes and their
    smallest states (``search._Side``).  A move is applied in place and
    checked by one rule: every moved state, every state with an edge into
    a moved state, and every member of a class whose smallest state
    changed or is one of those states must match its class's smallest
    state on every action, with the masses summed from the edge table as
    they are read.  The check stops at the first violation and admits
    exactly what ``is_lumpable`` admits; a rejected move is undone from a
    log.  Only a pair that passes is scored, by ``epsilon_distance``, in
    O(E log E) time, so the witnesses reproduce the reported epsilon bit
    for bit.  Memory: O(n + E) per side, whatever the class count; no
    n x n or m x m matrix is built.
    """
    # the search's machinery is compiled only when a search runs, so the
    # exact scan's command does not load it
    from .search import search

    return _result(search(p1, p2, norm_kind, budget, seed, tol), norm_kind, "local-search", False)
