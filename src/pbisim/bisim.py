"""Exact probabilistic bisimulation.

The coarsest bisimulation partition is computed by splitter-driven
refinement over edge arrays: starting from the partition by per-action
enabledness, blocks are split by their states' masses into queued splitter
blocks, grouped per (action, splitter) column within ``tol``, and every new
piece but the largest is queued.  Two systems are compared by refining their
disjoint union and asking whether every resulting class contains states of
both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    Classification,
    DEFAULT_TOL,
    Edges,
    LabelledPTS,
    Partition,
    disjoint_union,
    edges_from_sorted,
)
from .errors import NotLumpableError
from .matrices import class_masses, is_lumpable, sum_by_key


@dataclass(frozen=True)
class BisimWitness:
    """Certificate that two systems are bisimilar.

    ``k1`` and ``k2`` classify each system into the same ``m`` classes;
    lumping either system through its classification yields the same
    quotient family, reported here as ``quotient``.
    """

    m: int
    k1: Classification
    k2: Classification
    quotient: LabelledPTS


def coarsest_bisimulation(pts: LabelledPTS, tol: float = DEFAULT_TOL) -> Partition:
    """Coarsest partition whose classes are probabilistically bisimilar.

    Equivalently, the coarsest strongly lumpable partition: within a class
    all states enable the same actions and place equal mass (within
    ``tol``) into every class.

    Refinement starts from the partition by per-action enabledness and
    works through a queue of splitter blocks, a batch at a time.  For each
    batch, every predecessor's mass into each splitter, per action, is
    summed over the splitters' incoming edges only; a mass with
    ``|m| <= tol`` counts as absent.  Each block with a present mass is
    then split by those masses: within one (action, splitter) column the
    masses are sorted and grouped leader-first, so that a group spans at
    most ``tol`` from its smallest value, and the states of the block with
    no present mass form one piece.  Every piece but the largest is
    queued (Valmari & Franceschinis, TACAS 2010), so a state's incoming
    edges are visited O(log n) times.  Once the queue is empty, one pass
    with every block as a splitter checks the result and refining resumes
    if that pass splits anything.

    The result is therefore lumpable at ``tol`` (see ``is_lumpable``).  If
    some entry is negative (validation admits entries down to ``-tol``),
    absent masses could have either sign, so the absent bound is halved to
    keep them within ``tol`` of each other.  When all unequal masses differ
    by more than ``2 * tol`` the result is the exact coarsest partition;
    tolerance grouping is not transitive, so otherwise it is a lumpable
    partition that may be finer than necessary.
    """
    if pts.n == 0:
        return Partition(0, ())
    ref = _Refinement(pts, tol)
    while True:
        while ref.queue:
            batch, ref.queue = ref.queue, []
            ref.split_by(batch)
        if not ref.split_by(list(range(len(ref.members)))):
            return Partition(pts.n, tuple(frozenset(b) for b in ref.members))


class _Refinement:
    """Refinable partition of a system's states, with a splitter queue.

    ``members[b]`` holds block ``b``'s states; ``block_of`` and ``size``
    hold the same facts as arrays.  The edges of all actions are kept as
    arrays sorted by target state, ``ptr`` delimiting each state's incoming
    edges; an edge's ``origin`` is ``source * len(actions) + action``.
    """

    def __init__(self, pts: LabelledPTS, tol: float):
        n = pts.n
        self.tol = tol
        self.n_actions = len(pts.actions)
        origin, dst, prob = [], [], []
        for i, a in enumerate(pts.actions):
            e = pts.edges[a]
            origin.append(e.src() * self.n_actions + i)
            dst.append(e.dst)
            prob.append(e.prob)
        dst = np.concatenate(dst)
        order = np.argsort(dst, kind="stable")
        self.origin = np.concatenate(origin)[order]
        self.prob = np.concatenate(prob)[order]
        self.ptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n))))
        # masses at most this far from 0 count as absent
        self.absent = tol / 2 if (self.prob < 0).any() else tol

        _, first = np.unique(pts.enabled_rows().T, axis=0, return_inverse=True)
        self.block_of = first.reshape(n).astype(np.intp)
        m0 = int(self.block_of.max()) + 1
        self.size = np.zeros(n, dtype=np.intp)
        self.size[:m0] = np.bincount(self.block_of)
        self.members: list[set[int]] = [set() for _ in range(m0)]
        for s, b in enumerate(self.block_of.tolist()):
            self.members[b].add(s)
        # Row sums are 1 or 0 by enabledness, so every block already has
        # equal mass into the whole state set and one block may be skipped.
        largest = int(np.argmax(self.size))
        self.queue = [b for b in range(m0) if b != largest]

    def split_by(self, batch: list[int]) -> bool:
        """Split every block by its states' masses into the batch's blocks.

        Returns whether any block was split.  New pieces are queued by the
        smaller-half rule.
        """
        tol = self.tol
        k = len(batch)
        sets = [self.members[b] for b in batch]
        counts = [len(m) for m in sets]
        states = np.fromiter(itertools.chain.from_iterable(sets), np.intp, sum(counts))
        starts = self.ptr[states]
        lens = self.ptr[states + 1] - starts
        ends = np.cumsum(lens)
        if ends[-1] == 0:
            return False
        # the incoming edges of all splitter states, and their column keys
        # (source * actions + action) * k + splitter
        e = np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)
        key = self.origin[e] * k + np.repeat(np.repeat(np.arange(k), counts), lens)
        order = np.argsort(key, kind="stable")
        key = key[order]
        heads = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        mass = np.add.reduceat(self.prob[e[order]], heads)
        key = key[heads]

        ncols = self.n_actions * k
        src = key // ncols
        blk = self.block_of[src]
        present = (np.abs(mass) > self.absent) & (self.size[blk] > 1)
        if not present.any():
            return False
        src, mass = src[present], mass[present]
        seg = blk[present] * ncols + key[present] % ncols
        order = np.lexsort((mass, seg))
        src, seg, mass = src[order], seg[order], mass[order]

        # Leader-first grouping per (block, column) segment.  A gap wider
        # than tol always starts a group; only a run of close masses that
        # spans more than tol needs the sequential rule.
        brk = np.concatenate(([True], (seg[1:] != seg[:-1]) | (np.diff(mass) > tol)))
        heads = np.flatnonzero(brk)
        tails = np.concatenate((heads[1:], [src.size])) - 1
        wide = np.flatnonzero(mass[tails] - mass[heads] > tol)
        group = np.cumsum(brk).tolist()
        next_group = len(heads) + 1
        for r in wide.tolist():
            lead, g = mass[heads[r]], group[heads[r]]
            for i in range(heads[r] + 1, tails[r] + 1):
                if mass[i] - lead > tol:
                    lead, g = mass[i], next_group
                    next_group += 1
                group[i] = g

        # A reached state's signature is its list of groups in column
        # order.  Group numbers are unique per segment, so states with equal
        # signatures are in the same block.
        sig: dict[int, list[int]] = {}
        for s, g in zip(src.tolist(), group):
            sig.setdefault(s, []).append(g)
        pieces: dict[tuple[int, ...], list[int]] = {}
        for s, gs in sig.items():
            pieces.setdefault(tuple(gs), []).append(s)
        by_block: dict[int, list[list[int]]] = {}
        for piece in pieces.values():
            by_block.setdefault(int(self.block_of[piece[0]]), []).append(piece)

        moved: list[int] = []
        moved_to: list[int] = []
        for b, parts in by_block.items():
            rest = int(self.size[b]) - sum(len(p) for p in parts)
            unqueued = None
            if rest == 0:
                if len(parts) == 1:
                    continue
                # the largest piece keeps the block's number, unqueued
                parts = sorted(parts, key=len)[:-1]
            else:
                # the unreached states keep the block's number; a piece
                # larger than them is the one left out of the queue
                big = max(parts, key=len)
                if len(big) > rest:
                    unqueued = big
                    self.queue.append(b)
            for p in parts:
                nb = len(self.members)
                self.members.append(set(p))
                self.members[b].difference_update(p)
                self.size[nb] = len(p)
                self.size[b] -= len(p)
                if p is not unqueued:
                    self.queue.append(nb)
                moved.extend(p)
                moved_to.extend([nb] * len(p))
        if not moved:
            return False
        self.block_of[moved] = moved_to
        return True


def _lumped(pts: LabelledPTS, assign: np.ndarray, m: int) -> dict[str, Edges]:
    """Edges of ``K+ M K`` per action: each class's mass into each class,
    summed over the class's states in ascending order, over its size."""
    sizes = np.bincount(assign, minlength=m)
    key, mass = class_masses(pts, assign, m)
    action, state = np.divmod(key // m, pts.n)
    # one total per (action, source class, target class)
    key, total = sum_by_key((action * m + assign[state]) * m + key % m, mass)
    action, src, dst = key // (m * m), key // m % m, key % m
    bounds = np.searchsorted(action, np.arange(len(pts.actions) + 1))
    return {
        a: edges_from_sorted(m, src[lo:hi], dst[lo:hi], total[lo:hi] / sizes[src[lo:hi]])
        for a, lo, hi in zip(pts.actions, bounds[:-1], bounds[1:])
    }


def quotient(pts: LabelledPTS, c: Classification, tol: float = DEFAULT_TOL) -> LabelledPTS:
    """Lump a system through a classification that must be lumpable."""
    ok, violation = is_lumpable(pts, c, tol)
    if not ok:
        raise NotLumpableError(violation)
    return LabelledPTS.from_edges(c.m, pts.actions, _lumped(pts, np.asarray(c.assign), c.m))


def are_bisimilar(
    p1: LabelledPTS, p2: LabelledPTS, tol: float = DEFAULT_TOL
) -> tuple[bool, BisimWitness | None]:
    """Whole-system bisimilarity check with witness classifications.

    The two systems are bisimilar iff every class of the coarsest
    bisimulation of their disjoint union contains states from both sides.
    On success the union partition is split back into per-system
    classifications whose quotients coincide.
    """
    union, off = disjoint_union(p1, p2)
    part = coarsest_bisimulation(union, tol)
    for b in part.blocks:
        if min(b) >= off or max(b) < off:
            return False, None
    block_of = part.block_of()
    k1 = Classification(tuple(block_of[:off]), part.m)
    k2 = Classification(tuple(block_of[off:]), part.m)
    q = LabelledPTS.from_edges(part.m, union.actions, _lumped(union, np.array(block_of), part.m))
    return True, BisimWitness(part.m, k1, k2, q)
