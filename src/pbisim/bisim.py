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

from .core import Classification, DEFAULT_TOL, LabelledPTS, disjoint_union
from .errors import NotLumpableError, ValidationError
from .matrices import _stable_order, is_lumpable, lumped, sum_by_key

# Batches reaching fewer (state, column) pairs skip the composite sort and
# the array check of whether anything splits.
_WIDE = 1024


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


def coarsest_bisimulation(pts: LabelledPTS, tol: float = DEFAULT_TOL) -> Classification:
    """Coarsest classification whose classes are probabilistically bisimilar.

    Equivalently, the coarsest strongly lumpable partition: within a class
    all states enable the same actions and place equal mass (within
    ``tol``) into every class.  The result is canonical: classes are
    numbered in order of their smallest state, so ``assign`` is a
    restricted-growth string.

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
    if that pass splits anything.  It runs only if a probe of the blocks
    not checked (served as a splitter, unchanged since) would split, for a
    checked block C splits nothing: its batch left every block's masses
    into C, the same sums now, all absent or all present in one
    leader-first group, and every block since is a subset of such a piece.
    A subset of one group is one group, and "all present or all absent"
    carries over to a subset.

    The result is therefore lumpable at ``tol`` (see ``is_lumpable``).  If
    some entry is negative (validation admits entries down to ``-tol``),
    absent masses could have either sign, so the absent bound is halved to
    keep them within ``tol`` of each other.  When all unequal masses differ
    by more than ``2 * tol`` the result is the exact coarsest partition;
    tolerance grouping is not transitive, so otherwise it is a lumpable
    partition that may be finer than necessary.
    """
    if pts.n == 0:
        raise ValidationError("state count must be >= 1")
    ref = _Refinement(pts, tol)
    while True:
        while ref.queue:
            batch, ref.queue = ref.queue, []
            ref.unchecked.difference_update(batch)
            ref.split_by(batch)
        unchecked = sorted(ref.unchecked)
        if not (unchecked and ref.split_by(unchecked, probe=True)):
            break
        ref.unchecked.clear()
        ref.split_by(list(range(len(ref.members))))
    # number the blocks in order of their first state
    number: dict[int, int] = {}
    assign = tuple(number.setdefault(b, len(number)) for b in ref.block_of.tolist())
    return Classification(assign, len(number))


class _Refinement:
    """Refinable partition of a system's states, with a splitter queue.

    ``members[b]`` holds block ``b``'s states; ``block_of`` and ``size``
    hold the same facts as arrays.  The system's edge table (``row =
    action * n + source``, and ``prob``) is kept sorted by target state,
    ``ptr`` delimiting each state's incoming edges.
    """

    def __init__(self, pts: LabelledPTS, tol: float):
        n = pts.n
        self.n, self.tol = n, tol
        self.n_actions = len(pts.actions)
        order = _stable_order(pts.dst)
        self.row, self.prob = pts.row[order], pts.prob[order]
        self.ptr = np.concatenate(([0], np.cumsum(np.bincount(pts.dst, minlength=n))))
        # masses at most this far from 0 count as absent
        self.absent = tol / 2 if (self.prob < 0).any() else tol

        self.block_of = pts.enabled_blocks().astype(np.intp)
        m0 = int(self.block_of.max()) + 1
        self.size = np.zeros(n, dtype=np.intp)
        self.size[:m0] = np.bincount(self.block_of)
        self.members: list[set[int]] = [set() for _ in range(m0)]
        # blocks that have not served as splitters since they last changed
        self.unchecked = set(range(m0))
        for s, b in enumerate(self.block_of.tolist()):
            self.members[b].add(s)
        # Row sums are 1 or 0 by enabledness, so every block already has
        # equal mass into the whole state set and one block may be skipped.
        largest = int(np.argmax(self.size))
        self.queue = [b for b in range(m0) if b != largest]

    def split_by(self, batch: list[int], probe: bool = False) -> bool:
        """Split every block by its states' masses into the batch's blocks.

        Returns whether any block was split.  New pieces are queued by the
        smaller-half rule.  With ``probe``, changes nothing and returns
        whether the pass would split a block.
        """
        tol = self.tol
        k = len(batch)
        # each splitter's states ascending, so that masses add up in
        # ascending target order, as is_lumpable adds them
        sets = [sorted(self.members[b]) for b in batch]
        counts = [len(m) for m in sets]
        states = np.fromiter(itertools.chain.from_iterable(sets), np.intp, sum(counts))
        starts = self.ptr[states]
        lens = self.ptr[states + 1] - starts
        ends = np.cumsum(lens)
        if ends[-1] == 0:
            return False
        # the incoming edges of all splitter states, each predecessor's mass
        # per (row, splitter) key, and its (block, action, splitter) segment
        e = np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)
        splitter = np.repeat(np.repeat(np.arange(k), counts), lens)
        key = self.row[e] * k + splitter
        key, mass = sum_by_key(key, self.prob[e], _stable_order(key))
        row = key // k
        src = row % self.n
        blk = self.block_of[src]
        present = (np.abs(mass) > self.absent) & (self.size[blk] > 1)
        if not present.any():
            return False
        src, mass = src[present], mass[present]
        seg = (blk[present] * self.n_actions + row[present] // self.n) * k + key[present] % k
        size = seg.size
        if size < _WIDE or self.n * self.n_actions * k * size > np.iinfo(np.int64).max:
            order = np.lexsort((mass, seg))
        else:
            # equal masses get one rank, so they keep their order
            order = _stable_order(seg * size + np.unique(mass, return_inverse=True)[1])
        src, seg, mass = src[order], seg[order], mass[order]
        if probe or size >= _WIDE:
            # nothing splits iff every segment holds its whole block in one group
            first = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
            end = np.append(first[1:], size)
            whole = end - first == self.size[seg[first] // (self.n_actions * k)]
            if (whole & (mass[end - 1] - mass[first] <= tol)).all():
                return False
            if probe:
                return True

        # Within a segment sorted by mass, a group starts at a leader and
        # holds the masses at most tol above it.  A reached state's
        # signature is its list of groups in segment order; group numbers
        # are unique, so states with equal signatures are in the same block.
        sig: dict[int, list[int]] = {}
        g, last, lead = -1, -1, 0.0
        for s, sg, x in zip(src.tolist(), seg.tolist(), mass.tolist()):
            if sg != last or x - lead > tol:
                g, last, lead = g + 1, sg, x
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
            self.unchecked.add(b)
            for p in parts:
                nb = len(self.members)
                self.unchecked.add(nb)
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


def quotient(pts: LabelledPTS, c: Classification, tol: float = DEFAULT_TOL) -> LabelledPTS:
    """Lump a system through a classification that must be lumpable."""
    ok, violation = is_lumpable(pts, c, tol)
    if not ok:
        raise NotLumpableError(violation)
    return lumped(pts, np.asarray(c.assign), c.m)


def are_bisimilar(
    p1: LabelledPTS, p2: LabelledPTS, tol: float = DEFAULT_TOL
) -> tuple[bool, BisimWitness | None]:
    """Whole-system bisimilarity check with witness classifications.

    The two systems are bisimilar iff every class of the coarsest
    bisimulation of their disjoint union contains states from both sides.
    On success the union classification is split back into per-system
    classifications whose quotients coincide.
    """
    union, off = disjoint_union(p1, p2)
    c = coarsest_bisimulation(union, tol)
    assign = np.asarray(c.assign)
    if not (np.bincount(assign[:off], minlength=c.m).all()
            and np.bincount(assign[off:], minlength=c.m).all()):
        return False, None
    k1 = Classification(c.assign[:off], c.m)
    k2 = Classification(c.assign[off:], c.m)
    return True, BisimWitness(c.m, k1, k2, lumped(union, assign, c.m))
