"""The seeded hill-climbing search behind ``epsilon.epsilon_bisim_search``.

Each system's classification is kept as it is (``_Side``), so a move is
applied in place, checked on the states it touched and undone from a
log; admissible pairs are scored by ``epsilon.epsilon_distance``, on the
edge tables.  The module is loaded only when a search runs.
"""

from __future__ import annotations

import random

import numpy as np

from .bisim import coarsest_bisimulation
from .core import Classification, LabelledPTS
from .epsilon import _beaten, epsilon_distance
from .matrices import is_lumpable


class _Side:
    """One system's classification during the search.

    ``assign`` maps the states to the classes ``0..m-1``; ``members`` holds
    each class's states and ``lead`` its smallest state, with which
    ``is_lumpable`` compares the others.  A row's mass into each class is
    summed from the edge table whenever it is read, over the row's edges
    in ascending target order as ``class_masses`` sums it, so the check
    admits exactly what ``is_lumpable`` admits.  The table's row bounds
    and, per state, the sources of its incoming edges are kept as arrays:
    O(n + E) memory for any class count.

    Moves are applied at once and logged; ``rollback`` undoes every move
    since the last ``commit``.
    """

    def __init__(self, pts: LabelledPTS, tol: float):
        n = pts.n
        self.n, self.tol = n, tol
        self.dst, self.prob = pts.dst, pts.prob
        self.ptr = np.searchsorted(pts.row, np.arange(len(pts.actions) * n + 1)).tolist()
        self.pred = pts.row[np.argsort(pts.dst, kind="stable")] % n
        self.pred_ptr = [0, *np.cumsum(np.bincount(pts.dst, minlength=n)).tolist()]
        self.on = pts.enabled_rows().tolist()
        self.log: list = []

    def reset(self, assign: tuple[int, ...], m: int) -> None:
        self.assign = list(assign)
        self.members: list[set[int]] = [set() for _ in range(m)]
        for s, v in enumerate(assign):
            self.members[v].add(s)
        self.lead = [min(c) for c in self.members]
        self.log.clear()

    def commit(self) -> None:
        self.log.clear()

    def rollback(self) -> None:
        while self.log:
            self.log.pop()()

    def mass(self, r: int) -> dict[int, float]:
        """Edge-table row ``r``'s mass into each class it reaches."""
        got: dict[int, float] = {}
        assign, lo, hi = self.assign, self.ptr[r], self.ptr[r + 1]
        for t, p in zip(self.dst[lo:hi].tolist(), self.prob[lo:hi].tolist()):
            j = assign[t]
            got[j] = got.get(j, 0.0) + p
        return got

    def agree(self, r: int, r0: int) -> bool:
        """Whether rows ``r`` and ``r0`` place masses within tol of each
        other into every class."""
        x, y = self.mass(r), self.mass(r0)
        tol = self.tol
        return all(abs(x.get(j, 0.0) - y.get(j, 0.0)) <= tol for j in x.keys() | y.keys())

    def matches(self, s: int) -> bool:
        """Whether state ``s`` agrees with its class's lead on every action."""
        n, ld = self.n, self.lead[self.assign[s]]
        return s == ld or all(
            on[s] == on[ld] and self.agree(i * n + s, i * n + ld) for i, on in enumerate(self.on)
        )

    def move(self, states: list[int], to: int) -> bool:
        """Move ``states``, all of one class, to class ``to`` (``m`` opens a
        new class); whether the classification is still a lumping, given
        that it was one.

        A move changes masses only into its two classes, and only in the
        rows of the states with an edge into a moved state.  So every
        moved state, every such state, and every member of a class whose
        lead changed or is one of these states is checked against its
        lead; no other state's verdict can have changed.
        """
        assign, members, lead = self.assign, self.members, self.lead
        src, opened = assign[states[0]], to == len(members)
        if opened:
            members.append(set())
            lead.append(self.n)
        old = lead[src], lead[to]
        for s in states:
            assign[s] = to
        members[src].difference_update(states)
        members[to].update(states)
        lead[src] = old[0] if old[0] in members[src] else min(members[src], default=self.n)
        lead[to] = min(old[1], min(states))

        def undo():
            for s in states:
                assign[s] = src
            members[to].difference_update(states)
            members[src].update(states)
            lead[src], lead[to] = old
            if opened:
                members.pop()
                lead.pop()

        self.log.append(undo)
        touched = set(states)
        for s in states:
            touched.update(self.pred[self.pred_ptr[s]:self.pred_ptr[s + 1]].tolist())
        check = set(touched)
        if lead[src] != old[0]:  # a new lead of ``to`` is a moved state
            check |= members[src]
        for s in touched:
            if lead[assign[s]] == s:
                check |= members[assign[s]]
        return all(self.matches(s) for s in check)

    def _swap(self, a: int, b: int) -> None:
        assign, members, lead = self.assign, self.members, self.lead
        for k, to in ((a, b), (b, a)):
            for s in members[k]:
                assign[s] = to
        members[a], members[b] = members[b], members[a]
        lead[a], lead[b] = lead[b], lead[a]

    def swap(self, a: int, b: int) -> bool:
        """Exchange the labels of classes ``a`` and ``b``: still a lumping."""
        self._swap(a, b)
        self.log.append(lambda: self._swap(a, b))
        return True

    def merge(self, x: int, y: int) -> bool:
        """Merge class ``y`` into ``x < y``, then give the last class the
        label ``y``; whether the result is still a lumping."""
        if not self.move(list(self.members[y]), x):
            return False
        last = len(self.members) - 1
        if last != y:
            self._swap(last, y)
        self.members.pop()
        self.lead.pop()

        def undo():
            self.members.append(set())
            self.lead.append(self.n)
            if last != y:
                self._swap(y, last)

        self.log.append(undo)
        return True


def _split_part(rng: random.Random, members: set[int]) -> list[int] | None:
    """A random non-empty proper subset of a class, or None for a singleton."""
    members = sorted(members)
    if len(members) < 2:
        return None
    chosen = [s for s in members if rng.random() < 0.5]
    if not chosen or len(chosen) == len(members):
        chosen = [members[rng.randrange(len(members))]]
    return chosen


def _two_classes(rng: random.Random, m: int) -> tuple[int, int]:
    """Two distinct classes of ``m``, the smaller first."""
    i = rng.randrange(m)
    j = rng.randrange(m - 1)
    j += j >= i
    return min(i, j), max(i, j)


def _propose(
    rng: random.Random, sides: tuple[_Side, _Side], mmin: int, walking: bool
) -> bool | None:
    """Apply one random move to the pair: reassign one state of one side,
    merge a class pair on both sides, split one class on both sides or,
    while ``walking``, swap two class labels of one side.

    While the class counts differ, the move instead merges a class pair
    on the side with more classes or splits a class on the other.  None
    when the draw yields no move; otherwise whether both sides are still
    lumpings, with the move pending ``commit`` or ``rollback``.
    """
    m = len(sides[0].members)
    if m != len(sides[1].members):
        big, small = sides if m > len(sides[1].members) else sides[::-1]
        if rng.random() < 0.5:
            return big.merge(*_two_classes(rng, len(big.members)))
        part = _split_part(rng, small.members[rng.randrange(len(small.members))])
        return None if part is None else small.move(part, len(small.members))
    kinds = []
    if m >= 2:
        kinds += ["reassign1", "reassign2", "merge"] + ["swap"] * walking
    if m < mmin:
        kinds.append("split")
    if not kinds:
        return None
    kind = kinds[rng.randrange(len(kinds))]

    if kind in ("reassign1", "reassign2"):
        side = sides[kind == "reassign2"]
        s = rng.randrange(side.n)
        v = side.assign[s]
        if len(side.members[v]) < 2:
            return None  # would empty the class
        w = rng.randrange(m - 1)
        return side.move([s], w + (w >= v))
    if kind == "merge":
        x, y = _two_classes(rng, m)
        return all(side.merge(x, y) for side in sides)
    if kind == "swap":
        return sides[rng.randrange(2)].swap(*_two_classes(rng, m))

    # split: move a non-empty proper subset of one class into a new class,
    # independently on both sides
    cidx = rng.randrange(m)
    parts = [_split_part(rng, side.members[cidx]) for side in sides]
    if parts[0] is None or parts[1] is None:
        return None
    return all(side.move(part, m) for side, part in zip(sides, parts))


def search(
    p1: LabelledPTS, p2: LabelledPTS, norm_kind: str, budget: int, seed: int, tol: float
):
    """The best ``(epsilon, m, k1 assign, k2 assign)`` the search finds,
    or None; see ``epsilon.epsilon_bisim_search``."""
    sides = (_Side(p1, tol), _Side(p2, tol))
    mmin = min(p1.n, p2.n)
    best = None

    def score() -> float:
        nonlocal best
        m = len(sides[0].members)
        a1, a2 = (tuple(side.assign) for side in sides)
        d = epsilon_distance(p1, p2, Classification(a1, m), Classification(a2, m), norm_kind)
        cand = (d, m, a1, a2)
        best = cand if best is None else min(best, cand)
        return d

    def lumpings(pts: LabelledPTS) -> list[tuple[int, ...]]:
        found = [tuple(range(pts.n)), coarsest_bisimulation(pts, tol).assign]
        if is_lumpable(pts, Classification((0,) * pts.n, 1), tol)[0]:
            found.append((0,) * pts.n)
        return list(dict.fromkeys(found))

    known = lumpings(p2)
    pairs = [(a1, a2) for a1 in lumpings(p1) for a2 in known]
    seeds = []
    for a1, a2 in pairs:
        if max(a1) == max(a2):
            for side, a in zip(sides, (a1, a2)):
                side.reset(a, max(a) + 1)
            seeds.append((a1, a2, score()))
    seeds = seeds or [(a1, a2, None) for a1, a2 in pairs]

    def settled() -> bool:
        return best is not None and best[:2] == (0.0, 1)

    def hopeless() -> bool:
        """Whether the current pair loses to ``best`` at any distance."""
        return _beaten(0.0, len(sides[0].members), tuple(sides[0].assign), best)

    restarts = max(1, min(8, budget // 64))
    per_restart = max(1, budget // restarts)
    for r in range(restarts):
        if settled():
            break
        rng = random.Random(seed * 1_000_003 + r)
        a1, a2, d = seeds[r % len(seeds)]  # d is None until the pair is scored
        for side, a in zip(sides, (a1, a2)):
            side.reset(a, max(a) + 1)
        walk = per_restart // 4 if r >= len(seeds) else 0
        for step in range(per_restart):
            if settled():
                break
            climbing = step >= walk
            if climbing and d is None and len(sides[0].members) == len(sides[1].members):
                d = score()
            ok = _propose(rng, sides, mmin, not climbing)
            keep = False
            if ok and (not climbing or d is None):
                keep, d = True, None
            elif ok and not (d == 0.0 and hopeless()):
                # a pair kept by the climb must beat d, so at d = 0 it is
                # scored only when it could still beat the best
                nd = score()
                keep = nd < d
                d = nd if keep else d
            for side in sides:
                side.commit() if keep else side.rollback()

    return best
