"""Shared corpus builders and brute-force oracles for the test suite.

Oracles here are deliberately independent of the implementation paths they
check: the coarsest-partition oracle enumerates every set partition, the
simulation oracle enumerates every relation, and classification counting
enumerates raw assignments.  ``naive_coarsest`` is the dense round-based
signature refinement the library used before its splitter-driven one, and
``loop_coarsest`` is that splitter-driven refinement as it ran before its
sorts, its no-split check and its closing pass moved into arrays;
the other ``naive_*`` functions are the dense n x n implementations of
parsing, validation, union, lumpability and quotienting that the edge-array
ones replaced.  ``naive_gen_*``, ``naive_perturb`` and ``naive_exact_best``
are the generators and the exhaustive epsilon scan as they ran on dense
matrices, before systems stopped carrying a dense view.  On the simulation
and Galois side, ``naive_*`` are the per-element loops (successor scans,
pair sweeps until stable, per-pair lattice bounds, per-subset powerset
checks) that the array code replaced.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from pbisim import (
    Classification,
    KripkeStructure,
    LabelledPTS,
    Relation,
    enumerate_classifications,
    is_lumpable,
    is_simulation,
)
from pbisim.core import DEFAULT_TOL
from pbisim.errors import (
    DimensionMismatchError,
    EmptyActionSetError,
    NegativeEntryError,
    NotALatticeError,
    NotLumpableError,
    ParseError,
    RowSumError,
    UnknownNameError,
    ValidationError,
)
from pbisim.galois import GaloisSpec, GaloisViolation
from pbisim.matrices import (
    LumpabilityViolation,
    classification_matrix,
    lump,
    matrix_norm,
    sum_by_key,
)
from pbisim.generators import (
    _DENOM,
    _PERTURB_GRID,
    _dyadic_weights,
    gen_planted,
    gen_random_pts,
    perturb,
)

ACTIONS = ["a", "b"]


def dense(pts: LabelledPTS) -> dict[str, np.ndarray]:
    """Dense n x n matrix per action: ``dense(pts)[a][s, t]`` is the
    probability of moving from ``s`` to ``t`` on ``a``."""
    mats = np.zeros((len(pts.actions), pts.n, pts.n))
    action, state = np.divmod(pts.row, pts.n)
    mats[action, state, pts.dst] = pts.prob
    return dict(zip(pts.actions, mats))


def canonical(assign) -> Classification:
    """Classification of ``assign`` with classes renumbered by first occurrence."""
    relabel: dict[int, int] = {}
    canon = tuple(relabel.setdefault(int(v), len(relabel)) for v in assign)
    return Classification(canon, len(relabel))


def brute_coarsest(pts: LabelledPTS, tol: float = 1e-9) -> Classification:
    """Coarsest lumpable partition by enumeration of all set partitions.

    Asserts that the partition with the minimal block count is unique.
    """
    for m in range(1, pts.n + 1):
        found = [
            c for c in enumerate_classifications(pts.n, m) if is_lumpable(pts, c, tol)[0]
        ]
        if found:
            assert len(found) == 1, f"coarsest lumpable partition not unique at m={m}"
            return found[0]
    raise AssertionError("discrete partition must always be lumpable")


def naive_coarsest(pts: LabelledPTS, tol: float = 1e-9) -> Classification:
    """Coarsest partition by dense signature refinement, one round at a time.

    Each round splits every block by the vector of (per-action enabledness,
    per-action mass into each current block); tolerance grouping is
    leader-first after sorting the signatures.
    """
    blocks: list[list[int]] = [list(range(pts.n))]
    mats = dense(pts)
    while True:
        k = np.zeros((pts.n, len(blocks)))
        for j, b in enumerate(blocks):
            k[b, j] = 1.0
        sig_parts = []
        for a in pts.actions:
            m = mats[a]
            enabled = (m.sum(axis=1) > 0.5).astype(float)
            sig_parts.append(enabled[:, None])
            sig_parts.append(m @ k)
        sig = np.hstack(sig_parts)

        new_blocks: list[list[int]] = []
        for b in blocks:
            ordered = sorted(b, key=lambda s: tuple(sig[s]))
            groups: list[list[int]] = []
            for s in ordered:
                if groups and np.all(np.abs(sig[s] - sig[groups[-1][0]]) <= tol):
                    groups[-1].append(s)
                else:
                    groups.append([s])
            new_blocks.extend(groups)
        if len(new_blocks) == len(blocks):
            block_of = [0] * pts.n
            for j, b in enumerate(new_blocks):
                for s in b:
                    block_of[s] = j
            return canonical(block_of)
        blocks = new_blocks


def loop_coarsest(pts: LabelledPTS, tol: float = DEFAULT_TOL) -> Classification:
    """Splitter-driven refinement with stable argsorts, a Python loop over
    every reached (state, column) pair, and a closing pass over all blocks."""
    ref = _LoopRefinement(pts, tol)
    while True:
        while ref.queue:
            batch, ref.queue = ref.queue, []
            ref.split_by(batch)
        if not ref.split_by(list(range(len(ref.members)))):
            break
    # number the blocks in order of their first state
    number: dict[int, int] = {}
    assign = tuple(number.setdefault(b, len(number)) for b in ref.block_of.tolist())
    return Classification(assign, len(number))


class _LoopRefinement:
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
        order = np.argsort(pts.dst, kind="stable")
        self.row, self.prob = pts.row[order], pts.prob[order]
        self.ptr = np.concatenate(([0], np.cumsum(np.bincount(pts.dst, minlength=n))))
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
        key, mass = sum_by_key(self.row[e] * k + splitter, self.prob[e])
        row = key // k
        src = row % self.n
        blk = self.block_of[src]
        present = (np.abs(mass) > self.absent) & (self.size[blk] > 1)
        if not present.any():
            return False
        src, mass = src[present], mass[present]
        seg = (blk[present] * self.n_actions + row[present] // self.n) * k + key[present] % k
        order = np.lexsort((mass, seg))

        # Within a segment sorted by mass, a group starts at a leader and
        # holds the masses at most tol above it.  A reached state's
        # signature is its list of groups in segment order; group numbers
        # are unique, so states with equal signatures are in the same block.
        sig: dict[int, list[int]] = {}
        g, last, lead = -1, -1, 0.0
        for s, sg, x in zip(src[order].tolist(), seg[order].tolist(), mass[order].tolist()):
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


def as_set(values: np.ndarray) -> set:
    """A relation's or a structure's array as a Python set, for the oracles.

    ``Relation.pairs`` and ``KripkeStructure.edges`` give int pairs and
    ``KripkeStructure.marked`` gives ints.  Tests read the arrays only
    through here, because the arrays are not containers of pairs:
    ``(x, y) in pairs`` compares elementwise and is true whenever x is
    some first element or y some second one.
    """
    return set(map(tuple, values.tolist())) if values.ndim == 2 else set(values.tolist())


def brute_largest_simulation(c: KripkeStructure, a: KripkeStructure) -> Relation:
    """Union of every relation accepted by is_simulation (exhaustive)."""
    pairs = [(i, j) for i in range(c.n) for j in range(a.n)]
    union: set[tuple[int, int]] = set()
    for bits in range(1 << len(pairs)):
        rel = Relation(frozenset(p for k, p in enumerate(pairs) if bits & (1 << k)))
        if is_simulation(c, a, rel)[0]:
            union |= as_set(rel.pairs)
    return Relation(frozenset(union))


def brute_canonical_classifications(n: int, m: int) -> set[tuple[int, ...]]:
    """All surjective assignments, deduplicated by first-occurrence relabeling."""
    out = set()
    for assign in itertools.product(range(m), repeat=n):
        if len(set(assign)) == m:
            out.add(canonical(assign).assign)
    return out


def random_kripke(rng: random.Random, n: int, edge_prob: float) -> KripkeStructure:
    edges = frozenset(
        (i, j) for i in range(n) for j in range(n) if rng.random() < edge_prob
    )
    marked = frozenset(s for s in range(n) if rng.random() < 0.3)
    return KripkeStructure(n, edges, marked)


_MULTS = {
    1: [[3], [4], [2], [5]],
    2: [[2, 2], [2, 3], [1, 3], [3, 2]],
    3: [[2, 2, 1], [1, 2, 2], [2, 1, 1], [1, 1, 2]],
}


def planted_pair(i: int) -> tuple[LabelledPTS, LabelledPTS, Classification]:
    """Bisimilar-by-construction pair number ``i``: (lift, quotient, ground truth)."""
    mq = 1 + (i % 3)
    mult = _MULTS[mq][(i // 3) % 4]
    q = gen_random_pts(mq, ACTIONS, 0.8, 1000 + i)
    lift, cls = gen_planted(q, mult, 2000 + i)
    return lift, q, cls


def tolerance_chain(masses) -> LabelledPTS:
    """States that go by ``a`` to T with the given masses and to U with the
    rest, followed by T, which loops on ``b``, and U, which loops on ``c``.
    Masses a fraction of the tolerance apart make lumpings that group
    states the coarsest partition keeps apart."""
    n = len(masses) + 2
    t, u = n - 2, n - 1
    trans = {x: np.zeros((n, n)) for x in "abc"}
    for s, p in enumerate(masses):
        trans["a"][s, t], trans["a"][s, u] = p, 1.0 - p
    trans["b"][t, t] = trans["c"][u, u] = 1.0
    return LabelledPTS(n, ("a", "b", "c"), trans)


def tolerance_spread(devs) -> LabelledPTS:
    """States that go by ``a`` to T1, T2, U1 and U2 with 1/4 each, shifted
    by ``dev`` into both T and by ``-dev`` into both U; the T loop on ``b``,
    the U on ``c``.  Deviations under the tolerance per class add up to
    more than it into the block {T1, T2}."""
    k = len(devs)
    n = k + 4
    trans = {x: np.zeros((n, n)) for x in "abc"}
    for s, d in enumerate(devs):
        trans["a"][s, k:] = [0.25 + d, 0.25 + d, 0.25 - d, 0.25 - d]
    trans["b"][[k, k + 1], [k, k + 1]] = 1.0
    trans["c"][[k + 2, k + 3], [k + 2, k + 3]] = 1.0
    return LabelledPTS(n, ("a", "b", "c"), trans)


def perturbed_pair(i: int) -> tuple[LabelledPTS, LabelledPTS, float]:
    """Pair number ``i``: (base, behaviour-changing perturbed copy, delta).

    A random perturbation can land inside a bisimulation class and leave
    behaviour unchanged; such degenerate draws are skipped deterministically
    so the corpus consists of genuinely separated pairs.
    """
    from pbisim import are_bisimilar, coarsest_bisimulation

    n = 4 + (i % 3)
    delta = [0.001, 0.01, 0.05][i % 3]
    for base_attempt in range(16):
        base = gen_random_pts(n, ACTIONS, 0.7, 3000 + i + 500 * base_attempt)
        if coarsest_bisimulation(base).m < 2:
            continue  # all states equivalent: no mass move can separate them
        for attempt in range(16):
            pert = perturb(base, delta, 4000 + i + 1000 * attempt)
            if not are_bisimilar(base, pert)[0]:
                return base, pert, delta
    raise AssertionError(f"no behaviour-changing perturbation found for pair {i}")


def random_pair(i: int) -> tuple[LabelledPTS, LabelledPTS]:
    n = 4 + (i % 3)
    return (
        gen_random_pts(n, ACTIONS, 0.7, 5000 + i),
        gen_random_pts(n, ACTIONS, 0.7, 6000 + i),
    )


def acceptance_corpus():
    """The 50-pair corpus: 25 planted, 13 perturbed, 12 random pairs."""
    pairs = []
    for i in range(25):
        lift, q, _ = planted_pair(i)
        pairs.append((f"planted{i}", lift, q, "planted", None))
    for i in range(13):
        base, pert, delta = perturbed_pair(i)
        pairs.append((f"perturbed{i}", base, pert, "perturbed", delta))
    for i in range(12):
        p1, p2 = random_pair(i)
        pairs.append((f"random{i}", p1, p2, "random", None))
    return pairs


# --- dense oracles -----------------------------------------------------------


def _naive_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _naive_parse_prob(token: str, lineno: int) -> float:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return float(num) / float(den)
        return float(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad probability {token!r}", lineno) from None


def naive_parse_pts(text: str, tol: float = DEFAULT_TOL) -> tuple[LabelledPTS, tuple[str, ...]]:
    """Line-at-a-time parse into dense n x n matrices, then dense validation."""
    names: list[str] | None = None
    actions: list[str] | None = None
    triples: list[tuple[int, str, int, float, int]] = []
    index: dict[str, int] = {}
    seen: set[tuple[int, str, int]] = set()

    for lineno, line in _naive_lines(text):
        if line.startswith("states:"):
            if names is not None:
                raise ParseError("duplicate states: line", lineno)
            names = line[len("states:") :].split()
            if not names:
                raise ParseError("states: line declares no states", lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate state name", lineno)
            index = {s: i for i, s in enumerate(names)}
        elif line.startswith("actions:"):
            if actions is not None:
                raise ParseError("duplicate actions: line", lineno)
            actions = line[len("actions:") :].split()
            if len(set(actions)) != len(actions):
                raise ParseError("duplicate action label", lineno)
        else:
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(
                    f"expected 'src action dst prob', got {len(parts)} tokens", lineno
                )
            src, act, dst, prob = parts
            if names is None or src not in index:
                raise UnknownNameError(src, lineno)
            if actions is None or act not in actions:
                raise UnknownNameError(act, lineno)
            if dst not in index:
                raise UnknownNameError(dst, lineno)
            key = (index[src], act, index[dst])
            if key in seen:
                raise ParseError(f"duplicate transition {src} {act} {dst}", lineno)
            seen.add(key)
            triples.append((index[src], act, index[dst], _naive_parse_prob(prob, lineno), lineno))

    if names is None:
        raise ParseError("missing states: line", 1)
    if actions is None:
        raise ParseError("missing actions: line", 1)

    n = len(names)
    trans = {a: np.zeros((n, n)) for a in actions}
    for s, a, t, p, _ in triples:
        trans[a][s, t] = p
    pts = LabelledPTS(n, tuple(actions), trans)
    naive_validate_pts(pts, tol)
    return pts, tuple(names)


def naive_validate_pts(pts: LabelledPTS, tol: float = DEFAULT_TOL) -> None:
    """Row-by-row check of the dense matrices."""
    if pts.n < 1:
        raise ValidationError("state count must be >= 1")
    if not pts.actions:
        raise EmptyActionSetError()
    mats = dense(pts)
    for a in pts.actions:
        m = mats[a]
        if not np.all(np.isfinite(m)):
            raise ValidationError(f"non-finite entry in action {a!r}")
        for s in range(pts.n):
            row = m[s]
            bad = np.nonzero(row < -tol)[0]
            if bad.size:
                raise NegativeEntryError(s, a, float(row[bad[0]]))
            total = float(row.sum())
            if abs(total) > tol and abs(total - 1.0) > tol:
                raise RowSumError(s, a, total)


def naive_disjoint_union(p1: LabelledPTS, p2: LabelledPTS) -> tuple[LabelledPTS, int]:
    """Block-diagonal union built as dense n x n matrices."""
    actions = list(p1.actions) + [a for a in p2.actions if a not in p1.actions]
    n = p1.n + p2.n
    trans = {}
    for a in actions:
        m = np.zeros((n, n))
        if a in p1.actions:
            m[: p1.n, : p1.n] = dense(p1)[a]
        if a in p2.actions:
            m[p1.n :, p1.n :] = dense(p2)[a]
        trans[a] = m
    return LabelledPTS(n, tuple(actions), trans), p1.n


def _naive_blocks_of(c: Classification) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(c.m)]
    for s, v in enumerate(c.assign):
        out[v].append(s)
    return out


def naive_is_lumpable(
    pts: LabelledPTS, c: Classification, tol: float = DEFAULT_TOL
) -> tuple[bool, LumpabilityViolation | None]:
    """Lumpability from the dense per-state masses ``M K``."""
    if c.n != pts.n:
        raise DimensionMismatchError(
            f"classification covers {c.n} states, system has {pts.n}"
        )
    k = classification_matrix(c)
    blocks = [sorted(b) for b in _naive_blocks_of(c)]
    mats = dense(pts)
    for a in pts.actions:
        m = mats[a]
        masses = m @ k  # per-state mass into each class
        on = m.sum(axis=1) > 0.5
        for block in blocks:
            lead = block[0]
            for s in block[1:]:
                if on[s] != on[lead]:
                    return False, LumpabilityViolation(
                        a, lead, s, None,
                        f"enabled({lead})={bool(on[lead])}, enabled({s})={bool(on[s])}",
                    )
                diff = np.abs(masses[s] - masses[lead])
                bad = np.nonzero(diff > tol)[0]
                if bad.size:
                    j = int(bad[0])
                    return False, LumpabilityViolation(
                        a, lead, s, j,
                        f"{float(masses[lead][j])!r} vs {float(masses[s][j])!r}",
                    )
    return True, None


def naive_quotient(pts: LabelledPTS, c: Classification, tol: float = DEFAULT_TOL) -> LabelledPTS:
    """Dense ``K+ M K`` of every action, after the dense lumpability check."""
    ok, violation = naive_is_lumpable(pts, c, tol)
    if not ok:
        raise NotLumpableError(violation)
    k = classification_matrix(c)
    trans = {a: lump(m, k) for a, m in dense(pts).items()}
    return LabelledPTS(c.m, pts.actions, trans)


def naive_gen_random_pts(n, actions, density, seed) -> LabelledPTS:
    """``gen_random_pts`` writing every row of an n x n matrix."""
    if n < 1:
        raise ValidationError("need n >= 1")
    if not 0.0 < density <= 1.0:
        raise ValidationError("density must be in (0, 1]")
    rng = random.Random(seed)
    trans = {}
    for a in actions:
        m = np.zeros((n, n))
        for s in range(n):
            if rng.random() < density:
                m[s] = np.array(_dyadic_weights(rng, n)) / _DENOM
        trans[a] = m
    return LabelledPTS(n, tuple(actions), trans)


def naive_gen_planted(quotient, multiplicities, seed) -> tuple[LabelledPTS, Classification]:
    """``gen_planted`` reading dense quotient rows into dense lifted matrices."""
    if len(multiplicities) != quotient.n:
        raise ValidationError(
            f"{len(multiplicities)} multiplicities for {quotient.n} quotient states"
        )
    if any(k < 1 for k in multiplicities):
        raise ValidationError("multiplicities must be >= 1")
    rng = random.Random(seed)
    offsets = [0]
    for k in multiplicities:
        offsets.append(offsets[-1] + k)
    n = offsets[-1]
    assign = tuple(j for j in range(quotient.n) for _ in range(multiplicities[j]))

    trans = {}
    for a in quotient.actions:
        q = dense(quotient)[a]
        m = np.zeros((n, n))
        for u in range(n):
            j = assign[u]
            if q[j].sum() <= 0.5:
                continue
            for t in range(quotient.n):
                if q[j, t] == 0.0:
                    continue
                weights = _dyadic_weights(rng, multiplicities[t])
                for k, w in enumerate(weights):
                    m[u, offsets[t] + k] = q[j, t] * (w / _DENOM)
        trans[a] = m
    lift = LabelledPTS(n, quotient.actions, trans)
    return lift, Classification(assign, quotient.n)


def naive_perturb(pts, delta, seed) -> LabelledPTS:
    """``perturb`` moving mass inside copies of the dense matrices."""
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    rng = random.Random(seed)
    trans = {}
    for a in pts.actions:
        m = dense(pts)[a].copy()
        for s in range(pts.n):
            row = m[s]
            if row.sum() <= 0.5 or pts.n < 2:
                continue
            positive = [t for t in range(pts.n) if row[t] > 0.0]
            donor = positive[rng.randrange(len(positive))]
            recip = rng.randrange(pts.n - 1)
            if recip >= donor:
                recip += 1
            t_amount = min(delta, float(row[donor]))
            t_amount = math.floor(t_amount * _PERTURB_GRID) / _PERTURB_GRID
            if t_amount > 0.0:
                row[donor] -= t_amount
                row[recip] += t_amount
        trans[a] = m
    return LabelledPTS(pts.n, pts.actions, trans)


def _naive_lumped_family(pts, c, actions):
    k = classification_matrix(c)
    d = dense(pts)
    return np.stack([lump(d.get(a, np.zeros((pts.n, pts.n))), k) for a in actions])


def _naive_family_distance(f1, f2, norm_kind, agg):
    per_action = [matrix_norm(f1[i] - f2[i], norm_kind) for i in range(f1.shape[0])]
    if agg == "max":
        return max(per_action)
    if agg == "sum":
        return float(sum(per_action))
    raise ValueError(f"unknown action aggregation {agg!r}; expected 'max' or 'sum'")


def naive_better(cand, best) -> bool:
    # Order: smaller epsilon, then smaller class count, then lexicographically
    # smaller (k1 assign, k2 assign).
    if best is None:
        return True
    ce, cm, ck1, ck2 = cand
    be, bm, bk1, bk2 = best
    if ce != be:
        return ce < be
    if cm != bm:
        return cm < bm
    return (ck1, ck2) < (bk1, bk2)


def naive_scan_pairs(args):
    """Best candidate over one chunk of canonical left classifications."""
    p1, p2, actions, m, k1s, k2cans, norm_kind, tol, agg = args
    fams2 = [(c, _naive_lumped_family(p2, c, actions)) for c in k2cans]
    perms = list(itertools.permutations(range(m)))
    invs = [np.argsort(np.array(s)) for s in perms]
    best = None
    for c1 in k1s:
        f1 = _naive_lumped_family(p1, c1, actions)
        for c2, f2 in fams2:
            for sigma, inv in zip(perms, invs):
                g = f2[:, inv][:, :, inv]
                d = _naive_family_distance(f1, g, norm_kind, agg)
                cand = (d, m, c1.assign, tuple(sigma[v] for v in c2.assign))
                if naive_better(cand, best):
                    best = cand
    return best


def naive_exact_best(p1, p2, norm_kind="op-inf", tol=DEFAULT_TOL):
    """Exhaustive epsilon as one ``naive_scan_pairs`` task per class count,
    reduced with ``naive_better``: the best ``(epsilon, m, k1, k2)`` or None."""
    actions = tuple(p1.actions) + tuple(a for a in p2.actions if a not in p1.actions)
    best = None
    for m in range(1, min(p1.n, p2.n) + 1):
        k1s = [c for c in enumerate_classifications(p1.n, m) if is_lumpable(p1, c, tol)[0]]
        k2cans = [c for c in enumerate_classifications(p2.n, m) if is_lumpable(p2, c, tol)[0]]
        if k1s and k2cans:
            r = naive_scan_pairs((p1, p2, actions, m, k1s, k2cans, norm_kind, tol, "max"))
            if r is not None and naive_better(r, best):
                best = r
    return best


# --- simulation and Galois side: the per-element loops the array code replaced


def naive_successors(k: KripkeStructure, s: int) -> tuple[int, ...]:
    """Successors of ``s`` by a scan of the whole edge set."""
    return tuple(sorted(b for a, b in as_set(k.edges) if a == s))


def naive_is_simulation(
    c: KripkeStructure, a: KripkeStructure, r: Relation
) -> tuple[bool, tuple[int, int, int] | None]:
    """Step-matching check pair by pair, in sorted order."""
    pairs = as_set(r.pairs)
    for cs, as_ in sorted(pairs):
        for ct in naive_successors(c, cs):
            if not any((ct, at) in pairs for at in naive_successors(a, as_)):
                return False, (cs, as_, ct)
    return True, None


def naive_largest_simulation(c: KripkeStructure, a: KripkeStructure) -> Relation:
    """Greatest fixpoint by sweeping all pairs, deleting violations, until stable."""
    pairs = set((i, j) for i in range(c.n) for j in range(a.n))
    changed = True
    while changed:
        changed = False
        for cs, as_ in sorted(pairs):
            ok = all(
                any((ct, at) in pairs for at in naive_successors(a, as_))
                for ct in naive_successors(c, cs)
            )
            if not ok:
                pairs.discard((cs, as_))
                changed = True
    return Relation(frozenset(pairs))


def naive_lattice_tables(size: int, leq) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(join table, meet table, top, bottom) of the order generated by ``leq``.

    Raises the same errors, with the same messages, as ``FiniteLattice``.
    """
    if size < 1:
        raise NotALatticeError("carrier must be non-empty")
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

    def bound(i: int, j: int, upper: bool) -> int:
        if upper:
            cands = [u for u in range(size) if mat[i, u] and mat[j, u]]
            least = [u for u in cands if all(mat[u, v] for v in cands)]
        else:
            cands = [u for u in range(size) if mat[u, i] and mat[u, j]]
            least = [u for u in cands if all(mat[v, u] for v in cands)]
        if len(least) != 1:
            kind = "join" if upper else "meet"
            raise NotALatticeError(f"elements {i} and {j} have no {kind}")
        return least[0]

    join_table = np.zeros((size, size), dtype=int)
    meet_table = np.zeros((size, size), dtype=int)
    for i in range(size):
        for j in range(size):
            join_table[i, j] = bound(i, j, upper=True)
            meet_table[i, j] = bound(i, j, upper=False)

    def fold(table: np.ndarray) -> int:
        acc = 0
        for i in range(1, size):
            acc = int(table[acc, i])
        return acc

    return join_table, meet_table, fold(join_table), fold(meet_table)


def naive_alpha_join_table(g: GaloisSpec) -> list[int]:
    """Abstraction of every subset, one bitmask at a time by its lowest state."""
    size = 1 << g.concrete_n
    table = [g.lattice.bottom] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        table[mask] = g.lattice.join(table[mask & (mask - 1)], g.alpha_singleton[low])
    return table


def _naive_derived_gamma(g: GaloisSpec, table) -> list[int]:
    out = []
    for e in range(g.lattice.size):
        mask = 0
        for c in range(g.concrete_n):
            if g.lattice.leq(table[1 << c], e):
                mask |= 1 << c
        out.append(mask)
    return out


def naive_check_galois(g: GaloisSpec, alpha_table=None) -> tuple[bool, GaloisViolation | None]:
    """Adjunction conditions checked subset by subset and element by element."""
    size = 1 << g.concrete_n
    if alpha_table is None:
        table = naive_alpha_join_table(g)
    else:
        table = list(alpha_table)
        if len(table) != size:
            raise ValidationError(f"alpha table has {len(table)} entries, expected {size}")
        for e in table:
            if not 0 <= e < g.lattice.size:
                raise ValidationError(f"alpha table entry {e} is not a lattice element")

    for mask in range(size):
        for c in range(g.concrete_n):
            if mask & (1 << c):
                continue
            if not g.lattice.leq(table[mask], table[mask | (1 << c)]):
                return False, GaloisViolation("alpha-monotone", (mask, mask | (1 << c)))

    gamma = _naive_derived_gamma(g, table)
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


def naive_induced_relation(g: GaloisSpec, element_filter=None):
    """Pairs (subset bitmask, element) with alpha(S) below the element, in loop order."""
    table = naive_alpha_join_table(g)
    elems = sorted(element_filter) if element_filter is not None else range(g.lattice.size)
    return [
        (mask, e)
        for mask in range(1 << g.concrete_n)
        for e in elems
        if g.lattice.leq(table[mask], e)
    ]


def naive_check_abstraction_basis(
    c: KripkeStructure,
    a: KripkeStructure,
    g: GaloisSpec,
    state_of_element=None,
) -> tuple[bool, tuple[int, int] | None]:
    """Strongest-post basis check subset by subset, element by element."""
    if state_of_element is None:
        if a.n != g.lattice.size:
            raise ValidationError(
                f"abstract structure has {a.n} states but the lattice has "
                f"{g.lattice.size} elements; provide state_of_element"
            )
        state_of_element = list(range(g.lattice.size))
    table = naive_alpha_join_table(g)
    post_of_state = [0] * g.concrete_n
    for x, y in as_set(c.edges):
        post_of_state[x] |= 1 << y
    a_edges = as_set(a.edges)

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
                if (state_of_element[e], state_of_element[elem]) in a_edges
            )
            if not matched:
                return False, (mask, e)
    return True, None
