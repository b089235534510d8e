"""Shared corpus builders and brute-force oracles for the test suite.

Oracles here are deliberately independent of the implementation paths they
check: the coarsest-partition oracle enumerates every set partition, the
simulation oracle enumerates every relation, and classification counting
enumerates raw assignments.  ``naive_coarsest`` is the dense round-based
signature refinement the library used before its splitter-driven one.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from pbisim import (
    Classification,
    KripkeStructure,
    LabelledPTS,
    Partition,
    Relation,
    classification_to_partition,
    enumerate_classifications,
    is_lumpable,
    is_simulation,
)
from pbisim.generators import gen_planted, gen_random_pts, perturb

ACTIONS = ["a", "b"]


def brute_coarsest(pts: LabelledPTS, tol: float = 1e-9) -> Partition:
    """Coarsest lumpable partition by enumeration of all set partitions.

    Asserts that the partition with the minimal block count is unique.
    """
    for m in range(1, pts.n + 1):
        found = [
            c for c in enumerate_classifications(pts.n, m) if is_lumpable(pts, c, tol)[0]
        ]
        if found:
            assert len(found) == 1, f"coarsest lumpable partition not unique at m={m}"
            return classification_to_partition(found[0])
    raise AssertionError("discrete partition must always be lumpable")


def naive_coarsest(pts: LabelledPTS, tol: float = 1e-9) -> Partition:
    """Coarsest partition by dense signature refinement, one round at a time.

    Each round splits every block by the vector of (per-action enabledness,
    per-action mass into each current block); tolerance grouping is
    leader-first after sorting the signatures.
    """
    blocks: list[list[int]] = [list(range(pts.n))]
    while True:
        k = np.zeros((pts.n, len(blocks)))
        for j, b in enumerate(blocks):
            k[b, j] = 1.0
        sig_parts = []
        for a in pts.actions:
            m = pts.trans[a]
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
            return Partition(pts.n, tuple(frozenset(b) for b in new_blocks))
        blocks = new_blocks


def brute_largest_simulation(c: KripkeStructure, a: KripkeStructure) -> Relation:
    """Union of every relation accepted by is_simulation (exhaustive)."""
    pairs = [(i, j) for i in range(c.n) for j in range(a.n)]
    union: set[tuple[int, int]] = set()
    for bits in range(1 << len(pairs)):
        rel = Relation(frozenset(p for k, p in enumerate(pairs) if bits & (1 << k)))
        if is_simulation(c, a, rel)[0]:
            union |= rel.pairs
    return Relation(frozenset(union))


def brute_canonical_classifications(n: int, m: int) -> set[tuple[int, ...]]:
    """All surjective assignments, deduplicated by first-occurrence relabeling."""
    out = set()
    for assign in itertools.product(range(m), repeat=n):
        if len(set(assign)) != m:
            continue
        relabel: dict[int, int] = {}
        canon = []
        for v in assign:
            if v not in relabel:
                relabel[v] = len(relabel)
            canon.append(relabel[v])
        out.add(tuple(canon))
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
