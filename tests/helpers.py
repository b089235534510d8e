"""Shared corpus builders and brute-force oracles for the test suite.

Oracles here are deliberately independent of the implementation paths they
check: the coarsest-partition oracle enumerates every set partition, the
simulation oracle enumerates every relation, and classification counting
enumerates raw assignments.  ``naive_coarsest`` is the dense round-based
signature refinement the library used before its splitter-driven one, and
the other ``naive_*`` functions are the dense n x n implementations of
parsing, validation, union, lumpability and quotienting that the edge-array
ones replaced.
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
from pbisim.core import DEFAULT_TOL
from pbisim.errors import (
    DimensionMismatchError,
    EmptyActionSetError,
    NegativeEntryError,
    NotLumpableError,
    ParseError,
    RowSumError,
    UnknownNameError,
    ValidationError,
)
from pbisim.matrices import LumpabilityViolation, classification_matrix, lump
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
    for a in pts.actions:
        m = pts.trans[a]
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
        if a in p1.trans:
            m[: p1.n, : p1.n] = p1.trans[a]
        if a in p2.trans:
            m[p1.n :, p1.n :] = p2.trans[a]
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
    for a in pts.actions:
        m = pts.trans[a]
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
                        f"{masses[lead][j]!r} vs {masses[s][j]!r}",
                    )
    return True, None


def naive_quotient(pts: LabelledPTS, c: Classification, tol: float = DEFAULT_TOL) -> LabelledPTS:
    """Dense ``K+ M K`` of every action, after the dense lumpability check."""
    ok, violation = naive_is_lumpable(pts, c, tol)
    if not ok:
        raise NotLumpableError(violation)
    k = classification_matrix(c)
    trans = {a: lump(pts.trans[a], k) for a in pts.actions}
    return LabelledPTS(c.m, pts.actions, trans)
