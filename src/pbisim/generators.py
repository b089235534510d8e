"""Seeded generators for test corpora.

All randomness is drawn from ``random.Random(seed)`` in a fixed order, so
every generator is reproducible.  Probabilities are dyadic rationals
(denominator 1024 for fresh rows, 2**20 after lifting or perturbing),
which keeps row sums exactly representable in binary floating point and
makes tolerance-based refinement robust in tests.  Systems are built as
edge arrays, so memory follows the number of transitions.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from .core import Classification, Edges, LabelledPTS, edges_from_sorted
from .errors import ValidationError

_DENOM = 1 << 10
_PERTURB_GRID = 1 << 20


def _dyadic_weights(rng: random.Random, parts: int) -> list[int]:
    """Integers summing to the dyadic denominator, one per part."""
    if parts == 1:
        return [_DENOM]
    cuts = sorted(rng.randrange(_DENOM + 1) for _ in range(parts - 1))
    bounds = [0] + cuts + [_DENOM]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _edges(n: int, src: list[int], dst: list[int], prob: list[float]) -> Edges:
    """CSR arrays of edge lists already sorted by (source, target)."""
    return edges_from_sorted(
        n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(prob, dtype=float)
    )


def gen_random_pts(
    n: int, actions: Sequence[str], density: float, seed: int
) -> LabelledPTS:
    """Random reactive system with dyadic transition probabilities.

    Each (state, action) pair is enabled independently with probability
    ``density``; enabled rows are random distributions with denominator
    1024, so they sum to exactly 1.0.
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    if not 0.0 < density <= 1.0:
        raise ValidationError("density must be in (0, 1]")
    rng = random.Random(seed)
    edges = {}
    for a in actions:
        src, dst, prob = [], [], []
        for s in range(n):
            if rng.random() < density:
                src += [s] * n
                dst += range(n)
                prob += [w / _DENOM for w in _dyadic_weights(rng, n)]
        edges[a] = _edges(n, src, dst, prob)
    return LabelledPTS.from_edges(n, actions, edges)


def gen_planted(
    quotient: LabelledPTS, multiplicities: Sequence[int], seed: int
) -> tuple[LabelledPTS, Classification]:
    """Lift a quotient to a larger system with a known lumpable classification.

    Quotient state j becomes ``multiplicities[j]`` lifted states.  Every
    lifted state reproduces its quotient row at block granularity: the mass
    it sends into a target block equals the quotient entry exactly, split
    across the block's members by seeded dyadic weights.  Lumping the
    result through the returned classification recovers the quotient.
    """
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

    on = quotient.enabled_rows()
    edges = {}
    for i, a in enumerate(quotient.actions):
        e = quotient.edges[a]
        indptr, targets, probs = e.indptr.tolist(), e.dst.tolist(), e.prob.tolist()
        src, dst, prob = [], [], []
        for u, j in enumerate(assign):
            if not on[i, j]:
                continue
            for t, p in zip(targets[indptr[j] : indptr[j + 1]], probs[indptr[j] : indptr[j + 1]]):
                for k, w in enumerate(_dyadic_weights(rng, multiplicities[t])):
                    src.append(u)
                    dst.append(offsets[t] + k)
                    prob.append(p * (w / _DENOM))
        edges[a] = _edges(n, src, dst, prob)
    lift = LabelledPTS.from_edges(n, quotient.actions, edges)
    return lift, Classification(assign, quotient.n)


def perturb(pts: LabelledPTS, delta: float, seed: int) -> LabelledPTS:
    """Move at most ``delta`` mass inside every enabled row.

    Each enabled row donates ``min(delta, donor mass)`` from one random
    positive entry to another random entry, quantised to a grid of 2**-20
    so that dyadic rows stay exactly stochastic.  ``delta`` = 0 (or a
    single-state system) returns the input unchanged.
    """
    if not delta >= 0:
        raise ValidationError("delta must be >= 0")
    rng = random.Random(seed)
    on = pts.enabled_rows()
    edges = {}
    for i, a in enumerate(pts.actions):
        e = pts.edges[a]
        indptr, targets, probs = e.indptr.tolist(), e.dst.tolist(), e.prob.tolist()
        src, dst, prob = [], [], []
        for s in range(pts.n):
            row = dict(zip(targets[indptr[s] : indptr[s + 1]], probs[indptr[s] : indptr[s + 1]]))
            if on[i, s] and pts.n >= 2:
                positive = [t for t, p in row.items() if p > 0.0]
                donor = positive[rng.randrange(len(positive))]
                recip = rng.randrange(pts.n - 1)
                if recip >= donor:
                    recip += 1
                t_amount = min(delta, row[donor])
                t_amount = math.floor(t_amount * _PERTURB_GRID) / _PERTURB_GRID
                if t_amount > 0.0:
                    row[donor] -= t_amount
                    row[recip] = row.get(recip, 0.0) + t_amount
            for t in sorted(row):
                src.append(s)
                dst.append(t)
                prob.append(row[t])
        edges[a] = _edges(pts.n, src, dst, prob)
    return LabelledPTS.from_edges(pts.n, pts.actions, edges)
