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

from .core import Classification, LabelledPTS
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


def _row_starts(pts: LabelledPTS) -> list[int]:
    """Where each row of ``pts``'s edge table starts, and the table's end."""
    return np.searchsorted(pts.row, np.arange(len(pts.actions) * pts.n + 1)).tolist()


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
    row, dst, prob = [], [], []
    for r in range(len(actions) * n):
        if rng.random() < density:
            row += [r] * n
            dst += range(n)
            prob += [w / _DENOM for w in _dyadic_weights(rng, n)]
    return LabelledPTS.from_edges(n, actions, row, dst, prob)


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

    on = quotient.enabled_rows().reshape(-1).tolist()
    starts, targets, probs = _row_starts(quotient), quotient.dst.tolist(), quotient.prob.tolist()
    row, dst, prob = [], [], []
    for i in range(len(quotient.actions)):
        for u, j in enumerate(assign):
            r = i * quotient.n + j
            if not on[r]:
                continue
            for t, p in zip(targets[starts[r] : starts[r + 1]], probs[starts[r] : starts[r + 1]]):
                for k, w in enumerate(_dyadic_weights(rng, multiplicities[t])):
                    row.append(i * n + u)
                    dst.append(offsets[t] + k)
                    prob.append(p * (w / _DENOM))
    lift = LabelledPTS.from_edges(n, quotient.actions, row, dst, prob)
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
    on = pts.enabled_rows().reshape(-1).tolist()
    starts, targets, probs = _row_starts(pts), pts.dst.tolist(), pts.prob.tolist()
    row, dst, prob = [], [], []
    for r in range(len(on)):
        out = dict(zip(targets[starts[r] : starts[r + 1]], probs[starts[r] : starts[r + 1]]))
        if on[r] and pts.n >= 2:
            positive = [t for t, p in out.items() if p > 0.0]
            donor = positive[rng.randrange(len(positive))]
            recip = rng.randrange(pts.n - 1)
            if recip >= donor:
                recip += 1
            t_amount = min(delta, out[donor])
            t_amount = math.floor(t_amount * _PERTURB_GRID) / _PERTURB_GRID
            if t_amount > 0.0:
                out[donor] -= t_amount
                out[recip] = out.get(recip, 0.0) + t_amount
        for t in sorted(out):
            row.append(r)
            dst.append(t)
            prob.append(out[t])
    return LabelledPTS.from_edges(pts.n, pts.actions, row, dst, prob)
