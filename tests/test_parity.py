"""Edge-array parsing, validation, union, lumpability and quotienting
against the dense n x n implementations they replaced.

The systems are the dyadic and non-dyadic corpora of ``test_refinement``,
each also with its states randomly permuted.  Dyadic masses are exact, so
violations and quotients must agree bit for bit.  Non-dyadic masses may
round differently, because the edge arrays are summed in ascending target
and state order and the dense products in the BLAS kernel's order; there
the violations must name the same action, states and class, and the masses
they print and the quotient entries must agree to a few ulps.
"""

import random
import re

import numpy as np
import pytest

from pbisim import (
    Classification,
    LabelledPTS,
    are_bisimilar,
    coarsest_bisimulation,
    disjoint_union,
    is_lumpable,
    partition_to_classification,
    quotient,
    validate_pts,
)
from pbisim.errors import NotLumpableError, PbisimError, RowSumError
from pbisim import matrices
from pbisim.formats import parse_pts, print_pts
from pbisim.matrices import classification_matrix, lump

from helpers import (
    naive_disjoint_union,
    naive_is_lumpable,
    naive_parse_pts,
    naive_quotient,
    naive_validate_pts,
)
from test_refinement import dyadic_corpus, fraction_corpus, permuted

# Masses and quotient entries here are sums of at most a dozen terms; taken
# in two orders they differ by a few ulps (at most 2 were seen).
NON_DYADIC_ULPS = 4


def with_permutations(systems, seed):
    rng = random.Random(seed)
    out = []
    for pts in systems:
        out.append(pts)
        out.append(permuted(pts, rng)[0])
    return out


DYADIC = dyadic_corpus()  # already holds a permuted copy of each system
FRACTION = with_permutations(fraction_corpus(), 31)


def classifications(pts, rng):
    """Lumpable and non-lumpable classifications of ``pts``."""
    coarsest = partition_to_classification(coarsest_bisimulation(pts))
    out = [coarsest, Classification((0,) * pts.n, 1)]
    if coarsest.m >= 2:
        # merge two coarsest classes: usually a mass violation
        i, j = sorted(rng.sample(range(coarsest.m), 2))
        merged = [i if v == j else v - (v > j) for v in coarsest.assign]
        out.append(Classification(tuple(merged), coarsest.m - 1))
    for _ in range(3):
        m = rng.randint(1, pts.n)
        assign = list(range(m)) + [rng.randrange(m) for _ in range(pts.n - m)]
        rng.shuffle(assign)
        out.append(Classification(tuple(assign), m))
    return out


def ulps(x, y) -> float:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    scale = np.spacing(np.maximum(np.abs(x), np.abs(y)))
    return float((np.abs(x - y) / scale).max(initial=0.0))


def masses_of(reason: str) -> list[float]:
    return [float(v) for v in re.findall(r"np\.float64\(([^)]*)\)", reason)]


@pytest.mark.parametrize("corpus", ["dyadic", "fraction"])
def test_parse_print_and_validate_match_dense(corpus):
    systems = DYADIC if corpus == "dyadic" else FRACTION
    for pts in systems:
        text = print_pts(pts)
        fast, names = parse_pts(text)
        slow, slow_names = naive_parse_pts(text)
        assert fast == slow == pts and names == slow_names
        for a in pts.actions:
            assert np.array_equal(fast.trans[a], slow.trans[a])
        validate_pts(pts)
        naive_validate_pts(pts)


@pytest.mark.parametrize("corpus", ["dyadic", "fraction"])
def test_disjoint_union_matches_dense(corpus):
    systems = DYADIC if corpus == "dyadic" else FRACTION
    for p1, p2 in zip(systems, systems[1:] + systems[:1]):
        fast, off = disjoint_union(p1, p2)
        slow, slow_off = naive_disjoint_union(p1, p2)
        assert fast == slow and off == slow_off
        assert fast.actions == slow.actions


@pytest.mark.parametrize("table", ["dense", "sparse"])
@pytest.mark.parametrize("corpus", ["dyadic", "fraction"])
def test_lumpability_and_quotient_match_dense(corpus, table, monkeypatch):
    if table == "sparse":
        # these systems are small enough for the dense mass table
        monkeypatch.setattr(matrices, "DENSE_MASSES", 0)
    systems = DYADIC if corpus == "dyadic" else FRACTION
    rng = random.Random(17)
    worst = 0.0
    seen = {True: 0, False: 0}
    for pts in systems:
        for c in classifications(pts, rng):
            result = is_lumpable(pts, c)
            expected = naive_is_lumpable(pts, c)
            if corpus == "dyadic" or result == expected:
                assert result == expected, (pts, c)
            else:
                got, want = result[1], expected[1]
                assert (got.action, got.state_a, got.state_b, got.target_block) == (
                    want.action, want.state_a, want.state_b, want.target_block)
                worst = max(worst, ulps(masses_of(got.reason), masses_of(want.reason)))
            seen[result[0]] += 1
            if not result[0]:
                with pytest.raises(NotLumpableError) as exc:
                    quotient(pts, c)
                assert exc.value.violation == result[1]
                continue
            fast, slow = quotient(pts, c), naive_quotient(pts, c)
            if corpus == "dyadic":
                assert fast == slow
            else:
                assert fast.n == slow.n and fast.actions == slow.actions
                for a in pts.actions:
                    assert np.array_equal(fast.trans[a] != 0, slow.trans[a] != 0)
                    worst = max(worst, ulps(fast.trans[a], slow.trans[a]))
    assert seen[True] and seen[False]
    assert worst <= NON_DYADIC_ULPS


@pytest.mark.parametrize("limit", [matrices.DENSE_MASSES, 0])
def test_violation_found_only_by_a_missing_class(limit, monkeypatch):
    # state 1 matches its lead on class 0 but has no mass into class 1
    # (rows need not be distributions here); both stay enabled
    monkeypatch.setattr(matrices, "DENSE_MASSES", limit)
    pts = LabelledPTS(3, ("a",), {"a": [[0.6, 0.0, 0.4], [0.6, 0.0, 0.0], [0.0, 0.0, 0.0]]})
    c = Classification((0, 0, 1), 2)
    result = is_lumpable(pts, c)
    assert result == naive_is_lumpable(pts, c)
    assert (result[1].state_b, result[1].target_block) == (1, 1)


def test_row_sum_at_the_bound_is_the_dense_row_sum():
    # a row whose total in target order lies within tol of 1 while the
    # dense row's pairwise sum lies beyond it
    rng = random.Random(5)
    for _ in range(1000):
        row = [rng.randint(1, 1000) for _ in range(40)]
        row = [v / sum(row) for v in row]
        seq = 0.0
        for v in row:
            seq += v
        if abs(float(np.array(row).sum()) - 1.0) > abs(seq - 1.0):
            break
    else:
        raise AssertionError("no row with differing sums found")
    text = (
        "states: " + " ".join(f"s{i}" for i in range(40)) + "\nactions: a\n"
        + "".join(f"s0 a s{t} {v!r}\n" for t, v in enumerate(row))
    )
    tol = abs(seq - 1.0)
    expected = outcome(naive_parse_pts, text, tol)
    assert expected is not None and expected[0] is RowSumError
    assert outcome(parse_pts, text, tol) == expected


def test_bisimilarity_witness_matches_dense_lumping():
    rng = random.Random(3)
    for pts in DYADIC[::3]:
        other, _ = permuted(pts, rng)
        ok, witness = are_bisimilar(pts, other)
        assert ok
        union, _ = naive_disjoint_union(pts, other)
        part = coarsest_bisimulation(union)
        k = classification_matrix(partition_to_classification(part))
        dense = LabelledPTS(part.m, union.actions, {a: lump(union.trans[a], k) for a in union.actions})
        assert witness.quotient == dense


HEAD = "states: s0 s1\nactions: a b\n"
OK_ROWS = "s0 a s1 1\ns1 a s0 1\n"

MALFORMED = [
    # lexical and structural errors
    HEAD + "s0 a s1 one\n",
    HEAD + "s0 a s1 1/0\n",
    HEAD + "s0 a s1 1/2/3\n",
    HEAD + "s0 a s1 /2\n",
    HEAD + "s0 a s1 0x1\n",
    HEAD + "s0 a s1\n",
    HEAD + "s0 a s1 1 extra\n",
    HEAD + "s0 c s1 1\n",
    HEAD + "s9 a s1 1\n",
    HEAD + "s0 a s9 1\n",
    HEAD + "s9 c s9 bad\n",
    "s0 a s1 1\n" + HEAD,
    "states: s0 s1\ns0 a s1 1\nactions: a\n",
    "actions: a\ns0 a s0 1\nstates: s0\n",
    "states: s0\n",
    "actions: a\n",
    "",
    "# only a comment\n\n",
    "states:\nactions: a\n",
    "states: s0 s0\nactions: a\n",
    "states: s0\nactions: a a\n",
    "states: s0\nstates: s1\nactions: a\n",
    "states: s0\nactions: a\nactions: b\n",
    "states: s0\nactions:\n",
    HEAD + "states: s2 s3 s4\n",
    HEAD + OK_ROWS + "actions:c d e\n",
    # duplicates, also of zero entries, and which line wins
    HEAD + "s0 a s1 0.5\ns0 a s1 0.5\n",
    HEAD + "s0 a s1 0\ns0 a s1 0\n" + OK_ROWS,
    HEAD + "s0 a s1 1\ns1 a s0 1\ns0 a s1 x\n",
    HEAD + "s0 a s1 x\ns0 a s1 1\n",
    HEAD + "s0 a s1 1\ns0 a s1 y\n",
    HEAD + "s0 a s1 1\ns9 a s1 1\nstates: s2\n",
    HEAD + "s0 a s1 1\nstates: s2\ns9 a s1 1\n",
    HEAD + "s0 a s1 1\nbroken line\ns0 a s1 1\n",
    HEAD + "s1 b s1 1\ns0 a s1 one\ns0 a s9 1\n",
    # non-finite, negative and bad row sums (found after parsing)
    HEAD + "s0 a s1 inf\n",
    HEAD + "s0 a s1 nan\n",
    HEAD + "s0 a s1 -inf\ns0 b s1 nan\n",
    HEAD + "s0 a s1 0/0\n",
    HEAD + "s0 a s0 1.5\ns0 a s1 -0.5\n",
    HEAD + "s0 a s0 -0.25\ns0 a s1 1.25\ns1 a s1 0.5\n",
    HEAD + "s0 a s1 0.5\n",
    HEAD + "s0 a s1 1\ns1 a s0 0.9\n",
    HEAD + "s0 b s1 1\ns1 b s0 1\ns0 a s1 0.3\ns1 a s0 2\n",
    HEAD + "s1 a s0 0.1\ns1 a s1 0.2\n",
    HEAD + "s0 a s1 1e-10\n",
    HEAD + "s0 a s1 2e-9\n",
    HEAD + "s0 a s0 0.1\ns0 a s1 0.2\n" + "s1 a s0 0.7\ns1 a s1 0.2\n",
    HEAD + "s0 a s1 1.0000000015\n",
    HEAD + "s0 a s1 -2e-9\ns0 a s0 1\n",
    HEAD + "s0 a s1 1\ns1 a s0 1\ns1 a s1 -5e-10\n",
]

# rows near the tolerance bounds, summed over many targets
WIDE = "states: " + " ".join(f"s{i}" for i in range(40)) + "\nactions: a\n"
for total in (1 + 1.5e-9, 1 - 1.2e-9, 1 + 0.9e-9, 3e-9, 0.7e-9):
    MALFORMED.append(WIDE + "".join(f"s0 a s{t} {total / 37!r}\n" for t in range(37)))


def outcome(parse, text, tol):
    try:
        parse(text, tol)
    except PbisimError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return None


@pytest.mark.parametrize("tol", [1e-9, 0.0, 0.1])
def test_malformed_files_fail_as_the_dense_parser_does(tol):
    assert len(MALFORMED) >= 30
    failures = 0
    for text in MALFORMED:
        expected = outcome(naive_parse_pts, text, tol)
        assert outcome(parse_pts, text, tol) == expected, text
        failures += expected is not None
    assert failures >= 30
