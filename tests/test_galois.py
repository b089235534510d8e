import itertools
import random

import numpy as np
import pytest

from pbisim import (
    FiniteLattice,
    GaloisSpec,
    KripkeStructure,
    Relation,
    check_abstraction_basis,
    check_galois,
    is_simulation,
    largest_simulation,
)
from pbisim.errors import NotALatticeError, ValidationError
from pbisim.galois import _sorted_rows, full_relation

from helpers import (
    as_set,
    brute_largest_simulation,
    naive_alpha_join_table,
    naive_induced_relation,
    random_kripke,
)


def powerset_lattice(n: int) -> FiniteLattice:
    """Lattice of all subsets of an n-set, elements indexed by bitmask."""
    size = 1 << n
    pairs = [(x, y) for x in range(size) for y in range(size) if x & ~y == 0]
    return FiniteLattice(size, pairs)


def diamond() -> FiniteLattice:
    # 0 = bottom, 1 and 2 incomparable, 3 = top
    return FiniteLattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


# --- simulation checking ---------------------------------------------------


def test_identity_relation_simulates_itself():
    c = KripkeStructure(3, frozenset({(0, 1), (1, 2), (2, 0)}), frozenset({0}))
    ident = Relation(frozenset((s, s) for s in range(3)))
    assert is_simulation(c, c, ident) == (True, None)


def test_empty_relation_is_a_simulation():
    c = KripkeStructure(2, frozenset({(0, 1)}), frozenset())
    a = KripkeStructure(1, frozenset(), frozenset())
    assert is_simulation(c, a, Relation(frozenset())) == (True, None)


def test_counterexample_is_reported():
    c = KripkeStructure(2, frozenset({(0, 1)}), frozenset())
    a = KripkeStructure(1, frozenset(), frozenset())
    ok, cex = is_simulation(c, a, Relation(frozenset({(0, 0)})))
    assert not ok
    assert cex == (0, 0, 1)


def test_counterexample_is_lexicographically_smallest():
    c = KripkeStructure(2, frozenset({(0, 1), (1, 0)}), frozenset())
    a = KripkeStructure(2, frozenset(), frozenset())
    ok, cex = is_simulation(c, a, full_relation(c, a))
    assert not ok
    assert cex == (0, 0, 1)


@pytest.mark.parametrize(
    "pairs, named",
    [({(0, 7)}, "(0, 7)"), ({(5, 0)}, "(5, 0)"), ({(-1, 0)}, "(-1, 0)"),
     ({(0, 0), (2, 2), (1, 2)}, "(1, 2)")],
)
def test_relation_pairs_out_of_range_are_rejected(pairs, named):
    # a.n == 2, c.n == 2: the smallest out-of-range pair is named
    c = KripkeStructure(2, frozenset({(0, 1)}), frozenset())
    a = KripkeStructure(2, frozenset({(0, 1)}), frozenset())
    with pytest.raises(ValidationError) as err:
        is_simulation(c, a, Relation(frozenset(pairs)))
    assert str(err.value) == f"relation pair {named} out of range"


@pytest.mark.parametrize(
    "edges, marked, message",
    [({(0, 5), (3, 0), (2, 2)}, (), "edge (0, 5) out of range"),
     ({(1, 0), (0, -1), (1, 9)}, (), "edge (0, -1) out of range"),
     ((), {4, -2, 7}, "marked state -2 out of range")],
)
def test_structure_names_its_smallest_out_of_range_edge_or_state(edges, marked, message):
    with pytest.raises(ValidationError) as err:
        KripkeStructure(2, frozenset(edges), frozenset(marked))
    assert str(err.value) == message


def test_sorted_edges_keep_the_out_of_range_message():
    for edges in (np.array([[0, -1], [0, 1], [1, 9]]), np.array([[1, 9], [0, 1], [0, -1]])):
        with pytest.raises(ValidationError) as err:
            KripkeStructure(2, edges, ())
        assert str(err.value) == "edge (0, -1) out of range"
        assert edges.flags.writeable


@pytest.mark.parametrize("width", [1, 2])
def test_rows_in_any_order_give_the_same_read_only_array(width):
    rng = np.random.default_rng(width)
    rows = np.unique(rng.integers(-3, 1500, size=(3000, width)), axis=0)  # sorted and distinct
    assert len(rows) > 1024  # past the prefix that is tested first
    shuffled = rows[rng.permutation(len(rows))]
    duplicated = np.concatenate((shuffled, shuffled[::3], rows[:1]))
    late = np.concatenate((rows, rows[:3]))  # a sorted prefix, then rows out of order
    for given in (rows, rows.ravel(), shuffled, duplicated, late, shuffled.tolist()):
        got = _sorted_rows(given, width)
        assert got.dtype == np.int64 and np.array_equal(got, rows)
        assert not got.flags.writeable and not np.shares_memory(got, rows)
        if isinstance(given, np.ndarray):
            assert given.flags.writeable
    for given in (rows[:1], rows[:0], ()):
        assert np.array_equal(_sorted_rows(given, width), rows[: len(given)])


def test_largest_single_state_no_edges():
    one = KripkeStructure(1, frozenset(), frozenset())
    assert as_set(largest_simulation(one, one).pairs) == {(0, 0)}


def test_largest_with_edgeless_concrete_is_full():
    c = KripkeStructure(3, frozenset(), frozenset())
    a = KripkeStructure(2, frozenset({(0, 1)}), frozenset())
    assert largest_simulation(c, a) == full_relation(c, a)


def test_largest_matches_exhaustive_union_small():
    c = KripkeStructure(2, frozenset({(0, 1)}), frozenset())
    a = KripkeStructure(2, frozenset({(0, 1), (1, 1)}), frozenset())
    got = largest_simulation(c, a)
    assert got == brute_largest_simulation(c, a)
    assert {(1, 0), (1, 1), (0, 0), (0, 1)} >= as_set(got.pairs)
    assert is_simulation(c, a, got)[0]


def test_largest_matches_exhaustive_union_random():
    rng = random.Random(2024)
    for _ in range(12):
        nc = rng.randint(1, 3)
        na = rng.randint(1, 9 // nc)
        c = random_kripke(rng, nc, 0.4)
        a = random_kripke(rng, na, 0.4)
        got = largest_simulation(c, a)
        assert is_simulation(c, a, got)[0]
        assert got == brute_largest_simulation(c, a) and not got.pairs.flags.writeable


def test_simulations_closed_under_union():
    rng = random.Random(55)
    found = 0
    while found < 10:
        c = random_kripke(rng, 3, 0.3)
        a = random_kripke(rng, 3, 0.5)
        pairs = [(i, j) for i in range(3) for j in range(3)]
        rels = []
        for _ in range(20):
            r = Relation(frozenset(p for p in pairs if rng.random() < 0.4))
            if is_simulation(c, a, r)[0]:
                rels.append(r)
        for r1, r2 in itertools.combinations(rels[:4], 2):
            union = Relation(as_set(r1.pairs) | as_set(r2.pairs))
            assert is_simulation(c, a, union)[0]
            found += 1


# --- finite lattices ---------------------------------------------------------


def test_two_point_lattice():
    lat = FiniteLattice(2, [(0, 1)])
    assert lat.bottom == 0 and lat.top == 1
    assert lat.join(0, 1) == 1 and lat.meet(0, 1) == 0


def test_antichain_without_top_rejected():
    with pytest.raises(NotALatticeError):
        FiniteLattice(2, [])  # two incomparable elements have no join


def test_order_cycle_rejected():
    with pytest.raises(NotALatticeError):
        FiniteLattice(2, [(0, 1), (1, 0)])  # antisymmetry fails after closure


def test_missing_join_rejected():
    # two incomparable elements below two incomparable upper bounds:
    # upper bounds exist but no least one
    with pytest.raises(NotALatticeError):
        FiniteLattice(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def test_powerset_lattice_join_is_union():
    lat = powerset_lattice(3)
    assert lat.join(0b011, 0b101) == 0b111
    assert lat.meet(0b011, 0b101) == 0b001
    assert lat.bottom == 0 and lat.top == 0b111


# --- Galois connections ------------------------------------------------------


def test_identity_connection_passes():
    n = 3
    lat = powerset_lattice(n)
    g = GaloisSpec(n, lat, tuple(1 << c for c in range(n)))
    ok, violation = check_galois(g)
    assert ok and violation is None
    # the induced relation of the identity connection is subset inclusion
    rel = naive_induced_relation(g)
    assert set(rel) == {(s, e) for s in range(8) for e in range(8) if s & ~e == 0}


def test_two_point_connection_passes():
    lat = FiniteLattice(2, [(0, 1)])
    g = GaloisSpec(2, lat, (1, 1))
    ok, violation = check_galois(g)
    assert ok
    # gamma(top) is everything, gamma(bottom) is empty
    table = naive_alpha_join_table(g)
    assert table[0b00] == 0 and table[0b01] == 1 and table[0b11] == 1
    rel = naive_induced_relation(g)
    assert (0b00, 0) in rel and (0b00, 1) in rel  # empty set below everything
    assert all(e == 1 for (s, e) in rel if s != 0)  # non-empty sets only below top


def test_join_extension_is_monotone():
    for seed in range(5):
        rng = random.Random(seed)
        lat = diamond()
        g = GaloisSpec(3, lat, tuple(rng.randrange(4) for _ in range(3)))
        table = naive_alpha_join_table(g)
        for s in range(8):
            for c in range(3):
                if not s & (1 << c):
                    assert lat.leq(table[s], table[s | (1 << c)])
        assert check_galois(g)[0]


def test_mutated_alpha_table_rejected():
    lat = diamond()
    g = GaloisSpec(2, lat, (1, 2))  # alpha{c0}=left, alpha{c1}=right
    table = naive_alpha_join_table(g)
    assert table[0b11] == 3  # join of the two sides is top
    # hand-built non-monotone table: the union maps below one singleton
    bad = list(table)
    bad[0b11] = 1
    ok, violation = check_galois(g, alpha_table=bad)
    assert not ok
    assert violation.kind == "alpha-monotone"
    assert violation.subject == (0b10, 0b11)


def test_mutated_singleton_breaks_composite_inequality():
    lat = diamond()
    g = GaloisSpec(2, lat, (1, 2))
    bad = list(naive_alpha_join_table(g))
    bad[0b10] = 1  # remap singleton {c1} from right to left
    ok, violation = check_galois(g, alpha_table=bad)
    assert not ok
    # gamma(left) now covers both states, whose tabulated image is top > left
    assert violation.kind == "alpha-gamma"
    assert violation.subject == (1,)


def test_derived_gamma_is_unique_adjoint():
    # enumerate every candidate gamma: exactly one monotone map satisfies
    # both composite inequalities against the join-extended alpha, and it
    # maps e to the union of the subsets the induced relation puts below e
    lat = FiniteLattice(2, [(0, 1)])
    g = GaloisSpec(2, lat, (1, 1))
    table = naive_alpha_join_table(g)
    derived = [0] * lat.size
    for s, e in naive_induced_relation(g):
        derived[e] |= s
    valid = []
    for cand in itertools.product(range(4), repeat=lat.size):
        if any(
            lat.leq(e, f) and cand[e] & ~cand[f]
            for e in range(lat.size)
            for f in range(lat.size)
        ):
            continue
        if any(s & ~cand[table[s]] for s in range(4)):
            continue
        if any(not lat.leq(table[cand[e]], e) for e in range(lat.size)):
            continue
        valid.append(list(cand))
    assert valid == [derived]


def test_induced_relation_monotone_in_the_subset():
    lat = diamond()
    g = GaloisSpec(3, lat, (1, 2, 1))
    table = naive_alpha_join_table(g)
    rel = set(naive_induced_relation(g))
    for s in range(8):
        for sub in range(8):
            if sub & ~s == 0:  # sub is a subset of s
                assert lat.leq(table[sub], table[s])
                for e in range(4):
                    if (s, e) in rel:
                        assert (sub, e) in rel


def test_induced_relation_element_filter():
    lat = FiniteLattice(2, [(0, 1)])
    g = GaloisSpec(2, lat, (1, 1))
    only_top = naive_induced_relation(g, element_filter=[1])
    assert only_top == [(s, 1) for s in range(4)]


def test_carrier_cap():
    lat = FiniteLattice(2, [(0, 1)])
    g = GaloisSpec(5, lat, (1,) * 5)
    # the join extension is a Galois connection by construction: no table
    assert check_galois(g) == (True, None)


# --- abstraction basis -------------------------------------------------------


def test_basis_self_loop_absorbs_everything():
    lat = FiniteLattice(1, [])
    g = GaloisSpec(2, lat, (0, 0))
    c = KripkeStructure(2, frozenset({(0, 1), (1, 0)}), frozenset())
    a = KripkeStructure(1, frozenset({(0, 0)}), frozenset())
    assert check_abstraction_basis(c, a, g) == (True, None)


def test_basis_top_loop_matches_step():
    lat = FiniteLattice(2, [(0, 1)])
    g = GaloisSpec(2, lat, (1, 1))
    c = KripkeStructure(2, frozenset({(0, 1)}), frozenset())
    a = KripkeStructure(2, frozenset({(1, 1)}), frozenset())
    assert check_abstraction_basis(c, a, g) == (True, None)


def test_basis_fails_without_abstract_edges():
    lat = FiniteLattice(2, [(0, 1)])
    g = GaloisSpec(2, lat, (1, 1))
    c = KripkeStructure(2, frozenset({(0, 1)}), frozenset())
    a = KripkeStructure(2, frozenset(), frozenset())
    ok, cex = check_abstraction_basis(c, a, g)
    assert not ok
    assert cex == (0b01, 1)  # subset {c0} below top, no matched step


@pytest.mark.parametrize(
    "state_of_element, message",
    [([0], "has 1 entries, expected 2"), ([0, 2], r"state_of_element\[1\] = 2 is not"),
     ([-1, 0], r"state_of_element\[0\] = -1 is not")],
)
def test_basis_rejects_a_bad_state_of_element(state_of_element, message):
    lat = FiniteLattice(2, [(0, 1)])
    g = GaloisSpec(2, lat, (1, 1))
    c = KripkeStructure(2, frozenset({(0, 1)}), frozenset())
    a = KripkeStructure(2, frozenset({(1, 1)}), frozenset())
    with pytest.raises(ValidationError, match=message):
        check_abstraction_basis(c, a, g, state_of_element)


def test_basis_requires_matching_sizes():
    lat = FiniteLattice(2, [(0, 1)])
    g = GaloisSpec(2, lat, (1, 1))
    c = KripkeStructure(2, frozenset(), frozenset())
    a = KripkeStructure(3, frozenset(), frozenset())
    with pytest.raises(ValidationError):
        check_abstraction_basis(c, a, g)
    a = KripkeStructure(2, frozenset({(1, 1)}), frozenset())
    for n in (1, 3):
        c = KripkeStructure(n, frozenset({(0, n - 1)}), frozenset())
        with pytest.raises(ValidationError, match=f"concrete structure has {n} states but the spec has 2"):
            check_abstraction_basis(c, a, g)
