"""Array code of ``pbisim.galois`` against the per-element loops it replaced.

Every corpus is seeded.  Results, witnesses and error messages must be
identical to the ``naive_*`` oracles in ``helpers.py``.
"""

import json
import random
import signal
import time

import pytest

from pbisim import cli, galois
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

from helpers import (
    as_set,
    naive_alpha_join_table,
    naive_check_abstraction_basis,
    naive_check_galois,
    naive_is_simulation,
    naive_lattice_tables,
    naive_largest_simulation,
    naive_successors,
    random_kripke,
)


def kripke_pairs(seed: int, count: int):
    """Random pairs with 1-30 states, mostly small, sparse enough for dead ends."""
    rng = random.Random(seed)
    for i in range(count):
        top = 30 if i % 4 == 0 else 12
        nc, na = rng.randint(1, top), rng.randint(1, top)
        p = rng.choice([0.05, 0.1, 0.2, 0.35])
        yield rng, random_kripke(rng, nc, p), random_kripke(rng, na, rng.choice([p, 0.1, 0.3]))


def random_order(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Generating pairs of a random order: often a lattice, sometimes not.

    Kinds: a random DAG between a forced bottom and top (lattice or not),
    the same without bottom or top (missing meets or joins), a DAG with a
    back edge (a cycle, so antisymmetry fails), and arbitrary pairs.
    """
    size = rng.randint(1, 9)
    kind = rng.randrange(4)
    if kind == 3:
        return size, [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, 2 * size))]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.3]
    if kind == 0 or (kind == 1 and rng.random() < 0.5):
        pairs += [(0, j) for j in range(size)]
    if kind == 0 or (kind == 1 and rng.random() < 0.5):
        pairs += [(i, size - 1) for i in range(size)]
    if kind == 2 and pairs:
        x, y = rng.choice(pairs)
        pairs.append((y, x) if x != y else (size - 1, 0))
    rng.shuffle(pairs)
    return size, pairs


def lattices(seed: int, count: int) -> list[FiniteLattice]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        size, pairs = random_order(rng)
        try:
            out.append(FiniteLattice(size, pairs))
        except NotALatticeError:
            pass
    return out


def spec(rng: random.Random, lat: FiniteLattice, n: int) -> GaloisSpec:
    return GaloisSpec(n, lat, tuple(rng.randrange(lat.size) for _ in range(n)))


# --- simulation -------------------------------------------------------------


def test_successors_match_an_edge_scan():
    for rng, c, a in kripke_pairs(11, 40):
        for k in (c, a):
            for s in range(-1, k.n + 1):
                assert k.successors(s) == naive_successors(k, s)


def test_largest_simulation_matches_the_sweep():
    dead_end_pairs = 0
    for _, c, a in kripke_pairs(1, 300):
        got = largest_simulation(c, a)
        assert got == naive_largest_simulation(c, a), (c, a)
        dead_end_pairs += any(not a.successors(s) for s in range(a.n))
    assert dead_end_pairs > 100


def check_is_simulation(seed: int, count: int) -> int:
    """Compare with the oracle on the largest simulation of each pair, on
    it with pairs removed or one added, and on a random relation; returns
    how many relations are no simulation."""
    failing = 0
    for rng, c, a in kripke_pairs(seed, count):
        largest = as_set(naive_largest_simulation(c, a).pairs)
        outside = sorted(
            (i, j) for i in range(c.n) for j in range(a.n) if (i, j) not in largest
        )
        q = rng.random()
        rels = [
            largest,
            frozenset(p for p in largest if rng.random() < 0.9),
            frozenset((i, j) for i in range(c.n) for j in range(a.n) if rng.random() < q),
        ]
        if outside:
            rels.append(largest | {rng.choice(outside)})
        for pairs in rels:
            r = Relation(pairs)
            want = naive_is_simulation(c, a, r)
            assert is_simulation(c, a, r) == want, (c, a, r)
            failing += not want[0]
    return failing


def test_is_simulation_matches_on_random_and_near_relations():
    assert check_is_simulation(2, 300) > 200


@pytest.mark.parametrize("steps", [1, 5, 64])
def test_is_simulation_in_small_chunks_gives_the_same_witness(steps, monkeypatch):
    # chunks of about this many steps, each side: the answered keys join
    # from many runs, and the witness lies in a later chunk
    monkeypatch.setattr(galois, "_STEPS", steps)
    assert check_is_simulation(4, 60) > 40


# --- lattices ---------------------------------------------------------------


def test_lattice_tables_and_errors_match():
    rng = random.Random(3)
    outcomes = {"lattice": 0, "antisymmetry": 0, "join": 0, "meet": 0}
    for _ in range(1500):
        size, pairs = random_order(rng)
        try:
            want = naive_lattice_tables(size, pairs)
        except NotALatticeError as err:
            with pytest.raises(NotALatticeError) as got:
                FiniteLattice(size, pairs)
            assert str(got.value) == str(err)
            outcomes["antisymmetry" if "antisymmetry" in str(err) else str(err).split()[-1]] += 1
            continue
        lat = FiniteLattice(size, pairs)
        join, meet, top, bottom = want
        assert (lat.join_table == join).all() and (lat.meet_table == meet).all()
        assert (lat.top, lat.bottom) == (top, bottom)
        outcomes["lattice"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_lattice_range_errors_match():
    for size, pairs in ((3, [(0, 3)]), (2, [(0, 1), (-1, 0)]), (0, [])):
        with pytest.raises((NotALatticeError, ValidationError)) as want:
            naive_lattice_tables(size, pairs)
        with pytest.raises(type(want.value)) as got:
            FiniteLattice(size, pairs)
        assert str(got.value) == str(want.value)


# --- Galois connections -----------------------------------------------------


def test_explicit_alpha_tables_give_the_same_violation():
    rng = random.Random(5)
    kinds = set()
    for lat in lattices(5, 300):
        g = spec(rng, lat, rng.randint(1, 5))
        table = naive_alpha_join_table(g)
        for _ in range(rng.randint(0, 3)):
            table[rng.randrange(len(table))] = rng.randrange(lat.size)
        want = naive_check_galois(g, table)
        assert check_galois(g, table) == want, (g, table)
        kinds.add(want[1].kind if want[1] else None)
    # gamma is derived from a transitive order, and a monotone table puts
    # each singleton's image below every superset's: once alpha-monotone
    # holds, gamma-monotone and gamma-alpha cannot fail
    assert kinds == {None, "alpha-monotone", "alpha-gamma"}, kinds


def test_explicit_alpha_table_errors_match():
    g = GaloisSpec(2, FiniteLattice(2, [(0, 1)]), (1, 1))
    for table in ([0, 1, 1], [0, 1, 1, 2], [0, -1, 1, 1]):
        with pytest.raises(ValidationError) as want:
            naive_check_galois(g, table)
        with pytest.raises(ValidationError) as got:
            check_galois(g, table)
        assert str(got.value) == str(want.value)


def basis_cases(seed: int, count: int, lo: int, hi: int):
    """Specs of ``lo..hi`` concrete states with random structures on both sides."""
    rng = random.Random(seed)
    for lat in lattices(seed, count):
        n = rng.randint(lo, hi)
        g = spec(rng, lat, n)
        c = random_kripke(rng, n, rng.choice([0.1, 0.3, 0.5]))
        na = lat.size + rng.randint(0, 3)
        p = rng.choice([0.2, 0.5, 0.9])
        a = KripkeStructure(
            na,
            frozenset((x, y) for x in range(na) for y in range(na) if rng.random() < p),
            frozenset(),
        )
        yield c, a, g, [rng.randrange(na) for _ in range(lat.size)]


def test_abstraction_basis_matches():
    verdicts = {True: 0, False: 0}
    for c, a, g, soe in basis_cases(6, 300, 1, 6):
        assert check_galois(g) == naive_check_galois(g) == (True, None)
        want = naive_check_abstraction_basis(c, a, g, soe)
        assert check_abstraction_basis(c, a, g, soe) == want, (c, a, g, soe)
        verdicts[want[0]] += 1
        if a.n == g.lattice.size:
            assert check_abstraction_basis(c, a, g) == naive_check_abstraction_basis(c, a, g)
    assert min(verdicts.values()) >= 20, verdicts


def test_abstraction_basis_matches_on_larger_powersets():
    # 128 to 4,096 subsets per spec: the witness is the smallest violating
    # subset over all of them, not only the ones a few states can form
    verdicts = {True: 0, False: 0}
    for c, a, g, soe in basis_cases(19, 200, 7, 12):
        want = naive_check_abstraction_basis(c, a, g, soe)
        assert check_abstraction_basis(c, a, g, soe) == want, (c, a, g, soe)
        verdicts[want[0]] += 1
    assert min(verdicts.values()) >= 20, verdicts


# --- scale: relative timings against the oracles, in one process -------------


class _Overran(Exception):
    pass


def outlasts(fn, seconds: float) -> bool:
    """Whether ``fn()`` is still running after ``seconds``; it is then interrupted."""

    def stop(signum, frame):
        raise _Overran

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        fn()
    except _Overran:
        return True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return False


def best_of(count: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(count):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def chain(n: int) -> KripkeStructure:
    return KripkeStructure(n, frozenset((i, i + 1) for i in range(n - 1)), frozenset())


def test_chain_lattice_outpaces_the_pairwise_bounds():
    pairs = [(i, i + 1) for i in range(63)]
    t0 = time.perf_counter()
    join, meet, top, bottom = naive_lattice_tables(64, pairs)
    naive_s = time.perf_counter() - t0
    fast_s = best_of(3, FiniteLattice, 64, pairs)
    lat = FiniteLattice(64, pairs)
    assert (lat.join_table == join).all() and (lat.meet_table == meet).all()
    assert (lat.top, lat.bottom) == (top, bottom) == (63, 0)
    assert naive_s >= 10 * fast_s, (naive_s, fast_s)


def test_chain_simulation_outpaces_the_sweep():
    # the sweep removes one diagonal of pairs per pass over all n^2 pairs
    c, a = chain(300), chain(299)
    fast_s = best_of(3, largest_simulation, c, a)
    got = largest_simulation(c, a)
    assert as_set(got.pairs) == {(i, j) for i in range(300) for j in range(299) if j < i}
    assert outlasts(lambda: naive_largest_simulation(c, a), 10 * fast_s), fast_s


def test_sparse_thousand_state_simulation_is_quick():
    rng = random.Random(1000)
    c, a = random_kripke(rng, 1000, 3 / 1000), random_kripke(rng, 1000, 3 / 1000)
    t0 = time.perf_counter()
    rel = largest_simulation(c, a)
    assert is_simulation(c, a, rel) == (True, None)
    assert time.perf_counter() - t0 < 10
    assert 0 < len(rel.pairs) < 1000 * 1000


def powerset_basis_check(tmp_path, capsys, n: int, holds: bool = True):
    """``galois-check --against`` of n concrete states against the 64-element
    powerset lattice of 6 bits: (exit code, JSON result, seconds in main)."""
    rng = random.Random(16)
    names = [f"e{x}" for x in range(64)]
    spec_lines = ["abstract: " + " ".join(names)]
    spec_lines += [f"leq: e{x} <= e{x | 1 << i}" for x in range(64) for i in range(6) if not x >> i & 1]
    # images low in the lattice leave many elements above each subset's
    # image, and every one of those (subset, element) pairs is checked
    spec_lines += [f"alpha: g{c} e{1 << (c % 2)}" for c in range(n)]
    conc = ["states: " + " ".join(f"g{c}" for c in range(n))]
    conc += [f"g{x} -> g{y}" for x in range(n) for y in range(n) if rng.random() < 0.2]
    abstract = ["states: " + " ".join(names)]
    # every element steps to top, which covers every post; without top's
    # own edges the subsets below top have no matched step
    abstract += [f"e{x} -> e{y}" for x in range(64) for y in (63, rng.randrange(64)) if holds or x != 63]
    files = []
    for name, lines in (("g.galois", spec_lines), ("c.kripke", conc), ("a.kripke", abstract)):
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        files.append(str(tmp_path / name))
    t0 = time.perf_counter()
    code = cli.main(["galois-check", files[0], "--against", files[1], files[2], "--json"])
    took = time.perf_counter() - t0
    return code, json.loads(capsys.readouterr().out)["result"], took


def test_sixteen_state_powerset_basis_check_is_quick(tmp_path, capsys):
    code, result, took = powerset_basis_check(tmp_path, capsys, 16)
    assert (code, result["galois"], result["basis"]) == (0, True, True)
    assert took < 5, took


@pytest.mark.parametrize("holds", [True, False])
def test_sixty_four_state_powerset_basis_check_is_quick(tmp_path, capsys, holds):
    code, result, took = powerset_basis_check(tmp_path, capsys, 64, holds)
    assert (code, result["galois"], result["basis"]) == (0 if holds else 1, True, holds)
    assert (result["basis_counterexample"] is None) == holds
    assert took < 5, took


def test_basis_witness_beyond_sixty_three_states_is_exact(tmp_path, capsys):
    # only g65 and g69 step, and nothing answers: the smallest violating
    # subset is {g65}, bitmask 2^65, below top
    (tmp_path / "g.galois").write_text(
        "abstract: bot top\nleq: bot <= top\n" + "".join(f"alpha: g{c} top\n" for c in range(70)))
    (tmp_path / "c.kripke").write_text(
        "states: " + " ".join(f"g{c}" for c in range(70)) + "\ng65 -> g0\ng69 -> g1\n")
    (tmp_path / "a.kripke").write_text("states: bot top\n")
    files = [str(tmp_path / name) for name in ("g.galois", "c.kripke", "a.kripke")]
    code = cli.main(["galois-check", files[0], "--against", files[1], files[2], "--json"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert (code, result["basis"], result["basis_counterexample"]) == (1, False, [["g65"], "top"])
