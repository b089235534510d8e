import math
import random
import time

import numpy as np
import pytest

from pbisim import (
    Classification,
    LabelledPTS,
    are_bisimilar,
    coarsest_bisimulation,
    enumerate_classifications,
    epsilon_bisim_exact,
    epsilon_bisim_search,
    epsilon_distance,
    is_lumpable,
    stirling2,
)
from pbisim.core import DEFAULT_TOL
from pbisim import epsilon, matrices, search
from pbisim.epsilon import lumping_hull, pair_space
from pbisim.errors import (
    BudgetExceededError,
    ClassCountMismatchError,
    InvalidRangeError,
)
from pbisim.generators import gen_planted, gen_random_pts, perturb
from pbisim.matrices import NORM_KINDS

from helpers import (
    brute_canonical_classifications,
    naive_exact_best,
    planted_pair,
    tolerance_chain,
    tolerance_spread,
)


def test_enumerate_single_class():
    got = list(enumerate_classifications(3, 1))
    assert [c.assign for c in got] == [(0, 0, 0)]


def test_enumerate_discrete():
    got = list(enumerate_classifications(3, 3))
    assert [c.assign for c in got] == [(0, 1, 2)]


def test_enumerate_four_states_two_classes():
    # oracle: all 2^4 raw assignments, filtered surjective, deduplicated by
    # first-occurrence relabeling
    expected = brute_canonical_classifications(4, 2)
    got = [c.assign for c in enumerate_classifications(4, 2)]
    assert len(got) == 7
    assert set(got) == expected
    assert got == sorted(got)  # ascending lexicographic order


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_counts_match_stirling(n):
    for m in range(1, n + 1):
        assert sum(1 for _ in enumerate_classifications(n, m)) == stirling2(n, m)
        assert len(brute_canonical_classifications(n, m)) == stirling2(n, m) or n > 6


def test_enumerate_refinements_of_a_partition():
    within = Classification((1, 0, 1, 1, 0), 2)  # {1, 4} and {0, 2, 3}
    for m in range(1, 6):
        got = [c.assign for c in enumerate_classifications(5, m, within)]
        block = within.assign
        expected = sorted(
            a for a in brute_canonical_classifications(5, m)
            if all(block[s] == block[t] for s in range(5) for t in range(5) if a[s] == a[t])
        )
        assert got == expected
    # product of per-block set partitions: Bell(2) * Bell(3)
    assert sum(1 for m in range(1, 6) for _ in enumerate_classifications(5, m, within)) == 2 * 5


def _stirling_reference(n, m):
    if n == 0 or m == 0:
        return int(n == m)
    return m * _stirling_reference(n - 1, m) + _stirling_reference(n - 1, m - 1)


def test_stirling_rows_match_the_recurrence():
    for n in range(12):
        for m in range(-1, n + 2):
            assert stirling2(n, m) == (_stirling_reference(n, m) if m >= 0 else 0)
    for n1 in range(12):
        for n2 in range(12):
            assert pair_space(n1, n2) == sum(
                _stirling_reference(n1, m) * _stirling_reference(n2, m) * math.factorial(m)
                for m in range(1, min(n1, n2) + 1)
            )
    # no recursion: a 600-state count is a number, not a RecursionError
    assert pair_space(600, 600) > 10**1000
    assert stirling2(600, 599) == math.comb(600, 2)


def test_pair_space_builds_only_the_smaller_sides_columns():
    n = 5000
    s2, s3 = 2 ** (n - 1) - 1, (3**n - 3 * 2**n + 3) // 6
    t0 = time.perf_counter()
    space = pair_space(n, 3)  # 2,386 digits: the float bounds leave it open
    assert time.perf_counter() - t0 < 0.5
    # S(3, m) is 1, 3, 1, and each pair of m-class classifications has m! matchings
    assert space == 1 + s2 * 3 * 2 + s3 * 6


def test_pair_space_decides_large_counts_without_stirling_rows(monkeypatch):
    for n1 in range(1, 16):
        for n2 in range(1, 16):
            assert pair_space(n1, n2) == sum(
                stirling2(n1, m) * stirling2(n2, m) * math.factorial(m) for m in range(1, 16)
            )
    assert len(str(pair_space(900, 900))) == 3832  # exact below 4,300 digits
    assert pair_space(994, 994) is None  # 4,304 digits

    def refuse(n):
        raise AssertionError(f"built the Stirling row of {n}")

    monkeypatch.setattr(epsilon, "_stirling_row", refuse)
    assert pair_space(1000, 1000) is None  # 4,334 digits
    assert pair_space(3, 20_000) is None


def test_exact_refuses_large_inputs_from_the_float_bounds(monkeypatch):
    # each count has more than 4,300 digits; exact epsilon refuses it from
    # pair_space's float bounds, building no Stirling row
    def refuse(n, k):
        raise AssertionError(f"built the Stirling row of {n}")

    monkeypatch.setattr(epsilon, "_stirling_row", refuse)
    for n in (1000, 5000):
        p = gen_random_pts(n, ["a"], 1 / n, n)
        with pytest.raises(BudgetExceededError) as exc:
            epsilon_bisim_exact(p, p)
        assert exc.value.count is None and exc.value.budget == 10_000_000
        assert str(exc.value) == (
            "exhaustive search needs more than 10^4300 classification pairs, budget is 10000000"
        )


def test_enumerate_invalid_range():
    with pytest.raises(InvalidRangeError):
        list(enumerate_classifications(3, 4))
    with pytest.raises(InvalidRangeError):
        list(enumerate_classifications(3, 0))


def test_distance_of_system_with_itself():
    pts = gen_random_pts(4, ["a", "b"], 0.8, 1)
    c = Classification((0, 1, 0, 1), 2)
    assert epsilon_distance(pts, pts, c, c) == 0.0


def test_distance_single_class_ignores_wiring():
    p1 = LabelledPTS(2, ("a",), {"a": [[1.0, 0.0], [1.0, 0.0]]})
    p2 = LabelledPTS(2, ("a",), {"a": [[0.0, 1.0], [0.0, 1.0]]})
    one = Classification((0, 0), 1)
    assert epsilon_distance(p1, p2, one, one) == 0.0  # both lump to [[1]]


def test_distance_discrete_classes_see_the_difference():
    p1 = LabelledPTS(2, ("a",), {"a": [[1.0, 0.0], [1.0, 0.0]]})
    p2 = LabelledPTS(2, ("a",), {"a": [[0.0, 1.0], [0.0, 1.0]]})
    disc = Classification((0, 1), 2)
    assert epsilon_distance(p1, p2, disc, disc, "op-inf") == 2.0


def test_distance_class_count_mismatch():
    pts = gen_random_pts(3, ["a"], 1.0, 2)
    with pytest.raises(ClassCountMismatchError):
        epsilon_distance(pts, pts, Classification((0, 0, 0), 1), Classification((0, 1, 2), 3))


def test_exact_self_distance_zero():
    for seed in range(4):
        pts = gen_random_pts(4, ["a", "b"], 0.7, 40 + seed)
        res = epsilon_bisim_exact(pts, pts)
        assert res.epsilon == 0.0
        assert res.optimal and res.method == "exhaustive"


def test_exact_planted_pair_zero():
    for i in range(6):
        lift, q, _ = planted_pair(i)
        res = epsilon_bisim_exact(lift, q)
        assert res.epsilon < 1e-9
        assert are_bisimilar(lift, q)[0]


def test_exact_perturbed_regression():
    q = gen_random_pts(2, ["a", "b"], 0.9, 321)
    lift, _ = gen_planted(q, [2, 2], 654)
    pert = perturb(lift, 0.01, 987)
    res = epsilon_bisim_exact(lift, pert)
    assert res.epsilon <= 2 * 0.01
    # frozen regression baseline for this corpus instance
    assert res.epsilon == pytest.approx(0.019998550415039062, abs=1e-15)
    assert not are_bisimilar(lift, pert)[0]


def test_exact_witness_reproduces_epsilon():
    for i in (0, 3, 7):
        lift, q, _ = planted_pair(i)
        pert = perturb(lift, 0.02, 17 + i)
        res = epsilon_bisim_exact(lift, pert)
        assert epsilon_distance(lift, pert, res.k1, res.k2, res.norm_kind) == res.epsilon


def test_exact_symmetric():
    for i in range(4):
        p1, _, _ = planted_pair(i)
        p2 = perturb(p1, 0.01, 99 + i)
        a = epsilon_bisim_exact(p1, p2)
        b = epsilon_bisim_exact(p2, p1)
        assert a.epsilon == b.epsilon
        assert epsilon_distance(p2, p1, b.k1, b.k2) == pytest.approx(a.epsilon, abs=1e-12)


def test_exact_budget_exceeded():
    p = gen_random_pts(8, ["a"], 1.0, 5)
    with pytest.raises(BudgetExceededError) as exc:
        epsilon_bisim_exact(p, p)
    assert exc.value.count == pair_space(8, 8) == 262_308_819
    assert str(exc.value) == (
        "exhaustive search needs 262308819 classification pairs, budget is 10000000"
    )
    # a count just below 4,300 digits is written out whole
    with pytest.raises(BudgetExceededError) as exc:
        epsilon_bisim_exact(gen_random_pts(993, ["a"], 0.002, 1), gen_random_pts(993, ["a"], 0.002, 2))
    assert exc.value.count == pair_space(993, 993) and len(str(exc.value.count)) == 4299
    assert f"needs {exc.value.count} classification pairs" in str(exc.value)


def test_exact_keeps_lumpings_finer_than_tolerance_groups():
    # s1 and s2 are 0.6 tol apart and form a lumping (lead s1), but the
    # coarsest partition groups each column leader-first within tol: into
    # T it pairs s0 with s1, into U s2 with s1, so all three end apart
    tol = DEFAULT_TOL
    p1 = tolerance_chain([0.5, 0.5 + 0.6 * tol, 0.5 + 1.2 * tol])
    p2 = tolerance_chain([0.5, 0.5 + 0.9 * tol])
    assert coarsest_bisimulation(p1).m == 5
    res = epsilon_bisim_exact(p1, p2)
    assert (repr(res.epsilon), res.m, res.k1.assign, res.k2.assign) == (
        "1.6653345369377348e-16", 4, (0, 1, 1, 2, 3), (0, 1, 2, 3)
    )
    assert naive_exact_best(p1, p2) == (res.epsilon, res.m, res.k1.assign, res.k2.assign)


def test_exact_keeps_lumpings_whose_block_masses_differ_by_more_than_tol():
    # s0 and s1 differ by 0.9 tol into each of T1, T2, U1 and U2, so by
    # 1.8 tol into {T1, T2}; grouping them needs the T and the U apart
    tol = DEFAULT_TOL
    p1, p2 = tolerance_spread([0.0, 0.9 * tol]), tolerance_spread([0.3 * tol])
    res = epsilon_bisim_exact(p1, p2)
    assert (res.epsilon, res.m, res.k1.assign, res.k2.assign) == naive_exact_best(p1, p2)
    assert res.m == 5 and res.k1.assign == (0, 0, 1, 2, 3, 4)
    assert res.epsilon < tol


def test_every_lumping_refines_the_hull():
    tol = DEFAULT_TOL
    systems = [planted_pair(i)[0] for i in range(12)]
    systems += [gen_random_pts(5, ["a", "b"], 0.6, 90 + i) for i in range(6)]
    systems += [
        tolerance_chain([0.5 + k * step * tol for k in range(length)])
        for step in (0.3, 0.6, 0.9, 1.1, 2.5) for length in (2, 3, 4)
    ]
    systems += [tolerance_spread([0.0, 0.9 * tol]), tolerance_spread([0.0, -0.6 * tol, 0.9 * tol])]
    admitted = outside = 0
    for pts in systems:
        # stopping early leaves an earlier round's partition: also a hull
        for hull in (lumping_hull(pts), lumping_hull(pts, limit=1)):
            for m in range(1, pts.n + 1):
                inside = set(enumerate_classifications(pts.n, m, hull))
                for c in enumerate_classifications(pts.n, m):
                    if is_lumpable(pts, c, tol)[0]:
                        assert c in inside
                        admitted += 1
                    else:
                        outside += c not in inside
    assert admitted >= 150 and outside >= 3000


def test_the_class_cap_stops_the_hull_of_a_long_chain():
    # a 600-state chain against one state has one pair to score, but its
    # uncapped hull would take about 600 rounds
    n = 600
    chain = LabelledPTS.from_edges(n, ["a"], np.arange(n - 1), np.arange(1, n), np.ones(n - 1))
    assert lumping_hull(chain, DEFAULT_TOL, 1).m == 2


def test_exact_self_distance_outpaces_the_full_scan():
    q = gen_random_pts(3, ["a", "b"], 0.8, 17)
    lift, _ = gen_planted(q, [3, 3, 2], 18)
    t0 = time.perf_counter()
    slow = naive_exact_best(lift, lift)
    naive_s = time.perf_counter() - t0
    fast_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        res = epsilon_bisim_exact(lift, lift, budget=10**12)
        fast_s = min(fast_s, time.perf_counter() - t0)
    assert (res.epsilon, res.m, res.k1.assign, res.k2.assign) == slow
    assert res.epsilon == 0.0 and res.m == 3
    assert naive_s >= 20 * fast_s, (naive_s, fast_s)


def test_exact_unbounded_when_no_common_class_count():
    # left system admits only the discrete 2-class lumping (enabledness
    # differs); right admits only 1 or 3 classes, so no shared granularity
    p1 = LabelledPTS(2, ("a",), {"a": [[1.0, 0.0], [0.0, 0.0]]})
    p2 = LabelledPTS(
        3,
        ("a",),
        {"a": [[0.0, 0.3, 0.7], [0.1, 0.25, 0.65], [0.2, 0.35, 0.45]]},
    )
    res = epsilon_bisim_exact(p1, p2)
    assert res.epsilon == math.inf
    assert res.k1 is None and res.k2 is None
    found = epsilon_bisim_search(p1, p2, budget=100, seed=0)
    assert found.epsilon >= res.epsilon or found.epsilon == math.inf


def test_exact_norm_kinds_ordered_sensibly():
    p1, _, _ = planted_pair(1)
    p2 = perturb(p1, 0.05, 4)
    ent = epsilon_bisim_exact(p1, p2, norm_kind="entry-max").epsilon
    opi = epsilon_bisim_exact(p1, p2, norm_kind="op-inf").epsilon
    assert 0 < ent <= opi + 1e-15  # entry-max never exceeds the row-sum norm


@pytest.mark.parametrize(
    "kind, eps, m", [("op-inf", 1.0, 1), ("entry-max", 0.2, 5), ("frobenius", 1.0, 1)]
)
def test_exact_ties_between_every_lumping_go_to_fewer_classes(kind, eps, m):
    # five identical states: every classification is a lumping and every
    # relabeling of a pair scores the same, so bounds never beat the best
    u = np.full((5, 5), 1 / 5)
    p1 = LabelledPTS(5, ["a", "b"], {"a": u, "b": u})
    p2 = LabelledPTS(5, ["a"], {"a": u})
    res = epsilon_bisim_exact(p1, p2, norm_kind=kind)
    assert (res.epsilon, res.m) == (eps, m)
    assert res.k1.assign == res.k2.assign == ((0,) * 5 if m == 1 else tuple(range(5)))


def test_search_self_is_zero():
    pts = gen_random_pts(5, ["a", "b"], 0.7, 60)
    res = epsilon_bisim_search(pts, pts, budget=50, seed=1)
    assert res.epsilon == 0.0
    assert not res.optimal and res.method == "local-search"


def test_search_dominates_exact():
    for i in range(6):
        p1 = gen_random_pts(4 + i % 2, ["a", "b"], 0.7, 70 + i)
        p2 = perturb(p1, 0.02, 80 + i)
        exact = epsilon_bisim_exact(p1, p2)
        found = epsilon_bisim_search(p1, p2, budget=300, seed=42)
        assert found.epsilon >= exact.epsilon - 1e-12


def test_search_deterministic():
    p1, q, _ = planted_pair(2)
    a = epsilon_bisim_search(p1, q, budget=250, seed=42)
    b = epsilon_bisim_search(p1, q, budget=250, seed=42)
    assert a == b


def search_pairs():
    """The pairs of the search tests above and below: name, systems,
    budget and seed."""
    for i in range(6):
        p1 = gen_random_pts(4 + i % 2, ["a", "b"], 0.7, 70 + i)
        yield f"dominates-{i}", p1, perturb(p1, 0.02, 80 + i), 300, 42
    p1, _, _ = planted_pair(5)
    yield "witness", p1, perturb(p1, 0.03, 11), 200, 7
    p1 = LabelledPTS(2, ("a",), {"a": [[1.0, 0.0], [0.0, 0.0]]})
    p2 = LabelledPTS(3, ("a",), {"a": [[0.0, 0.3, 0.7], [0.1, 0.25, 0.65], [0.2, 0.35, 0.45]]})
    yield "unbounded", p1, p2, 100, 0
    lift, q, _ = planted_pair(2)
    yield "deterministic", lift, q, 250, 42
    lift, _, _ = planted_pair(5)
    yield "edge-table", lift, perturb(lift, 0.02, 6), 300, 5


# (repr(epsilon), m, k1, k2) of each search pair under each norm
SEARCH_PINS = {
    ("dominates-0", "op-inf"): ('0.03999900817871094', 4, (0, 1, 2, 3), (0, 1, 2, 3)),
    ("dominates-0", "entry-max"): ('0.01999950408935547', 4, (0, 1, 2, 3), (0, 1, 2, 3)),
    ("dominates-0", "frobenius"): ('0.04898858012762645', 4, (0, 1, 2, 3), (0, 1, 2, 3)),
    ("dominates-1", "op-inf"): ('0.03999900817871094', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
    ("dominates-1", "entry-max"): ('0.01999950408935547', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
    ("dominates-1", "frobenius"): ('0.056567139847805356', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
    ("dominates-2", "op-inf"): ('0.03999900817871094', 4, (0, 1, 2, 3), (0, 1, 2, 3)),
    ("dominates-2", "entry-max"): ('0.01999950408935547', 4, (0, 1, 2, 3), (0, 1, 2, 3)),
    ("dominates-2", "frobenius"): ('0.04898858012762645', 4, (0, 1, 2, 3), (0, 1, 2, 3)),
    ("dominates-3", "op-inf"): ('0.03999900817871094', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
    ("dominates-3", "entry-max"): ('0.01999950408935547', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
    ("dominates-3", "frobenius"): ('0.05054083717330659', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
    ("dominates-4", "op-inf"): ('0.03999900817871094', 4, (0, 1, 2, 3), (0, 1, 2, 3)),
    ("dominates-4", "entry-max"): ('0.01999950408935547', 4, (0, 1, 2, 3), (0, 1, 2, 3)),
    ("dominates-4", "frobenius"): ('0.04898858012762645', 4, (0, 1, 2, 3), (0, 1, 2, 3)),
    ("dominates-5", "op-inf"): ('0.03999900817871094', 4, (0, 1, 2, 1, 3), (0, 1, 2, 1, 3)),
    ("dominates-5", "entry-max"): ('0.01999950408935547', 4, (0, 1, 2, 1, 3), (0, 1, 2, 1, 3)),
    ("dominates-5", "frobenius"): ('0.04898858012762645', 4, (0, 1, 2, 1, 3), (0, 1, 2, 1, 3)),
    ("witness", "op-inf"): ('0.05999946594238281', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
    ("witness", "entry-max"): ('0.029999732971191406', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
    ("witness", "frobenius"): ('0.0641289867229748', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
    ("unbounded", "op-inf"): ('inf', None, None, None),
    ("unbounded", "entry-max"): ('inf', None, None, None),
    ("unbounded", "frobenius"): ('inf', None, None, None),
    ("deterministic", "op-inf"): ('0.0', 3, (0, 0, 1, 1, 2), (0, 1, 2)),
    ("deterministic", "entry-max"): ('0.0', 3, (0, 0, 1, 1, 2), (0, 1, 2)),
    ("deterministic", "frobenius"): ('0.0', 3, (0, 0, 1, 1, 2), (0, 1, 2)),
    ("edge-table", "op-inf"): ('0.03999900817871094', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
    ("edge-table", "entry-max"): ('0.01999950408935547', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
    ("edge-table", "frobenius"): ('0.04898858012762645', 5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
}


@pytest.mark.parametrize("norm", NORM_KINDS)
def test_search_results_are_pinned(norm):
    for name, p1, p2, budget, seed in search_pairs():
        res = epsilon_bisim_search(p1, p2, norm_kind=norm, budget=budget, seed=seed)
        got = (repr(res.epsilon), res.m, res.k1 and res.k1.assign, res.k2 and res.k2.assign)
        assert got == SEARCH_PINS[name, norm], name


def test_search_witness_reproduces_epsilon():
    p1, _, _ = planted_pair(5)
    p2 = perturb(p1, 0.03, 11)
    res = epsilon_bisim_search(p1, p2, budget=200, seed=7)
    assert res.epsilon != math.inf
    assert epsilon_distance(p1, p2, res.k1, res.k2, res.norm_kind) == res.epsilon


@pytest.mark.parametrize("norm", NORM_KINDS)
def test_search_witness_reproduces_epsilon_under_each_norm(norm):
    from test_parity import EPSILON_PAIRS

    p1, _, _ = planted_pair(5)
    p2 = perturb(p1, 0.03, 11)
    res = epsilon_bisim_search(p1, p2, norm_kind=norm, budget=200, seed=7)
    assert res.epsilon != math.inf and res.norm_kind == norm
    assert epsilon_distance(p1, p2, res.k1, res.k2, norm) == res.epsilon
    # non-dyadic masses, whose sums taken in two orders differ in the last bits
    found = 0
    for p1, p2 in EPSILON_PAIRS:
        res = epsilon_bisim_search(p1, p2, norm_kind=norm, budget=60, seed=1)
        if res.k1 is not None:
            found += 1
            assert epsilon_distance(p1, p2, res.k1, res.k2, norm) == res.epsilon, (p1, p2)
    assert found >= 200


def test_search_lumps_on_the_edge_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense n x n matrix was built")

    def refuse_all(names):
        for module in (epsilon, matrices):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)

    refuse_all(("_dense", "lump", "classification_matrix"))
    lift, q, _ = planted_pair(5)
    res = epsilon_bisim_search(lift, q, budget=300, seed=5)
    assert res.epsilon < 1e-9
    pert = perturb(lift, 0.02, 6)
    res = epsilon_bisim_search(lift, pert, budget=300, seed=5)
    assert 0 < res.epsilon < math.inf
    assert epsilon_distance(lift, pert, res.k1, res.k2) == res.epsilon
    monkeypatch.undo()
    # the exact scan lays out only the m-state quotients as dense stacks
    refuse_all(("lump", "classification_matrix"))
    p1 = gen_random_pts(5, ["a", "b"], 0.7, 71)
    p2 = perturb(p1, 0.02, 81)
    res = epsilon_bisim_exact(p1, p2)
    assert 0 < res.epsilon < math.inf
    assert epsilon_distance(p1, p2, res.k1, res.k2) == res.epsilon


def _canonical(assign) -> Classification:
    first: dict[int, int] = {}
    return Classification(tuple(first.setdefault(v, len(first)) for v in assign), len(first))


def test_search_moves_admit_exactly_the_lumpings(monkeypatch):
    # a move is checked only where it changed masses, classes or leads;
    # its verdict must be is_lumpable's on the whole classification
    tol = DEFAULT_TOL
    u = np.full((5, 5), 1 / 5)
    systems = [planted_pair(i)[0] for i in range(9)]
    systems += [tolerance_chain([0.5 + k * step * tol for k in range(4)]) for step in (0.3, 0.6, 1.1)]
    systems += [tolerance_spread([0.0, -0.6 * tol, 0.9 * tol])]
    systems += [LabelledPTS(5, ["a", "b"], {"a": u, "b": u})]  # every classification lumps
    move = search._Side.move
    pts = None
    seen = {True: 0, False: 0}

    def checked(side, states, to):
        ok = move(side, states, to)
        assert ok == is_lumpable(pts, _canonical(side.assign), tol)[0]
        seen[ok] += 1
        return ok

    monkeypatch.setattr(search._Side, "move", checked)
    rng = random.Random(3)
    for pts in systems:
        for start in (coarsest_bisimulation(pts, tol).assign, tuple(range(pts.n))):
            sides = (search._Side(pts, tol), search._Side(pts, tol))
            for side in sides:
                side.reset(start, max(start) + 1)
            for step in range(150):
                keep = bool(search._propose(rng, sides, pts.n, step % 2)) and rng.random() < 0.7
                for side in sides:
                    side.commit() if keep else side.rollback()
                    c = Classification(tuple(side.assign), len(side.members))  # onto 0..m-1
                    assert side.lead == [min(k) for k in side.members]
                    assert is_lumpable(pts, c, tol)[0]
    assert seen[True] >= 300 and seen[False] >= 1000

