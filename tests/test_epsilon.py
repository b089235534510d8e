import math

import numpy as np
import pytest

from pbisim import (
    Classification,
    LabelledPTS,
    are_bisimilar,
    enumerate_classifications,
    epsilon_bisim_exact,
    epsilon_bisim_search,
    epsilon_distance,
    stirling2,
)
from pbisim.epsilon import pair_budget
from pbisim.errors import (
    BudgetExceededError,
    ClassCountMismatchError,
    InvalidRangeError,
)
from pbisim.generators import gen_planted, gen_random_pts, perturb

from helpers import brute_canonical_classifications, planted_pair


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
        again = epsilon_distance(lift, pert, res.k1, res.k2, res.norm_kind)
        assert abs(again - res.epsilon) <= 1e-12


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
    assert pair_budget(8, 8) > 10_000_000
    with pytest.raises(BudgetExceededError) as exc:
        epsilon_bisim_exact(p, p)
    assert exc.value.count == pair_budget(8, 8)


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


def test_search_witness_reproduces_epsilon():
    p1, _, _ = planted_pair(5)
    p2 = perturb(p1, 0.03, 11)
    res = epsilon_bisim_search(p1, p2, budget=200, seed=7)
    assert res.epsilon != math.inf
    again = epsilon_distance(p1, p2, res.k1, res.k2, res.norm_kind)
    assert abs(again - res.epsilon) <= 1e-12

