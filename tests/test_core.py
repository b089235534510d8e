import math
import random
import time

import numpy as np
import pytest

from pbisim import core
from pbisim import (
    Classification,
    LabelledPTS,
    are_bisimilar,
    coarsest_bisimulation,
    disjoint_union,
    quotient,
    validate_pts,
)
from pbisim.errors import (
    EmptyActionSetError,
    NegativeEntryError,
    NonSurjectiveError,
    PbisimError,
    RowSumError,
)
from pbisim.formats import parse_pts
from pbisim.generators import gen_planted, gen_random_pts, perturb

from helpers import dense, naive_validate_pts


def test_validate_self_loop():
    pts = LabelledPTS(1, ("a",), {"a": [[1.0]]})
    validate_pts(pts, 1e-9)


def test_validate_bad_row_sum():
    pts = LabelledPTS(2, ("a",), {"a": [[0.5, 0.4], [0.5, 0.5]]})
    with pytest.raises(RowSumError) as exc:
        validate_pts(pts, 1e-9)
    assert exc.value.state == 0
    assert exc.value.total == pytest.approx(0.9)


def test_validate_zero_row_is_disabled_action():
    pts = LabelledPTS(2, ("a",), {"a": [[0.0, 0.0], [1.0, 0.0]]})
    validate_pts(pts, 1e-9)


def test_validate_negative_entry():
    pts = LabelledPTS(2, ("a",), {"a": [[1.5, -0.5], [0.0, 1.0]]})
    with pytest.raises(NegativeEntryError):
        validate_pts(pts)


def test_validate_empty_actions():
    pts = LabelledPTS(1, (), {})
    with pytest.raises(EmptyActionSetError):
        validate_pts(pts)


def test_row_sum_tolerance():
    pts = LabelledPTS(1, ("a",), {"a": [[1.0 + 5e-10]]})
    validate_pts(pts, tol=1e-9)
    with pytest.raises(RowSumError):
        validate_pts(pts, tol=1e-10)


def test_coarsest_classification_pairs_blocks():
    pts = LabelledPTS(3, ("a",), {"a": [[0, 0, 1], [0, 0, 1], [0, 0, 0]]})
    c = coarsest_bisimulation(pts)
    assert c.assign == (0, 0, 1)
    assert c.m == 2


def test_coarsest_classification_discrete():
    pts = LabelledPTS(3, ("a",), {"a": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]})
    c = coarsest_bisimulation(pts)
    assert c.assign == (0, 1, 2)
    assert c.m == 3


def test_coarsest_numbers_classes_by_smallest_state():
    # refinement starts from blocks by enabledness, which put the disabled
    # state 1 first; the result still numbers state 0's class 0
    pts = LabelledPTS(3, ("a",), {"a": [[0, 0, 1], [0, 0, 0], [0, 0, 1]]})
    assert coarsest_bisimulation(pts).assign == (0, 1, 0)


def test_classification_rejects_empty_class():
    with pytest.raises(NonSurjectiveError):
        Classification((0, 0), 2)


@pytest.mark.parametrize("n1,n2", [(1, 1), (2, 3)])
def test_disjoint_union_shapes(n1, n2):
    p1 = gen_random_pts(n1, ["a"], 1.0, 11)
    p2 = gen_random_pts(n2, ["a"], 1.0, 12)
    u, off = disjoint_union(p1, p2)
    assert off == n1
    assert u.n == n1 + n2
    assert np.array_equal(dense(u)["a"][:n1, :n1], dense(p1)["a"])
    assert np.array_equal(dense(u)["a"][n1:, n1:], dense(p2)["a"])
    assert np.all(dense(u)["a"][:n1, n1:] == 0)


def test_disjoint_union_of_self_loops():
    p = LabelledPTS(1, ("a",), {"a": [[1.0]]})
    u, off = disjoint_union(p, p)
    assert off == 1
    assert np.array_equal(dense(u)["a"], np.diag([1.0, 1.0]))


def test_disjoint_union_disjoint_alphabets():
    p1 = LabelledPTS(1, ("a",), {"a": [[1.0]]})
    p2 = LabelledPTS(1, ("b",), {"b": [[1.0]]})
    u, off = disjoint_union(p1, p2)
    assert u.actions == ("a", "b")
    # the second system contributes all-zero rows for the first's action
    assert np.all(dense(u)["a"][off:] == 0)
    assert np.all(dense(u)["b"][:off] == 0)


def test_disjoint_union_validates():
    for seed in range(5):
        p1 = gen_random_pts(3, ["a", "b"], 0.6, seed)
        p2 = gen_random_pts(4, ["b", "c"], 0.6, seed + 100)
        u, _ = disjoint_union(p1, p2)
        validate_pts(u, 1e-9)


def test_every_construction_route_yields_one_canonical_table():
    dense_pts = LabelledPTS(3, ("a", "b"), {"a": [[0, 0.5, 0.5], [0, 0, 0], [1, 0, 0]],
                                            "b": [[0, 0, 0], [0.25, 0, 0.75], [0, 0, 0]]})
    random_pts = gen_random_pts(5, ["b", "c", "a"], 0.7, 3)
    lift, cls = gen_planted(dense_pts, [2, 1, 3], 4)
    routes = {
        "dense": dense_pts,
        "from_edges": LabelledPTS.from_edges(
            2, ("a", "b"), np.array([0, 0, 1, 3]), np.array([0, 1, 1, 0]), np.array([0.5, 0.0, 1.0, 1.0])),
        "parse_pts": parse_pts("states: s0 s1\nactions: a b\ns1 b s0 1\ns0 a s1 0\n"
                               "s1 a s1 1\ns0 a s0 1/1\n")[0],
        "quotient": quotient(lift, cls),
        "disjoint_union": disjoint_union(dense_pts, random_pts)[0],
        "are_bisimilar": are_bisimilar(lift, dense_pts)[1].quotient,
        "gen_random_pts": random_pts,
        "gen_planted": lift,
        "perturb": perturb(random_pts, 0.25, 5),
    }
    for route, pts in routes.items():
        key = pts.row * pts.n + pts.dst
        assert pts.row.dtype == pts.dst.dtype == np.int64, route
        assert not any(arr.flags.writeable for arr in (pts.row, pts.dst, pts.prob)), route
        assert (pts.prob != 0.0).all(), route
        assert ((pts.row >= 0) & (pts.row < len(pts.actions) * pts.n)).all(), route
        assert ((pts.dst >= 0) & (pts.dst < pts.n)).all(), route
        assert (np.diff(key) > 0).all(), route  # sorted by (row, dst), no repeats


@pytest.mark.parametrize("actions", [0, 1, 2, 70])
def test_enabled_blocks_are_numbered_as_a_row_wise_unique(actions):
    rng = np.random.default_rng(actions)
    for n in (1, 2, 9, 300):
        palette = rng.random((1 + n // 3, actions)) < 0.5  # so that states share patterns
        on = palette[rng.integers(len(palette), size=n)].T
        a, s = np.nonzero(on)
        pts = LabelledPTS.from_edges(n, [f"a{i}" for i in range(actions)], a * n + s, s, np.ones(s.size))
        assert (pts.enabled_rows() == on).all()
        expected = np.unique(on.T, axis=0, return_inverse=True)[1].reshape(n)
        assert pts.enabled_blocks().tolist() == expected.tolist()


def near_bound_system(rng, tol: float) -> LabelledPTS:
    """One action over up to 48 states.  One row in five holds k
    entries, some negative, whose exact sum is up to 4 or 200 ulps from 0,
    1 or either one's tolerance bound; the others are disabled or a
    single 1."""
    n = rng.randint(1, 48)
    src, dst, prob = [], [], []
    for s in range(n):
        if rng.random() < 0.8:
            targets, entries = ([rng.randrange(n)], [1.0]) if rng.random() < 0.5 else ([], [])
        else:
            targets = sorted(rng.sample(range(n), rng.randint(1, n)))
            bound = rng.choice([0.0, 1.0, tol, -tol, 1.0 + tol, 1.0 - tol])
            total = bound + rng.choice([4, 200]) * rng.uniform(-1, 1) * math.ulp(bound)
            # with a negative entry first, at or near -tol, one time in five
            head = [-rng.choice([0.5, 1.0, 1.0 + 1e-12, 2.0]) * tol] if len(targets) > 1 and rng.random() < 0.2 else []
            weights = [rng.random() for _ in targets[len(head):]]
            entries = head + [(total - sum(head)) * w / sum(weights) for w in weights]
            entries[-1] = total - math.fsum(entries[:-1])
        src += [s] * len(targets)
        dst += targets
        prob += entries
    return LabelledPTS.from_edges(n, ("a",), src, dst, prob)


def validation_outcome(validate, pts, tol):
    try:
        validate(pts, tol)
    except PbisimError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.0])
def test_near_bound_rows_validate_as_the_dense_rule_does(tol, monkeypatch):
    decided = []
    surely_valid = core._surely_valid
    monkeypatch.setattr(core, "_surely_valid", lambda *args: decided.append(surely_valid(*args)) or decided[-1])
    rng = random.Random(80000)
    outcomes = []
    for _ in range(600):
        pts = near_bound_system(rng, tol)
        outcomes.append(validation_outcome(validate_pts, pts, tol))
        assert outcomes[-1] == validation_outcome(naive_validate_pts, pts, tol)
    kinds = [o and o[0] for o in outcomes]
    assert all(kinds.count(kind) >= 50 for kind in (None, RowSumError, NegativeEntryError)), kinds
    # rows decided from their own entries, and rows summed as dense rows
    assert decided.count(True) >= 100 and decided.count(False) >= 100


def test_a_cycle_of_near_bound_rows_validates_in_linear_time():
    # every row is one entry a ulp inside 1 + tol; summed again as dense
    # rows, 80,000 of them took 4 s
    n = 80_000
    pts = LabelledPTS.from_edges(n, ("a",), np.arange(n), (np.arange(n) + 1) % n, np.full(n, 1.0000000009999999))
    start = time.perf_counter()
    validate_pts(pts)
    assert time.perf_counter() - start < 0.5
