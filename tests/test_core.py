import numpy as np
import pytest

from pbisim import (
    Classification,
    LabelledPTS,
    coarsest_bisimulation,
    disjoint_union,
    validate_pts,
)
from pbisim.errors import (
    EmptyActionSetError,
    NegativeEntryError,
    NonSurjectiveError,
    RowSumError,
)
from pbisim.generators import gen_random_pts

from helpers import dense


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
