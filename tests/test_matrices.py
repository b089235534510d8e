import math
import random

import numpy as np
import pytest

from pbisim import (
    Classification,
    LabelledPTS,
    classification_matrix,
    is_lumpable,
    lump,
    matrix_norm,
    penrose_check,
    pseudo_inverse,
)
from pbisim.errors import DimensionMismatchError, NotClassificationMatrixError
from pbisim.matrices import _SORT_CROSSOVER, _stable_order, table_norm
from pbisim.generators import gen_planted, gen_random_pts

from helpers import dense, planted_pair


def random_classification(rng: random.Random, n: int, m: int) -> Classification:
    assign = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
    rng.shuffle(assign)
    return Classification(tuple(assign), m)


def test_classification_matrix_identity():
    c = Classification((0, 1), 2)
    assert np.array_equal(classification_matrix(c, 2), np.eye(2))


def test_classification_matrix_all_to_one():
    c = Classification((0, 0, 0), 1)
    assert np.array_equal(classification_matrix(c, 3), np.ones((3, 1)))


def test_classification_matrix_mixed():
    c = Classification((0, 1, 0), 2)
    assert np.array_equal(
        classification_matrix(c, 3), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    )


def test_pseudo_inverse_identity():
    assert np.array_equal(pseudo_inverse(np.eye(2)), np.eye(2))


def test_pseudo_inverse_all_to_one():
    k = np.ones((3, 1))
    assert np.allclose(pseudo_inverse(k), np.full((1, 3), 1 / 3), atol=0)


def test_pseudo_inverse_satisfies_penrose_axioms():
    # oracle: the four defining identities, checked by direct products
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randrange(2, 11)
        m = rng.randrange(1, min(n, 3) + 1)
        k = classification_matrix(random_classification(rng, n, m))
        assert penrose_check(k, pseudo_inverse(k), tol=1e-12)


def test_pseudo_inverse_rejects_non_classification():
    with pytest.raises(NotClassificationMatrixError):
        pseudo_inverse(np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(NotClassificationMatrixError):
        pseudo_inverse(np.array([[1.0, 0.0], [1.0, 0.0]]))  # empty column


def test_penrose_check_identity():
    assert penrose_check(np.eye(2), np.eye(2))


def test_penrose_check_rejects_unnormalised_transpose():
    k = np.array([[1.0], [1.0]])
    p = np.array([[1.0, 0.0]])
    # KP = [[1,0],[1,0]] is not symmetric, so this is not the pseudo-inverse
    assert not penrose_check(k, p)


def test_penrose_check_accepts_row_normalised_transpose():
    k = np.array([[1.0], [1.0]])
    p = np.array([[0.5, 0.5]])
    assert penrose_check(k, p)


def test_penrose_check_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        penrose_check(np.eye(2), np.ones((3, 2)))


def test_lump_by_identity_is_identity():
    m = np.array([[0.3, 0.7], [0.6, 0.4]])
    assert np.array_equal(lump(m, np.eye(2)), m)


def test_lump_all_to_one_of_stochastic_is_one():
    rng = np.random.default_rng(5)
    m = rng.random((3, 3))
    m /= m.sum(axis=1, keepdims=True)
    assert np.allclose(lump(m, np.ones((3, 1))), [[1.0]], atol=1e-12)


def test_lump_two_block_example():
    m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    k = classification_matrix(Classification((0, 1, 1), 2))
    # independent oracle: explicit pseudo-inverse product
    kd = k.T / k.sum(axis=0)[:, None]
    expected = kd @ m @ k
    got = lump(m, k)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_lump_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        lump(np.eye(3), np.eye(2))


def test_discrete_classification_always_lumpable():
    for seed in range(5):
        pts = gen_random_pts(4, ["a", "b"], 0.7, seed)
        ok, violation = is_lumpable(pts, Classification((0, 1, 2, 3), 4))
        assert ok and violation is None


def test_planted_classification_lumpable():
    for i in range(6):
        lift, _, cls = planted_pair(i)
        ok, violation = is_lumpable(lift, cls, 1e-12)
        assert ok, violation


def test_not_lumpable_when_enabledness_differs():
    pts = LabelledPTS(2, ("a",), {"a": [[1.0, 0.0], [0.0, 0.0]]})
    ok, violation = is_lumpable(pts, Classification((0, 0), 1))
    assert not ok
    assert violation.action == "a"
    assert violation.target_block is None


def test_not_lumpable_when_block_masses_differ():
    # states 0 and 1 share a class but send different mass into class 0
    pts = LabelledPTS(
        3,
        ("a",),
        {"a": [[0.0, 0.0, 1.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]},
    )
    ok, violation = is_lumpable(pts, Classification((0, 0, 1), 2))
    assert not ok
    assert violation.target_block == 0
    assert (violation.state_a, violation.state_b) == (0, 1)


def test_lumpable_reexpansion_reproduces_block_rows():
    # when lumpable, expanding the quotient reproduces block-aggregated rows
    for i in range(4):
        lift, _, cls = planted_pair(i)
        k = classification_matrix(cls)
        for a in lift.actions:
            m = dense(lift)[a]
            assert np.allclose(k @ lump(m, k), m @ k, atol=1e-9)


def test_matrix_norm_zero_matrix():
    z = np.zeros((3, 2))
    for kind in ("op-inf", "entry-max", "frobenius"):
        assert matrix_norm(z, kind) == 0.0


def test_matrix_norm_examples():
    m = np.array([[0.5, -0.5], [0.0, 1.0]])
    assert matrix_norm(m, "op-inf") == 1.0
    assert matrix_norm(m, "entry-max") == 1.0
    assert matrix_norm(np.eye(2), "frobenius") == pytest.approx(np.sqrt(2), abs=1e-15)


def test_matrix_norm_unknown_kind():
    with pytest.raises(ValueError):
        matrix_norm(np.eye(2), "spectral")


def test_table_norm_is_the_dense_norm():
    rng = np.random.default_rng(321)
    for size in (1, 2, 5, 9):
        for _ in range(20):
            m = rng.uniform(-1, 1, size=(size, size)) * (rng.random((size, size)) < 0.4)
            key = np.flatnonzero(m)
            for kind in ("op-inf", "entry-max", "frobenius"):
                got = table_norm(key, m.reshape(-1)[key], size, kind)
                assert got == matrix_norm(m, kind)
    with pytest.raises(ValueError):
        table_norm(np.zeros(0, dtype=np.int64), np.zeros(0), 2, "spectral")


def test_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(123)
    for _ in range(50):
        a = rng.uniform(-1, 1, size=(4, 4))
        b = rng.uniform(-1, 1, size=(4, 4))
        c = float(rng.uniform(-3, 3))
        for kind in ("op-inf", "entry-max", "frobenius"):
            assert matrix_norm(c * a, kind) == pytest.approx(
                abs(c) * matrix_norm(a, kind), abs=1e-12
            )
            assert matrix_norm(a + b, kind) <= (
                matrix_norm(a, kind) + matrix_norm(b, kind) + 1e-12
            )


def test_lump_preserves_stochastic_rows():
    # uniformly enabled system: every lumped row sums to 1 within n*tol
    rng = random.Random(9)
    for seed in range(5):
        pts = gen_random_pts(6, ["a"], 1.0, seed)
        c = random_classification(rng, 6, rng.randrange(1, 4))
        q = lump(dense(pts)["a"], classification_matrix(c))
        assert np.allclose(q.sum(axis=1), 1.0, atol=6e-9)



def test_stacked_lump_equals_each_matrix_lumped_alone():
    rng, pick = np.random.default_rng(11), random.Random(11)
    for _ in range(300):
        n = pick.randrange(1, 12)
        k = classification_matrix(random_classification(pick, n, pick.randrange(1, n + 1)))
        mats = rng.uniform(0, 1, size=(pick.randrange(1, 4), n, n)) / 7
        got = lump(mats, k)
        assert got.shape == (mats.shape[0], k.shape[1], k.shape[1])
        for stacked, mat in zip(got, mats):
            assert np.array_equal(stacked, lump(mat, k))
        assert np.array_equal(lump(mats[None], k)[0], got)
    with pytest.raises(DimensionMismatchError):
        lump(np.zeros((2, 3, 3)), np.eye(2))


def sequential_sum(terms) -> float:
    total = 0.0
    for t in terms:
        total += t
    return total


# Each norm with its sums taken in ascending (row, column) order, one term
# at a time, the order the reports' epsilons are computed in.
NORM_DEFINITIONS = {
    "op-inf": lambda x: max(sequential_sum(abs(v) for v in row) for row in x.tolist()),
    "entry-max": lambda x: float(np.abs(x).max()),
    "frobenius": lambda x: math.sqrt(sequential_sum(v * v for row in x.tolist() for v in row)),
}


@pytest.mark.parametrize("kind", ["op-inf", "entry-max", "frobenius"])
def test_stacked_matrix_norm_equals_each_matrix_norm(kind):
    rng, pick = np.random.default_rng(5), random.Random(5)
    for _ in range(300):
        n = pick.randrange(2, 9)
        k = classification_matrix(random_classification(pick, n, pick.randrange(1, n + 1)))
        mats = rng.uniform(-1, 1, size=(pick.randrange(1, 4), n, n)) / 3
        # two lumped families, the second relabelled, as epsilon scores them
        f1, f2, p = lump(mats, k), lump(mats[:, ::-1, ::-1], k), rng.permutation(k.shape[1])
        for stack in (f1 - f2[:, p[:, None], p], rng.uniform(-1, 1, size=(3, 4, 5)) / 3):
            assert stack.flags.c_contiguous
            norms = matrix_norm(stack, kind)
            assert isinstance(norms, np.ndarray) and norms.shape == stack.shape[:1]
            assert norms.tolist() == [matrix_norm(x, kind) for x in stack]
            assert norms.tolist() == [NORM_DEFINITIONS[kind](x) for x in stack]
        deep = rng.uniform(-1, 1, size=(2, 3, 4, 4)) / 3
        assert matrix_norm(deep, kind).tolist() == [[matrix_norm(x, kind) for x in row] for row in deep]


@pytest.mark.parametrize("kind", ["op-inf", "entry-max", "frobenius"])
def test_matrix_norm_of_one_matrix_is_a_python_float(kind):
    assert type(matrix_norm(np.array([[0.1, -0.7], [0.3, 0.2]]), kind)) is float


def test_stable_order_is_the_stable_argsort():
    rng = np.random.default_rng(8)
    cases = [np.zeros(0, dtype=np.int64), np.array([7]), np.full(3000, 5), rng.integers(0, 3, 3000)]
    for size in (_SORT_CROSSOVER - 1, _SORT_CROSSOVER, 3 * _SORT_CROSSOVER):
        cases += [
            rng.integers(0, 10 * size, size),
            rng.integers(0, 4, size),
            np.sort(rng.integers(0, size, size)),
            rng.integers(2**31 - 2 * size, 2**31, size).astype(np.int32),
        ]
        # the largest key that takes the composite sort, and the smallest
        # that does not
        top = np.iinfo(np.int64).max // size
        for high in (top - 1, top):
            key = rng.integers(0, high, size)
            key[rng.integers(size, size=4)] = high
            cases.append(key)
    for key in cases:
        assert np.array_equal(_stable_order(key), np.argsort(key, kind="stable"))
