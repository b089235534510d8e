import numpy as np
import pytest

from pbisim import (
    Classification,
    are_bisimilar,
    epsilon_distance,
    is_lumpable,
    quotient,
    validate_pts,
)
from pbisim.errors import ValidationError
from pbisim.generators import gen_planted, gen_random_pts, perturb

from helpers import dense


def test_random_single_state_row():
    pts = gen_random_pts(1, ["a"], 1.0, 0)
    assert dense(pts)["a"][0, 0] == 1.0


def test_random_is_deterministic():
    a = gen_random_pts(8, ["a", "b"], 0.5, 7)
    b = gen_random_pts(8, ["a", "b"], 0.5, 7)
    assert a == b
    assert a != gen_random_pts(8, ["a", "b"], 0.5, 8)


def test_random_outputs_validate_exactly():
    # dyadic construction: row sums are exact, so the strictest tolerance works
    for seed in range(10):
        pts = gen_random_pts(2 + seed % 6, ["a", "b"], 0.5, seed)
        validate_pts(pts, 1e-12)


def test_random_density_one_enables_everything():
    pts = gen_random_pts(5, ["a"], 1.0, 3)
    assert np.all(dense(pts)["a"].sum(axis=1) == 1.0)


def test_random_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        gen_random_pts(0, ["a"], 1.0, 0)
    with pytest.raises(ValidationError):
        gen_random_pts(2, ["a"], 0.0, 0)


def test_planted_trivial_multiplicities_reproduce_quotient():
    q = gen_random_pts(3, ["a", "b"], 0.8, 21)
    lift, cls = gen_planted(q, [1, 1, 1], 5)
    assert lift == q
    assert cls == Classification((0, 1, 2), 3)


def test_planted_self_loop_lift():
    one = gen_random_pts(1, ["a"], 1.0, 0)
    lift, cls = gen_planted(one, [3], 13)
    assert lift.n == 3
    validate_pts(lift, 1e-12)
    assert is_lumpable(lift, cls, 1e-12)[0]
    assert np.allclose(dense(quotient(lift, cls))["a"], [[1.0]], atol=1e-12)


def test_planted_lift_is_bisimilar_to_quotient():
    for seed in range(6):
        q = gen_random_pts(2 + seed % 3, ["a", "b"], 0.7, 500 + seed)
        lift, cls = gen_planted(q, [2] * q.n, 600 + seed)
        assert is_lumpable(lift, cls, 1e-12)[0]
        assert are_bisimilar(lift, q)[0]


def test_planted_is_deterministic():
    q = gen_random_pts(2, ["a"], 1.0, 1)
    assert gen_planted(q, [2, 3], 4) == gen_planted(q, [2, 3], 4)


def test_planted_validates_multiplicities():
    q = gen_random_pts(2, ["a"], 1.0, 1)
    with pytest.raises(ValidationError):
        gen_planted(q, [1], 0)
    with pytest.raises(ValidationError):
        gen_planted(q, [0, 2], 0)


def test_perturb_zero_delta_is_identity():
    pts = gen_random_pts(4, ["a", "b"], 0.8, 2)
    assert perturb(pts, 0.0, 9) == pts


def test_perturb_outputs_validate():
    for seed in range(8):
        pts = gen_random_pts(3 + seed % 4, ["a", "b"], 0.7, 700 + seed)
        out = perturb(pts, 0.05, 800 + seed)
        validate_pts(out, 1e-12)
        assert out.actions == pts.actions


def test_perturb_moves_bounded_mass_per_row():
    pts = gen_random_pts(5, ["a"], 1.0, 31)
    delta = 0.01
    out = perturb(pts, delta, 32)
    diff = np.abs(dense(out)["a"] - dense(pts)["a"]).sum(axis=1)
    assert np.all(diff <= 2 * delta + 1e-15)
    assert np.allclose(dense(out)["a"].sum(axis=1), 1.0, atol=0)


def test_perturb_distance_bound_with_discrete_witness():
    # discrete classifications bound the minimised distance from above
    for seed, delta in [(40, 0.001), (41, 0.01), (42, 0.05)]:
        pts = gen_random_pts(4, ["a", "b"], 0.8, seed)
        out = perturb(pts, delta, seed + 100)
        disc = Classification(tuple(range(4)), 4)
        assert epsilon_distance(pts, out, disc, disc, "op-inf") <= 2 * delta + 1e-12


def test_perturb_deterministic():
    pts = gen_random_pts(4, ["a"], 1.0, 50)
    assert perturb(pts, 0.01, 51) == perturb(pts, 0.01, 51)
    assert perturb(pts, 0.01, 51) != perturb(pts, 0.01, 52)
