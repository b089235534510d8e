import numpy as np
import pytest

from pbisim import (
    Classification,
    LabelledPTS,
    are_bisimilar,
    coarsest_bisimulation,
    is_lumpable,
    quotient,
    validate_pts,
)
from pbisim.errors import NotLumpableError, ValidationError
from pbisim.formats import parse_pts
from pbisim.generators import gen_planted, gen_random_pts

from helpers import brute_coarsest, dense, planted_pair
from test_cli import run_cli


def test_identical_states_collapse_to_one_block():
    row = [0.25, 0.75, 0.0]
    pts = LabelledPTS(3, ("a",), {"a": [row, row, row]})
    assert coarsest_bisimulation(pts) == Classification((0, 0, 0), 1)


def test_enabledness_separates_states():
    pts = LabelledPTS(2, ("a",), {"a": [[1.0, 0.0], [0.0, 0.0]]})
    assert coarsest_bisimulation(pts) == Classification((0, 1), 2)


def test_coarsest_on_planted_lift():
    # pick a quotient whose states are pairwise non-bisimilar, so the
    # planted partition is exactly the coarsest one
    q = gen_random_pts(3, ["a", "b"], 0.7, 1009)
    assert coarsest_bisimulation(q).m == 3
    lift, cls = gen_planted(q, [3, 3, 3], 77)
    part = coarsest_bisimulation(lift)
    assert part == brute_coarsest(lift)
    assert part == cls
    lumped = quotient(lift, part)
    for a in q.actions:
        assert np.allclose(dense(lumped)[a], dense(q)[a], atol=1e-9)


def test_coarsest_rejects_an_empty_system():
    with pytest.raises(ValidationError, match="state count must be >= 1"):
        coarsest_bisimulation(LabelledPTS(0, ("a",), {"a": np.zeros((0, 0))}))


def test_coarsest_matches_brute_force_small_corpus():
    for seed in range(8):
        pts = gen_random_pts(4 + seed % 3, ["a", "b"], 0.6, 7000 + seed)
        assert coarsest_bisimulation(pts) == brute_coarsest(pts)


def test_coarsest_output_is_lumpable():
    for seed in range(6):
        pts = gen_random_pts(5, ["a", "b"], 0.7, 7100 + seed)
        c = coarsest_bisimulation(pts)
        assert is_lumpable(pts, c)[0]


def test_quotient_by_discrete_is_identity():
    pts = gen_random_pts(4, ["a"], 0.8, 3)
    q = quotient(pts, Classification((0, 1, 2, 3), 4))
    assert q == pts


def test_quotient_all_identical_rows_to_single_state():
    row = [0.5, 0.25, 0.25]
    pts = LabelledPTS(3, ("a",), {"a": [row, row, row]})
    q = quotient(pts, Classification((0, 0, 0), 1))
    assert q.n == 1
    assert dense(q)["a"][0, 0] == pytest.approx(1.0, abs=1e-12)


def test_quotient_of_planted_recovers_quotient():
    for i in range(8):
        lift, q, cls = planted_pair(i)
        lumped = quotient(lift, cls)
        validate_pts(lumped, 1e-9)
        for a in q.actions:
            assert np.allclose(dense(lumped)[a], dense(q)[a], atol=1e-12)


def test_quotient_rejects_non_lumpable():
    pts = LabelledPTS(2, ("a",), {"a": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(NotLumpableError):
        quotient(pts, Classification((0, 0), 1))


def test_self_bisimilarity():
    for seed in range(5):
        pts = gen_random_pts(4, ["a", "b"], 0.7, 7200 + seed)
        ok, witness = are_bisimilar(pts, pts)
        assert ok
        assert witness.k1 == witness.k2


def test_planted_lift_bisimilar_to_quotient():
    for i in range(8):
        lift, q, _ = planted_pair(i)
        ok, witness = are_bisimilar(lift, q)
        assert ok
        assert witness.m == q.n or witness.m < q.n  # never finer than the quotient


def test_enabled_vs_disabled_not_bisimilar():
    p1 = LabelledPTS(1, ("a",), {"a": [[1.0]]})
    p2 = LabelledPTS(1, ("a",), {"a": [[0.0]]})
    ok, witness = are_bisimilar(p1, p2)
    assert not ok and witness is None


def test_bisimilarity_is_symmetric():
    cases = [planted_pair(i)[:2] for i in range(4)]
    cases += [
        (gen_random_pts(4, ["a", "b"], 0.7, 8000 + i), gen_random_pts(4, ["a", "b"], 0.7, 8100 + i))
        for i in range(4)
    ]
    for p1, p2 in cases:
        assert are_bisimilar(p1, p2)[0] == are_bisimilar(p2, p1)[0]


def test_witness_quotients_agree():
    for i in range(8):
        p1, p2, _ = planted_pair(i)
        ok, w = are_bisimilar(p1, p2)
        assert ok
        assert is_lumpable(p1, w.k1)[0]
        assert is_lumpable(p2, w.k2)[0]
        q1 = quotient(p1, w.k1)
        q2 = quotient(p2, w.k2)
        zero = np.zeros((q1.n, q1.n))
        for a in set(q1.actions) | set(q2.actions):
            assert np.allclose(dense(q1).get(a, zero), dense(q2).get(a, zero), atol=1e-9)
        validate_pts(w.quotient, 1e-9)


def test_bisimilar_to_own_coarsest_quotient():
    for seed in range(6):
        pts = gen_random_pts(5, ["a", "b"], 0.7, 8200 + seed)
        c = coarsest_bisimulation(pts)
        assert are_bisimilar(pts, quotient(pts, c))[0]


def test_quotient_of_coarsest_is_minimal():
    for seed in range(6):
        pts = gen_random_pts(5, ["a", "b"], 0.7, 8300 + seed)
        c = coarsest_bisimulation(pts)
        q = quotient(pts, c)
        assert coarsest_bisimulation(q).m == q.n  # discrete: nothing left to merge


def test_merging_any_two_coarsest_blocks_breaks_lumpability():
    for seed in range(4):
        pts = gen_random_pts(5, ["a", "b"], 0.6, 8400 + seed)
        part = coarsest_bisimulation(pts)
        if part.m == 1:
            continue
        base = part.assign
        for i in range(part.m):
            for j in range(i + 1, part.m):
                merged = [v if v != j else i for v in base]
                relabel = {v: k for k, v in enumerate(sorted(set(merged)))}
                c = Classification(tuple(relabel[v] for v in merged), part.m - 1)
                assert not is_lumpable(pts, c)[0]


# x and y differ only by a sub-tolerance mass into t2, as do d and t1.  The
# round-based refinement sorts whole signatures, whose t2 entries put d and
# t1 between x and y, and so splits x from y.
RESIDUE_PTS = """\
states: x d y t0 t1 t2
actions: a b
x a t0 0.5
x a t1 0.5
d a t2 5e-13
d a t1 1.0
y a t2 1e-12
y a t0 0.5
y a t1 0.5
t0 b t0 1.0
t1 a t1 1.0
"""


def test_sub_tolerance_residues_do_not_split_classes(tmp_path):
    pts, names = parse_pts(RESIDUE_PTS)
    part = coarsest_bisimulation(pts)
    assert part == brute_coarsest(pts)
    assert dict(zip(names, part.assign)) == {"x": 0, "d": 1, "y": 0, "t0": 2, "t1": 1, "t2": 3}

    src = tmp_path / "residue.pts"
    src.write_text(RESIDUE_PTS)
    cls = tmp_path / "residue.cls"
    cls.write_text("x 0\ny 0\nd 1\nt1 1\nt0 2\nt2 3\n")
    q = run_cli("quotient", str(src), "--partition", str(cls))
    assert q.returncode == 0
    qfile = tmp_path / "q.pts"
    qfile.write_text(q.stdout)
    res = run_cli("bisim", str(src), str(qfile))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "bisimilar: yes" in res.stdout
