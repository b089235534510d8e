"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timings.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pbisim import (
    GaloisSpec,
    are_bisimilar,
    check_galois,
    classification_matrix,
    coarsest_bisimulation,
    epsilon_bisim_exact,
    epsilon_bisim_search,
    largest_simulation,
    penrose_check,
    pseudo_inverse,
    quotient,
)
from pbisim.galois import FiniteLattice
from pbisim.generators import gen_planted, gen_random_pts, perturb
from pbisim.formats import print_pts

from helpers import (
    dense,
    ACTIONS,
    acceptance_corpus,
    brute_coarsest,
    brute_largest_simulation,
    naive_alpha_join_table,
    random_kripke,
)
from test_matrices import random_classification


@contextmanager
def criterion(num: int, description: str, limit_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.monotonic() - start
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} took {elapsed:.1f}s (limit {limit_s}s)"
    print(f"PASS criterion {num} ({elapsed:.2f}s): {description}")


CORPUS = acceptance_corpus()


def test_criterion_1_penrose_axioms():
    with criterion(1, "pseudo-inverse satisfies the four Penrose axioms", 5.0):
        rng = random.Random(20240801)
        for _ in range(200):
            n = rng.randrange(1, 51)
            m = rng.randrange(1, min(n, 10) + 1)
            k = classification_matrix(random_classification(rng, n, m))
            assert penrose_check(k, pseudo_inverse(k), tol=1e-12)


def test_criterion_2_epsilon_zero_iff_bisimilar():
    with criterion(2, "epsilon = 0 exactly on bisimilar pairs; perturbed pairs stay separated", 120.0):
        assert len(CORPUS) >= 50
        assert sum(1 for c in CORPUS if c[3] == "planted") == 25
        assert sum(1 for c in CORPUS if c[3] in ("perturbed", "random")) == 25
        for name, p1, p2, kind, delta in CORPUS:
            assert p1.n <= 6 and p2.n <= 6
            res = epsilon_bisim_exact(p1, p2)
            bis = are_bisimilar(p1, p2)[0]
            assert (res.epsilon < 1e-9) == bis, (name, res.epsilon, bis)
            if kind == "perturbed":
                assert delta >= 1e-3
                assert res.epsilon >= 1e-6, (name, res.epsilon)


def test_criterion_3_coarsest_partition_matches_enumeration():
    with criterion(3, "refinement equals brute-force coarsest lumpable partition", 60.0):
        seen = set()
        for name, p1, p2, _, _ in CORPUS:
            for tag, pts in ((name + ".L", p1), (name + ".R", p2)):
                key = (pts.n, tuple(dense(pts)[a].tobytes() for a in pts.actions))
                if key in seen:
                    continue
                seen.add(key)
                assert pts.n <= 6
                assert coarsest_bisimulation(pts) == brute_coarsest(pts), tag


def test_criterion_4_quotient_soundness():
    with criterion(4, "planted quotients are recovered and lifts are bisimilar to them"):
        mults = {2: [3, 3], 3: [4, 4, 4], 4: [3, 3, 3, 3]}
        for i in range(12):
            mq = 2 + (i % 3)
            q = gen_random_pts(mq, ACTIONS, 0.75, 9500 + i)
            lift, cls = gen_planted(q, mults[mq], 9600 + i)
            assert lift.n <= 12 and cls.m <= 4
            lumped = quotient(lift, cls)
            for a in q.actions:
                assert np.allclose(dense(lumped)[a], dense(q)[a], atol=1e-9)
            assert are_bisimilar(lift, lumped)[0]


# Exact distances recorded from the frozen corpus below; these are
# regression baselines, checked bitwise-stable up to 1e-15.
CRITERION_5_BASELINES = {
    0: 0.0,
    1: 0.019998550415039062,
    2: 0.0,
    3: 0.0,
    4: 0.019998550415039062,
    5: 0.09999847412109375,
    6: 0.0019989013671875,
    7: 0.019998550415039062,
    8: 0.0,
    9: 0.0,
    10: 0.0,
    11: 0.0,
    12: 0.0,
    13: 0.019998550415039062,
    14: 0.0,
    15: 0.0019989013671875,
    16: 0.0,
    17: 0.09999847412109375,
    18: 0.0019989013671875,
    19: 0.019998550415039062,
}


def test_criterion_5_perturbation_bound_and_regression():
    with criterion(5, "epsilon of a delta-perturbed lift is at most 2*delta"):
        mults = {2: [[2, 2], [2, 3], [3, 2], [1, 3]], 3: [[2, 2, 1], [1, 2, 2], [2, 1, 1], [1, 1, 2]]}
        deltas = [0.001, 0.01, 0.05]
        for i in range(20):
            mq = 2 + (i % 2)
            mult = mults[mq][(i // 2) % 4]
            q = gen_random_pts(mq, ACTIONS, 0.75, 9000 + i)
            lift, _ = gen_planted(q, mult, 9100 + i)
            delta = deltas[i % 3]
            pert = perturb(lift, delta, 9200 + i)
            res = epsilon_bisim_exact(lift, pert, norm_kind="op-inf")
            assert res.epsilon <= 2 * delta, (i, res.epsilon, delta)
            assert res.epsilon == pytest.approx(CRITERION_5_BASELINES[i], abs=1e-15)


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pbisim", *args], capture_output=True, text=True
    )


def test_criterion_6_search_dominance_and_determinism(tmp_path):
    with criterion(6, "search upper-bounds the exact epsilon; seeded reports are byte-identical"):
        small = [c for c in CORPUS if c[1].n <= 5 and c[2].n <= 5]
        assert small
        for name, p1, p2, _, _ in small:
            exact = epsilon_bisim_exact(p1, p2)
            found = epsilon_bisim_search(p1, p2, budget=400, seed=42)
            assert found.epsilon >= exact.epsilon - 1e-12, name

        name, p1, p2, _, _ = small[0]
        f1 = tmp_path / "p1.pts"
        f2 = tmp_path / "p2.pts"
        f1.write_text(print_pts(p1))
        f2.write_text(print_pts(p2))
        args = ("epsilon", str(f1), str(f2), "--budget", "400", "--seed", "42", "--json")
        runs = [_run_cli(*args) for _ in range(2)]
        reports = []
        for r in runs:
            assert r.returncode in (0, 1)
            rep = json.loads(r.stdout)
            del rep["wall_time_s"]
            reports.append(json.dumps(rep, sort_keys=True).encode())
        assert reports[0] == reports[1]
        human = [_run_cli(*args[:-1]) for _ in range(2)]
        assert human[0].stdout.encode() == human[1].stdout.encode()


def test_criterion_7_largest_simulation_oracle():
    with criterion(7, "largest simulation equals the union of all simulations", 60.0):
        rng = random.Random(424243)
        checked = 0
        while checked < 25:
            nc = rng.randint(1, 3)
            na = rng.randint(1, 9 // nc)
            c = random_kripke(rng, nc, 0.45)
            a = random_kripke(rng, na, 0.45)
            assert largest_simulation(c, a) == brute_largest_simulation(c, a)
            checked += 1


def test_criterion_8_galois_verification():
    with criterion(8, "valid connections pass, a mutated abstraction table is rejected"):
        # identity connection: abstract lattice is the same powerset
        n = 3
        size = 1 << n
        powerset = FiniteLattice(
            size, [(x, y) for x in range(size) for y in range(size) if x & ~y == 0]
        )
        ident = GaloisSpec(n, powerset, tuple(1 << c for c in range(n)))
        ok, violation = check_galois(ident)
        assert ok and violation is None

        two_point = GaloisSpec(2, FiniteLattice(2, [(0, 1)]), (1, 1))
        ok, violation = check_galois(two_point)
        assert ok and violation is None

        # diamond lattice; remap one singleton in the tabulated map so the
        # table is no longer join-consistent with itself
        diamond = FiniteLattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        g = GaloisSpec(2, diamond, (1, 2))
        bad = list(naive_alpha_join_table(g))
        bad[0b10] = 1  # singleton {c1}: right leg -> left leg
        ok, violation = check_galois(g, alpha_table=bad)
        assert not ok
        assert violation is not None
        assert violation.kind == "alpha-gamma" and violation.subject == (1,)


def test_criterion_9_cli_end_to_end(tmp_path):
    with criterion(9, "gen planted | quotient --coarsest | bisim confirms bisimilarity"):
        lift_file = tmp_path / "lift.pts"
        gen = _run_cli(
            "gen", "planted", "--quotient-states", "3", "--actions", "a,b",
            "--density", "0.8", "--multiplicities", "2,3,2", "--seed", "31",
            "-o", str(lift_file),
        )
        assert gen.returncode == 0
        quot = _run_cli("quotient", str(lift_file), "--coarsest")
        assert quot.returncode == 0
        q_file = tmp_path / "q.pts"
        q_file.write_text(quot.stdout)
        final = _run_cli("bisim", str(lift_file), str(q_file))
        assert final.returncode == 0, final.stderr
        assert "bisimilar: yes" in final.stdout

        bad_file = tmp_path / "bad.pts"
        bad_file.write_text("states: s0\nactions: a\ns0 a oops 1.0\n")
        broken = _run_cli("bisim", str(bad_file), str(q_file))
        assert broken.returncode == 2
        assert "line 3" in broken.stderr

        short_row = tmp_path / "short.pts"
        short_row.write_text("states: s0 s1\nactions: a\ns0 a s1 0.25\n")
        invalid = _run_cli("quotient", str(short_row), "--coarsest")
        assert invalid.returncode == 2
