"""Memory grows with the input's size, not with the state count squared.

A 50,000-state system held as dense matrices needs 20 GB per action.  The
commands below run as child processes whose address space is capped at
1 GiB (importing numpy and pbisim alone maps about 150 MB), so a dense
allocation anywhere on the bisim, quotient, epsilon search,
``epsilon_distance`` or generator path fails with MemoryError.  On the
simulation side, a largest simulation of millions of pairs must stay an
array rather than Python tuples.
"""

import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pbisim.formats import parse_pts

LIMIT = 1 << 30


def planted_text(quotient: int, mult: int, seed: int) -> str:
    """Sparse lift of a random quotient: 2 actions, out-degree <= 4.

    Quotient state j becomes ``mult`` states.  On each action a quotient
    row sends dyadic mass to two blocks, and every lifted state splits each
    block's mass over two of its members; action b is disabled in every
    third block.  The lift's coarsest bisimulation has at most ``quotient``
    classes.
    """
    rng = np.random.default_rng(seed)
    n = quotient * mult
    block = np.repeat(np.arange(quotient), mult)
    lines = ["states: " + " ".join(f"s{i}" for i in range(n)), "actions: a b"]
    for a in "ab":
        t0 = rng.integers(quotient, size=quotient)
        targets = np.stack([t0, (t0 + rng.integers(1, quotient, size=quotient)) % quotient], axis=1)
        first = rng.integers(1, 1024, size=quotient) / 1024
        src, dst, prob = [], [], []
        for k, mass in ((0, first), (1, 1 - first)):
            m0 = rng.integers(mult, size=n)
            members = targets[block, k][:, None] * mult + np.stack(
                [m0, (m0 + rng.integers(1, mult, size=n)) % mult], axis=1
            )
            share = rng.integers(1, 1024, size=n) / 1024
            for col, w in ((0, share), (1, 1 - share)):
                src.append(np.arange(n))
                dst.append(members[:, col])
                prob.append(mass[block] * w)
        s, t, p = np.concatenate(src), np.concatenate(dst), np.concatenate(prob)
        if a == "b":
            keep = block[s] % 3 != 0
            s, t, p = s[keep], t[keep], p[keep]
        lines += [f"s{x} {a} s{y} {z!r}" for x, y, z in zip(s.tolist(), t.tolist(), p.tolist())]
    return "\n".join(lines) + "\n"


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))


def run_limited(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "pbisim", *args],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    path = tmp_path_factory.mktemp("wide") / "wide.pts"
    path.write_text(planted_text(40, 1250, 5))
    return path


def test_50k_states_run_in_one_gib(wide):
    res = run_limited("quotient", str(wide), "--coarsest", "--json")
    assert res.returncode == 0, res.stderr[-2000:]
    classes = json.loads(res.stdout)["result"]["classes"]
    assert 1 < classes <= 40

    res = run_limited("bisim", str(wide), str(wide), "--json")
    assert res.returncode == 0, res.stderr[-2000:]
    result = json.loads(res.stdout)["result"]
    assert result["bisimilar"] and result["classes"] == classes


def test_epsilon_search_on_50k_states_runs_in_one_gib(wide):
    # the search keeps each system's edge table and the class masses it
    # reads; one dense matrix per action needs 37 GiB
    res = run_limited("epsilon", str(wide), str(wide), "--budget", "10", "--json")
    assert res.returncode in (0, 1), res.stderr[-2000:]
    result = json.loads(res.stdout)["result"]
    assert result["method"] == "local-search"
    assert result["epsilon"] == 0.0 and 1 < result["classes"] <= 40


def test_exact_epsilon_on_20k_states_exits_three_in_one_gib(tmp_path):
    # the a-priori pair count has far more than 4,300 digits, which its
    # float bounds show without the exact Stirling rows of 20,000 states
    path = tmp_path / "r.pts"
    res = run_limited("gen", "random", "--states", "20000", "--actions", "a",
                      "--density", "0.0002", "--seed", "2", "-o", str(path))
    assert res.returncode == 0, res.stderr[-2000:]
    res = run_limited("epsilon", str(path), str(path), timeout=30)
    assert res.returncode == 3, res.stderr[-2000:]
    assert "needs more than 10^4300 classification pairs, budget is 10000000" in res.stderr


DISTANCE = """
import sys
from pbisim import coarsest_bisimulation, epsilon_distance
from pbisim.formats import parse_pts
pts, _ = parse_pts(open(sys.argv[1]).read())
c = coarsest_bisimulation(pts)
print(c.m, epsilon_distance(pts, pts, c, c))
"""


def test_epsilon_distance_on_50k_states_runs_in_one_gib(wide):
    # both systems are lumped on their edge tables; one dense matrix per
    # action and side needs 37 GiB
    res = subprocess.run([sys.executable, "-c", DISTANCE, str(wide)], capture_output=True,
                         text=True, preexec_fn=limit_address_space)
    assert res.returncode == 0, res.stderr[-2000:]
    classes, distance = res.stdout.split()
    assert 1 < int(classes) <= 40 and float(distance) == 0.0


PARSE = """
import sys
from pbisim.formats import parse_pts
with open(sys.argv[1]) as fh:
    pts, names = parse_pts(fh.read())
with open("/proc/self/status") as fh:
    peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(pts.row.size, len(names), peak)
"""


def test_parsing_100k_states_peaks_under_250_mb(tmp_path):
    # the 24 MB text is converted a piece at a time, so no token outlives
    # its piece as a Python string; holding every token until the arrays
    # were built peaked at 326 MB.  The child's own peak is VmHWM: its
    # ru_maxrss starts at the resident set of the forking test process.
    path = tmp_path / "w.pts"
    path.write_text(planted_text(40, 2500, 3))
    res = subprocess.run([sys.executable, "-c", PARSE, str(path)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr[-2000:]
    edges, states, peak_kib = map(int, res.stdout.split())
    assert states == 100_000 and edges > 600_000
    assert peak_kib / 1024 <= 250


def test_generators_on_50k_states_run_in_one_gib(wide, tmp_path):
    base, _ = parse_pts(wide.read_text())
    out = tmp_path / "out.pts"

    res = run_limited("gen", "perturb", str(wide), "--delta", "0.01", "--seed", "3", "-o", str(out))
    assert res.returncode == 0, res.stderr[-2000:]
    pert, _ = parse_pts(out.read_text())
    assert pert.n == base.n and pert != base

    # one lifted state per quotient state reproduces the quotient exactly
    ones = ",".join(["1"] * base.n)
    res = run_limited("gen", "planted", "--quotient", str(wide), "--multiplicities", ones,
                      "--seed", "4", "-o", str(out))
    assert res.returncode == 0, res.stderr[-2000:]
    assert parse_pts(out.read_text())[0] == base


def test_relation_check_on_50k_declared_states_runs_in_one_gib(tmp_path):
    # a dense 50,000 x 50,000 relation or successor matrix needs 2.5-10 GB;
    # the check only needs the related pairs and their steps, also when
    # every state is related
    n = 50_000
    ring = "\n".join(f"x{i} -> x{(i + 1) % n}" for i in range(0, n, 97))
    c = tmp_path / "c.kripke"
    c.write_text("states: " + " ".join(f"x{i}" for i in range(n)) + "\n" + ring + "\n")
    rel = tmp_path / "r.rel"
    rel.write_text("x0 x0\nx1 x0\nx97 x1\n")

    res = run_limited("sim-check", str(c), str(c), "--relation", str(rel), "--json")
    assert res.returncode == 1, res.stderr[-2000:]
    assert json.loads(res.stdout)["result"]["counterexample"] == ["x0", "x0", "x1"]

    rel.write_text("".join(f"x{i} x{i}\n" for i in range(n)))
    res = run_limited("sim-check", str(c), str(c), "--relation", str(rel), "--json")
    assert res.returncode == 0, res.stderr[-2000:]
    assert json.loads(res.stdout)["result"]["simulation"] is True


def test_partition_checks_run_in_one_gib_for_any_class_index(tmp_path):
    # a flag per class of a 300,000,001-class partition needs 2.4 GB
    pts = tmp_path / "t.pts"
    pts.write_text("states: s0 s1\nactions: a\ns0 a s1 1.0\ns1 a s0 1.0\n")
    cls = tmp_path / "t.cls"
    cls.write_text("s0 0\ns1 300000000\n")
    res = run_limited("quotient", str(pts), "--partition", str(cls))
    assert res.returncode == 2, res.stderr[-2000:]
    assert "error: class 1 has no states" in res.stderr


SPARSE_SIMULATION = """
import random, sys
sys.path.insert(0, {tests!r})
from helpers import random_kripke
from pbisim.galois import is_simulation, largest_simulation
rng = random.Random(2000)
c, a = random_kripke(rng, 2000, 3 / 2000), random_kripke(rng, 2000, 3 / 2000)
rel = largest_simulation(c, a)
print(len(rel.pairs), is_simulation(c, a, rel))
"""


def test_sparse_2k_state_simulation_runs_in_one_gib():
    # out-degree about 3: the largest simulation holds 3.7 M pairs, which
    # fit in 1 GiB as one array but not as Python tuples plus their arrays
    code = SPARSE_SIMULATION.format(tests=str(Path(__file__).parent))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         preexec_fn=limit_address_space)
    assert res.returncode == 0, res.stderr[-2000:]
    count, verdict = res.stdout.split(" ", 1)
    assert 0 < int(count) < 2000 * 2000
    assert verdict == "(True, None)\n"
