import json
import subprocess
import sys

import pytest

from pbisim.formats import parse_pts, print_classification, print_pts
from pbisim.generators import gen_planted, gen_random_pts, perturb


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "pbisim", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture()
def planted_files(tmp_path):
    q = gen_random_pts(2, ["a", "b"], 0.9, 17)
    lift, cls = gen_planted(q, [2, 2], 18)
    return {
        "quotient": write(tmp_path, "q.pts", print_pts(q)),
        "lift": write(tmp_path, "lift.pts", print_pts(lift)),
        "cls": write(tmp_path, "lift.cls", print_classification(cls)),
        "tmp": tmp_path,
    }


def test_bisim_exit_codes(planted_files):
    ok = run_cli("bisim", planted_files["lift"], planted_files["quotient"])
    assert ok.returncode == 0
    assert "bisimilar: yes" in ok.stdout

    lift_pts, _ = parse_pts(open(planted_files["lift"]).read())
    pert = perturb(lift_pts, 0.05, 3)
    bad = write(planted_files["tmp"], "pert.pts", print_pts(pert))
    not_ok = run_cli("bisim", planted_files["lift"], bad)
    assert not_ok.returncode == 1
    assert "bisimilar: no" in not_ok.stdout


def test_quotient_with_partition_file(planted_files):
    res = run_cli(
        "quotient", planted_files["lift"], "--partition", planted_files["cls"]
    )
    assert res.returncode == 0
    q, _ = parse_pts(res.stdout)
    expected, _ = parse_pts(open(planted_files["quotient"]).read())
    assert q.n == expected.n


def test_quotient_coarsest_then_bisim_pipeline(planted_files):
    res = run_cli("quotient", planted_files["lift"], "--coarsest")
    assert res.returncode == 0
    qfile = write(planted_files["tmp"], "coarse.pts", res.stdout)
    back = run_cli("bisim", planted_files["lift"], qfile)
    assert back.returncode == 0


def test_quotient_reads_stdin(planted_files):
    text = open(planted_files["lift"]).read()
    res = run_cli("quotient", "-", "--coarsest", stdin=text)
    assert res.returncode == 0
    parse_pts(res.stdout)


def test_epsilon_exact_json(planted_files):
    res = run_cli(
        "epsilon", planted_files["lift"], planted_files["quotient"], "--json"
    )
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["schema_version"] == 1
    assert report["command"] == "epsilon"
    assert report["result"]["epsilon"] == 0.0
    assert report["result"]["optimal"] is True
    assert len(report["inputs"]) == 2
    assert all("sha256" in e for e in report["inputs"])


def test_epsilon_nonzero_exits_one(planted_files):
    lift_pts, _ = parse_pts(open(planted_files["lift"]).read())
    pert = perturb(lift_pts, 0.05, 3)
    bad = write(planted_files["tmp"], "pert2.pts", print_pts(pert))
    res = run_cli("epsilon", planted_files["lift"], bad, "--json")
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["result"]["epsilon"] > 1e-6


def test_epsilon_search_deterministic_reports(planted_files):
    args = (
        "epsilon", planted_files["lift"], planted_files["quotient"],
        "--budget", "200", "--seed", "42", "--json",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode
    ra, rb = json.loads(a.stdout), json.loads(b.stdout)
    del ra["wall_time_s"], rb["wall_time_s"]
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_epsilon_jobs_matches_serial(planted_files):
    one = run_cli("epsilon", planted_files["lift"], planted_files["quotient"], "--json")
    two = run_cli(
        "epsilon", planted_files["lift"], planted_files["quotient"],
        "--jobs", "2", "--json",
    )
    ra, rb = json.loads(one.stdout), json.loads(two.stdout)
    assert ra["result"]["epsilon"] == rb["result"]["epsilon"]
    assert ra["result"]["k1"] == rb["result"]["k1"]
    assert ra["result"]["k2"] == rb["result"]["k2"]


def test_epsilon_budget_exceeded_exit_code(tmp_path):
    big = gen_random_pts(8, ["a"], 1.0, 1)
    f = write(tmp_path, "big.pts", print_pts(big))
    res = run_cli("epsilon", f, f)
    assert res.returncode == 3
    assert "budget" in res.stderr


def test_malformed_file_exits_two_with_line_number(tmp_path):
    bad = write(tmp_path, "bad.pts", "states: s0\nactions: a\ns0 a s9 1.0\n")
    res = run_cli("bisim", bad, bad)
    assert res.returncode == 2
    assert "line 3" in res.stderr


def test_missing_file_exits_two(tmp_path):
    res = run_cli("bisim", str(tmp_path / "nope.pts"), str(tmp_path / "nope.pts"))
    assert res.returncode == 2
    assert "cannot read" in res.stderr


def test_invalid_rows_exit_two(tmp_path):
    bad = write(tmp_path, "sum.pts", "states: s0 s1\nactions: a\ns0 a s1 0.5\n")
    res = run_cli("quotient", bad, "--coarsest")
    assert res.returncode == 2
    assert "sums to" in res.stderr


def test_sim_check_largest_and_relation(tmp_path):
    c = write(tmp_path, "c.kripke", "states: c0 c1\nc0 -> c1\n")
    a = write(tmp_path, "a.kripke", "states: a0\na0 -> a0\n")
    largest = run_cli("sim-check", c, a, "--largest", "--json")
    assert largest.returncode == 0
    rel = json.loads(largest.stdout)["result"]["relation"]
    assert ["c0", "a0"] in rel and ["c1", "a0"] in rel

    rfile = write(tmp_path, "r.rel", "c0 a0\nc1 a0\n")
    ok = run_cli("sim-check", c, a, "--relation", rfile)
    assert ok.returncode == 0

    a2 = write(tmp_path, "a2.kripke", "states: a0\n")
    bad = run_cli("sim-check", c, a2, "--relation", rfile, "--json")
    assert bad.returncode == 1
    cex = json.loads(bad.stdout)["result"]["counterexample"]
    assert cex == ["c0", "a0", "c1"]


def test_galois_check_and_against(tmp_path):
    g = write(
        tmp_path, "g.galois",
        "abstract: bot top\nleq: bot <= top\nalpha: c0 top\nalpha: c1 top\n",
    )
    ok = run_cli("galois-check", g)
    assert ok.returncode == 0
    assert "galois connection: yes" in ok.stdout

    c = write(tmp_path, "c.kripke", "states: c0 c1\nc0 -> c1\n")
    a_good = write(tmp_path, "ag.kripke", "states: bot top\ntop -> top\n")
    res = run_cli("galois-check", g, "--against", c, a_good)
    assert res.returncode == 0
    assert "abstraction basis: yes" in res.stdout

    a_bad = write(tmp_path, "ab.kripke", "states: bot top\n")
    res2 = run_cli("galois-check", g, "--against", c, a_bad, "--json")
    assert res2.returncode == 1
    assert json.loads(res2.stdout)["result"]["basis"] is False


def test_galois_check_rejects_non_lattice(tmp_path):
    g = write(
        tmp_path, "cyc.galois",
        "abstract: x y\nleq: x <= y\nleq: y <= x\nalpha: c0 x\n",
    )
    res = run_cli("galois-check", g)
    assert res.returncode == 2


def test_gen_random_deterministic_bytes():
    args = ("gen", "random", "--states", "4", "--actions", "a,b",
            "--density", "0.7", "--seed", "9")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_gen_planted_writes_sidecar(tmp_path):
    out = str(tmp_path / "lift.pts")
    res = run_cli(
        "gen", "planted", "--quotient-states", "2", "--actions", "a",
        "--density", "1.0", "--multiplicities", "2,3", "--seed", "4",
        "-o", out,
    )
    assert res.returncode == 0
    lift, names = parse_pts(open(out).read())
    assert lift.n == 5
    sidecar = open(out + ".cls").read()
    assert len(sidecar.strip().splitlines()) == 5

    check = run_cli("quotient", out, "--partition", out + ".cls")
    assert check.returncode == 0


def test_gen_perturb_round_trip(tmp_path):
    base = run_cli("gen", "random", "--states", "3", "--actions", "a",
                   "--density", "1.0", "--seed", "2")
    f = write(tmp_path, "base.pts", base.stdout)
    pert = run_cli("gen", "perturb", f, "--delta", "0.01", "--seed", "5")
    assert pert.returncode == 0
    parse_pts(pert.stdout)


def test_full_pipeline_via_files_and_stdin(tmp_path):
    lift = run_cli(
        "gen", "planted", "--quotient-states", "3", "--actions", "a,b",
        "--density", "0.8", "--multiplicities", "2,2,2", "--seed", "11",
    )
    assert lift.returncode == 0
    lift_file = write(tmp_path, "lift.pts", lift.stdout)
    quot = run_cli("quotient", "-", "--coarsest", stdin=lift.stdout)
    assert quot.returncode == 0
    q_file = write(tmp_path, "q.pts", quot.stdout)
    final = run_cli("bisim", lift_file, q_file)
    assert final.returncode == 0
    assert "bisimilar: yes" in final.stdout


BAD_BYTES = b"# comment\nstates: s0 \xff\n"  # invalid UTF-8 on line 2


@pytest.mark.parametrize(
    "command",
    [
        ["bisim", "{bad}", "{pts}"],
        ["bisim", "{pts}", "{bad}"],
        ["quotient", "{bad}", "--coarsest"],
        ["quotient", "{pts}", "--partition", "{bad}"],
        ["epsilon", "{pts}", "{bad}"],
        ["sim-check", "{bad}", "{kripke}", "--largest"],
        ["sim-check", "{kripke}", "{kripke}", "--relation", "{bad}"],
        ["galois-check", "{bad}"],
        ["galois-check", "{galois}", "--against", "{kripke}", "{bad}"],
        ["gen", "planted", "--quotient", "{bad}", "--multiplicities", "1", "--seed", "1"],
        ["gen", "perturb", "{bad}", "--delta", "0.1", "--seed", "1"],
    ],
)
def test_non_utf8_input_exits_two_with_line_number(tmp_path, command):
    paths = {
        "bad": tmp_path / "bad.txt",
        "pts": tmp_path / "ok.pts",
        "kripke": tmp_path / "ok.kripke",
        "galois": tmp_path / "ok.galois",
    }
    paths["bad"].write_bytes(BAD_BYTES)
    paths["pts"].write_text("states: s0\nactions: a\ns0 a s0 1\n")
    paths["kripke"].write_text("states: c0\nc0 -> c0\n")
    paths["galois"].write_text("abstract: top\nalpha: c0 top\n")
    res = run_cli(*[arg.format(**paths) for arg in command])
    assert res.returncode == 2
    assert res.stderr == "error: line 2: invalid UTF-8 byte 0xff\n"


@pytest.fixture()
def one_state(tmp_path):
    return write(tmp_path, "one.pts", "states: s0\nactions: a\ns0 a s0 1\n")


def test_tol_must_be_finite_and_non_negative(one_state):
    for command in ("bisim", "epsilon"):
        for value in ("nan", "-1", "inf"):
            res = run_cli(command, one_state, one_state, "--tol", value)
            assert res.returncode == 2
            assert "argument --tol: must be finite and >= 0" in res.stderr
    assert run_cli("quotient", one_state, "--coarsest", "--tol", "-1e-9").returncode == 2
    assert run_cli("bisim", one_state, one_state, "--tol", "0").returncode == 0


def test_budget_must_be_positive(one_state):
    for value in ("-5", "0"):
        res = run_cli("epsilon", one_state, one_state, "--budget", value)
        assert res.returncode == 2
        assert "argument --budget: must be >= 1" in res.stderr


def test_pair_cap_must_be_positive(one_state):
    res = run_cli("epsilon", one_state, one_state, "--pair-cap", "0")
    assert res.returncode == 2
    assert "argument --pair-cap: must be >= 1" in res.stderr


def test_jobs_must_be_positive(one_state):
    res = run_cli("epsilon", one_state, one_state, "--jobs", "0")
    assert res.returncode == 2
    assert "argument --jobs: must be >= 1" in res.stderr
