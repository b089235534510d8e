import json
import os
import random
import subprocess
import sys

import pytest

from pbisim import cli
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


def test_partition_with_a_huge_class_index_exits_two(tmp_path):
    pts = write(tmp_path, "t.pts", "states: s0 s1\nactions: a\ns0 a s1 1.0\ns1 a s0 1.0\n")
    cls = write(tmp_path, "t.cls", "s0 0\ns1 100000000000000000000\n")
    res = run_cli("quotient", pts, "--partition", cls)
    assert res.returncode == 2, res.stderr
    assert "error: class 1 has no states" in res.stderr


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


def test_each_command_imports_only_the_modules_it_runs(planted_files):
    tmp = planted_files["tmp"]
    kripke = write(tmp, "c.kripke", "states: c0 c1\nc0 -> c1\n")
    galois = write(tmp, "g.galois", "abstract: top\nalpha: c0 top\n")
    lift, quotient = planted_files["lift"], planted_files["quotient"]
    front = {"cli", "errors", "formats", "report"}
    systems = front | {"core", "matrices"}
    table = [
        (["bisim", lift, quotient], systems | {"bisim"}),
        (["quotient", lift, "--coarsest"], systems | {"bisim"}),
        (["epsilon", lift, quotient], systems | {"epsilon"}),
        (["epsilon", lift, quotient, "--budget", "50"], systems | {"bisim", "epsilon", "search"}),
        (["sim-check", kripke, kripke, "--largest"], front | {"galois"}),
        (["galois-check", galois], front | {"galois"}),
        (["gen", "random", "--states", "3", "--seed", "1"], front | {"core", "generators"}),
    ]
    for argv, expected in table:
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "pbisim", *argv],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
                  if line.startswith("import time:")}
        modules = {m.split(".", 1)[1] for m in loaded if m.startswith("pbisim.")}
        assert modules == expected, argv
        assert "numpy.ma" not in loaded, argv[0]
        # only a run that ends in an internal error prints a traceback
        assert "traceback" not in loaded, argv[0]


BLAS_PROBE = """
import os, sys
import pbisim.cli
assert "numpy" in sys.modules
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(os.environ.get("OPENBLAS_NUM_THREADS"), tasks)
"""


@pytest.mark.parametrize("given", [None, "2"])
def test_the_cli_runs_numpy_on_one_blas_thread_unless_told_otherwise(given):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    res = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    value, tasks = res.stdout.split()
    assert value == (given or "1")
    if given is None and tasks != "None":
        assert tasks == "1"


def test_the_package_resolves_every_public_name_lazily():
    import importlib

    import pbisim

    assert len(pbisim.__all__) == len(set(pbisim.__all__)) == 31
    for name in pbisim.__all__:
        obj = getattr(pbisim, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    for sub in ("bisim", "cli", "core", "epsilon", "errors", "formats", "galois",
                "generators", "matrices", "report"):
        assert getattr(pbisim, sub) is importlib.import_module(f"pbisim.{sub}")
    with pytest.raises(AttributeError, match="no_such_name"):
        pbisim.no_such_name


def test_epsilon_budget_exceeded_exit_code(tmp_path):
    big = gen_random_pts(8, ["a"], 1.0, 1)
    f = write(tmp_path, "big.pts", print_pts(big))
    res = run_cli("epsilon", f, f)
    assert res.returncode == 3
    assert "budget" in res.stderr


@pytest.fixture(scope="module")
def random600(tmp_path_factory):
    res = run_cli("gen", "random", "--states", "600", "--density", "0.005", "--seed", "1")
    assert res.returncode == 0
    path = tmp_path_factory.mktemp("r600") / "r600.pts"
    path.write_text(res.stdout)
    return str(path)


def test_epsilon_budget_on_600_states_exits_three(random600):
    # the a-priori pair count is computed without recursion
    res = run_cli("epsilon", random600, random600)
    assert res.returncode == 3
    assert "exhaustive search needs" in res.stderr and "budget is 10000000" in res.stderr


def test_epsilon_search_on_600_states_reports_the_pair_space(random600):
    res = run_cli("epsilon", random600, random600, "--budget", "10", "--json")
    assert res.returncode in (0, 1), res.stderr
    report = json.loads(res.stdout)["result"]
    assert report["pair_space"] > 10**1000 and report["method"] == "local-search"


def test_epsilon_on_1000_states_writes_the_pair_space_approximately(tmp_path):
    # pair_space's count for 1000 states a side has 4,334 digits, past
    # Python's default limit for converting an int to text
    res = run_cli("gen", "random", "--states", "1000", "--density", "0.003", "--seed", "1")
    f = write(tmp_path, "r1000.pts", res.stdout)
    exact = run_cli("epsilon", f, f)
    assert exact.returncode == 3, exact.stderr
    assert "needs more than 10^4300 classification pairs, budget is 10000000" in exact.stderr
    search = run_cli("epsilon", f, f, "--budget", "5", "--json")
    assert search.returncode in (0, 1), search.stderr
    report = json.loads(search.stdout)["result"]
    assert report["pair_space"] is None and report["method"] == "local-search"


def test_exact_epsilon_of_a_1200_state_cycle_against_one_state(tmp_path):
    # one pair to score; the enumerator walks 1,200 states without recursion
    n = 1200
    states = " ".join(f"s{i}" for i in range(n))
    cycle = "".join(f"s{i} a s{(i + 1) % n} 1\n" for i in range(n))
    c = write(tmp_path, "cycle.pts", f"states: {states}\nactions: a\n{cycle}")
    f = write(tmp_path, "loop.pts", "states: f\nactions: a\nf a f 1\n")
    res = run_cli("epsilon", c, f, "--json")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)["result"]
    assert report["epsilon"] == 0.0 and report["classes"] == 1 and report["pair_space"] == 1


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
    # an unbounded delta moves each row's whole donor entry
    assert run_cli("gen", "perturb", f, "--delta", "inf", "--seed", "5").returncode == 0


@pytest.mark.parametrize(
    "command",
    [
        ["gen", "planted", "--quotient", "{pts}", "--multiplicities", "a,b", "--seed", "1"],
        ["gen", "perturb", "{pts}", "--delta", "nan", "--seed", "1"],
        ["gen", "random", "--states", "2", "--actions", "a,a", "--seed", "1"],
    ],
)
def test_gen_rejects_bad_values_with_exit_two(tmp_path, command):
    pts = write(tmp_path, "q.pts", "states: s0 s1\nactions: a\ns0 a s1 1\ns1 a s0 1\n")
    res = run_cli(*[arg.format(pts=pts) for arg in command])
    assert res.returncode == 2
    assert res.stderr.startswith("error:")
    assert res.stdout == ""


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


@pytest.mark.parametrize("argv", [
    ["bisim", "-", "-"],
    ["epsilon", "-", "-"],
    ["sim-check", "-", "-", "--largest"],
    ["quotient", "-", "--partition", "-"],
    ["galois-check", "-", "--against", "-", "f"],
])
def test_standard_input_is_named_at_most_once(argv):
    stdin = {"sim-check": "states: c0\n", "galois-check": "abstract: top\nalpha: c0 top\n"}
    res = run_cli(*argv, stdin=stdin.get(argv[0], "states: s0\nactions: a\ns0 a s0 1\n"))
    assert res.returncode == 2, res.stderr
    assert "standard input can be read only once" in res.stderr


PLANTED = ["gen", "planted", "--quotient-states", "2", "--multiplicities", "1,2", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    ["gen", "random", "--states", "2", "--seed", "1", "-o", "-"],
    PLANTED + ["-o", "-"],
    PLANTED + ["-o", "lift.pts", "--sidecar", "-"],
    PLANTED + ["--sidecar", "-"],
    ["gen", "perturb", "base.pts", "--delta", "0.1", "--seed", "1", "-o", "-"],
])
def test_gen_refuses_dash_as_an_output_file(tmp_path, argv):
    (tmp_path / "base.pts").write_text("states: s0\nactions: a\ns0 a s0 1\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    res = subprocess.run([sys.executable, "-m", "pbisim", *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert "expected a file name, got '-'" in res.stderr
    assert res.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base.pts"]


def test_pair_cap_must_be_positive(one_state):
    res = run_cli("epsilon", one_state, one_state, "--pair-cap", "0")
    assert res.returncode == 2
    assert "argument --pair-cap: must be >= 1" in res.stderr


def test_epsilon_rejects_the_removed_jobs_flag(planted_files):
    # the exhaustive scan is serial; --jobs is an unknown flag, not a failed run
    res = run_cli("epsilon", planted_files["lift"], planted_files["quotient"], "--jobs", "2")
    assert res.returncode == 2
    assert "unrecognized arguments: --jobs 2" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("exc", [MemoryError("parse buffer"), RuntimeError("boom")])
def test_unexpected_exception_exits_four(one_state, monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "parse_pts", fail)
    assert cli.main(["quotient", one_state, "--coarsest", "--json"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: internal error: {type(exc).__name__}: {exc}\n")
    assert "Traceback (most recent call last)" in err


@pytest.mark.parametrize("command", [["bisim"], ["epsilon"], ["epsilon", "--budget", "5"]])
def test_a_file_named_twice_is_parsed_once(planted_files, monkeypatch, capsys, command):
    parsed = []

    def counting_parse(*args):
        parsed.append(args)
        return parse_pts(*args)

    monkeypatch.setattr(cli, "parse_pts", counting_parse)
    lift = planted_files["lift"]
    copy = write(planted_files["tmp"], "copy.pts", open(lift).read())
    runs = []
    for second in (lift, copy):
        parsed.clear()
        code = cli.main([command[0], lift, second, *command[1:], "--json"])
        runs.append((code, len(parsed), json.loads(capsys.readouterr().out)))
    (code, count, same), (copy_code, copy_count, copied) = runs
    assert (count, copy_count) == (1, 2)
    # both input entries stay in the report, as they were when parsed twice
    assert [json.dumps(e, sort_keys=True) for e in same["inputs"]] == [
        json.dumps({"path": lift, "sha256": copied["inputs"][0]["sha256"]}, sort_keys=True)
    ] * 2
    assert code == copy_code and same["result"] == copied["result"]
    assert same["params"] == copied["params"]


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_coarsest_quotient_is_idempotent(tmp_path, seed):
    lift = run_cli(
        "gen", "planted", "--quotient-states", "4", "--actions", "a,b",
        "--density", "0.7", "--multiplicities", "3,1,2,2", "--seed", str(seed),
    )
    first = run_cli("quotient", "-", "--coarsest", "--json", stdin=lift.stdout)
    assert first.returncode == 0
    once = json.loads(first.stdout)["result"]
    second = run_cli("quotient", "-", "--coarsest", "--json", stdin=once["quotient_pts"])
    assert second.returncode == 0
    twice = json.loads(second.stdout)["result"]
    assert twice["quotient_pts"] == once["quotient_pts"]
    assert twice["classes"] == once["classes"]
    assert twice["classification"] == {f"c{j}": j for j in range(once["classes"])}


ODD_TOKENS = ["nan", "inf", "-inf", "1/0", "\0", "9" * 400, "-" + "9" * 30, "é", "∞", "\udcff"]


def _mutate(rng, text):
    """``text`` after one to three random line deletions, duplications or
    swaps, token swaps (a token takes another line's token of the same
    column), or odd tokens put in place of a token."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        kind, i, k = rng.randrange(5), rng.randrange(len(lines)), rng.randrange(len(lines))
        words = lines[i].split()
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[i])
        elif kind == 2:
            lines[i], lines[k] = lines[k], lines[i]
        elif words:
            j = rng.randrange(len(words))
            other = lines[k].split()
            words[j] = other[j] if kind == 3 and j < len(other) else rng.choice(ODD_TOKENS)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def test_mutated_inputs_never_crash_any_command(tmp_path, capsys):
    q = gen_random_pts(2, ["a", "b"], 0.9, 17)
    lift, cls = gen_planted(q, [2, 2], 18)
    texts = {
        "q.pts": print_pts(q),
        "lift.pts": print_pts(lift),
        "lift.cls": print_classification(cls),
        "c.kripke": "states: c0 c1\nc0 -> c1\nc1 -> c1\n",
        "a.kripke": "states: bot top\ntop -> top\n",
        "r.rel": "c0 top\nc1 top\n",
        "g.galois": "abstract: bot top\nleq: bot <= top\nalpha: c0 top\nalpha: c1 top\n",
    }
    commands = [
        ["bisim", "lift.pts", "q.pts"],
        ["quotient", "lift.pts", "--coarsest"],
        ["quotient", "lift.pts", "--partition", "lift.cls"],
        ["epsilon", "lift.pts", "q.pts"],
        ["epsilon", "lift.pts", "q.pts", "--budget", "20", "--norm", "frobenius"],
        ["sim-check", "c.kripke", "a.kripke", "--largest"],
        ["sim-check", "c.kripke", "a.kripke", "--relation", "r.rel"],
        ["galois-check", "g.galois", "--against", "c.kripke", "a.kripke"],
        ["gen", "perturb", "lift.pts", "--delta", "0.05", "--seed", "1"],
        ["gen", "planted", "--quotient", "q.pts", "--multiplicities", "2,1", "--seed", "1"],
    ]
    rng = random.Random(2013)
    codes = set()
    for _ in range(300):
        argv = list(rng.choice(commands))
        files = [a for a in argv if a in texts]
        target = rng.choice(files)
        for name in files:
            text = _mutate(rng, texts[name]) if name == target else texts[name]
            (tmp_path / name).write_bytes(text.encode("utf-8", "surrogateescape"))
        argv = [str(tmp_path / a) if a in texts else a for a in argv] + ["--json"] * rng.randrange(2)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, (tmp_path / target).read_bytes(), err)
        codes.add(code)
    assert {0, 1, 2} <= codes
