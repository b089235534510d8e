"""Self-tests of the benchmark: determinism, failure counting and tracing.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs as gen
import oracles
import run
import tracing
import workloads


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _jobs(tmp_path: Path, workload: str, seed: int = 1, keep=None):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    out.mkdir()
    jobs = workloads.build(workload, seed, inputs)
    if keep is not None:
        jobs = [j for j in jobs if j.id in keep]
    return jobs, inputs, out


def _note(notes, prefix):
    return next(line for line in notes if line.startswith(prefix)).split(": ", 1)[1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path, workload):
    workloads.build(workload, 7, tmp_path / "a")
    workloads.build(workload, 7, tmp_path / "b")
    workloads.build(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_other_seed_same_work_profile(tmp_path):
    """Seeds move edges, lumpings and alterations around, not their count or depth."""
    profiles = []
    for seed in (7, 8):
        jobs = {j.id: j for j in workloads.build("sim-galois", seed, tmp_path / f"s{seed}")}
        c, a = jobs["largest-0"].expect["c"], jobs["largest-0"].expect["a"]
        eps = {j.id: j for j in workloads.build("epsilon-small", seed, tmp_path / f"e{seed}")}
        lift8 = eps["exact-self-8"].expect["p1"]
        wide = {j.id: j for j in workloads.build("lump-wide", seed, tmp_path / f"w{seed}")}
        profiles.append((len(c.edges), len(a.edges), oracles.largest_simulation_rounds(c, a)[1],
                         {m: len(v) for m, v in oracles.lumpable_partitions(lift8).items() if m > 1},
                         oracles.refinement_rounds(wide["lift-vs-altered"].expect["union"])))
    assert profiles[0] == profiles[1]
    assert profiles[0][2:] == (workloads.SIM_ROUNDS, workloads.SELF8_PROFILE,
                               workloads.WIDE_ALT_ROUNDS)


def test_corrupted_expectation_counts_as_failed(tmp_path):
    jobs, inputs, out = _jobs(tmp_path, "refine-deep", keep={"chain-equal", "chain-off-by-one"})
    jobs[0].expect["classes"] += 1
    metrics, attempted, failed, notes = run.measure(jobs, inputs, out, 0, 50)
    assert (attempted, failed) == (2, 1)
    assert float(_note(notes, "failed_share").split()[0]) == 0.5
    assert metrics["jobs_per_s"][0] > 0


def test_traced_run_matches_plain_and_subprocess_runs(tmp_path):
    keep = {"exact-perturbed-5", "exact-lift6-vs-quotient", "search-perturbed-6"}
    jobs, inputs, out = _jobs(tmp_path, "epsilon-small", keep=keep)
    _, attempted, failed, notes = run.measure(jobs, inputs, out, 0, 50)
    assert (attempted, failed) == (3, 0)
    metrics, attempted, failed, traced_notes = run.measure_traced(jobs, inputs, out, 0)
    # failed counts a traced digest that differs from the plain one, and spans
    # with negative self time or children outside their parents
    assert (attempted, failed) == (6, 0)
    traced, plain = _note(traced_notes, "result_digest").split(" (plain run: ")
    assert traced == plain.rstrip(")") == _note(notes, "result_digest")
    assert metrics["epsilon.enumerated"][0] > 0
    assert metrics["galois.largest_simulation.s"][0] == 0
    assert set(metrics) >= {"trace.overhead_share", "cli.start_s"}


def test_span_checks_reject_inconsistent_spans():
    tracer = tracing.Tracer()
    tracer.spans = [("j", "outer", 0.0, 1.0, -1, 0.5), ("j", "inner", 0.2, 0.7, 0, 0.0)]
    assert tracer.self_times_ok()
    tracer.spans[1] = ("j", "inner", 0.2, 1.5, 0, 0.0)  # ends after its parent
    assert not tracer.self_times_ok()
    tracer.spans[1] = ("j", "inner", 0.2, 0.7, 0, 0.9)  # negative self time
    assert not tracer.self_times_ok()


def test_tracer_restores_the_originals():
    sys.path.insert(0, str(run.SRC))
    import pbisim.bisim
    import pbisim.cli

    originals = (pbisim.cli.are_bisimilar, pbisim.bisim.coarsest_bisimulation)
    tracer = tracing.Tracer()
    tracer.install()
    assert pbisim.cli.are_bisimilar is not originals[0]
    assert pbisim.bisim.coarsest_bisimulation is not originals[1]
    tracer.uninstall()
    assert (pbisim.cli.are_bisimilar, pbisim.bisim.coarsest_bisimulation) == originals


def test_oracles_on_planted_and_perturbed_systems():
    rng = random.Random(3)
    q = gen.random_dense(rng, 3, ["a", "b"], 0.8, "q")
    lift, planted = gen.lift(rng, q, [2, 2, 1], "u")
    assert oracles.lumpable(lift, planted)
    assert oracles.bisimilar(lift, q)
    assert oracles.exact_epsilon(lift, q) == 0.0
    pert = gen.perturb(rng, q, 0.01)
    assert 0.0 < oracles.exact_epsilon(q, pert) <= 0.02


def test_largest_simulation_oracle_matches_the_definition():
    rng = random.Random(5)
    c = gen.random_kripke(rng, 6, 0.3, 0.3, "c")
    a = gen.random_kripke(rng, 5, 0.3, 0.3, "a")
    rel = oracles.largest_simulation(c, a)
    assert not any(oracles.simulation_violation(c, a, rel, (x, y, t))
                   for x, y in rel for t in range(c.n))
    for extra in {(x, y) for x in range(c.n) for y in range(a.n)} - rel:
        bigger = rel | {extra}
        assert any(oracles.simulation_violation(c, a, bigger, (x, y, t))
                   for x, y in bigger for t in range(c.n))


def test_exits_nonzero_without_sources(tmp_path):
    root = Path(run.ROOT)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-galois", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
