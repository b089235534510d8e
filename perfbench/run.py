"""Seeded end-to-end benchmark of the pbisim command line.

Run from the repository root::

    python3 perfbench/run.py --workload refine-deep --seed 1 --seconds 30 --trace 0

Set-up writes the workload's inputs under ``.bench_work/`` and runs one
warm-up job, ``SETUP_REPEATS`` times; ``setup_s`` is the median, each
repeat scaled like the jobs by the reference run after it.  With
``--trace 0`` the benchmark is a closed loop with one client: it runs
``python -m pbisim ... --json`` (``PYTHONPATH=src``) one job at a time from
the input directory, in whole passes over the job list, until another pass
would not fit in ``--seconds``.  A fixed reference process
(``reference.py``) runs between the jobs, and times are scaled to a host on
which it takes ``REF_S`` seconds (see ``measure``).  Every job's exit code
and report are checked against answers known by construction or computed
by the benchmark's own oracles.  With ``--trace 1`` the same jobs run in-process through
``pbisim.cli.main``, alternately plain and traced, and the run reports
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit, ``failed_share``, the tail percentile,
the ``result_digest`` and the machine and code facts.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
VERSION_REPEATS = 5
JOB_TIMEOUT_S = 60.0
REFERENCE = HERE / "reference.py"
# Wall seconds of one ``reference.py`` run on the 2-vCPU VM the benchmark
# was written on, in one of its fast spells.
REF_S = 0.16

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class JobRun:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], cwd: Path, out_dir: Path) -> JobRun:
    """Run ``python args`` and wait for it, with its own rusage."""
    with open(out_dir / "stdout", "w+b") as out, open(out_dir / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args],
                                cwd=cwd, env=_env(), stdout=out, stderr=err)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(JOB_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    if timed_out.is_set():
        code = -9
    return JobRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code, text)


def pbisim(argv: list[str], cwd: Path, out_dir: Path) -> JobRun:
    return spawn(["-m", "pbisim", *argv], cwd, out_dir)


def reference(out_dir: Path) -> float:
    """Wall seconds of one run of ``reference.py``."""
    r = spawn([str(REFERENCE)], HERE, out_dir)
    if r.code != 0:
        raise SystemExit(f"error: {REFERENCE.name} exited with {r.code}")
    return r.wall


class Judge:
    """Checks each job once, then holds later passes to the same report."""

    def __init__(self):
        self.first: dict[str, tuple] = {}
        self.order: list[str] = []

    def __call__(self, job, code: int, stdout: str) -> str | None:
        try:
            body = checks.canonical(stdout)
        except ValueError:
            body = b""
        if job.id not in self.first:
            self.first[job.id] = (body, code, checks.check(job, code, stdout))
            self.order.append(job.id)
            return self.first[job.id][2]
        body0, code0, why0 = self.first[job.id]
        if body != body0 or code != code0:
            return checks.check(job, code, stdout) or "report differs from the first pass"
        return why0

    def digest(self) -> str:
        return checks.digest(self.order, [self.first[j][0] for j in self.order])


def fingerprint(directory: Path) -> str:
    return checks.digest(*zip(*[(p.name, p.read_bytes()) for p in sorted(directory.iterdir())]))


def setup(workload: str, seed: int, base: Path):
    """Build inputs and run one warm-up job, several times.

    Returns the jobs, the directories, and the median set-up time, raw and
    scaled like a job by the reference runs before and after each repeat.
    """
    inputs, out = base / "inputs", base / "out"
    base.parent.mkdir(parents=True, exist_ok=True)
    ref = reference(base.parent)
    raw, scaled, prints = [], [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(base, ignore_errors=True)
        out.mkdir(parents=True)
        jobs = workloads.build(workload, seed, inputs)
        pbisim(jobs[0].argv, inputs, out)
        raw.append(time.perf_counter() - start)
        after = reference(out)
        scaled.append(raw[-1] * 2 * REF_S / (ref + after))
        ref = after
        prints.add(fingerprint(inputs))
    if len(prints) != 1:
        raise SystemExit("error: the same seed gave different inputs")
    return jobs, inputs, out, statistics.median(scaled), statistics.median(raw)


def passes(jobs, seconds: float, run_pass) -> int:
    """Run whole passes until another one would not fit in ``seconds``."""
    start = time.perf_counter()
    done, last = 0, 0.0
    while done == 0 or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        run_pass(done)
        last = time.perf_counter() - t
        done += 1
    return done


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` sorted values."""
    return max(1, -(-n * pct // 100))


def measure(jobs, inputs: Path, out: Path, seconds: float, tail_pct: int):
    """Closed loop over the job list, with the reference process between jobs.

    The shared host's speed moves by a half and more, within seconds and
    over minutes, so raw job times follow the host more than the program.
    Each job runs between two runs of ``reference.py``; its wall and CPU
    times are multiplied by ``REF_S`` over the mean wall time of those two,
    which gives what the job would take on a host where the reference takes
    ``REF_S`` seconds.  The raw figures are printed in the notes.

    Throughput, the percentiles and CPU are taken over each job's median
    over the passes: a pooled percentile that falls between two jobs would
    pick the slowest run of the faster one, an outlier.
    """
    judge = Judge()
    log = []  # [pass, job id, wall, cpu, rss_mb, code, failure, scale]
    refs = [reference(out)]

    def run_pass(k):
        for job in jobs:
            r = pbisim(job.argv, inputs, out)
            refs.append(reference(out))
            why = "timeout" if r.code == -9 else judge(job, r.code, r.stdout)
            if why:
                print(f"FAIL {job.id}: {why}", file=sys.stderr)
            scale = 2 * REF_S / (refs[-2] + refs[-1])
            log.append([k, job.id, r.wall, r.cpu, r.rss_mb, r.code, why, scale])

    n_passes = passes(jobs, seconds, run_pass)
    (out / "jobs.json").write_text(json.dumps(log))
    failed = sum(1 for row in log if row[6])
    by_job = [[row for row in log if row[1] == job.id] for job in jobs]

    def summary(scaled: bool):
        f = (lambda row: row[7]) if scaled else (lambda row: 1.0)
        walls = sorted(statistics.median(r[2] * f(r) for r in rows) for rows in by_job)
        return {
            "jobs_per_s": ((len(log) - failed) / len(log) * len(jobs) / sum(walls), "1/s"),
            "job_s.p50": (walls[rank(len(walls), 50) - 1], "s"),
            "job_s.tail": (walls[rank(len(walls), tail_pct) - 1], "s"),
            "job_cpu_s": (statistics.fmean(
                statistics.median(r[3] * f(r) for r in rows) for rows in by_job), "s"),
        }

    metrics = summary(scaled=True)
    metrics["peak_rss_mb"] = (max(row[4] for row in log), "MB")
    beyond = len(jobs) - rank(len(jobs), tail_pct)
    notes = [
        f"jobs: {len(log)} attempted, {failed} failed, {n_passes} passes of {len(jobs)}",
        f"failed_share: {failed / len(log)!r} ratio",
        f"job_s.tail is p{tail_pct} of the jobs' medians: {beyond} of {len(jobs)} jobs, "
        f"{beyond * n_passes} job runs, beyond it",
        f"result_digest: {judge.digest()}",
        f"reference: median {statistics.median(refs):.6g} s over {len(refs)} runs, "
        f"times scaled to {REF_S:g} s",
        "raw: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in summary(scaled=False).items()),
    ]
    return metrics, len(log), failed, notes


def run_inprocess(job, cli) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a failed run
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
    return code, out.getvalue()


def version_seconds(out: Path) -> float:
    return statistics.median(pbisim(["--version"], ROOT, out).wall for _ in range(VERSION_REPEATS))


def measure_traced(jobs, inputs: Path, out: Path, seconds: float):
    """In-process run, each job once plain and once traced per pass."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pbisim.cli as cli

    tracer = tracing.Tracer()
    judges = {False: Judge(), True: Judge()}
    took = {False: 0.0, True: 0.0}
    failures = []
    attempted = 0
    start_s = version_seconds(out)
    home = os.getcwd()
    os.chdir(inputs)
    try:
        for job in jobs:
            run_inprocess(job, cli)

        def run_pass(k):
            nonlocal attempted
            for job in jobs:
                for traced in ((False, True) if k % 2 == 0 else (True, False)):
                    if traced:
                        tracer.begin(f"{k}:{job.id}")
                        tracer.install()
                    try:
                        t = time.perf_counter()
                        code, stdout = run_inprocess(job, cli)
                        took[traced] += time.perf_counter() - t
                    finally:
                        tracer.uninstall()
                    attempted += 1
                    why = judges[traced](job, code, stdout)
                    if why:
                        failures.append(f"{job.id} ({'traced' if traced else 'plain'}): {why}")

        n_passes = passes(jobs, seconds, run_pass)
    finally:
        os.chdir(home)
        tracer.uninstall()
    plain, traced = judges[False].digest(), judges[True].digest()
    if plain != traced:
        failures.append("traced result_digest differs from the plain one")
    if not tracer.self_times_ok():
        failures.append("a span's self time is negative or a child exceeds its parent")
    for why in failures:
        print(f"FAIL {why}", file=sys.stderr)
    overhead = (took[True] - took[False]) / took[False]
    metrics = tracing.layer_metrics(tracer, n_passes * len(jobs), start_s, overhead)
    absent = sorted(k for k, (v, _) in metrics.items() if v is None)
    notes = [
        f"jobs: {attempted} attempted in-process, {len(failures)} failed, {n_passes} passes of {len(jobs)}",
        f"result_digest: {traced} (plain run: {plain})",
        f"absent metrics: {', '.join(absent) if absent else 'none'}",
    ]
    (out / "trace.json").write_text(json.dumps({"spans": tracer.spans, "stats": tracer.stats}))
    return metrics, attempted, len(failures), notes


def facts() -> list[str]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return [
        f"nproc: {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})",
        f"python: {sys.version.split()[0]}  numpy: {np.__version__}",
        f"blas: {blas.get('name', 'unknown')} {blas.get('version', '')}, threads {_blas_threads()}",
        f"commit: {_commit()}",
        f"src lines: {src_lines}",
    ]


def _blas_threads() -> str:
    """OpenBLAS thread count from the library numpy loaded, if it says."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pbisim" / "__init__.py").is_file():
        print(f"error: no pbisim sources under {SRC}", file=sys.stderr)
        return 2
    base = WORK / f"{args.workload}-{args.seed}"
    jobs, inputs, out, setup_s, raw_setup_s = setup(args.workload, args.seed, base)
    if args.trace:
        metrics, attempted, failed, notes = measure_traced(jobs, inputs, out, args.seconds)
    else:
        metrics, attempted, failed, notes = measure(jobs, inputs, out, args.seconds,
                                                  workloads.WORKLOADS[args.workload][1])
        metrics["setup_s"] = (setup_s, "s")
        notes.append(f"raw setup_s: {raw_setup_s:.6g} s")
    print(f"pbisim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for line in facts() + notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {'absent' if value is None else format(value, '.6g'):>12s} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
