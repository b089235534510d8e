"""Per-layer tracing of pbisim, from outside the package.

``Tracer.install`` wraps every public function of the layer modules (and
two methods, ``KripkeStructure.successors`` and ``FiniteLattice.__init__``)
and rebinds each name wherever a pbisim module imported it, so calls
between modules go through the wrappers; ``src/`` is never edited.  Every
wrapped call adds to its function's call count, total time and self time
(its time minus the time of wrapped calls beneath it).  The first
``SPAN_CAP`` calls of a function in a job also record a span: job id,
name, start, end, parent span and time in wrapped children.  Calls past
the cap, which only hot functions reach, are counted and summed without
spans.

``layer_metrics`` turns those sums into the per-layer metrics, each per
traced job.  A metric whose function is missing from pbisim is reported as
absent (``None``) instead of failing the run.  Which end-to-end metric each
layer should move, and on which workload:

=========  ==========================================  =====================  ==============
layer      metrics                                     should move            mainly on
=========  ==========================================  =====================  ==============
cli        start_s, main_s                             job_s.p50              epsilon-small,
                                                                              sim-galois
formats    parse_pts.s, parse_pts.mb_per_s,            jobs_per_s, job_s.p50  lump-wide
           print_pts.s, parse_kripke.s, parse_galois.s
core       validate_pts.s, disjoint_union.s            jobs_per_s,            lump-wide
                                                       peak_rss_mb
matrices   is_lumpable, lump, matrix_norm              jobs_per_s, job_cpu_s  epsilon-small
           (.calls and .s)                                                    (many tiny calls),
                                                                              lump-wide (few large)
bisim      coarsest_bisimulation.{calls,s},            job_s.tail,            refine-deep
           are_bisimilar.s, quotient.s                 jobs_per_s, job_cpu_s
epsilon    exact.s, enumerated, admitted, admit_ratio, job_s.tail, jobs_per_s epsilon-small
           pairs_scored, search.s, search.accept_ratio
galois     largest_simulation.s, is_simulation.s,      job_s.tail, jobs_per_s sim-galois
           successors.calls, lattice_build.s,
           check_galois.s, check_abstraction_basis.s
report     report_json.s                               job_s.p50              lump-wide
=========  ==========================================  =====================  ==============

``trace.overhead_share`` is the traced in-process time over the plain one,
minus one, for the same jobs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "formats", "core", "matrices", "bisim", "epsilon", "galois", "report")
# private helpers wrapped only to count the exact scan's scored pairs
PRIVATE = ("epsilon._family_distance",)
METHODS = (("galois", "KripkeStructure", "successors"), ("galois", "FiniteLattice", "__init__"))
SPAN_CAP = 200

EXACT = "epsilon.epsilon_bisim_exact"
SEARCH = "epsilon.epsilon_bisim_search"


class Tracer:
    def __init__(self):
        self.job = None
        self.spans: list = []    # (job, name, start, end, parent, child_time)
        self.stack: list = []    # frames [child_time, span index]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.per_job: Counter = Counter()
        self.found: set[str] = set()
        self._bindings: list = []   # (owner, attribute, original, wrapper)

    def begin(self, job_id: str) -> None:
        self.job = job_id
        self.per_job = Counter()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, active = self.stack, self.spans, self.active
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            per_job = tracer.per_job
            per_job[name] += 1
            if per_job[name] <= SPAN_CAP:
                index = len(spans)
                spans.append(None)
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                took = end - start
                if stack:
                    stack[-1][0] += took
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[0]
                if index != parent:
                    spans[index] = (tracer.job, name, start, end, parent, frame[0])
            if hook is not None:
                hook(tracer, result, args)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            for item in fn(*args, **kwargs):
                counts[name + ".items"] += 1
                yield item

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind; call ``uninstall`` to restore the originals."""
        if not self._bindings:
            self._bindings = self._plan()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _plan(self) -> list:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pbisim.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") and name not in PRIVATE:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(name, obj)
                    self.found.add(name)
        bindings = []
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "pbisim" or k.startswith("pbisim."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    bindings.append((mod, attr, obj, wrappers[obj]))
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"pbisim.{layer}"), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if inspect.isfunction(original):
                name = f"{layer}.{cls_name}.{attr}"
                bindings.append((cls, attr, original, self._wrap(name, original)))
                self.found.add(name)
        return bindings

    # -- results -----------------------------------------------------------

    def stat(self, name: str, field: int):
        if name not in self.found:
            return None
        return self.stats.get(name, [0, 0.0, 0.0])[field]

    def self_times_ok(self) -> bool:
        """Self times are >= 0, spans lie inside their parents, and the
        children of a span together take no longer than it."""
        covered = Counter()
        for job, _, start, end, parent, child in self.spans:
            if end - start - child < -1e-9:
                return False
            if parent >= 0:
                p = self.spans[parent]
                if job != p[0] or start < p[2] or end > p[3]:
                    return False
                covered[parent] += end - start
        return all(covered[i] <= s[3] - s[2] + 1e-9 for i, s in enumerate(self.spans))


def _count_lumpable(tracer: Tracer, result, args) -> None:
    ok = bool(result[0])
    for scope, key in ((EXACT, "exact"), (SEARCH, "search")):
        if tracer.active[scope]:
            tracer.counts[key + ".lumpable_calls"] += 1
            tracer.counts[key + ".lumpable_true"] += ok


def _count_scored(tracer: Tracer, result, args) -> None:
    if tracer.active[EXACT]:
        tracer.counts["exact.pairs_scored"] += 1


def _count_bytes(tracer: Tracer, result, args) -> None:
    tracer.counts["parse_pts.bytes"] += len(args[0].encode()) if args else 0


HOOKS = {
    "matrices.is_lumpable": _count_lumpable,
    "epsilon._family_distance": _count_scored,
    "formats.parse_pts": _count_bytes,
}

CALLS, TOTAL, SELF = 0, 1, 2


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, jobs: int, start_s: float, overhead: float) -> dict:
    """Per-layer metrics, per traced job, as ``{name: (value, unit)}``."""
    def per_job(name, field):
        v = tracer.stat(name, field)
        return None if v is None else v / jobs

    def count(key, needs):
        return tracer.counts[key] / jobs if needs in tracer.found else None

    enumerated = count("epsilon.enumerate_classifications.items", "epsilon.enumerate_classifications")
    admitted = count("exact.lumpable_true", "matrices.is_lumpable")
    parse_s = tracer.stat("formats.parse_pts", TOTAL)
    mb_per_s = None if parse_s is None else _ratio(tracer.counts["parse_pts.bytes"] / 1e6, parse_s)
    out = {
        "cli.start_s": (start_s, "s"),
        "cli.main_s": (per_job("cli.main", TOTAL), "s/job"),
        "formats.parse_pts.s": (per_job("formats.parse_pts", SELF), "s/job"),
        "formats.parse_pts.mb_per_s": (mb_per_s, "MB/s"),
        "formats.print_pts.s": (per_job("formats.print_pts", SELF), "s/job"),
        "formats.parse_kripke.s": (per_job("formats.parse_kripke", SELF), "s/job"),
        "formats.parse_galois.s": (per_job("formats.parse_galois", SELF), "s/job"),
        "core.validate_pts.s": (per_job("core.validate_pts", SELF), "s/job"),
        "core.disjoint_union.s": (per_job("core.disjoint_union", SELF), "s/job"),
    }
    for fn in ("is_lumpable", "lump", "matrix_norm"):
        out[f"matrices.{fn}.calls"] = (per_job(f"matrices.{fn}", CALLS), "calls/job")
        out[f"matrices.{fn}.s"] = (per_job(f"matrices.{fn}", SELF), "s/job")
    out.update({
        "bisim.coarsest_bisimulation.calls": (per_job("bisim.coarsest_bisimulation", CALLS), "calls/job"),
        "bisim.coarsest_bisimulation.s": (per_job("bisim.coarsest_bisimulation", SELF), "s/job"),
        "bisim.are_bisimilar.s": (per_job("bisim.are_bisimilar", SELF), "s/job"),
        "bisim.quotient.s": (per_job("bisim.quotient", SELF), "s/job"),
        "epsilon.exact.s": (per_job(EXACT, SELF), "s/job"),
        "epsilon.enumerated": (enumerated, "count/job"),
        "epsilon.admitted": (admitted, "count/job"),
        "epsilon.admit_ratio": (_ratio(admitted, enumerated), "ratio"),
        "epsilon.pairs_scored": (count("exact.pairs_scored", "epsilon._family_distance"), "count/job"),
        "epsilon.search.s": (per_job(SEARCH, SELF), "s/job"),
        "epsilon.search.accept_ratio": (
            _ratio(count("search.lumpable_true", "matrices.is_lumpable"),
                   count("search.lumpable_calls", "matrices.is_lumpable")), "ratio"),
        "galois.largest_simulation.s": (per_job("galois.largest_simulation", SELF), "s/job"),
        "galois.is_simulation.s": (per_job("galois.is_simulation", SELF), "s/job"),
        "galois.successors.calls": (per_job("galois.KripkeStructure.successors", CALLS), "calls/job"),
        "galois.lattice_build.s": (per_job("galois.FiniteLattice.__init__", SELF), "s/job"),
        "galois.check_galois.s": (per_job("galois.check_galois", SELF), "s/job"),
        "galois.check_abstraction_basis.s": (per_job("galois.check_abstraction_basis", SELF), "s/job"),
        "report.report_json.s": (per_job("report.report_json", SELF), "s/job"),
        "trace.overhead_share": (overhead, "ratio"),
    })
    return out
