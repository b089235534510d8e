"""The four workloads: seeded inputs, job lists and expected answers.

``build(workload, seed, directory)`` writes every input file into
``directory`` and returns the job list of one pass.  Each job names the
pbisim arguments (relative paths, so reports are stable) and carries what
the checker needs: the expected exit code and either an answer known by
construction or one computed by ``oracles``.  Sizes are fixed per job; the
seed changes the content, the state order and the state names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import inputs as gen
import oracles
from inputs import Kripke, System

# Explicit on every epsilon job: high enough that n = 8 is decided.
PAIR_CAP = "300000000"
DELTA = 0.01


@dataclass
class Job:
    id: str
    argv: list[str]
    kind: str
    exit: int | None  # None: any of 0 and 1 that agrees with the result
    expect: dict


def _write(directory: Path, name: str, text: str) -> str:
    (directory / name).write_text(text)
    return name


def _union(p1: System, p2: System) -> System:
    actions = oracles.union_actions(p1, p2)
    rows = {}
    for a in actions:
        left = p1.rows.get(a, [{} for _ in range(p1.n)])
        right = p2.rows.get(a, [{} for _ in range(p2.n)])
        rows[a] = [dict(r) for r in left] + [{t + p1.n: p for t, p in r.items()} for r in right]
    return System(p1.names + p2.names, actions, rows)


def _bisim(jid, f1, p1, f2, p2, classes=None) -> Job:
    expect = {"p1": p1, "p2": p2, "union": _union(p1, p2), "classes": classes}
    return Job(jid, ["bisim", f1, f2], "bisim", 0 if classes else 1, expect)


def _multiplicities(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """lo..hi repeated and shuffled: random placement, fixed total size."""
    mult = [lo + i % (hi - lo + 1) for i in range(n)]
    rng.shuffle(mult)
    return mult


def _quotient(jid, f, p, planted, classes, sidecar=None) -> Job:
    argv = ["quotient", f] + (["--partition", sidecar] if sidecar else ["--coarsest"])
    expect = {"p": p, "planted": planted, "classes": classes, "exact_map": bool(sidecar)}
    return Job(jid, argv, "quotient", 0, expect)


# --- refine-deep ----------------------------------------------------------

CHAIN = 100          # bisim pairs of 200-201 states
CYCLE = 120
CHAIN_QUOTIENT = 70  # lifted with multiplicities 1-3


def build_refine_deep(rng: random.Random, d: Path) -> list[Job]:
    ca = gen.chain(rng, CHAIN, "x")
    cb = gen.chain(rng, CHAIN, "y")
    cc = gen.chain(rng, CHAIN + 1, "z")
    cy = gen.marked_cycle(rng, CYCLE, "r")
    q = gen.chain(rng, CHAIN_QUOTIENT, "q")
    lf, planted = gen.lift(rng, q, _multiplicities(rng, q.n, 1, 3), "u")
    files = {k: _write(d, f"{k}.pts", gen.pts_text(s))
             for k, s in [("ca", ca), ("cb", cb), ("cc", cc), ("cy", cy), ("q", q), ("lf", lf)]}
    return [
        _bisim("chain-equal", files["ca"], ca, files["cb"], cb, classes=CHAIN),
        _bisim("chain-off-by-one", files["ca"], ca, files["cc"], cc),
        _quotient("cycle-coarsest", files["cy"], cy, list(range(CYCLE)), CYCLE),
        _quotient("chain-lift-coarsest", files["lf"], lf, planted, CHAIN_QUOTIENT),
        _bisim("chain-lift-vs-quotient", files["lf"], lf, files["q"], q, classes=CHAIN_QUOTIENT),
    ]


# --- lump-wide ------------------------------------------------------------

WIDE_QUOTIENT = 120
WIDE_MULT = (6, 14)       # about 1,200 lifted states
ALTERED_MULT = (2, 4)     # about 360 states
DEGREE = 3                # quotient targets per row and per half
FANOUT = 3                # lifted targets per quotient target


# Refinement rounds that the union of the quotient and its altered copy,
# and so of their lifts, must take.  The alteration is told apart one
# predecessor layer per round, so the rounds (3 to 8 over seeds, mostly 7)
# set how long bisim takes on the pair; fixed, the seed does not change it.
WIDE_ALT_ROUNDS = 7


def _wide_pair(rng: random.Random) -> tuple[System, System]:
    """Minimal sparse quotient and an altered copy with the fixed round count."""
    while True:
        q, masses = gen.minimal_sparse(rng, WIDE_QUOTIENT, DEGREE, "q")
        alt = gen.alter_mass(rng, q, masses)
        if oracles.refinement_rounds(_union(q, alt)) == WIDE_ALT_ROUNDS:
            return q, alt


def build_lump_wide(rng: random.Random, d: Path) -> list[Job]:
    q, alt = _wide_pair(rng)
    lf, planted = gen.lift(rng, q, _multiplicities(rng, q.n, *WIDE_MULT), "u", FANOUT)
    lf2, _ = gen.lift(rng, alt, _multiplicities(rng, q.n, *ALTERED_MULT), "v", FANOUT)
    f_q = _write(d, "q.pts", gen.pts_text(q))
    f_lf = _write(d, "lift.pts", gen.pts_text(lf))
    f_lf2 = _write(d, "altered.pts", gen.pts_text(lf2))
    f_cls = _write(d, "lift.cls", gen.cls_text(lf, planted))
    return [
        _bisim("lift-vs-quotient", f_lf, lf, f_q, q, classes=WIDE_QUOTIENT),
        _bisim("lift-vs-altered", f_lf, lf, f_lf2, lf2),
        _quotient("lift-coarsest", f_lf, lf, planted, WIDE_QUOTIENT),
        _quotient("lift-partition", f_lf, lf, planted, WIDE_QUOTIENT, sidecar=f_cls),
    ]


# --- epsilon-small --------------------------------------------------------

PERTURBED_SIZES = (5, 6, 7)
SEARCH_SHARED = (6, 7)
SEARCH_LIFTS = ((4, [3, 3, 2, 2], 1000), (6, [4, 4, 4, 4, 4, 4], 2000))
# The search's own seed, the same for every workload seed: on a perturbed
# lift nearly every random proposal is rejected, so with a fixed seed the
# climb takes about the same path on every input, while a drawn one moved
# the 24-state search between 0.13 and 0.35 s.
SEARCH_SEED = 7


def _perturbed_pair(rng: random.Random, n: int):
    """Random system and a behaviour-changing perturbed copy, with oracles.

    Both sides may have no lumpings but the trivial and the discrete one,
    so that the pairs the exact search scores do not change with the seed.
    """
    while True:
        base = gen.random_dense(rng, n, ["a", "b"], 0.8, "s")
        pert = gen.perturb(rng, base, DELTA)
        parts1 = oracles.lumpable_partitions(base)
        parts2 = oracles.lumpable_partitions(pert)
        plain = all(set(p) <= {1, n} and all(len(v) == 1 for v in p.values())
                    for p in (parts1, parts2))
        if plain and not oracles.bisimilar(base, pert, parts1, parts2):
            return base, pert, oracles.exact_epsilon(base, pert, parts1, parts2)


def _epsilon(jid, f1, p1, f2, p2, eps, budget=None, seed=None, delta=None) -> Job:
    argv = ["epsilon", f1, f2, "--pair-cap", PAIR_CAP]
    if budget is not None:
        argv += ["--budget", str(budget), "--seed", str(seed)]
        kind, code = "epsilon-search", None
    else:
        kind, code = "epsilon-exact", 0 if eps == 0.0 else 1
    expect = {"p1": p1, "p2": p2, "eps": eps, "delta": delta}
    return Job(jid, argv, kind, code, expect)


# Lumpable partitions per class count, above one class, that the n = 8
# self-distance system must have: the planted one and the discrete one.
# Any other lumping multiplies the pairs the exact search scores (one extra
# 7-class lumping adds 7! relabelings), so the seed could change the work
# several times over.  The one-class lumping adds a single pair.
SELF8_PROFILE = {3: 1, 8: 1}


def _self_distance_pair(rng: random.Random) -> tuple[System, System]:
    """3-state quotient and its 8-state lift with the fixed lumping profile."""
    while True:
        q = gen.random_dense(rng, 3, ["a", "b"], 0.8, "q")
        lf8, _ = gen.lift(rng, q, [3, 3, 2], "w")
        parts = oracles.lumpable_partitions(lf8)
        if {m: len(v) for m, v in parts.items() if m > 1} == SELF8_PROFILE:
            return q, lf8


def build_epsilon_small(rng: random.Random, d: Path) -> list[Job]:
    jobs = []
    pairs = {}
    for n in PERTURBED_SIZES:
        base, pert, eps = _perturbed_pair(rng, n)
        f1 = _write(d, f"base{n}.pts", gen.pts_text(base))
        f2 = _write(d, f"pert{n}.pts", gen.pts_text(pert))
        pairs[n] = (f1, base, f2, pert, eps)
        jobs.append(_epsilon(f"exact-perturbed-{n}", f1, base, f2, pert, eps, delta=DELTA))
    q, lf8 = _self_distance_pair(rng)
    f_q = _write(d, "q3.pts", gen.pts_text(q))
    for mult in ([2, 2, 2], [3, 2, 2]):
        lf, _ = gen.lift(rng, q, mult, "u")
        f = _write(d, f"lift{lf.n}.pts", gen.pts_text(lf))
        jobs.append(_epsilon(f"exact-lift{lf.n}-vs-quotient", f, lf, f_q, q, 0.0))
    f8 = _write(d, "lift8.pts", gen.pts_text(lf8))
    jobs.append(_epsilon("exact-self-8", f8, lf8, f8, lf8, 0.0))
    for n in SEARCH_SHARED:
        f1, base, f2, pert, eps = pairs[n]
        jobs.append(_epsilon(f"search-perturbed-{n}", f1, base, f2, pert, eps,
                             budget=500, seed=SEARCH_SEED))
    for qn, mult, budget in SEARCH_LIFTS:
        sq = gen.random_dense(rng, qn, ["a", "b"], 0.8, "q")
        lf, _ = gen.lift(rng, sq, mult, "u")
        pert = gen.perturb(rng, lf, DELTA)
        f1 = _write(d, f"slift{lf.n}.pts", gen.pts_text(lf))
        f2 = _write(d, f"spert{lf.n}.pts", gen.pts_text(pert))
        jobs.append(_epsilon(f"search-lift{lf.n}", f1, lf, f2, pert, None,
                             budget=budget, seed=SEARCH_SEED))
    return jobs


# --- sim-galois -----------------------------------------------------------

SIM_STATES = 50
SIM_EDGE_P = 0.1
SIM_DEAD = 0.2
# Rounds of the synchronous fixpoint and size of the largest simulation that
# every drawn pair must have, so that the seed does not change the work:
# the first round removes the 400 pairs (live, dead end), the second 40 more.
SIM_ROUNDS = 3
SIM_RELATION = 2060
GALOIS = (("powerset", 64, 12), ("chain", 32, 14))


def _sim_pair(rng: random.Random):
    """Kripke pair whose largest simulation is neither empty nor full.

    Pairs are drawn until one has the fixed round count and relation size.
    """
    while True:
        c = gen.random_kripke(rng, SIM_STATES, SIM_EDGE_P, SIM_DEAD, "c")
        a = gen.random_kripke(rng, SIM_STATES, SIM_EDGE_P, SIM_DEAD, "a")
        rel, rounds = oracles.largest_simulation_rounds(c, a)
        if rounds == SIM_ROUNDS and len(rel) == SIM_RELATION:
            return c, a, rel


def _lattice_spec(lat: oracles.Lattice, names: list[str], alpha: list[int], cnames) -> str:
    out = ["abstract: " + " ".join(names)]
    if lat.kind == "powerset":
        bits = lat.size.bit_length() - 1
        out += [f"leq: {names[x]} <= {names[x | 1 << i]}"
                for x in range(lat.size) for i in range(bits) if not x >> i & 1]
    else:
        out += [f"leq: {names[x]} <= {names[x + 1]}" for x in range(lat.size - 1)]
    out += [f"alpha: {cnames[c]} {names[alpha[c]]}" for c in range(len(alpha))]
    return "\n".join(out) + "\n"


def _galois_jobs(rng: random.Random, d: Path, kind: str, size: int, k: int) -> list[Job]:
    lat = oracles.Lattice(kind, size)
    names = [f"{kind[0]}{x}" for x in range(size)]
    conc = gen.random_kripke(rng, k, 0.2, 0.1, "g")
    # a fixed multiset of images, shuffled: the seed moves them between
    # states, and the work over all subsets stays the same
    alpha = [(i * size) // k for i in range(k)]
    rng.shuffle(alpha)
    f_spec = _write(d, f"{kind}.galois", _lattice_spec(lat, names, alpha, conc.names))
    f_conc = _write(d, f"{kind}-c.kripke", gen.kripke_text(conc))
    top = size - 1
    # every element reaches top, so the basis holds; then drop top's edges
    edges = {(e, top) for e in range(size)} | {(e, rng.randrange(size)) for e in range(size)}
    broken = {(e, f) for e, f in edges if e != top}
    jobs = []
    for tag, es in (("holds", edges), ("broken", broken)):
        order = list(range(size))
        rng.shuffle(order)
        where = {x: i for i, x in enumerate(order)}
        abstract = Kripke([names[x] for x in order], {(where[e], where[f]) for e, f in es})
        f_abs = _write(d, f"{kind}-{tag}.kripke", gen.kripke_text(abstract))
        basis = oracles.Basis(conc, es, lat, alpha)
        expect = {"conc": conc, "names": names, "basis": basis}
        jobs.append(Job(f"galois-{kind}-{tag}", ["galois-check", f_spec, "--against", f_conc, f_abs],
                        "galois", 1 if basis.violations else 0, expect))
    return jobs


def build_sim_galois(rng: random.Random, d: Path) -> list[Job]:
    jobs = []
    for i in range(2):
        c, a, rel = _sim_pair(rng)
        f_c = _write(d, f"c{i}.kripke", gen.kripke_text(c))
        f_a = _write(d, f"a{i}.kripke", gen.kripke_text(a))
        base = {"c": c, "a": a, "largest": rel}
        jobs.append(Job(f"largest-{i}", ["sim-check", f_c, f_a, "--largest"], "sim-largest", 0, base))
        if i == 0:
            # the only violating pair is the extra one; the largest outside
            # pair makes the check scan nearly the whole relation
            extra = max((x, y) for x in range(c.n) for y in range(a.n) if (x, y) not in rel)
            for tag, pairs, code in (("oracle", rel, 0), ("plus-one", rel | {extra}, 1)):
                f_r = _write(d, f"r{i}-{tag}.rel", gen.relation_text(c, a, pairs))
                jobs.append(Job(f"relation-{tag}", ["sim-check", f_c, f_a, "--relation", f_r],
                                "sim-relation", code, dict(base, relation=pairs)))
    for kind, size, k in GALOIS:
        jobs += _galois_jobs(rng, d, kind, size, k)
    return jobs


# Job-list builder and tail percentile per workload.  The percentile is
# taken over the jobs' median times in a run and leaves the slowest one or
# two jobs beyond it, eight or more job runs in a 30 s run.  It is fixed,
# so that a faster change, which fits more passes in a run, is compared at
# the same percentile.
# BENCHMARK.json says why each workload is there.
WORKLOADS = {
    "refine-deep": (build_refine_deep, 75),
    "lump-wide": (build_lump_wide, 70),
    "epsilon-small": (build_epsilon_small, 75),
    "sim-galois": (build_sim_galois, 75),
}


def build(workload: str, seed: int, directory: Path) -> list[Job]:
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload][0](rng, directory)
    for job in jobs:
        job.argv = job.argv + ["--json"]
    return jobs
