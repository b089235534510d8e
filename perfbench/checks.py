"""Checks of one job's exit code and ``--json`` report against its expectation.

``check(job, code, stdout)`` returns ``None`` when the job is correct and a
one-line reason otherwise.  Answers come from ``workloads`` (by
construction) and ``oracles``; the report is only ever the thing checked.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import oracles
from inputs import System, parse_pts

TOL = 1e-9
EXACT = 1e-12


def canonical(stdout: str) -> bytes:
    """Report bytes without the wall-time field, for digests."""
    report = json.loads(stdout)
    report.pop("wall_time_s", None)
    return json.dumps(report, sort_keys=True).encode()


def digest(job_ids, reports) -> str:
    h = hashlib.sha256()
    for jid, body in zip(job_ids, reports):
        h.update(jid.encode() + b"\0" + body + b"\0")
    return h.hexdigest()


def _assign(names, mapping) -> list[int] | None:
    if not isinstance(mapping, dict) or set(mapping) != set(names):
        return None
    return [mapping[s] for s in names]


def _canon(assign) -> tuple[int, ...]:
    first: dict[int, int] = {}
    return tuple(first.setdefault(v, len(first)) for v in assign)


def _dense(sys: System, actions) -> np.ndarray:
    out = np.zeros((len(actions), sys.n, sys.n))
    for ai, a in enumerate(actions):
        for s, row in enumerate(sys.rows.get(a, [])):
            for t, p in row.items():
                out[ai, s, t] = p
    return out


def _quotient_text_ok(text, sys: System, assign, m) -> str | None:
    """The reported quotient must be K+ M K of the classification."""
    q = parse_pts(text)
    if q.names != [f"c{j}" for j in range(m)] or q.actions != sys.actions:
        return "quotient names or actions differ"
    got = _dense(q, sys.actions)
    want = oracles.lump(sys, assign, m)
    if got.shape != want.shape or np.abs(got - want).max() > EXACT:
        return "quotient is not K+ M K of the classification"
    return None


def _bisim(job, res, code) -> str | None:
    e = job.expect
    if not e["classes"]:
        return None if res["bisimilar"] is False else "expected not bisimilar"
    if res["bisimilar"] is not True or res["classes"] != e["classes"]:
        return f"expected bisimilar with {e['classes']} classes"
    k1 = _assign(e["p1"].names, res["k1"])
    k2 = _assign(e["p2"].names, res["k2"])
    if k1 is None or k2 is None:
        return "witness does not cover the states"
    union = k1 + k2
    m = e["classes"]
    if set(k1) != set(range(m)) or set(k2) != set(range(m)):
        return "a witness class misses one side"
    if not oracles.lumpable(e["union"], union):
        return "witness is not a lumping of the union"
    return _quotient_text_ok(res["quotient_pts"], e["union"], union, m)


def _quotient(job, res, code) -> str | None:
    e = job.expect
    assign = _assign(e["p"].names, res["classification"])
    if assign is None or res["classes"] != e["classes"]:
        return f"expected {e['classes']} classes"
    if e["exact_map"] and assign != e["planted"]:
        return "classification differs from the partition file"
    if _canon(assign) != _canon(e["planted"]):
        return "partition differs from the planted coarsest partition"
    return _quotient_text_ok(res["quotient_pts"], e["p"], assign, e["classes"])


def _witness_error(e, res) -> str | None:
    """The witnesses must be lumpings whose distance is the reported epsilon."""
    k1, k2, m = res["k1"], res["k2"], res["classes"]
    if not (isinstance(k1, list) and isinstance(k2, list)):
        return "no witnesses"
    if len(k1) != e["p1"].n or len(k2) != e["p2"].n:
        return "witness length differs from the state count"
    if set(k1) != set(range(m)) or set(k2) != set(range(m)):
        return "witness is not a classification onto its classes"
    if not (oracles.lumpable(e["p1"], k1) and oracles.lumpable(e["p2"], k2)):
        return "witness is not a lumping"
    actions = oracles.union_actions(e["p1"], e["p2"])
    f1 = oracles.lump(e["p1"], k1, m, actions)
    f2 = oracles.lump(e["p2"], k2, m, actions)
    eps = oracles.op_inf_distance(f1, f2)
    if abs(eps - res["epsilon"]) > TOL:
        return f"witnesses give {eps!r}, report says {res['epsilon']!r}"
    return None


def _epsilon(job, res, code) -> str | None:
    e = job.expect
    eps = res["epsilon"]
    if not isinstance(eps, (int, float)):
        return "no finite epsilon"
    if code != (0 if eps <= TOL else 1):
        return "exit code disagrees with epsilon"
    why = _witness_error(e, res)
    if why:
        return why
    if job.kind == "epsilon-exact":
        if res["method"] != "exhaustive" or res["optimal"] is not True:
            return "not an exhaustive result"
        if abs(eps - e["eps"]) > TOL:
            return f"epsilon {eps!r}, oracle {e['eps']!r}"
        if e["delta"] is not None and not 0.0 < eps <= 2 * e["delta"]:
            return "perturbed epsilon outside (0, 2 delta]"
    else:
        if res["method"] != "local-search":
            return "not a search result"
        if e["eps"] is not None and eps < e["eps"] - TOL:
            return f"search epsilon {eps!r} below the exhaustive {e['eps']!r}"
    return None


def _sim_largest(job, res, code) -> str | None:
    e = job.expect
    c, a = e["c"], e["a"]
    want = sorted([c.names[i], a.names[j]] for i, j in e["largest"])
    if res["simulation"] is not True or sorted(res["relation"] or []) != want:
        return "relation differs from the largest simulation"
    return None


def _sim_relation(job, res, code) -> str | None:
    e = job.expect
    if job.exit == 0:
        ok = res["simulation"] is True and res["counterexample"] is None
        return None if ok else "expected a simulation"
    cex = res["counterexample"]
    if res["simulation"] is not False or not cex:
        return "expected a counterexample"
    c, a = e["c"], e["a"]
    try:
        triple = (c.names.index(cex[0]), a.names.index(cex[1]), c.names.index(cex[2]))
    except ValueError:
        return "counterexample names unknown states"
    if not oracles.simulation_violation(c, a, e["relation"], triple):
        return "counterexample is not a violation"
    return None


def _galois(job, res, code) -> str | None:
    e = job.expect
    if res["galois"] is not True or res["violation"] is not None:
        return "join-extended spec must be a Galois connection"
    if res["basis"] is not (job.exit == 0):
        return "basis verdict differs from the oracle"
    if job.exit == 0:
        return None if res["basis_counterexample"] is None else "unexpected counterexample"
    subset, elem = res["basis_counterexample"]
    names = e["conc"].names
    if not set(subset) <= set(names) or elem not in e["names"]:
        return "counterexample names unknown states"
    mask = sum(1 << names.index(s) for s in subset)
    if not e["basis"].violated(mask, e["names"].index(elem)):
        return "counterexample does not violate the basis"
    return None


CHECKS = {
    "bisim": _bisim,
    "quotient": _quotient,
    "epsilon-exact": _epsilon,
    "epsilon-search": _epsilon,
    "sim-largest": _sim_largest,
    "sim-relation": _sim_relation,
    "galois": _galois,
}


def check(job, code: int, stdout: str) -> str | None:
    if job.exit is not None and code != job.exit:
        return f"exit code {code}, expected {job.exit}"
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        res = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return "no JSON report"
    try:
        return CHECKS[job.kind](job, res, code)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"uncheckable report: {exc!r}"
