"""Seeded input generators for the benchmark, independent of pbisim.

Every generator draws from the ``random.Random`` it is given, in a fixed
order, so one seed always gives byte-identical files.  Probabilities are
dyadic (denominator 2**10 for fresh rows, 2**20 after lifting or
perturbing), so every row sums to exactly 1.0 in binary floating point and
every lumped value the oracles compute is exact.

Systems are kept sparse: ``rows[action][state]`` maps target state to
probability, an empty dict meaning the action is disabled there.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DENOM = 1 << 10
GRID = 1 << 20


@dataclass
class System:
    """Sparse labelled probabilistic transition system."""

    names: list[str]
    actions: list[str]
    rows: dict[str, list[dict[int, float]]]

    @property
    def n(self) -> int:
        return len(self.names)


@dataclass
class Kripke:
    names: list[str]
    edges: set[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.names)


def split(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random non-negative integers summing to ``total``, one per part."""
    cuts = sorted(rng.randrange(total + 1) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def permuted(sys: System, rng: random.Random) -> tuple[System, list[int]]:
    """Same system with its states listed in a random order.

    Returns the new system and ``where[old] = new`` index map.
    """
    order = list(range(sys.n))
    rng.shuffle(order)  # order[new] = old
    where = [0] * sys.n
    for new, old in enumerate(order):
        where[old] = new
    rows = {
        a: [{where[t]: p for t, p in sys.rows[a][old].items()} for old in order]
        for a in sys.actions
    }
    return System([sys.names[old] for old in order], list(sys.actions), rows), where


def chain(rng: random.Random, length: int, prefix: str) -> System:
    """Deterministic chain x0 -a-> x1 -a-> ... ; the last state is stuck."""
    rows = [{i + 1: 1.0} if i + 1 < length else {} for i in range(length)]
    sys = System([f"{prefix}{i}" for i in range(length)], ["a"], {"a": rows})
    return permuted(sys, rng)[0]


def marked_cycle(rng: random.Random, length: int, prefix: str) -> System:
    """Cycle on action a where only state 0 also enables a b self-loop."""
    a_rows = [{(i + 1) % length: 1.0} for i in range(length)]
    b_rows = [{0: 1.0}] + [{} for _ in range(length - 1)]
    sys = System([f"{prefix}{i}" for i in range(length)], ["a", "b"], {"a": a_rows, "b": b_rows})
    return permuted(sys, rng)[0]


def lift(rng: random.Random, quotient: System, mult: list[int], prefix: str,
         fanout: int | None = None) -> tuple[System, list[int]]:
    """Planted lift: quotient state j becomes ``mult[j]`` states.

    Each lifted state sends exactly the quotient's mass into every target
    block, split by dyadic weights over all of the block's members, or over
    at most ``fanout`` random members when given.  States are listed in a
    random order.  Returns the lift and its planted block index per state.
    """
    offsets = [0]
    for k in mult:
        offsets.append(offsets[-1] + k)
    block = [j for j in range(quotient.n) for _ in range(mult[j])]
    rows = {}
    for a in quotient.actions:
        out = []
        for u in range(offsets[-1]):
            row: dict[int, float] = {}
            for t, p in sorted(quotient.rows[a][block[u]].items()):
                members = list(range(offsets[t], offsets[t + 1]))
                if fanout is not None and len(members) > fanout:
                    members = sorted(rng.sample(members, fanout))
                for v, w in zip(members, split(rng, DENOM, len(members))):
                    if w:
                        row[v] = p * (w / DENOM)
            out.append(row)
        rows[a] = out
    sys = System([f"{prefix}{u}" for u in range(offsets[-1])], list(quotient.actions), rows)
    sys, where = permuted(sys, rng)
    planted = [0] * sys.n
    for old, new in enumerate(where):
        planted[new] = block[old]
    return sys, planted


def random_dense(rng: random.Random, n: int, actions: list[str], density: float,
                 prefix: str) -> System:
    """Each (state, action) enabled with probability ``density``; full rows."""
    rows = {}
    for a in actions:
        out = []
        for _ in range(n):
            if rng.random() < density:
                out.append({t: w / DENOM for t, w in enumerate(split(rng, DENOM, n)) if w})
            else:
                out.append({})
        rows[a] = out
    return System([f"{prefix}{i}" for i in range(n)], list(actions), rows)


def minimal_sparse(rng: random.Random, q: int, degree: int, prefix: str) -> tuple[System, list[int]]:
    """Sparse two-action system whose coarsest bisimulation is discrete.

    Action a is enabled everywhere, action b only on a set E.  Every
    state's a-mass into E is a value ``x/1024`` that no other state shares;
    since E is a union of bisimulation classes, that mass is a bisimulation
    invariant, so no two states are bisimilar.  Returns the system and the
    distinct numerators ``x`` (the state's E-mass times 1024).
    """
    in_e = [False] * q
    for s in rng.sample(range(q), q // 2):
        in_e[s] = True
    e_states = [s for s in range(q) if in_e[s]]
    f_states = [s for s in range(q) if not in_e[s]]
    masses = rng.sample(range(1, DENOM), q)
    a_rows, b_rows = [], []
    for s in range(q):
        row: dict[int, float] = {}
        for pool, total in ((e_states, masses[s]), (f_states, DENOM - masses[s])):
            targets = rng.sample(pool, min(degree, len(pool)))
            for t, w in zip(targets, split(rng, total, len(targets))):
                if w:
                    row[t] = row.get(t, 0.0) + w / DENOM
        a_rows.append(row)
        if in_e[s]:
            targets = rng.sample(range(q), degree)
            b_rows.append({t: w / DENOM for t, w in zip(targets, split(rng, DENOM, degree)) if w})
        else:
            b_rows.append({})
    sys = System([f"{prefix}{i}" for i in range(q)], ["a", "b"], {"a": a_rows, "b": b_rows})
    return sys, masses


def alter_mass(rng: random.Random, sys: System, masses: list[int]) -> System:
    """Copy of a ``minimal_sparse`` system with one state's E-mass changed.

    The chosen state's a-row gets a new E-mass numerator that no state of
    the original has, so the copy is not bisimilar to the original.
    """
    unused = sorted(set(range(1, DENOM)) - set(masses))
    s = rng.randrange(sys.n)
    new = unused[rng.randrange(len(unused))]
    e_states = [t for t in range(sys.n) if sys.rows["b"][t]]
    f_states = [t for t in range(sys.n) if not sys.rows["b"][t]]
    row: dict[int, float] = {}
    row[e_states[rng.randrange(len(e_states))]] = new / DENOM
    row[f_states[rng.randrange(len(f_states))]] = (DENOM - new) / DENOM
    rows = {a: [dict(r) for r in sys.rows[a]] for a in sys.actions}
    rows["a"][s] = row
    return System(list(sys.names), list(sys.actions), rows)


def perturb(rng: random.Random, sys: System, delta: float) -> System:
    """Move at most ``delta`` mass (on the 2**-20 grid) inside every enabled row."""
    rows = {}
    for a in sys.actions:
        out = []
        for row in sys.rows[a]:
            row = dict(row)
            if row and sys.n > 1:
                donor = sorted(row)[rng.randrange(len(row))]
                recip = rng.randrange(sys.n - 1)
                if recip >= donor:
                    recip += 1
                amount = math.floor(min(delta, row[donor]) * GRID) / GRID
                if amount > 0.0:
                    row[donor] -= amount
                    row[recip] = row.get(recip, 0.0) + amount
                    if row[donor] == 0.0:
                        del row[donor]
            out.append(row)
        rows[a] = out
    return System(list(sys.names), list(sys.actions), rows)


def random_kripke(rng: random.Random, n: int, edge_p: float, dead_share: float,
                  prefix: str) -> Kripke:
    """Random graph in which a share of the states are dead ends.

    The edge count is fixed at ``edge_p`` times the live states' possible
    edges, so the seed moves edges around without changing how many there
    are.  Every live state has at least one successor.
    """
    dead = set(rng.sample(range(n), int(n * dead_share)))
    live = [s for s in range(n) if s not in dead]
    edges = {(s, rng.randrange(n)) for s in live}
    rest = [(s, t) for s in live for t in range(n) if (s, t) not in edges]
    total = max(len(edges), round(edge_p * len(live) * n))
    edges |= set(rng.sample(rest, total - len(edges)))
    return Kripke([f"{prefix}{i}" for i in range(n)], edges)


def pts_text(sys: System) -> str:
    out = ["states: " + " ".join(sys.names), "actions: " + " ".join(sys.actions)]
    for s in range(sys.n):
        for a in sys.actions:
            for t, p in sorted(sys.rows[a][s].items()):
                out.append(f"{sys.names[s]} {a} {sys.names[t]} {p!r}")
    return "\n".join(out) + "\n"


def cls_text(sys: System, assign: list[int]) -> str:
    return "".join(f"{sys.names[s]} {assign[s]}\n" for s in range(sys.n))


def kripke_text(k: Kripke) -> str:
    out = ["states: " + " ".join(k.names)]
    out += [f"{k.names[a]} -> {k.names[b]}" for a, b in sorted(k.edges)]
    return "\n".join(out) + "\n"


def relation_text(c: Kripke, a: Kripke, pairs) -> str:
    return "".join(f"{c.names[i]} {a.names[j]}\n" for i, j in sorted(pairs))


def parse_pts(text: str) -> System:
    """Minimal reader for the system format, used to check reported quotients."""
    names: list[str] = []
    actions: list[str] = []
    triples = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("states:"):
            names = line[len("states:"):].split()
        elif line.startswith("actions:"):
            actions = line[len("actions:"):].split()
        else:
            triples.append(line.split())
    index = {s: i for i, s in enumerate(names)}
    rows = {a: [{} for _ in names] for a in actions}
    for src, act, dst, prob in triples:
        rows[act][index[src]][index[dst]] = float(prob)
    return System(names, actions, rows)
