"""Line-oriented text formats and their printers.

All formats share the same lexical rules: '#' starts a comment running to
the end of the line, blank lines are ignored, and tokens are separated by
whitespace.  Parsers report 1-based line numbers in every diagnostic.

System format (.pts)::

    states: s0 s1
    actions: a b
    s0 a s1 0.5
    s0 a s0 1/2      # fractions are evaluated in binary floating point

Kripke format (.kripke)::

    states: c0 c1
    marked: c0
    c0 -> c1

Galois format (.galois)::

    abstract: bot top
    leq: bot <= top
    alpha: c0 top

Classification sidecar (.cls): one ``state class-index`` pair per line.
Printing followed by parsing reproduces the same in-memory value.
"""

from __future__ import annotations

import numpy as np

from .core import Classification, DEFAULT_TOL, LabelledPTS, edges_from_sorted, validate_pts
from .errors import ParseError, UnknownNameError
from .galois import FiniteLattice, GaloisSpec, KripkeStructure, Relation


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _prob(token: str) -> float | None:
    """Value of a probability token, ``None`` if it is malformed."""
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return float(num) / float(den)
        return float(token)
    except (ValueError, ZeroDivisionError):
        return None


def _probs(tokens: list[str]) -> tuple[list[float], list[int]]:
    """Values of the probability tokens, and the positions of malformed ones."""
    try:
        return list(map(float, tokens)), []
    except ValueError:
        values = [_prob(t) for t in tokens]
    bad = [i for i, v in enumerate(values) if v is None]
    return [0.0 if v is None else v for v in values], bad


def _lookup(table: dict[str, int], names: list[str]) -> np.ndarray:
    """Index of every name, -1 for unknown ones."""
    try:
        return np.fromiter(map(table.__getitem__, names), np.int64, len(names))
    except KeyError:
        return np.array([table.get(t, -1) for t in names], dtype=np.int64)


def parse_pts(text: str, tol: float = DEFAULT_TOL) -> tuple[LabelledPTS, tuple[str, ...]]:
    """Parse a system file; returns the system and its state-name table.

    Transition lines are collected as tokens and checked in bulk; the error
    reported is the one on the earliest line, so the diagnostics are those
    of a line-at-a-time reading.  Runs the reactive-system validation
    after building the edge arrays, so a syntactically fine file with bad
    row sums is still rejected.
    """
    names: list[str] | None = None
    actions: list[str] | None = None
    index: dict[str, int] = {}
    act_index: dict[str, int] = {}
    # the transition lines' tokens, four each, in one list: a list per line
    # kept alive would make the cyclic garbage collector rescan them all
    tokens: list[str] = []
    linenos: list[int] = []
    error: ParseError | None = None  # on a line after every collected one
    ready = False  # both header lines seen

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if len(parts) == 4 and ready and not parts[0].startswith(("states:", "actions:")):
            tokens += parts
            linenos.append(lineno)
        elif parts[0].startswith("states:"):
            if names is not None:
                error = ParseError("duplicate states: line", lineno)
                break
            names = raw.split("#", 1)[0].strip()[len("states:") :].split()
            if not names:
                error = ParseError("states: line declares no states", lineno)
                break
            if len(set(names)) != len(names):
                error = ParseError("duplicate state name", lineno)
                break
            index = {s: i for i, s in enumerate(names)}
            ready = actions is not None
        elif parts[0].startswith("actions:"):
            if actions is not None:
                error = ParseError("duplicate actions: line", lineno)
                break
            actions = raw.split("#", 1)[0].strip()[len("actions:") :].split()
            if len(set(actions)) != len(actions):
                error = ParseError("duplicate action label", lineno)
                break
            act_index = {a: i for i, a in enumerate(actions)}
            ready = names is not None
        else:
            if len(parts) != 4:
                error = ParseError(
                    f"expected 'src action dst prob', got {len(parts)} tokens", lineno
                )
            elif names is None or parts[0] not in index:
                error = UnknownNameError(parts[0], lineno)
            else:
                error = UnknownNameError(parts[1], lineno)
            break

    n = len(names) if names is not None else 0
    count = len(linenos)
    src = _lookup(index, tokens[0::4])
    act = _lookup(act_index, tokens[1::4])
    dst = _lookup(index, tokens[2::4])
    probs, bad_prob = _probs(tokens[3::4])
    known = (src >= 0) & (act >= 0) & (dst >= 0)
    # one sort over (action, source, target) finds repeats and orders the edges
    key = np.where(known, (act * n + src) * n + dst, -1 - np.arange(count))
    order = np.argsort(key, kind="stable")
    repeat = order[1:][key[order[1:]] == key[order[:-1]]]
    unknown = np.flatnonzero(~known)[:1].tolist()
    first_bad = min([count] + bad_prob[:1] + unknown + repeat.tolist())
    if first_bad < count:
        r, lineno = tokens[4 * first_bad : 4 * first_bad + 4], linenos[first_bad]
        for col, table in ((0, index), (1, act_index), (2, index)):
            if r[col] not in table:
                raise UnknownNameError(r[col], lineno)
        if (repeat == first_bad).any():
            raise ParseError(f"duplicate transition {r[0]} {r[1]} {r[2]}", lineno)
        raise ParseError(f"bad probability {r[3]!r}", lineno)
    if error is not None:
        raise error
    if names is None:
        raise ParseError("missing states: line", 1)
    if actions is None:
        raise ParseError("missing actions: line", 1)

    src, act, dst = src[order], act[order], dst[order]
    prob = np.array(probs, dtype=float)[order]
    bounds = np.searchsorted(act, np.arange(len(actions) + 1))
    edges = {
        a: edges_from_sorted(n, src[lo:hi], dst[lo:hi], prob[lo:hi])
        for a, lo, hi in zip(actions, bounds[:-1], bounds[1:])
    }
    pts = LabelledPTS.from_edges(n, actions, edges)
    validate_pts(pts, tol)
    return pts, tuple(names)


def print_pts(pts: LabelledPTS, names: tuple[str, ...] | None = None) -> str:
    """Canonical text of a system; floats use shortest round-trip repr.

    Transitions are listed by source state, then action, then target.
    """
    if names is None:
        names = tuple(f"s{i}" for i in range(pts.n))
    out = ["states: " + " ".join(names), "actions: " + " ".join(pts.actions)]
    row, dst, prob = pts.flat()
    state, action = row % pts.n, row // pts.n
    order = np.argsort(state, kind="stable")
    acts = pts.actions
    out += [
        f"{names[s]} {acts[i]} {names[t]} {p!r}"
        for s, i, t, p in zip(
            state[order].tolist(), action[order].tolist(), dst[order].tolist(), prob[order].tolist()
        )
    ]
    return "\n".join(out) + "\n"


def parse_classification(text: str, names: tuple[str, ...]) -> Classification:
    """Parse a state-to-class map against a known state-name table."""
    index = {s: i for i, s in enumerate(names)}
    assign: dict[int, int] = {}
    for lineno, line in _lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'state class-index'", lineno)
        name, cls = parts
        if name not in index:
            raise UnknownNameError(name, lineno)
        if index[name] in assign:
            raise ParseError(f"state {name!r} classified twice", lineno)
        try:
            assign[index[name]] = int(cls)
        except ValueError:
            raise ParseError(f"bad class index {cls!r}", lineno) from None
    missing = [s for s in names if index[s] not in assign]
    if missing:
        raise ParseError(f"state {missing[0]!r} has no class", None)
    values = tuple(assign[i] for i in range(len(names)))
    return Classification(values, max(values) + 1)


def print_classification(c: Classification, names: tuple[str, ...] | None = None) -> str:
    if names is None:
        names = tuple(f"s{i}" for i in range(c.n))
    return "\n".join(f"{names[s]} {c.assign[s]}" for s in range(c.n)) + "\n"


def parse_kripke(text: str) -> tuple[KripkeStructure, tuple[str, ...]]:
    names: list[str] | None = None
    marked: list[int] = []
    edges: set[tuple[int, int]] = set()
    index: dict[str, int] = {}
    for lineno, line in _lines(text):
        if line.startswith("states:"):
            if names is not None:
                raise ParseError("duplicate states: line", lineno)
            names = line[len("states:") :].split()
            if not names:
                raise ParseError("states: line declares no states", lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate state name", lineno)
            index = {s: i for i, s in enumerate(names)}
        elif line.startswith("marked:"):
            for tok in line[len("marked:") :].split():
                if tok not in index:
                    raise UnknownNameError(tok, lineno)
                marked.append(index[tok])
        else:
            parts = line.split()
            if len(parts) != 3 or parts[1] != "->":
                raise ParseError("expected 'src -> dst'", lineno)
            src, _, dst = parts
            if src not in index:
                raise UnknownNameError(src, lineno)
            if dst not in index:
                raise UnknownNameError(dst, lineno)
            edges.add((index[src], index[dst]))
    if names is None:
        raise ParseError("missing states: line", 1)
    return KripkeStructure(len(names), frozenset(edges), frozenset(marked)), tuple(names)


def print_kripke(k: KripkeStructure, names: tuple[str, ...] | None = None) -> str:
    if names is None:
        names = tuple(f"c{i}" for i in range(k.n))
    out = ["states: " + " ".join(names)]
    if k.marked:
        out.append("marked: " + " ".join(names[s] for s in sorted(k.marked)))
    for a, b in sorted(k.edges):
        out.append(f"{names[a]} -> {names[b]}")
    return "\n".join(out) + "\n"


def parse_relation(
    text: str, c_names: tuple[str, ...], a_names: tuple[str, ...]
) -> Relation:
    c_index = {s: i for i, s in enumerate(c_names)}
    a_index = {s: i for i, s in enumerate(a_names)}
    pairs: set[tuple[int, int]] = set()
    for lineno, line in _lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'concrete abstract'", lineno)
        c, a = parts
        if c not in c_index:
            raise UnknownNameError(c, lineno)
        if a not in a_index:
            raise UnknownNameError(a, lineno)
        pairs.add((c_index[c], a_index[a]))
    return Relation(frozenset(pairs))


def parse_galois(text: str) -> tuple[GaloisSpec, tuple[str, ...], tuple[str, ...]]:
    """Parse an abstraction spec.

    The ``leq:`` lines list generating inequalities; the reflexive and
    transitive closure is taken before the lattice axioms are checked.
    Concrete states are introduced by ``alpha:`` lines in order of first
    appearance.
    """
    abstract: list[str] | None = None
    a_index: dict[str, int] = {}
    leq_pairs: list[tuple[int, int]] = []
    concrete: list[str] = []
    c_index: dict[str, int] = {}
    alpha: dict[int, int] = {}

    for lineno, line in _lines(text):
        if line.startswith("abstract:"):
            if abstract is not None:
                raise ParseError("duplicate abstract: line", lineno)
            abstract = line[len("abstract:") :].split()
            if not abstract:
                raise ParseError("abstract: line declares no elements", lineno)
            if len(set(abstract)) != len(abstract):
                raise ParseError("duplicate abstract element", lineno)
            a_index = {s: i for i, s in enumerate(abstract)}
        elif line.startswith("leq:"):
            parts = line[len("leq:") :].split()
            if len(parts) != 3 or parts[1] != "<=":
                raise ParseError("expected 'leq: x <= y'", lineno)
            x, _, y = parts
            if x not in a_index:
                raise UnknownNameError(x, lineno)
            if y not in a_index:
                raise UnknownNameError(y, lineno)
            leq_pairs.append((a_index[x], a_index[y]))
        elif line.startswith("alpha:"):
            parts = line[len("alpha:") :].split()
            if len(parts) != 2:
                raise ParseError("expected 'alpha: state element'", lineno)
            state, elem = parts
            if elem not in a_index:
                raise UnknownNameError(elem, lineno)
            if state in c_index:
                raise ParseError(f"alpha for {state!r} given twice", lineno)
            c_index[state] = len(concrete)
            concrete.append(state)
            alpha[c_index[state]] = a_index[elem]
        else:
            raise ParseError(f"unrecognised line {line!r}", lineno)

    if abstract is None:
        raise ParseError("missing abstract: line", 1)
    if not concrete:
        raise ParseError("no alpha: lines", 1)
    lattice = FiniteLattice(len(abstract), leq_pairs)
    spec = GaloisSpec(len(concrete), lattice, tuple(alpha[i] for i in range(len(concrete))))
    return spec, tuple(concrete), tuple(abstract)
