"""Line-oriented text formats and their printers.

All formats share the same lexical rules: '#' starts a comment running to
the end of the line, blank lines are ignored, and tokens are separated by
whitespace.  A declaration keyword (``states:``, ``actions:``,
``abstract:``) is given on one line at most, with distinct names, and
every name a line refers to must be declared (``alpha:`` lines introduce
concrete states).  A diagnostic about a line gives its 1-based number; of
several undeclared names, the first in line order is reported.

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

import re
import warnings
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from .errors import DEFAULT_TOL, ParseError, UnknownNameError

if TYPE_CHECKING:  # the parsers import these when called
    from .core import Classification, LabelledPTS
    from .galois import GaloisSpec, KripkeStructure, Relation


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# keyword: (what a repeated name is, what the line must declare one of, if any)
_DECLARATIONS = {"states": ("state name", "states"), "actions": ("action label", None),
                 "abstract": ("abstract element", "elements")}


def _declared(line: str, seen: list[str] | None, lineno: int) -> list[str]:
    """The names of a declaration line ``keyword: name ...``; ``seen`` is
    the names of an earlier such line, None if there was none."""
    keyword, rest = line.split(":", 1)
    if seen is not None:
        raise ParseError(f"duplicate {keyword}: line", lineno)
    names = rest.split()
    what, required = _DECLARATIONS[keyword]
    if required and not names:
        raise ParseError(f"{keyword}: line declares no {required}", lineno)
    if len(set(names)) != len(names):
        raise ParseError(f"duplicate {what}", lineno)
    return names


_CHUNK = 1 << 20  # characters of transition lines per piece
# a line and its end, as str.splitlines splits them
_LINE = re.compile("([^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)(?:\r\n|.)?", re.DOTALL)


def _read_lines(lines: list[str], lineno: int, index: dict, act_index: dict):
    """Keys, probabilities and first error of lines after both headers."""
    keys, probs, n, error = [], [], len(index), None
    for lineno, raw in enumerate(lines, lineno):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if parts[0].startswith(("states:", "actions:")):
            error = ParseError(f"duplicate {parts[0].split(':')[0]}: line", lineno)
        elif len(parts) != 4:
            error = ParseError(f"expected 'src action dst prob', got {len(parts)} tokens", lineno)
        elif unknown := next((t for t, d in zip(parts, (index, act_index, index)) if t not in d), None):
            error = UnknownNameError(unknown, lineno)
        else:
            keys.append((act_index[parts[1]] * n + index[parts[0]]) * n + index[parts[2]])
            num, slash, den = parts[3].partition("/")
            try:
                probs.append(float(num) / float(den) if slash else float(num))
            except (ValueError, ZeroDivisionError):  # kept: a repeat of an earlier line wins
                probs.append(0.0)
                error = ParseError(f"bad probability {parts[3]!r}", lineno)
        if error is not None:
            break
    return np.array(keys, dtype=np.int64), np.array(probs), error


def _convert(piece: str, lines: list[str], dtype: list, tables: list, n: int):
    """What ``_read_lines`` returns, by np.loadtxt; None where it must decide."""
    # str.split also splits ASCII text on \x1f, numpy's reader cuts a trailing
    # \x00 off, and a line may hold a header keyword (a search for ':' is fast)
    if not piece.isascii() or "\x00" in piece or "\x1f" in piece or (
            ":" in piece and ("states:" in piece or "actions:" in piece)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # on a piece of comments only
            rows = np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1)
        # itemgetter returns a tuple for two keys or more, else a TypeError follows
        src, act, dst = (
            np.fromiter(itemgetter(*rows[col].tolist())(table), np.int64, len(rows))
            for col, table in zip("sat", (tables[0], tables[1], tables[0]))
        )
    except (ValueError, KeyError, TypeError):
        return None
    return (act * n + src) * n + dst, rows["p"].copy(), None


def parse_pts(text: str, tol: float = DEFAULT_TOL) -> tuple[LabelledPTS, tuple[str, ...]]:
    """Parse a system file; returns the system and its state-name table.

    Lines up to both headers are read one at a time, the transition block
    after them by numpy's C reader a megabyte at a time.  A piece that
    reader cannot take alike, or one with a malformed line or an undeclared
    name, is read line by line, which gives every diagnostic; the earliest
    line's error wins.  The edge arrays are validated as a reactive system.
    """
    from .core import LabelledPTS, validate_pts

    names: list[str] | None = None
    actions: list[str] | None = None
    pos = lineno = 0
    while (names is None or actions is None) and pos < len(text):
        match = _LINE.match(text, pos)
        line, pos, lineno = match[1].split("#", 1)[0].strip(), match.end(), lineno + 1
        if line.startswith("states:"):
            names = _declared(line, names, lineno)
        elif line.startswith("actions:"):
            actions = _declared(line, actions, lineno)
        elif line:
            raise _read_lines([line], lineno, dict.fromkeys(names or ()), {})[2]
    if names is None or actions is None:
        raise ParseError(f"missing {'states' if names is None else 'actions'}: line", 1)

    n, start = len(names), lineno
    index, act_index = {s: i for i, s in enumerate(names)}, {a: i for i, a in enumerate(actions)}
    # wider than every name, so that a cut-off token matches none
    dtype = [(c, f"S{max(map(len, t), default=0) + 1}") for c, t in zip("sat", (names, actions, names))]
    dtype.append(("p", "f8"))
    # a name with a lone surrogate still encodes; only ASCII ones can match
    tables = [dict(zip("\n".join(t).encode("utf-8", "surrogatepass").split(b"\n"), range(len(t))))
              for t in (names, actions)]
    blocks, error = [(np.empty(0, dtype=np.int64), np.empty(0), None)], None
    while pos < len(text) and error is None:
        end = text.find("\n", pos + _CHUNK) + 1 or len(text)  # so a piece has whole lines
        piece, pos = text[pos:end], end
        lines = piece.splitlines()
        blocks.append(_convert(piece, lines, dtype, tables, n)
                      or _read_lines(lines, lineno + 1, index, act_index))
        lineno, error = lineno + len(lines), blocks[-1][2]

    key, prob = map(np.concatenate, list(zip(*blocks))[:2])
    order = np.argsort(key, kind="stable")  # timsort: a printed file's keys arrive nearly sorted
    key, prob = key[order], prob[order]
    repeat = order[1:][key[1:] == key[:-1]]
    if repeat.size:
        # every line after the headers, up to the error, is a transition
        after = ((i, line) for i, line in _lines(text) if i > start)
        lineno, line = next(islice(after, int(repeat.min()), None))
        raise ParseError("duplicate transition " + " ".join(line.split()[:3]), lineno)
    if error is not None:
        raise error
    pts = LabelledPTS.from_edges(n, actions, *np.divmod(key, n), prob)
    validate_pts(pts, tol)
    return pts, tuple(names)


def print_pts(pts: LabelledPTS, names: tuple[str, ...] | None = None) -> str:
    """Canonical text of a system; floats use shortest round-trip repr.

    Transitions are listed by source state, then action, then target.
    """
    if names is None:
        names = tuple(f"s{i}" for i in range(pts.n))
    out = ["states: " + " ".join(names), "actions: " + " ".join(pts.actions)]
    action, state = np.divmod(pts.row, pts.n)
    order = np.argsort(state, kind="stable")
    acts = pts.actions
    out += [
        f"{names[s]} {acts[i]} {names[t]} {p!r}"
        for s, i, t, p in zip(
            state[order].tolist(), action[order].tolist(), pts.dst[order].tolist(), pts.prob[order].tolist()
        )
    ]
    return "\n".join(out) + "\n"


def parse_classification(text: str, names: tuple[str, ...]) -> Classification:
    """Parse a state-to-class map against a known state-name table."""
    from .core import Classification

    index = {s: i for i, s in enumerate(names)}
    assign: dict[int, int] = {}
    try:
        for lineno, line in _lines(text):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected 'state class-index'", lineno)
            name, cls = parts
            if index[name] in assign:
                raise ParseError(f"state {name!r} classified twice", lineno)
            assign[index[name]] = int(cls)
    except KeyError as missing:
        raise UnknownNameError(missing.args[0], lineno) from None
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
    from .galois import KripkeStructure

    names: list[str] | None = None
    marked, src_of, dst_of = [], [], []
    index: dict[str, int] = {}
    try:
        for lineno, line in _lines(text):
            if line.startswith("states:"):
                names = _declared(line, names, lineno)
                index = {s: i for i, s in enumerate(names)}
            elif line.startswith("marked:"):
                marked += [index[tok] for tok in line[len("marked:") :].split()]
            else:
                parts = line.split()
                if len(parts) != 3 or parts[1] != "->":
                    raise ParseError("expected 'src -> dst'", lineno)
                src_of.append(index[parts[0]])
                dst_of.append(index[parts[2]])
    except KeyError as missing:
        raise UnknownNameError(missing.args[0], lineno) from None
    if names is None:
        raise ParseError("missing states: line", 1)
    return KripkeStructure(len(names), np.array([src_of, dst_of], dtype=np.int64).T, marked), tuple(names)


def print_kripke(k: KripkeStructure, names: tuple[str, ...] | None = None) -> str:
    if names is None:
        names = tuple(f"c{i}" for i in range(k.n))
    out = ["states: " + " ".join(names)]
    if k.marked.size:
        out.append("marked: " + " ".join(names[s] for s in k.marked.tolist()))
    out += [f"{names[a]} -> {names[b]}" for a, b in k.edges.tolist()]
    return "\n".join(out) + "\n"


def parse_relation(
    text: str, c_names: tuple[str, ...], a_names: tuple[str, ...]
) -> Relation:
    from .galois import Relation

    c_index = {s: i for i, s in enumerate(c_names)}
    a_index = {s: i for i, s in enumerate(a_names)}
    c_of, a_of = [], []
    try:
        for lineno, line in _lines(text):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected 'concrete abstract'", lineno)
            c_of.append(c_index[parts[0]])
            a_of.append(a_index[parts[1]])
    except KeyError as missing:
        raise UnknownNameError(missing.args[0], lineno) from None
    return Relation(np.array([c_of, a_of], dtype=np.int64).T)


def parse_galois(text: str) -> tuple[GaloisSpec, tuple[str, ...], tuple[str, ...]]:
    """Parse an abstraction spec.

    The ``leq:`` lines list generating inequalities; the reflexive and
    transitive closure is taken before the lattice axioms are checked.
    Concrete states are introduced by ``alpha:`` lines in order of first
    appearance.
    """
    from .galois import FiniteLattice, GaloisSpec

    abstract: list[str] | None = None
    a_index: dict[str, int] = {}
    leq_pairs: list[tuple[int, int]] = []
    alpha: dict[str, int] = {}  # concrete state: its element, in order of appearance
    try:
        for lineno, line in _lines(text):
            if line.startswith("abstract:"):
                abstract = _declared(line, abstract, lineno)
                a_index = {s: i for i, s in enumerate(abstract)}
            elif line.startswith("leq:"):
                parts = line[len("leq:") :].split()
                if len(parts) != 3 or parts[1] != "<=":
                    raise ParseError("expected 'leq: x <= y'", lineno)
                leq_pairs.append((a_index[parts[0]], a_index[parts[2]]))
            elif line.startswith("alpha:"):
                parts = line[len("alpha:") :].split()
                if len(parts) != 2:
                    raise ParseError("expected 'alpha: state element'", lineno)
                elem = a_index[parts[1]]
                if parts[0] in alpha:
                    raise ParseError(f"alpha for {parts[0]!r} given twice", lineno)
                alpha[parts[0]] = elem
            else:
                raise ParseError(f"unrecognised line {line!r}", lineno)
    except KeyError as missing:
        raise UnknownNameError(missing.args[0], lineno) from None

    if abstract is None:
        raise ParseError("missing abstract: line", 1)
    if not alpha:
        raise ParseError("no alpha: lines", 1)
    lattice = FiniteLattice(len(abstract), leq_pairs)
    return GaloisSpec(len(alpha), lattice, tuple(alpha.values())), tuple(alpha), tuple(abstract)
