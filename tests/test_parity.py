"""Edge-array parsing, validation, union, lumpability, quotienting and
generators, and the serial exact epsilon scan, against the dense n x n
implementations they replaced.

The systems are the dyadic and non-dyadic corpora of ``test_refinement``,
each also with its states randomly permuted.  Dyadic masses are exact, so
violations and quotients must agree bit for bit.  Non-dyadic masses may
round differently, because the edge arrays are summed in ascending target
and state order and the dense products in the BLAS kernel's order; there
the violations must name the same action, states and class, and the masses
they print and the quotient entries must agree to a few ulps.  Generated
systems must be equal and print the same bytes, and exact epsilon must
report the same class count and witnesses, with an epsilon at most
``NON_DYADIC_ULPS * EPS`` from the dense scan's: an absolute bound, since
a count of ulps fails where one of them is 0.
"""

import math
import random

import numpy as np
import pytest

from pbisim import (
    Classification,
    LabelledPTS,
    are_bisimilar,
    coarsest_bisimulation,
    disjoint_union,
    epsilon_bisim_exact,
    epsilon_distance,
    gen_planted,
    gen_random_pts,
    is_lumpable,
    perturb,
    quotient,
    validate_pts,
)
from pbisim.core import DEFAULT_TOL
from pbisim.epsilon import EPS
from pbisim.errors import NotLumpableError, PbisimError, RowSumError, UnknownNameError
from pbisim import formats
from pbisim.formats import parse_pts, print_pts
from pbisim.matrices import NORM_KINDS, class_masses, classification_matrix, lump

from helpers import (
    ACTIONS,
    dense,
    naive_disjoint_union,
    naive_exact_best,
    naive_gen_planted,
    naive_gen_random_pts,
    naive_is_lumpable,
    naive_parse_pts,
    naive_perturb,
    naive_quotient,
    naive_validate_pts,
    planted_pair,
    tolerance_chain,
    tolerance_spread,
)
from test_refinement import PALETTES, dyadic_corpus, fraction_corpus, palette_lift, palette_pts, permuted

# Masses and quotient entries here are sums of at most a dozen terms; taken
# in two orders they differ by a few ulps (at most 2 were seen).
NON_DYADIC_ULPS = 4


def with_permutations(systems, seed):
    rng = random.Random(seed)
    out = []
    for pts in systems:
        out.append(pts)
        out.append(permuted(pts, rng)[0])
    return out


DYADIC = dyadic_corpus()  # already holds a permuted copy of each system
FRACTION = with_permutations(fraction_corpus(), 31)


def classifications(pts, rng):
    """Lumpable and non-lumpable classifications of ``pts``."""
    coarsest = coarsest_bisimulation(pts)
    out = [coarsest, Classification((0,) * pts.n, 1)]
    if coarsest.m >= 2:
        # merge two coarsest classes: usually a mass violation
        i, j = sorted(rng.sample(range(coarsest.m), 2))
        merged = [i if v == j else v - (v > j) for v in coarsest.assign]
        out.append(Classification(tuple(merged), coarsest.m - 1))
    for _ in range(3):
        m = rng.randint(1, pts.n)
        assign = list(range(m)) + [rng.randrange(m) for _ in range(pts.n - m)]
        rng.shuffle(assign)
        out.append(Classification(tuple(assign), m))
    return out


def ulps(x, y) -> float:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    scale = np.spacing(np.maximum(np.abs(x), np.abs(y)))
    return float((np.abs(x - y) / scale).max(initial=0.0))


def masses_of(reason: str) -> list[float]:
    """The two masses of a violation's ``"x vs y"`` reason."""
    masses = [float(v) for v in reason.split(" vs ")]
    assert len(masses) == 2, reason
    return masses


@pytest.mark.parametrize("corpus", ["dyadic", "fraction"])
def test_parse_print_and_validate_match_dense(corpus):
    systems = DYADIC if corpus == "dyadic" else FRACTION
    for pts in systems:
        text = print_pts(pts)
        fast, names = parse_pts(text)
        slow, slow_names = naive_parse_pts(text)
        assert fast == slow == pts and names == slow_names
        for a in pts.actions:
            assert np.array_equal(dense(fast)[a], dense(slow)[a])
        validate_pts(pts)
        naive_validate_pts(pts)


@pytest.mark.parametrize("corpus", ["dyadic", "fraction"])
def test_disjoint_union_matches_dense(corpus):
    systems = DYADIC if corpus == "dyadic" else FRACTION
    for p1, p2 in zip(systems, systems[1:] + systems[:1]):
        fast, off = disjoint_union(p1, p2)
        slow, slow_off = naive_disjoint_union(p1, p2)
        assert fast == slow and off == slow_off
        assert fast.actions == slow.actions


@pytest.mark.parametrize("table", ["sparse"])
@pytest.mark.parametrize("corpus", ["dyadic", "fraction"])
def test_lumpability_and_quotient_match_dense(corpus, table):
    # ``table`` names the form of the class masses M K checked here: the
    # keyed entries that is_lumpable, the quotient and the lumping hull read
    systems = DYADIC if corpus == "dyadic" else FRACTION
    rng = random.Random(17)
    worst = 0.0
    seen = {True: 0, False: 0}
    for pts in systems:
        for c in classifications(pts, rng):
            key, got = class_masses(pts, np.asarray(c.assign), c.m)
            assert np.all(np.diff(key) > 0)
            got = np.bincount(key, weights=got, minlength=len(pts.actions) * pts.n * c.m)
            got = got.reshape(-1, pts.n, c.m)
            want = np.array([dense(pts)[a] @ classification_matrix(c) for a in pts.actions])
            if corpus == "dyadic":
                assert np.array_equal(got, want), (pts, c)
            else:
                worst = max(worst, ulps(got, want))
            result = is_lumpable(pts, c)
            expected = naive_is_lumpable(pts, c)
            if corpus == "dyadic" or result == expected:
                assert result == expected, (pts, c)
            else:
                got, want = result[1], expected[1]
                assert (got.action, got.state_a, got.state_b, got.target_block) == (
                    want.action, want.state_a, want.state_b, want.target_block)
                worst = max(worst, ulps(masses_of(got.reason), masses_of(want.reason)))
            seen[result[0]] += 1
            if not result[0]:
                with pytest.raises(NotLumpableError) as exc:
                    quotient(pts, c)
                assert exc.value.violation == result[1]
                continue
            fast, slow = quotient(pts, c), naive_quotient(pts, c)
            if corpus == "dyadic":
                assert fast == slow
            else:
                assert fast.n == slow.n and fast.actions == slow.actions
                for a in pts.actions:
                    assert np.array_equal(dense(fast)[a] != 0, dense(slow)[a] != 0)
                    worst = max(worst, ulps(dense(fast)[a], dense(slow)[a]))
    assert seen[True] and seen[False]
    assert worst <= NON_DYADIC_ULPS


@pytest.mark.parametrize("padding", [0, 4096])
def test_violation_found_only_by_a_missing_class(padding):
    # state 1 matches its lead on class 0 but has no mass into class 1
    # (rows need not be distributions here); both stay enabled.  Padding
    # states without edges, each its own class, leave the violation as it is
    small = LabelledPTS(3, ("a",), {"a": [[0.6, 0.0, 0.4], [0.6, 0.0, 0.0], [0.0, 0.0, 0.0]]})
    c = Classification((0, 0, 1), 2)
    pts = LabelledPTS.from_edges(3 + padding, ("a",), small.row, small.dst, small.prob)
    result = is_lumpable(pts, Classification(c.assign + tuple(range(2, 2 + padding)), 2 + padding))
    assert result == naive_is_lumpable(small, c)
    assert (result[1].state_b, result[1].target_block) == (1, 1)


def test_row_sum_at_the_bound_is_the_dense_row_sum():
    # a row whose total in target order lies within tol of 1 while the
    # dense row's pairwise sum lies beyond it
    rng = random.Random(5)
    for _ in range(1000):
        row = [rng.randint(1, 1000) for _ in range(40)]
        row = [v / sum(row) for v in row]
        seq = 0.0
        for v in row:
            seq += v
        if abs(float(np.array(row).sum()) - 1.0) > abs(seq - 1.0):
            break
    else:
        raise AssertionError("no row with differing sums found")
    text = (
        "states: " + " ".join(f"s{i}" for i in range(40)) + "\nactions: a\n"
        + "".join(f"s0 a s{t} {v!r}\n" for t, v in enumerate(row))
    )
    tol = abs(seq - 1.0)
    expected = outcome(naive_parse_pts, text, tol)
    assert expected is not None and expected[0] is RowSumError
    assert outcome(parse_pts, text, tol) == expected


def test_bisimilarity_witness_matches_dense_lumping():
    rng = random.Random(3)
    for pts in DYADIC[::3]:
        other, _ = permuted(pts, rng)
        ok, witness = are_bisimilar(pts, other)
        assert ok
        union, _ = naive_disjoint_union(pts, other)
        c = coarsest_bisimulation(union)
        k = classification_matrix(c)
        lumped = LabelledPTS(c.m, union.actions, {a: lump(m, k) for a, m in dense(union).items()})
        assert witness.quotient == lumped


HEAD = "states: s0 s1\nactions: a b\n"
OK_ROWS = "s0 a s1 1\ns1 a s0 1\n"

MALFORMED = [
    # lexical and structural errors
    HEAD + "s0 a s1 one\n",
    HEAD + "s0 a s1 1/0\n",
    HEAD + "s0 a s1 1/2/3\n",
    HEAD + "s0 a s1 /2\n",
    HEAD + "s0 a s1 0x1\n",
    HEAD + "s0 a s1\n",
    HEAD + "s0 a s1 1 extra\n",
    HEAD + "s0 c s1 1\n",
    HEAD + "s9 a s1 1\n",
    HEAD + "s0 a s9 1\n",
    HEAD + "s9 c s9 bad\n",
    "s0 a s1 1\n" + HEAD,
    "states: s0 s1\ns0 a s1 1\nactions: a\n",
    "actions: a\ns0 a s0 1\nstates: s0\n",
    "states: s0\n",
    "actions: a\n",
    "",
    "# only a comment\n\n",
    "states:\nactions: a\n",
    "states: s0 s0\nactions: a\n",
    "states: s0\nactions: a a\n",
    "states: s0\nstates: s1\nactions: a\n",
    "states: s0\nactions: a\nactions: b\n",
    "states: s0\nactions:\n",
    HEAD + "states: s2 s3 s4\n",
    HEAD + OK_ROWS + "actions:c d e\n",
    # duplicates, also of zero entries, and which line wins
    HEAD + "s0 a s1 0.5\ns0 a s1 0.5\n",
    HEAD + "s0 a s1 0\ns0 a s1 0\n" + OK_ROWS,
    HEAD + "s0 a s1 1\ns1 a s0 1\ns0 a s1 x\n",
    HEAD + "s0 a s1 x\ns0 a s1 1\n",
    HEAD + "s0 a s1 1\ns0 a s1 y\n",
    HEAD + "s0 a s1 1\ns9 a s1 1\nstates: s2\n",
    HEAD + "s0 a s1 1\nstates: s2\ns9 a s1 1\n",
    HEAD + "s0 a s1 1\nbroken line\ns0 a s1 1\n",
    HEAD + "s1 b s1 1\ns0 a s1 one\ns0 a s9 1\n",
    # non-finite, negative and bad row sums (found after parsing)
    HEAD + "s0 a s1 inf\n",
    HEAD + "s0 a s1 nan\n",
    HEAD + "s0 a s1 -inf\ns0 b s1 nan\n",
    HEAD + "s0 a s1 0.5\ns0 b s1 nan\n",
    HEAD + "s0 a s1 nan\ns0 b s1 0.5\n",
    HEAD + "s0 a s1 0/0\n",
    HEAD + "s0 a s0 1.5\ns0 a s1 -0.5\n",
    HEAD + "s0 a s0 -0.25\ns0 a s1 1.25\ns1 a s1 0.5\n",
    HEAD + "s0 a s1 0.5\n",
    HEAD + "s0 a s1 1\ns1 a s0 0.9\n",
    HEAD + "s0 b s1 1\ns1 b s0 1\ns0 a s1 0.3\ns1 a s0 2\n",
    HEAD + "s1 a s0 0.1\ns1 a s1 0.2\n",
    HEAD + "s0 a s1 1e-10\n",
    HEAD + "s0 a s1 2e-9\n",
    HEAD + "s0 a s0 0.1\ns0 a s1 0.2\n" + "s1 a s0 0.7\ns1 a s1 0.2\n",
    HEAD + "s0 a s1 1.0000000015\n",
    HEAD + "s0 a s1 -2e-9\ns0 a s0 1\n",
    HEAD + "s0 a s1 1\ns1 a s0 1\ns1 a s1 -5e-10\n",
]

# rows near the tolerance bounds, summed over many targets
WIDE = "states: " + " ".join(f"s{i}" for i in range(40)) + "\nactions: a\n"
for total in (1 + 1.5e-9, 1 - 1.2e-9, 1 + 0.9e-9, 3e-9, 0.7e-9):
    MALFORMED.append(WIDE + "".join(f"s0 a s{t} {total / 37!r}\n" for t in range(37)))


def outcome(parse, text, tol):
    try:
        parse(text, tol)
    except PbisimError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return None


@pytest.mark.parametrize("tol", [1e-9, 0.0, 0.1])
def test_malformed_files_fail_as_the_dense_parser_does(tol):
    assert len(MALFORMED) >= 30
    failures = 0
    for text in MALFORMED:
        expected = outcome(naive_parse_pts, text, tol)
        assert outcome(parse_pts, text, tol) == expected, text
        failures += expected is not None
    assert failures >= 30


# Text that a line-at-a-time reader reads alike: the first entry of each
# list is plain, the others send a piece of text to the line reader or
# split lines where numpy's reader would not.
SEPARATORS = [" ", "\t", "   ", " \t ", "\x1f", "\xa0", "\u3000"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
FILLERS = ["", "   ", "\t", "# a comment", "  # states: s9 \u00e9"]
COMMENTS = ["", " # ok", "#", "\t# actions: x", " # \u00e9"]
NAME_SETS = [
    [f"s{i}" for i in range(6)],
    ["\u00e9", "\u00fc1", "\u03a3", "q_1", "z\x00", "s5"],
    ["states:x", "s1", "actions:", "s3", "s4", "s5"],
]
ACTION_SETS = [["a"], ["a", "b"], ["b", "\u00e7"], ["states:", "x:y"]]
# malformed transition lines over a state s and an action a
MALFORMED_LINES = [
    "nobody {a} {s} 1", "{s} nothing {s} 1", "{s} {a} nobody 1", "{s} {a}", "{s} {a} {s} 1 1",
    "{s} {a} {s} x", "{s} {a} {s} 1/0", "{s} {a} {s} 0x1", "states: z", "actions: b",
    "states:x {a} {s} 1", "{s}x {a} {s} 1", "{s}\x00 {a} {s} 1",
]


def odd(rng, choices):
    """The plain first choice four times in five, else a random one."""
    return choices[0] if rng.random() < 0.8 else rng.choice(choices)


def probability_token(p: float, rng) -> str:
    """A token that the line reader reads as the dyadic ``p``."""
    forms = [repr(p), f"{round(p * 1024)}/1024", "+" + repr(p), repr(p).replace("0.", ".", 1)]
    digits = repr(p)
    cut = next((i for i in range(1, len(digits)) if (digits[i - 1] + digits[i]).isdigit()), None)
    if cut is not None:
        forms.append(digits[:cut] + "_" + digits[cut:])
    if p == 1.0:
        forms += ["1_0e-1", "\u0661"]
    return odd(rng, forms)


def unusual_text(rng, bad_line: bool) -> str:
    """A random system printed with separators, line ends, comments, blank
    lines, header orders and probability tokens drawn from ``rng``; with
    ``bad_line``, one transition line (or a line after it) is malformed."""
    n = rng.randint(1, 5)
    names = rng.sample(odd(rng, NAME_SETS), n)
    actions = odd(rng, ACTION_SETS)
    pts = gen_random_pts(n, actions, rng.choice([0.5, 1.0]), rng.randrange(10**6))
    action, source = np.divmod(pts.row, n)
    edges = zip(source.tolist(), action.tolist(), pts.dst.tolist(), pts.prob.tolist())
    rows = [[names[s], actions[a], names[t], probability_token(p, rng)] for s, a, t, p in edges]
    rng.shuffle(rows)
    if bad_line and rows:
        at = rng.randrange(len(rows))
        bad = rng.choice(MALFORMED_LINES + [" ".join(rows[0])])
        rows.insert(at + rng.randrange(2), bad.format(s=names[0], a=actions[0]).split())
    headers = [["states:", *names], ["actions:", *actions]]
    rng.shuffle(headers)
    lines = [odd(rng, FILLERS) for _ in range(rng.randrange(3))]
    for words in headers + rows:
        line = odd(rng, SEPARATORS).join(words) + odd(rng, COMMENTS)
        lines.append(odd(rng, ["", " ", "\t"]) + line)
        lines += [odd(rng, FILLERS) for _ in range(rng.random() < 0.2)]
    return "".join(line + odd(rng, LINE_ENDS) for line in lines)


def assert_parses_as_the_line_reader_does(text):
    expected = outcome(naive_parse_pts, text, DEFAULT_TOL)
    assert outcome(parse_pts, text, DEFAULT_TOL) == expected, repr(text)
    if expected is None:
        (fast, names), (slow, slow_names) = parse_pts(text), naive_parse_pts(text)
        assert fast == slow and names == slow_names
        for new, old in zip((fast.row, fast.dst, fast.prob), (slow.row, slow.dst, slow.prob)):
            assert np.array_equal(new, old)
    return expected


@pytest.mark.parametrize("chunk", [None, 1, 64])
def test_parse_matches_the_line_reader_on_unusual_text(chunk, monkeypatch):
    # a small piece size puts piece boundaries between most lines
    if chunk is not None:
        monkeypatch.setattr(formats, "_CHUNK", chunk)
    rng = random.Random(18)
    texts = [unusual_text(rng, bad_line=i % 2 == 1) for i in range(400)]
    results = [assert_parses_as_the_line_reader_does(text) for text in texts]
    failures = [r for r in results if r is not None]
    assert 100 <= len(failures) <= 300
    assert len({r[1].split(":")[1][:12] for r in failures}) >= 6


def long_text(padding: int) -> list[str]:
    """Lines of a valid 64-state system, every transition line padded with
    a comment to about ``padding`` characters."""
    names = [f"state{i:02d}" for i in range(64)]
    lines = ["# two actions, 32 targets per row", "states: " + " ".join(names), "actions: a b"]
    for s in range(64):
        for a in "ab":
            for t in range(s % 2, 64, 2):
                line = f"{names[s]} {a} {names[t]} 0.03125"
                lines.append(line + " # " + "-" * (padding - len(line)))
    return lines


def test_malformed_lines_in_a_later_piece_fail_as_the_line_reader_does():
    lines = long_text(300)
    text = "\n".join(lines) + "\n"
    assert len(text) > formats._CHUNK
    assert assert_parses_as_the_line_reader_does(text) is None
    # every line from 3,600 on lies in the second piece
    assert len("\n".join(lines[:3600])) > formats._CHUNK
    rng = random.Random(7)
    edits = [(at, bad.format(s="state00", a="a")) for bad in MALFORMED_LINES for at in (3600, 4000)]
    edits += [(3700, lines[5].split("#")[0]), (3700, "state00 a state00 1/32"),
              (3800, "state00 a state00 0.03125 # \u00e9"), (3800, "")]
    failures = 0
    for at, bad in edits:
        edited = lines[:at] + [bad] + lines[at + 1 :]
        eol = rng.choice(["\n", "\r\n"])
        failures += assert_parses_as_the_line_reader_does(eol.join(edited) + eol) is not None
    assert failures >= len(MALFORMED_LINES) * 2


def test_only_pieces_that_need_it_go_to_the_line_reader(monkeypatch):
    read = []

    def spy(lines, lineno, *tables):
        read.append(lineno)
        return line_reader(lines, lineno, *tables)

    line_reader = formats._read_lines
    monkeypatch.setattr(formats, "_read_lines", spy)
    lines = long_text(300)
    parse_pts("\n".join(lines) + "\n")
    assert read == []
    lines[3700] = lines[3700].replace("0.03125", "1/32")
    lines[3701] = lines[3701] + " \u00e9"
    parse_pts("\n".join(lines) + "\n")
    # the second piece, which starts before line 3,600, alone
    assert len(read) == 1 and read[0] < 3600


# Names of every width from 1 to 24 bytes, each a prefix of the next,
# names that differ only in the last byte of their first or second uint64
# word, and action labels on both sides of 8 and 16 bytes.
WIDE_NAMES = ["s" * w for w in range(1, 25)] + [
    "abcdefgh", "abcdefgi", "abcdefghabcdefgh", "abcdefghabcdefgi", "t0", "t1"]
WIDE_ACTIONS = ["a", "a" * 7, "a" * 8, "a" * 9, "b" * 16, "b" * 17]
# names not declared: longer than every name (and than the column), a
# prefix of none, and one byte or one word away from a declared name
UNDECLARED = ["s" * 25, "s" * 40, "abcdefgj", "abcdefghabcdefgj", "abcdefg", "t2", "S", "a" * 2, "b" * 15]


def wide_lines(names, actions, seed: int) -> list[str]:
    """The printed lines of a random system over these names and labels."""
    pts = gen_random_pts(len(names), actions, 0.6, seed)
    return print_pts(pts, tuple(names)).splitlines()


def spied(monkeypatch, name):
    """Replace ``formats.<name>`` by a copy that records each result."""
    calls, real = [], getattr(formats, name)

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(formats, name, spy)
    return calls


@pytest.mark.parametrize("chunk", [None, 1, 64])
def test_names_of_every_width_are_looked_up_as_the_line_reader_does(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(formats, "_CHUNK", chunk)
    converted = spied(monkeypatch, "_convert")
    lines = wide_lines(WIDE_NAMES, WIDE_ACTIONS, 2500)
    assert assert_parses_as_the_line_reader_does("\n".join(lines) + "\n") is None
    # every piece went through the name lookup
    assert len(converted) >= (1 if chunk is None else 100) and None not in converted
    # an undeclared name in each column, on the first transition line, which
    # starts a piece, and on a later one
    failures = 0
    for bad in UNDECLARED:
        for at in (2, 40):
            for col in range(3):
                words = lines[at].split()
                words[col] = bad
                edited = lines[:at] + [" ".join(words)] + lines[at + 1:]
                expected = assert_parses_as_the_line_reader_does("\n".join(edited) + "\n")
                failures += expected[0] is UnknownNameError and expected[2] == at + 1
    assert failures == len(UNDECLARED) * 2 * 3


@pytest.mark.parametrize("chunk", [None, 1, 64])
def test_non_ascii_names_and_pieces_parse_as_the_line_reader_does(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(formats, "_CHUNK", chunk)
    converted = spied(monkeypatch, "_convert")
    names = WIDE_NAMES[::3] + ["\u00e9", "s" * 7 + "\u00e9", "\u03a3" * 5, "z\x00", "z"]
    lines = wide_lines(names, ["a", "\u00e7" * 4, "b" * 9], 2501)
    assert assert_parses_as_the_line_reader_does("\n".join(lines) + "\n") is None
    lines[30] += " # \u00e9"
    assert assert_parses_as_the_line_reader_does("\n".join(lines) + "\n") is None
    words = lines[31].split()
    words[0] = "\u00e9" * 2
    lines[31] = " ".join(words)
    expected = assert_parses_as_the_line_reader_does("\n".join(lines) + "\n")
    assert expected == (UnknownNameError, str(UnknownNameError("\u00e9" * 2, 32)), 32)
    if chunk is not None:
        # pieces of ASCII lines alone are converted, the others are not
        assert None in converted and any(c is not None for c in converted)


@pytest.mark.parametrize("fold", ["first word", "constant"])
def test_a_key_collision_sends_every_piece_to_the_line_reader(fold, monkeypatch):
    if fold == "first word":
        monkeypatch.setattr(formats, "_fold", lambda words: words[:, 0])
    else:
        monkeypatch.setattr(formats, "_fold", lambda words: np.zeros(len(words), np.uint64))
    monkeypatch.setattr(formats, "_CHUNK", 64)
    converted = spied(monkeypatch, "_convert")
    lines = wide_lines(WIDE_NAMES, WIDE_ACTIONS, 2502)
    assert assert_parses_as_the_line_reader_does("\n".join(lines) + "\n") is None
    assert len(converted) >= 100 and set(converted) == {None}
    for bad in UNDECLARED[:3]:
        edited = lines[:40] + [lines[40].replace(lines[40].split()[0], bad, 1)] + lines[41:]
        expected = assert_parses_as_the_line_reader_does("\n".join(edited) + "\n")
        assert expected == (UnknownNameError, str(UnknownNameError(bad, 41)), 41)


def assert_same_system(new, old):
    assert new == old
    assert print_pts(new) == print_pts(old)


def test_generators_match_the_dense_ones():
    randoms = []
    for i in range(36):
        n, density = 1 + i % 6, [0.35, 0.8, 1.0][i // 6 % 3]
        actions = [ACTIONS, ["a"], ["b", "a", "c"]][i % 3]
        randoms.append(gen_random_pts(n, actions, density, 700 + i))
        assert_same_system(randoms[-1], naive_gen_random_pts(n, actions, density, 700 + i))

    # quotients: random, non-dyadic, and with entries negative or tiny within tol
    odd = [parse_pts(text, 0.1)[0] for text in MALFORMED if outcome(parse_pts, text, 0.1) is None]
    lifts = []
    for i, q in enumerate(randoms[:24] + FRACTION[::10] + odd):
        mult = [1 + (i + j) % 4 for j in range(q.n)]
        lift, cls = gen_planted(q, mult, 800 + i)
        old, old_cls = naive_gen_planted(q, mult, 800 + i)
        assert_same_system(lift, old)
        assert cls == old_cls
        lifts.append(lift)

    for i, pts in enumerate(randoms + lifts + DYADIC[::4] + FRACTION[::8] + odd):
        for delta in (0, 1e-7, 0.01, 0.3, 2):
            assert_same_system(perturb(pts, delta, 900 + i), naive_perturb(pts, delta, 900 + i))


def identical_rows(n: int, seed: int):
    """System whose states all share one row per action: every
    classification is a lumping, so the scan meets many ties."""
    row = gen_random_pts(n, ACTIONS, 1.0, seed)
    return LabelledPTS(n, ACTIONS, {a: np.tile(dense(row)[a][0], (n, 1)) for a in ACTIONS})


def epsilon_pairs():
    """Seeded pairs with n <= 7: random (also over different alphabets),
    perturbed, planted lifts against their quotients and against
    themselves, all-identical rows (six states: every classification is a
    lumping), rows of 0.1/0.2/0.7, and chains of masses a fraction of the
    tolerance apart."""
    rng = random.Random(61)
    pairs = []
    for i in range(60):
        p1 = gen_random_pts(2 + i % 5, ACTIONS, 0.7, 1100 + i)
        n2 = p1.n if i % 2 else 2 + (i // 5) % 4
        p2 = gen_random_pts(n2, [ACTIONS, ["a"], ["b", "c"]][i % 3], 0.7, 1200 + i)
        pairs += [(p1, p2), (p1, perturb(p1, [0.001, 0.05, 0.3][i % 3], 1300 + i))]
    for i in range(24):
        lift, q, _ = planted_pair(i)
        pairs += [(lift, q), (lift, lift)]
    for n in range(1, 6):
        same = identical_rows(n, 1400 + n)
        pairs += [(same, same), (same, perturb(same, 0.01, 1500 + n))]
        pairs.append((identical_rows(n, 1450 + n), same))
    same = identical_rows(6, 1406)
    pairs += [(same, same), (same, perturb(same, 0.01, 1506))]
    for i in range(4):
        p1 = gen_random_pts(7, ACTIONS, 0.7, 1600 + i)
        pairs.append((p1, perturb(p1, [0.001, 0.05][i % 2], 1650 + i)))
    lift, _ = gen_planted(gen_random_pts(3, ACTIONS, 0.8, 1700), [3, 2, 2], 1701)
    pairs += [(lift, gen_random_pts(3, ACTIONS, 0.8, 1700)), (lift, perturb(lift, 0.01, 1702))]
    steps = [s * DEFAULT_TOL for s in (0.3, 0.6, 0.9)]
    for i, (k1, k2) in enumerate([(3, 2), (4, 3), (2, 4), (3, 3), (4, 4)] * 2):
        p1 = tolerance_chain([0.5 + j * steps[i % 3] for j in range(k1)])
        p2 = tolerance_chain([0.5 + j * steps[(i + 1 + i // 5) % 3] for j in range(k2)])
        pairs.append((p1, p2))
    for devs in ([0.0, 0.9], [0.0, -0.6], [0.5, -0.5]):
        p1 = tolerance_spread([d * DEFAULT_TOL for d in devs])
        pairs += [(p1, tolerance_spread([0.3 * DEFAULT_TOL])), (p1, p1)]
    tenths = PALETTES["tenths"]
    for i in range(30):
        p1 = palette_pts(rng, 3 + i % 3, tenths, 0.8)
        pairs += [(p1, palette_pts(rng, 2 + i % 4, tenths, 0.8)), (p1, permuted(p1, rng)[0])]
    for i in range(12):
        q = palette_pts(rng, 2, tenths, 1.0)
        pairs.append((palette_lift(rng, q, [1 + i % 3, 1 + (i // 3) % 3], tenths), q))
    return pairs


EPSILON_PAIRS = epsilon_pairs()


@pytest.mark.parametrize("norm", NORM_KINDS)
def test_exact_epsilon_matches_the_dense_scan(norm):
    assert len(EPSILON_PAIRS) >= 200
    found = 0
    for p1, p2 in EPSILON_PAIRS:
        res = epsilon_bisim_exact(p1, p2, norm_kind=norm)
        best = naive_exact_best(p1, p2, norm)
        if best is None:
            assert res.epsilon == math.inf and res.k1 is None and res.k2 is None
            continue
        found += 1
        assert (res.m, res.k1.assign, res.k2.assign) == best[1:]
        assert abs(res.epsilon - best[0]) <= NON_DYADIC_ULPS * EPS, (res, best)
        assert epsilon_distance(p1, p2, res.k1, res.k2, norm) == res.epsilon
    assert found >= 200
