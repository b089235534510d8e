import numpy as np
import pytest

from pbisim import Classification, LabelledPTS
from pbisim.errors import (
    NotALatticeError,
    ParseError,
    RowSumError,
    UnknownNameError,
)
from pbisim.formats import (
    parse_classification,
    parse_galois,
    parse_kripke,
    parse_pts,
    parse_relation,
    print_classification,
    print_kripke,
    print_pts,
)
from pbisim.generators import gen_planted, gen_random_pts

from helpers import as_set, dense


def test_parse_minimal_system():
    pts, names = parse_pts("states: s0\nactions: a\ns0 a s0 1\n")
    assert names == ("s0",)
    assert pts.n == 1
    assert dense(pts)["a"][0, 0] == 1.0


def test_parse_undeclared_state():
    text = "states: s0\nactions: a\ns0 a s1 0.5\n"
    with pytest.raises(UnknownNameError) as exc:
        parse_pts(text)
    assert exc.value.line == 3
    assert "s1" in str(exc.value)


def test_parse_fraction_probabilities():
    text = "states: s0 s1\nactions: a\ns0 a s0 1/3\ns0 a s1 2/3\ns1 a s1 1\n"
    pts, _ = parse_pts(text)
    row = dense(pts)["a"][0]
    assert row[0] == pytest.approx(1 / 3, abs=0)
    assert abs(row.sum() - 1.0) < 1e-9


def test_parse_comments_and_blank_lines():
    text = "# a comment\nstates: s0  # trailing\n\nactions: a\ns0 a s0 1\n"
    pts, _ = parse_pts(text)
    assert pts.n == 1


def test_parse_duplicate_transition_rejected():
    text = "states: s0\nactions: a\ns0 a s0 0.5\ns0 a s0 0.5\n"
    with pytest.raises(ParseError) as exc:
        parse_pts(text)
    assert exc.value.line == 4


def test_parse_rejects_invalid_rows():
    text = "states: s0 s1\nactions: a\ns0 a s1 0.5\n"
    with pytest.raises(RowSumError):
        parse_pts(text)


def test_parse_bad_probability_token():
    with pytest.raises(ParseError) as exc:
        parse_pts("states: s0\nactions: a\ns0 a s0 one\n")
    assert exc.value.line == 3


def test_parse_missing_sections():
    with pytest.raises(ParseError):
        parse_pts("actions: a\n")
    with pytest.raises(UnknownNameError):
        parse_pts("s0 a s0 1\n")


def test_pts_round_trip_on_generated_corpus():
    for seed in range(10):
        pts = gen_random_pts(1 + seed % 5, ["a", "b"], 0.7, seed)
        again, names = parse_pts(print_pts(pts))
        assert again == pts
        assert names == tuple(f"s{i}" for i in range(pts.n))


def test_pts_round_trip_on_planted_lift():
    q = gen_random_pts(3, ["x", "y"], 0.8, 9)
    lift, _ = gen_planted(q, [2, 1, 3], 10)
    assert parse_pts(print_pts(lift))[0] == lift


def test_classification_round_trip():
    c = Classification((0, 1, 0, 2), 3)
    names = ("s0", "s1", "s2", "s3")
    assert parse_classification(print_classification(c, names), names) == c


def test_classification_missing_state():
    with pytest.raises(ParseError):
        parse_classification("s0 0\n", ("s0", "s1"))


def test_classification_unknown_state():
    with pytest.raises(UnknownNameError) as exc:
        parse_classification("bogus 0\n", ("s0",))
    assert exc.value.line == 1


def test_parse_kripke_minimal():
    k, names = parse_kripke("states: c0 c1\nc0 -> c1\n")
    assert names == ("c0", "c1")
    assert as_set(k.edges) == {(0, 1)}
    assert as_set(k.marked) == set()


def test_parse_kripke_marked_and_round_trip():
    text = "states: c0 c1 c2\nmarked: c1\nc0 -> c1\nc1 -> c2\n"
    k, names = parse_kripke(text)
    assert as_set(k.marked) == {1}
    again, names2 = parse_kripke(print_kripke(k, names))
    assert again == k and names2 == names


def test_parse_kripke_bad_edge_line():
    with pytest.raises(ParseError) as exc:
        parse_kripke("states: c0\nc0 => c0\n")
    assert exc.value.line == 2


def test_parse_relation():
    _, cn = parse_kripke("states: c0 c1\nc0 -> c1\n")
    _, an = parse_kripke("states: a0\n")
    rel = parse_relation("c0 a0\nc1 a0\n", cn, an)
    assert as_set(rel.pairs) == {(0, 0), (1, 0)}
    with pytest.raises(UnknownNameError):
        parse_relation("c9 a0\n", cn, an)


def test_parse_galois_two_point():
    text = "abstract: bot top\nleq: bot <= top\nalpha: c0 top\n"
    g, cnames, anames = parse_galois(text)
    assert cnames == ("c0",)
    assert anames == ("bot", "top")
    assert g.alpha_singleton == (1,)
    assert g.lattice.leq(0, 1)


def test_parse_galois_cycle_is_not_a_lattice():
    text = "abstract: x y\nleq: x <= y\nleq: y <= x\nalpha: c0 x\n"
    with pytest.raises(NotALatticeError):
        parse_galois(text)


def test_parse_galois_transitive_closure():
    text = (
        "abstract: a b c\nleq: a <= b\nleq: b <= c\nalpha: c0 a\nalpha: c1 b\n"
    )
    g, _, _ = parse_galois(text)
    assert g.lattice.leq(0, 2)  # a <= c by closure


def test_parse_galois_unknown_element():
    with pytest.raises(UnknownNameError) as exc:
        parse_galois("abstract: bot\nalpha: c0 top\n")
    assert exc.value.line == 2


PTS_HEAD = "states: s0\nactions: a\n"
READERS = {
    "pts": lambda text: parse_pts(text),
    "kripke": parse_kripke,
    "rel": lambda text: parse_relation(text, ("c0",), ("a0",)),
    "cls": lambda text: parse_classification(text, ("s0", "s1")),
    "galois": parse_galois,
}
DIAGNOSTICS = [
    # declaration lines: one per keyword, distinct names, at least one where required
    ("pts", "states: s0\nstates: s1\nactions: a\n", ParseError, 2, "duplicate states: line"),
    ("pts", "actions: a\nactions: b\nstates: s0\n", ParseError, 2, "duplicate actions: line"),
    ("pts", PTS_HEAD + "s0 a s0 1\nactions: b\n", ParseError, 4, "duplicate actions: line"),
    ("pts", "actions: a\nstates:  # none\n", ParseError, 2, "states: line declares no states"),
    ("pts", "states: s0 s1 s0\nactions: a\n", ParseError, 1, "duplicate state name"),
    ("pts", "states: s0\nactions: a b a\n", ParseError, 2, "duplicate action label"),
    ("kripke", "states: c0\nstates: c1\n", ParseError, 2, "duplicate states: line"),
    ("kripke", "# none\nstates:\n", ParseError, 2, "states: line declares no states"),
    ("kripke", "states: c0 c0\n", ParseError, 1, "duplicate state name"),
    ("galois", "abstract: a\nabstract: b\n", ParseError, 2, "duplicate abstract: line"),
    ("galois", "abstract:\n", ParseError, 1, "abstract: line declares no elements"),
    ("galois", "abstract: a b a\n", ParseError, 1, "duplicate abstract element"),
    # unknown names: the first in line order, at its line
    ("pts", PTS_HEAD + "x b y 1\n", UnknownNameError, 3, "unknown name 'x'"),
    ("pts", PTS_HEAD + "s0 b y 1\n", UnknownNameError, 3, "unknown name 'b'"),
    ("pts", PTS_HEAD + "s0 a y 1\n", UnknownNameError, 3, "unknown name 'y'"),
    ("pts", "x a s0 1\nstates: s0\nactions: a\n", UnknownNameError, 1, "unknown name 'x'"),
    ("pts", "states: s0\ns0 a s0 1\nactions: a\n", UnknownNameError, 2, "unknown name 'a'"),
    ("kripke", "states: c0\nx -> y\n", UnknownNameError, 2, "unknown name 'x'"),
    ("kripke", "states: c0\nc0 -> y\n", UnknownNameError, 2, "unknown name 'y'"),
    ("kripke", "c0 -> c0\nstates: c0\n", UnknownNameError, 1, "unknown name 'c0'"),
    ("kripke", "states: c0\nmarked: c0 x y\n", UnknownNameError, 2, "unknown name 'x'"),
    ("rel", "c0 a0\nx y\n", UnknownNameError, 2, "unknown name 'x'"),
    ("rel", "c0 y\n", UnknownNameError, 1, "unknown name 'y'"),
    ("rel", "a0 c0\n", UnknownNameError, 1, "unknown name 'a0'"),
    ("cls", "s0 0\nx 1\n", UnknownNameError, 2, "unknown name 'x'"),
    ("cls", "x y\n", UnknownNameError, 1, "unknown name 'x'"),
    ("cls", "s0 0\ns0 1\n", ParseError, 2, "state 's0' classified twice"),
    ("galois", "abstract: a\nleq: x <= y\n", UnknownNameError, 2, "unknown name 'x'"),
    ("galois", "abstract: a\nleq: a <= y\n", UnknownNameError, 2, "unknown name 'y'"),
    ("galois", "leq: a <= a\nabstract: a\n", UnknownNameError, 1, "unknown name 'a'"),
    ("galois", "abstract: a\nalpha: c0 x\n", UnknownNameError, 2, "unknown name 'x'"),
    # an alpha: line's element is looked up before the repeat check
    ("galois", "abstract: a\nalpha: c0 a\nalpha: c0 x\n", UnknownNameError, 3, "unknown name 'x'"),
    ("galois", "abstract: a\nalpha: c0 a\nalpha: c0 a\n", ParseError, 3, "alpha for 'c0' given twice"),
    # malformed lines and missing declarations
    ("cls", "s0 0\ns1 0 1\n", ParseError, 2, "expected 'state class-index'"),
    ("cls", "s0 0\ns1 x\n", ParseError, 2, "bad class index 'x'"),
    ("kripke", "# no declaration\n", ParseError, 1, "missing states: line"),
    ("rel", "c0 a0\nc0\n", ParseError, 2, "expected 'concrete abstract'"),
    ("galois", "abstract: a\nalpha: c0\n", ParseError, 2, "expected 'alpha: state element'"),
    ("galois", "# no declaration\n", ParseError, 1, "missing abstract: line"),
    ("galois", "abstract: a\nleq: a <= a\n", ParseError, 1, "no alpha: lines"),
]


@pytest.mark.parametrize("reader, text, kind, line, message", DIAGNOSTICS)
def test_reader_diagnostics_keep_their_type_message_and_line(reader, text, kind, line, message):
    with pytest.raises(ParseError) as exc:
        READERS[reader](text)
    assert type(exc.value) is kind
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"
