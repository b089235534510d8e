"""Results must not depend on how states are named or ordered in the files.

Each test writes inputs, runs ``pbisim.cli.main`` with ``--json``, then
permutes and renames states and compares the reports up to that renaming.
Exact epsilon must also not change when the two files are swapped.
"""

import json
import random

import numpy as np
import pytest

from pbisim import KripkeStructure, LabelledPTS, cli
from pbisim.formats import print_kripke, print_pts
from pbisim.matrices import NORM_KINDS

from helpers import as_set, dense, perturbed_pair, planted_pair, random_kripke, random_pair


def relabelled(k: KripkeStructure, names, rng: random.Random, prefix: str):
    """``k`` with its states in a random order and renamed; and old -> new names."""
    order = list(range(k.n))
    rng.shuffle(order)  # order[i] is the old state printed at position i
    where = {old: i for i, old in enumerate(order)}
    moved = KripkeStructure(
        k.n,
        frozenset((where[x], where[y]) for x, y in as_set(k.edges)),
        frozenset(where[s] for s in as_set(k.marked)),
    )
    new_names = tuple(f"{prefix}{names[old]}" for old in order)
    return moved, new_names, {names[old]: new_names[i] for i, old in enumerate(order)}


def run(tmp_path, capsys, command, files):
    """Write ``files`` and run ``command(paths) + ["--json"]``: (exit code, result)."""
    paths = []
    for name, text in files:
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    code = cli.main([*command(paths), "--json"])
    return code, json.loads(capsys.readouterr().out)["result"]


def largest(paths):
    return ["sim-check", *paths, "--largest"]


def against(paths):
    return ["galois-check", paths[0], "--against", *paths[1:]]


def test_largest_simulation_is_invariant_under_renaming(tmp_path, capsys):
    partial = 0
    for seed in range(8):
        rng = random.Random(seed)
        c = random_kripke(rng, rng.randint(3, 14), rng.choice([0.1, 0.2, 0.35]))
        a = random_kripke(rng, rng.randint(3, 14), rng.choice([0.1, 0.2, 0.35]))
        cnames = tuple(f"c{i}" for i in range(c.n))
        anames = tuple(f"a{i}" for i in range(a.n))
        code, base = run(tmp_path, capsys, largest, [
            ("c.kripke", print_kripke(c, cnames)), ("a.kripke", print_kripke(a, anames)),
        ])
        c2, cnames2, cmap = relabelled(c, cnames, rng, "x")
        a2, anames2, amap = relabelled(a, anames, rng, "y")
        code2, moved = run(tmp_path, capsys, largest, [
            ("c.kripke", print_kripke(c2, cnames2)), ("a.kripke", print_kripke(a2, anames2)),
        ])
        assert code == code2 == 0
        renamed = {(cmap[x], amap[y]) for x, y in base["relation"]}
        assert renamed == {tuple(p) for p in moved["relation"]}
        partial += 0 < len(renamed) < c.n * a.n
    assert partial >= 4


def spec_text(size: int, leq, alpha, element, state) -> str:
    lines = ["abstract: " + " ".join(element(e) for e in range(size))]
    lines += [f"leq: {element(x)} <= {element(y)}" for x, y in leq]
    lines += [f"alpha: {state(c)} {element(e)}" for c, e in enumerate(alpha)]
    return "\n".join(lines) + "\n"


def test_galois_check_is_invariant_under_renaming(tmp_path, capsys):
    # diamond-of-diamonds lattice: the powerset of 3 bits
    size = 8
    leq = [(x, x | 1 << i) for x in range(size) for i in range(3) if not x >> i & 1]
    verdicts = set()
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        alpha = [rng.randrange(size) for _ in range(n)]
        conc = random_kripke(rng, n, 0.3)
        p = rng.choice([0.3, 0.6])
        abstract = KripkeStructure(
            size + 2,
            frozenset((x, y) for x in range(size + 2) for y in range(size + 2) if rng.random() < p),
            frozenset(),
        )
        snames = tuple(f"g{i}" for i in range(n))
        enames = tuple(f"e{e}" for e in range(size)) + ("u0", "u1")
        base_files = [
            ("g.galois", spec_text(size, leq, alpha, enames.__getitem__, snames.__getitem__)),
            ("c.kripke", print_kripke(conc, snames)),
            ("a.kripke", print_kripke(abstract, enames)),
        ]
        code, base = run(tmp_path, capsys, against, base_files)
        verdicts.add(base["basis"])

        # the abstract structure alone, reordered: even the witness stays
        a2, anames2, _ = relabelled(abstract, enames, rng, "")
        files = base_files[:2] + [("a.kripke", print_kripke(a2, anames2))]
        assert run(tmp_path, capsys, against, files) == (code, base)

        # the concrete structure reordered and every name changed everywhere
        c2, snames2, smap = relabelled(conc, snames, rng, "s_")
        a3, anames3, emap = relabelled(abstract, enames, rng, "t_")
        files = [
            ("g.galois", spec_text(size, leq, alpha, lambda e: emap[enames[e]],
                                   lambda c: smap[snames[c]])),
            ("c.kripke", print_kripke(c2, snames2)),
            ("a.kripke", print_kripke(a3, anames3)),
        ]
        code3, moved = run(tmp_path, capsys, against, files)
        assert (code3, moved["galois"], moved["basis"]) == (code, base["galois"], base["basis"])
    assert verdicts == {True, False}


def relabelled_pts(pts: LabelledPTS, names, rng: random.Random, prefix: str):
    """``pts`` with its states in a random order and renamed, and the new names."""
    order = list(range(pts.n))
    rng.shuffle(order)  # order[i] is the old state printed at position i
    moved = LabelledPTS(pts.n, pts.actions, {a: m[np.ix_(order, order)] for a, m in dense(pts).items()})
    return moved, tuple(f"{prefix}{names[old]}" for old in order)


@pytest.mark.parametrize("norm", NORM_KINDS)
def test_exact_epsilon_is_symmetric_and_invariant_under_renaming(tmp_path, capsys, norm):
    def epsilon(paths):
        return ["epsilon", *paths, "--norm", norm]

    positive = set()
    for i in range(18):
        rng = random.Random(i)
        p1, p2 = [planted_pair(i)[:2], perturbed_pair(i)[:2], random_pair(i)][i % 3]
        names1 = tuple(f"p{s}" for s in range(p1.n))
        names2 = tuple(f"q{s}" for s in range(p2.n))
        files = [("1.pts", print_pts(p1, names1)), ("2.pts", print_pts(p2, names2))]
        code, base = run(tmp_path, capsys, epsilon, files)
        assert base["admissible_pair_found"]
        positive.add(base["epsilon"] > 0)

        moved1, moved_names1 = relabelled_pts(p1, names1, rng, "x")
        moved2, moved_names2 = relabelled_pts(p2, names2, rng, "y")
        for variant in (
            files[::-1],
            [("1.pts", print_pts(moved1, moved_names1)), files[1]],
            [files[0], ("2.pts", print_pts(moved2, moved_names2))],
            [("2.pts", print_pts(moved2, moved_names2)), ("1.pts", print_pts(moved1, moved_names1))],
        ):
            code2, other = run(tmp_path, capsys, epsilon, variant)
            assert code2 == code
            assert (other["epsilon"], other["classes"]) == (base["epsilon"], base["classes"])
    assert positive == {True, False}


def blocks(*assigns, undo=None) -> set[frozenset]:
    """The partition that ``name -> class`` maps define, as a set of name
    sets, with every name mapped back through ``undo``."""
    by_class: dict[int, set] = {}
    for assign in assigns:
        for name, c in assign.items():
            by_class.setdefault(c, set()).add(undo[name] if undo else name)
    return {frozenset(b) for b in by_class.values()}


def test_bisim_and_coarsest_quotient_are_invariant_under_renaming(tmp_path, capsys):
    def bisim(paths):
        return ["bisim", *paths]

    def coarsest(paths):
        return ["quotient", *paths, "--coarsest"]

    verdicts = set()
    for i in range(12):
        rng = random.Random(i)
        pair = planted_pair(i)[:2] if i % 2 == 0 else random_pair(i)
        names = [tuple(f"{p}{s}" for s in range(pts.n)) for p, pts in zip("pq", pair)]
        files = [(f"{j}.pts", print_pts(pts, nm)) for j, (pts, nm) in enumerate(zip(pair, names))]
        code, base = run(tmp_path, capsys, bisim, files)
        verdicts.add(base["bisimilar"])
        # the first input only permuted, the second also renamed
        for side, prefix in ((0, ""), (1, "x")):
            moved, moved_names = relabelled_pts(pair[side], names[side], rng, prefix)
            undo = {name: name for name in [*names[0], *names[1]]}
            undo.update((new, new[len(prefix):]) for new in moved_names)
            variant = list(files)
            variant[side] = (f"{side}.pts", print_pts(moved, moved_names))
            code2, other = run(tmp_path, capsys, bisim, variant)
            assert (code2, other["bisimilar"], other["classes"]) == (
                code, base["bisimilar"], base["classes"])
            if base["bisimilar"]:
                assert blocks(other["k1"], other["k2"], undo=undo) == blocks(base["k1"], base["k2"])

            _, q = run(tmp_path, capsys, coarsest, files[side:side + 1])
            _, q2 = run(tmp_path, capsys, coarsest, variant[side:side + 1])
            assert q2["classes"] == q["classes"]
            assert blocks(q2["classification"], undo=undo) == blocks(q["classification"])
    assert verdicts == {True, False}
