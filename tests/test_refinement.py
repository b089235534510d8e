"""Splitter-driven refinement against the dense round-based oracle and
against its own loop form.

Dyadic corpora have exactly representable masses, so the two refinements
must return the same partition.  The loop form runs the same refinement
with stable argsorts, a Python loop over every batch and a closing pass
over every block, so it must return the same partition bit for bit on
every input and at every tolerance.  Corpora built from 1/3 or 0.1/0.2/0.7
probabilities carry sub-tolerance residues: there the result must be
lumpable and no finer than the oracle's, and on small systems it must be
the enumerated coarsest lumping.
"""

import random
import time

import numpy as np
import pytest

from pbisim import (
    Classification,
    LabelledPTS,
    coarsest_bisimulation,
    is_lumpable,
    quotient,
)
from pbisim import bisim, cli
from pbisim.core import DEFAULT_TOL, disjoint_union
from pbisim.formats import parse_pts, print_pts
from pbisim.generators import gen_planted, gen_random_pts, perturb

from helpers import (
    ACTIONS,
    acceptance_corpus,
    brute_coarsest,
    canonical,
    dense,
    loop_coarsest,
    naive_coarsest,
    planted_pair,
    random_pair,
    tolerance_chain,
    tolerance_spread,
)
from test_memory import planted_text


def chain(n: int) -> LabelledPTS:
    """x0 -a-> x1 -a-> ... -a-> x(n-1), which is stuck."""
    m = np.zeros((n, n))
    m[np.arange(n - 1), np.arange(1, n)] = 1.0
    return LabelledPTS(n, ("a",), {"a": m})


def marked_cycle(n: int) -> LabelledPTS:
    """Cycle on a in which only state 0 also enables a b self-loop."""
    a = np.zeros((n, n))
    a[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    b = np.zeros((n, n))
    b[0, 0] = 1.0
    return LabelledPTS(n, ("a", "b"), {"a": a, "b": b})


def permuted(pts: LabelledPTS, rng: random.Random) -> tuple[LabelledPTS, list[int]]:
    """Copy of ``pts`` in which old state ``s`` is renamed ``perm[s]``."""
    perm = list(range(pts.n))
    rng.shuffle(perm)
    inv = np.argsort(perm)
    trans = {a: m[np.ix_(inv, inv)] for a, m in dense(pts).items()}
    return LabelledPTS(pts.n, pts.actions, trans), perm


def renamed(c: Classification, perm: list[int]) -> Classification:
    assign = [0] * c.n
    for s, v in enumerate(c.assign):
        assign[perm[s]] = v
    return canonical(assign)


def dyadic_corpus():
    rng = random.Random(11)
    systems = []
    for i in range(24):
        mq = 2 + i % 6
        q = gen_random_pts(mq, ACTIONS, 0.8, 9000 + i)
        mult = [rng.randint(1, 6 + i % 5) for _ in range(mq)]
        systems.append(gen_planted(q, mult, 9100 + i)[0])
    for i in range(12):
        systems.append(gen_random_pts(5 + 3 * i, ACTIONS, 0.6, 9200 + i))
    for n in (1, 2, 7, 30, 60):
        systems += [chain(n), marked_cycle(n)]
    out = []
    for pts in systems:
        out.append(pts)
        out.append(permuted(pts, rng)[0])
    return out


# Row shapes whose masses are not exactly representable; summed per class
# they differ from each other by a few ulps.
PALETTES = {
    "thirds": [(1.0,), (1 / 3, 2 / 3), (2 / 3, 1 / 3), (1 / 3, 1 / 3, 1 / 3)],
    "tenths": [(1.0,), (0.1, 0.2, 0.7), (0.3, 0.7), (0.7, 0.1, 0.2), (0.2, 0.1, 0.3, 0.4)],
}


def palette_pts(rng: random.Random, n: int, palette, density: float) -> LabelledPTS:
    """Random system whose enabled rows put palette probabilities on distinct targets."""
    trans = {}
    for a in ACTIONS:
        m = np.zeros((n, n))
        for s in range(n):
            if rng.random() < density:
                row = rng.choice([r for r in palette if len(r) <= n])
                m[s, rng.sample(range(n), len(row))] = row
        trans[a] = m
    return LabelledPTS(n, tuple(ACTIONS), trans)


def palette_lift(rng: random.Random, q: LabelledPTS, mult: list[int], palette) -> LabelledPTS:
    """Lift of ``q`` that splits each quotient mass over a block by palette shares."""
    offsets = np.concatenate(([0], np.cumsum(mult)))
    n = int(offsets[-1])
    block = [j for j in range(q.n) for _ in range(mult[j])]
    trans = {}
    for a, qa in dense(q).items():
        m = np.zeros((n, n))
        for u in range(n):
            for t in np.flatnonzero(qa[block[u]]):
                shares = rng.choice([r for r in palette if len(r) <= mult[t]])
                members = rng.sample(range(offsets[t], offsets[t + 1]), len(shares))
                m[u, members] = [qa[block[u], t] * w for w in shares]
        trans[a] = m
    return LabelledPTS(n, q.actions, trans)


def fraction_corpus():
    rng = random.Random(23)
    systems = []
    for name, palette in PALETTES.items():
        for i in range(60):
            systems.append(palette_pts(rng, 3 + i % 5, palette, 0.7))
        for i in range(20):
            q = palette_pts(rng, 2 + i % 5, palette, 0.9)
            mult = [rng.randint(1, 4 + i % 7) for _ in range(q.n)]
            systems.append(palette_lift(rng, q, mult, palette))
    return systems


def test_dyadic_corpus_matches_naive_refinement():
    for pts in dyadic_corpus():
        assert coarsest_bisimulation(pts) == naive_coarsest(pts)


def test_fraction_corpus_is_lumpable_and_no_finer_than_naive():
    rng = random.Random(5)
    for pts in fraction_corpus():
        part = coarsest_bisimulation(pts)
        assert is_lumpable(pts, part)[0]
        naive = naive_coarsest(pts)
        # each of the oracle's classes lies within one class of the result
        assert len(set(zip(naive.assign, part.assign))) == naive.m
        if pts.n <= 6:
            assert part == brute_coarsest(pts)
        other, perm = permuted(pts, rng)
        assert coarsest_bisimulation(other) == renamed(part, perm)


def test_tolerance_groups_are_led_by_their_smallest_mass():
    # masses 0.6 tol apart: a group holds those at most tol above its
    # leader, where linking each mass to its neighbour would chain them all
    t = DEFAULT_TOL
    run = [0.5, 0.5 + 0.6 * t, 0.5 + 1.2 * t, 0.5 + 1.8 * t]
    assert coarsest_bisimulation(tolerance_chain(run)).assign == (0, 0, 1, 1, 2, 3)
    # a gap wider than tol starts a group of its own
    run += [0.5 + 4 * t, 0.5 + 4.5 * t]
    assert coarsest_bisimulation(tolerance_chain(run)).assign == (0, 0, 1, 1, 2, 2, 3, 4)


def split_masses() -> LabelledPTS:
    """s0 and s1 spread their mass over the eight T states, which loop on b;
    added one edge at a time, in ascending target order as is_lumpable adds
    them, their totals differ by just over tol, and by just under it in
    np.add.reduce's order (the first value plus the pairwise sum of the
    rest)."""
    head = [0.08408882463731857, 0.10198001464157114, 0.11476524503003381,
            0.07369840609231615, 0.09786219745700336, 0.013989619684122444,
            0.09441603915393432]
    a, b, c = np.zeros((3, 11, 11))
    a[0, 2:10] = head + [0.06624583175920512]
    a[1, 2:10] = head + [0.0662458327592051]
    a[0, 10] = 1.0 - a[0].sum()
    a[1, 10] = a[0, 10] - 5e-10  # so that both rows sum to 1 within tol
    b[range(2, 10), range(2, 10)] = c[10, 10] = 1.0
    return LabelledPTS(11, ("a", "b", "c"), {"a": a, "b": b, "c": c})


def placed(pts: LabelledPTS, ids: list[int], n: int) -> LabelledPTS:
    """``pts`` with state ``s`` renamed ``ids[s]`` among ``n`` states; the
    others loop on a fourth action."""
    ids = np.asarray(ids)
    action, src = np.divmod(pts.row, pts.n)
    rest = np.setdiff1d(np.arange(n), ids)
    row = np.concatenate((action * n + ids[src], len(pts.actions) * n + rest))
    dst = np.concatenate((ids[pts.dst], rest))
    prob = np.concatenate((pts.prob, np.ones(rest.size)))
    order = np.lexsort((dst, row))
    return LabelledPTS.from_edges(n, pts.actions + ("d",), row[order], dst[order], prob[order])


def test_masses_into_a_block_add_up_as_the_lumpability_check_adds_them():
    pts = split_masses()
    part = coarsest_bisimulation(pts)
    assert part.assign == (0, 1) + (2,) * 8 + (3,)
    assert is_lumpable(pts, part)[0]


def test_masses_add_up_in_target_order_wherever_the_states_are_placed(tmp_path):
    # refinement gathers a splitter's states in ascending order, so the
    # masses into it add up as is_lumpable adds them for any state ids
    pts = placed(split_masses(), [8, 16, 7, 31, 48, 28, 30, 41, 24, 50, 13], 64)
    assert is_lumpable(pts, coarsest_bisimulation(pts))[0]
    path = tmp_path / "f.pts"
    path.write_text(print_pts(pts))
    assert cli.main(["quotient", str(path), "--coarsest"]) == 0
    # whether s0 and s1 share a class depends on the order of their targets
    rng = random.Random(14)
    for n in (64, 200, 1000):
        for _ in range(100):
            pts = placed(split_masses(), rng.sample(range(n), 11), n)
            part = coarsest_bisimulation(pts)
            assert part.m in (4, 5) and is_lumpable(pts, part)[0]


def test_coarsest_classification_is_a_restricted_growth_string():
    for pts in dyadic_corpus() + fraction_corpus():
        assign = coarsest_bisimulation(pts).assign
        seen = 0
        for v in assign:
            assert v <= seen
            seen = max(seen, v + 1)


def test_chain_refinement_outpaces_naive_refinement():
    pts = chain(400)
    t0 = time.perf_counter()
    slow = naive_coarsest(pts)
    naive_s = time.perf_counter() - t0
    fast_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        part = coarsest_bisimulation(pts)
        fast_s = min(fast_s, time.perf_counter() - t0)
    assert part == slow and part.m == 400
    assert naive_s >= 30 * fast_s, (naive_s, fast_s)


def test_negative_entries_keep_the_result_lumpable():
    # x and y reach t only by opposite residues 1.2 * tol apart, each
    # within tol of absent; t and u differ by enabledness.
    a = np.zeros((4, 4))
    a[0, 2], a[0, 3] = -6e-10, 1.0
    a[1, 2], a[1, 3] = 6e-10, 1.0
    b = np.zeros((4, 4))
    b[2, 2] = 1.0
    pts = LabelledPTS(4, ("a", "b"), {"a": a, "b": b})
    part = coarsest_bisimulation(pts)
    assert is_lumpable(pts, part)[0]
    assert part == naive_coarsest(pts)


def test_dense_refinement_stays_within_a_small_factor_of_naive_refinement():
    pts = gen_planted(gen_random_pts(50, ["a", "b"], 0.9, 1), [20] * 50, 2)[0]
    naive_s = fast_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        slow = naive_coarsest(pts)
        naive_s = min(naive_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        part = coarsest_bisimulation(pts)
        fast_s = min(fast_s, time.perf_counter() - t0)
    assert part == slow
    assert fast_s <= 4.5 * naive_s, (naive_s, fast_s)


def noisy(pts: LabelledPTS, tol: float, rng: random.Random) -> LabelledPTS:
    """``pts`` with every probability moved by 0.3 to 3 tol either way and
    then taken in absolute value."""
    gen = np.random.default_rng(rng.randrange(2**32))
    shift = gen.uniform(0.3, 3.0, pts.prob.size) * gen.choice((-tol, tol), pts.prob.size)
    return LabelledPTS.from_edges(pts.n, pts.actions, pts.row, pts.dst, np.abs(pts.prob + shift))


def parity_corpus(tol: float) -> list[LabelledPTS]:
    """Planted, perturbed and noisy lifts, random systems and tolerance
    chains and spreads, each with its states shuffled."""
    rng = random.Random(31)
    systems = []
    for i in range(8):
        # Where every state enables every action, refinement starts from
        # one block, which only a noisy copy's closing probe splits.
        density = 1.0 if i % 2 else 0.3
        q = gen_random_pts(3 + 2 * i, ACTIONS, density, 9300 + i)
        lift = gen_planted(q, [rng.randint(2, 6 + 4 * i) for _ in range(q.n)], 9400 + i)[0]
        delta = (2**-20, 1e-3, 0.01)[i % 3]
        pts = gen_random_pts(5 + 30 * i, ACTIONS, density, 9600 + i)
        systems += [lift, perturb(lift, delta, 9500 + i), noisy(lift, tol, rng), pts, noisy(pts, tol, rng)]
    for i in range(2):
        # sparse lifts, whose batches reach thousands of pairs
        pts = parse_pts(planted_text(10 + 10 * i, 40, 9800 + i))[0]
        systems += [pts, noisy(pts, tol, rng)]
    for i in range(6):
        systems.append(tolerance_chain([0.5 + tol * rng.uniform(0, 4) for _ in range(6 + 6 * i)]))
        systems.append(tolerance_spread([tol * rng.uniform(-0.9, 0.9) for _ in range(6 + 6 * i)]))
    return [permuted(pts, rng)[0] for pts in systems]


def test_refinement_matches_its_loop_form_bit_for_bit(monkeypatch):
    probes = []
    split_by = bisim._Refinement.split_by

    def probed(self, batch, probe=False):
        out = split_by(self, batch, probe)
        if probe:
            probes.append(out)
        return out

    monkeypatch.setattr(bisim._Refinement, "split_by", probed)
    falls_back = 0
    for tol in (1e-9, 1e-3, 0.05):
        for pts in parity_corpus(tol):
            probes.clear()
            assert coarsest_bisimulation(pts, tol) == loop_coarsest(pts, tol)
            falls_back += any(probes)
    # inputs whose closing probe finds a split and runs the full pass
    assert falls_back >= 20


def test_closing_pass_visits_only_unchecked_blocks(monkeypatch):
    q = gen_random_pts(30, ACTIONS, 0.2, 9700)
    lift = permuted(gen_planted(q, [8] * 30, 9701)[0], random.Random(3))[0]
    passes = []
    split_by = bisim._Refinement.split_by

    def counted(self, batch, **kwargs):
        out = split_by(self, batch, **kwargs)
        passes.append((len(batch), out))
        return out

    monkeypatch.setattr(bisim._Refinement, "split_by", counted)
    part = coarsest_bisimulation(lift)
    assert part == loop_coarsest(lift)
    visited, split = passes[-1]
    assert not split and visited < part.m, (visited, part.m)


# --- early exit of are_bisimilar ----------------------------------------------


def one_sided(block_of, off: int) -> bool:
    """Whether some block holds states of one side of the union only."""
    left = np.bincount(block_of[:off], minlength=block_of.max() + 1)
    right = np.bincount(block_of[off:], minlength=block_of.max() + 1)
    return bool(((left > 0) != (right > 0)).any())


def verdict_pairs():
    """The pairs of the acceptance corpus, the renaming tests' pairs, and
    neighbouring systems of the tolerance parity corpus, each also against
    a permuted copy of itself."""
    pairs = [(p1, p2) for _, p1, p2, _, _ in acceptance_corpus()]
    pairs += [planted_pair(i)[:2] if i % 2 == 0 else random_pair(i) for i in range(12)]
    systems = parity_corpus(DEFAULT_TOL)
    pairs += list(zip(systems[::2], systems[1::2]))
    rng = random.Random(5)
    pairs += [(pts, permuted(pts, rng)[0]) for pts in systems[::4]]
    return pairs


def test_early_exit_verdicts_match_the_oracles_and_full_refinement():
    exit_1 = 0
    for p1, p2 in verdict_pairs():
        ok, witness = bisim.are_bisimilar(p1, p2)
        union, off = disjoint_union(p1, p2)
        oracle = brute_coarsest(union) if union.n <= 8 else naive_coarsest(union)
        assert ok == (not one_sided(np.array(oracle.assign), off))
        full = coarsest_bisimulation(union)
        assert ok == (not one_sided(np.array(full.assign), off))
        if ok:
            # the witness of a run to the end
            assert witness.k1.assign == full.assign[:off] and witness.k2.assign == full.assign[off:]
            assert witness.m == full.m and witness.quotient == quotient(union, full)
        else:
            exit_1 += 1
            assert witness is None
    assert exit_1 >= 40


def altered_lifts():
    """Planted lifts of a minimal quotient and of a copy of it in which
    state 0 moves 2^-10 of its first row's mass to another target."""
    q = gen_random_pts(12, ACTIONS, 0.8, 9900)
    assert coarsest_bisimulation(q).m == q.n and q.row[0] == q.row[1]
    row, dst, prob = q.row, q.dst, q.prob.copy()
    prob[0], prob[1] = prob[0] - 2**-10, prob[1] + 2**-10
    altered = LabelledPTS.from_edges(q.n, q.actions, row, dst, prob)
    rng = random.Random(9901)
    lift = gen_planted(q, [rng.randint(6, 14) for _ in range(q.n)], 9902)[0]
    return lift, gen_planted(altered, [rng.randint(2, 4) for _ in range(q.n)], 9903)[0]


def recorded_runs(monkeypatch, *runs):
    """Each run's split_by calls: (batch, probe, result, block_of after)."""
    calls = []
    split_by = bisim._Refinement.split_by

    def recorded(self, batch, probe=False):
        out = split_by(self, batch, probe)
        calls[-1].append((list(batch), probe, out, self.block_of.copy()))
        return out

    monkeypatch.setattr(bisim._Refinement, "split_by", recorded)
    results = []
    for run in runs:
        calls.append([])
        results.append(run())
    return results, calls


@pytest.mark.parametrize("pair", ["altered lifts", "chains"])
def test_refinement_stops_at_the_first_one_sided_batch(pair, monkeypatch):
    # the lifts are told apart by the first batch; chains one state apart
    # in length only by the last split, one state per batch
    p1, p2 = altered_lifts() if pair == "altered lifts" else (chain(30), chain(31))
    union, off = disjoint_union(p1, p2)
    (verdict, full), (early, batches) = recorded_runs(
        monkeypatch, lambda: bisim.are_bisimilar(p1, p2), lambda: coarsest_bisimulation(union))
    assert verdict == (False, None) and one_sided(np.array(full.assign), off)
    assert not one_sided(union.enabled_blocks(), off)
    # the batches of a run to the end, up to the first one-sided partition
    assert len(early) < len(batches)
    for (batch, probe, out, block_of), (batch2, probe2, out2, block_of2) in zip(early, batches):
        assert (batch, probe, out) == (batch2, probe2, out2) and np.array_equal(block_of, block_of2)
    sided = [one_sided(block_of, off) for _, _, _, block_of in early]
    assert sided[-1] and not any(sided[:-1])
    assert len(early) == 1 if pair == "altered lifts" else len(early) >= 29


def test_a_pair_one_sided_by_enabledness_runs_no_batch(monkeypatch):
    lift, altered = altered_lifts()
    # a copy of the lift in which one state also enables a fresh action
    n = lift.n
    extra = LabelledPTS.from_edges(n, (*lift.actions, "c"), np.append(lift.row, 2 * n),
                                   np.append(lift.dst, 0), np.append(lift.prob, 1.0))
    union, off = disjoint_union(lift, extra)
    assert one_sided(union.enabled_blocks(), off)
    (verdict, _), (early, full) = recorded_runs(
        monkeypatch, lambda: bisim.are_bisimilar(lift, extra), lambda: coarsest_bisimulation(union))
    assert verdict == (False, None)
    assert early == [] and len(full) > 1
