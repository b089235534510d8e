"""Memory grows with the input's size, not with the state count squared.

A 50,000-state system held as dense matrices needs 20 GB per action.  The
commands below run as child processes whose address space is capped at
1 GiB (importing numpy and pbisim alone maps about 150 MB), so a dense
allocation anywhere on the bisim or quotient path fails with MemoryError.
"""

import json
import resource
import subprocess
import sys

import numpy as np

LIMIT = 1 << 30


def planted_text(quotient: int, mult: int, seed: int) -> str:
    """Sparse lift of a random quotient: 2 actions, out-degree <= 4.

    Quotient state j becomes ``mult`` states.  On each action a quotient
    row sends dyadic mass to two blocks, and every lifted state splits each
    block's mass over two of its members; action b is disabled in every
    third block.  The lift's coarsest bisimulation has at most ``quotient``
    classes.
    """
    rng = np.random.default_rng(seed)
    n = quotient * mult
    block = np.repeat(np.arange(quotient), mult)
    lines = ["states: " + " ".join(f"s{i}" for i in range(n)), "actions: a b"]
    for a in "ab":
        t0 = rng.integers(quotient, size=quotient)
        targets = np.stack([t0, (t0 + rng.integers(1, quotient, size=quotient)) % quotient], axis=1)
        first = rng.integers(1, 1024, size=quotient) / 1024
        src, dst, prob = [], [], []
        for k, mass in ((0, first), (1, 1 - first)):
            m0 = rng.integers(mult, size=n)
            members = targets[block, k][:, None] * mult + np.stack(
                [m0, (m0 + rng.integers(1, mult, size=n)) % mult], axis=1
            )
            share = rng.integers(1, 1024, size=n) / 1024
            for col, w in ((0, share), (1, 1 - share)):
                src.append(np.arange(n))
                dst.append(members[:, col])
                prob.append(mass[block] * w)
        s, t, p = np.concatenate(src), np.concatenate(dst), np.concatenate(prob)
        if a == "b":
            keep = block[s] % 3 != 0
            s, t, p = s[keep], t[keep], p[keep]
        lines += [f"s{x} {a} s{y} {z!r}" for x, y, z in zip(s.tolist(), t.tolist(), p.tolist())]
    return "\n".join(lines) + "\n"


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))


def run_limited(*args):
    return subprocess.run(
        [sys.executable, "-m", "pbisim", *args],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
    )


def test_50k_states_run_in_one_gib(tmp_path):
    path = tmp_path / "wide.pts"
    path.write_text(planted_text(40, 1250, 5))

    res = run_limited("quotient", str(path), "--coarsest", "--json")
    assert res.returncode == 0, res.stderr[-2000:]
    classes = json.loads(res.stdout)["result"]["classes"]
    assert 1 < classes <= 40

    res = run_limited("bisim", str(path), str(path), "--json")
    assert res.returncode == 0, res.stderr[-2000:]
    result = json.loads(res.stdout)["result"]
    assert result["bisimilar"] and result["classes"] == classes
