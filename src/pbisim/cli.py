"""Command-line interface.

Exit codes: 0 the computation succeeded and the checked property holds
(for quantity-producing commands: the quantity met its threshold, e.g.
epsilon at most --tol); 1 the computation succeeded but the property does
not hold; 2 malformed or invalid input, including input that is not UTF-8
text and out-of-range flags (--tol must be finite and >= 0; --budget
and --pair-cap must be >= 1); 3 enumeration budget exceeded; 4
internal error (any other exception, such as running out of memory),
reported with its traceback on standard error.

Every command prints a human summary by default and a canonical JSON
report with --json; reports are byte-identical across runs for fixed
seeds and inputs except for the wall-time field.  One file argument may
be '-' for standard input.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

# before numpy loads: no command's products need a second, spinning BLAS thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .errors import DEFAULT_PAIR_BUDGET, DEFAULT_TOL, NORM_KINDS
from .errors import BudgetExceededError, ParseError, PbisimError
from .formats import (
    parse_classification,
    parse_galois,
    parse_kripke,
    parse_pts,
    parse_relation,
    print_classification,
    print_pts,
)
from .report import input_entry, make_report, report_json


def __getattr__(name: str):
    # the handlers import these when called; perfbench's tracer reads them here
    if name in ("are_bisimilar", "coarsest_bisimulation", "quotient"):
        from . import bisim

        return getattr(bisim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _decode(data: bytes) -> str:
    """UTF-8 text of an input file; a bad byte is a ParseError on its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # line numbers follow str.splitlines, as the parsers count them
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line) from None


def _load(path: str, parse, *args):
    """Read, decode and parse one input file ('-' is standard input): the
    parsed value and its report entry."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path!r}: {exc.strerror}") from None
    return parse(_decode(data), *args), input_entry(path, data)


def _load_systems(args):
    """The two systems of ``bisim`` or ``epsilon``, each with its report
    entry; a file named twice is read and parsed once, and the read-only
    system serves both sides."""
    first = _load(args.system1, parse_pts, args.tol)
    if args.system2 == args.system1 != "-":
        return first, first
    return first, _load(args.system2, parse_pts, args.tol)


def _assign_by_name(names, classification):
    return {names[s]: classification.assign[s] for s in range(len(names))}


def _cmd_bisim(args):
    from .bisim import are_bisimilar

    ((p1, names1), in1), ((p2, names2), in2) = _load_systems(args)
    ok, witness = are_bisimilar(p1, p2, args.tol)
    params = {"tol": args.tol}
    if ok:
        qnames = tuple(f"c{j}" for j in range(witness.m))
        result = {
            "bisimilar": True,
            "classes": witness.m,
            "k1": _assign_by_name(names1, witness.k1),
            "k2": _assign_by_name(names2, witness.k2),
            "quotient_pts": print_pts(witness.quotient, qnames),
        }
        human = [
            "bisimilar: yes",
            f"classes: {witness.m}",
            "left classification: "
            + " ".join(f"{names1[s]}->{witness.k1.assign[s]}" for s in range(p1.n)),
            "right classification: "
            + " ".join(f"{names2[s]}->{witness.k2.assign[s]}" for s in range(p2.n)),
        ]
        code = 0
    else:
        result = {"bisimilar": False, "classes": None, "k1": None, "k2": None,
                  "quotient_pts": None}
        human = ["bisimilar: no"]
        code = 1
    return code, [in1, in2], params, result, "\n".join(human) + "\n"


def _cmd_quotient(args):
    from .bisim import coarsest_bisimulation, quotient

    (pts, names), entry = _load(args.system, parse_pts, args.tol)
    inputs = [entry]
    if args.coarsest:
        cls = coarsest_bisimulation(pts, args.tol)
        cls_source = "coarsest"
    else:
        cls, cls_entry = _load(args.partition, parse_classification, names)
        cls_source = "file"
        inputs.append(cls_entry)
    q = quotient(pts, cls, args.tol)
    qnames = tuple(f"c{j}" for j in range(q.n))
    text = print_pts(q, qnames)
    params = {"tol": args.tol, "partition": cls_source}
    result = {
        "classes": q.n,
        "classification": _assign_by_name(names, cls),
        "quotient_pts": text,
    }
    return 0, inputs, params, result, text


def _cmd_epsilon(args):
    from .epsilon import epsilon_bisim_exact, epsilon_bisim_search, pair_space

    ((p1, _), in1), ((p2, _), in2) = _load_systems(args)
    if args.budget is not None:
        res = epsilon_bisim_search(
            p1, p2, norm_kind=args.norm, budget=args.budget, seed=args.seed, tol=args.tol
        )
        params = {
            "mode": "search",
            "norm": args.norm,
            "budget": args.budget,
            "seed": args.seed,
            "tol": args.tol,
        }
    else:
        res = epsilon_bisim_exact(p1, p2, norm_kind=args.norm, tol=args.tol, budget=args.pair_cap)
        params = {
            "mode": "exact",
            "norm": args.norm,
            "pair_cap": args.pair_cap,
            "tol": args.tol,
        }
    finite = res.epsilon != float("inf")
    result = {
        "epsilon": res.epsilon if finite else None,
        "admissible_pair_found": finite,
        "classes": res.m,
        "k1": list(res.k1.assign) if res.k1 else None,
        "k2": list(res.k2.assign) if res.k2 else None,
        "method": res.method,
        "optimal": res.optimal,
        "pair_space": pair_space(p1.n, p2.n),
    }
    human = [
        f"epsilon: {res.epsilon!r}" if finite else "epsilon: unbounded (no admissible pair)",
        f"method: {res.method} (optimal: {'yes' if res.optimal else 'no'})",
    ]
    if finite:
        human.append(f"classes: {res.m}")
        human.append(f"k1: {' '.join(map(str, res.k1.assign))}")
        human.append(f"k2: {' '.join(map(str, res.k2.assign))}")
    code = 0 if finite and res.epsilon <= args.tol else 1
    return code, [in1, in2], params, result, "\n".join(human) + "\n"


def _cmd_sim_check(args):
    from .galois import is_simulation, largest_simulation

    (c, cnames), c_entry = _load(args.concrete, parse_kripke)
    (a, anames), a_entry = _load(args.abstract, parse_kripke)
    inputs = [c_entry, a_entry]
    if args.largest:
        rel = largest_simulation(c, a)
        ok, cex = is_simulation(c, a, rel)
        pairs = rel.pairs.tolist()
        params = {"relation": "largest"}
        result = {
            "simulation": ok,
            "relation": [[cnames[i], anames[j]] for i, j in pairs],
            "counterexample": None,
        }
        human = ["largest simulation:"] + [f"  {cnames[i]} {anames[j]}" for i, j in pairs]
        code = 0
    else:
        rel, r_entry = _load(args.relation, parse_relation, cnames, anames)
        inputs.append(r_entry)
        ok, cex = is_simulation(c, a, rel)
        params = {"relation": "file"}
        result = {
            "simulation": ok,
            "relation": None,
            "counterexample": [cnames[cex[0]], anames[cex[1]], cnames[cex[2]]] if cex else None,
        }
        if ok:
            human = ["simulation: yes"]
            code = 0
        else:
            human = [
                "simulation: no",
                f"counterexample: {cnames[cex[0]]} related to {anames[cex[1]]} "
                f"steps to {cnames[cex[2]]} with no matching abstract step",
            ]
            code = 1
    return code, inputs, params, result, "\n".join(human) + "\n"


def _mask_names(mask: int, names) -> list[str]:
    return [names[i] for i in range(len(names)) if mask & (1 << i)]


def _cmd_galois_check(args):
    from .galois import check_abstraction_basis

    (g, cnames, anames), g_entry = _load(args.spec, parse_galois)
    inputs = [g_entry]
    params = {"against": bool(args.against)}
    # a spec gives alpha on singletons, whose join extension is a Galois
    # connection by construction (galois.check_galois)
    result = {"galois": True, "violation": None, "basis": None, "basis_counterexample": None}
    human = ["galois connection: yes"]
    code = 0
    if args.against:
        (c, knames), c_entry = _load(args.against[0], parse_kripke)
        (a, asnames), a_entry = _load(args.against[1], parse_kripke)
        inputs += [c_entry, a_entry]
        if sorted(knames) != sorted(cnames):
            raise ParseError(
                "concrete structure states do not match the alpha: lines of the spec"
            )
        # reorder alpha to the Kripke structure's state order
        by_name = {cnames[i]: g.alpha_singleton[i] for i in range(g.concrete_n)}
        alpha = tuple(by_name[s] for s in knames)
        g2 = type(g)(g.concrete_n, g.lattice, alpha)
        state_index = {name: i for i, name in enumerate(asnames)}
        missing = [name for name in anames if name not in state_index]
        if missing:
            raise ParseError(
                f"abstract structure lacks a state named {missing[0]!r}"
            )
        state_of_element = [state_index[name] for name in anames]
        basis_ok, cex = check_abstraction_basis(c, a, g2, state_of_element)
        result["basis"] = basis_ok
        if cex:
            result["basis_counterexample"] = [
                _mask_names(cex[0], knames), anames[cex[1]],
            ]
            human.append(
                "abstraction basis: no "
                f"(subset {{{', '.join(_mask_names(cex[0], knames))}}} "
                f"below {anames[cex[1]]} has no matched step)"
            )
            code = 1
        else:
            human.append("abstraction basis: yes")
    return code, inputs, params, result, "\n".join(human) + "\n"


def _parse_actions(spec: str) -> list[str]:
    labels = [s for s in spec.split(",") if s]
    if not labels:
        raise ParseError(f"bad action list {spec!r}")
    if len(set(labels)) != len(labels):
        raise ParseError(f"duplicate action label in {spec!r}")
    return labels


def _parse_multiplicities(spec: str) -> list[int]:
    mult = []
    for tok in (t for t in spec.split(",") if t):
        try:
            mult.append(int(tok))
        except ValueError:
            raise ParseError(f"bad multiplicity {tok!r}") from None
    return mult


def _write_or_none(path, text):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path!r}: {exc.strerror}") from None


def _cmd_gen(args):
    from .generators import gen_planted, gen_random_pts, perturb

    params = {"seed": args.seed}
    inputs = []
    sidecar_text = None
    if args.kind == "random":
        pts = gen_random_pts(args.states, _parse_actions(args.actions), args.density, args.seed)
        params.update({"kind": "random", "states": args.states,
                       "actions": args.actions, "density": args.density})
    elif args.kind == "planted":
        if args.quotient:
            (q, _), entry = _load(args.quotient, parse_pts)
            inputs.append(entry)
            params.update({"kind": "planted", "quotient": "file"})
        else:
            if args.quotient_states is None:
                raise ParseError("gen planted needs --quotient or --quotient-states")
            q = gen_random_pts(
                args.quotient_states, _parse_actions(args.actions), args.density,
                args.seed + 1,
            )
            params.update({
                "kind": "planted", "quotient": "generated",
                "quotient_states": args.quotient_states,
                "actions": args.actions, "density": args.density,
            })
        mult = _parse_multiplicities(args.multiplicities)
        if len(mult) != q.n:
            raise ParseError(
                f"{len(mult)} multiplicities for a {q.n}-state quotient"
            )
        params["multiplicities"] = mult
        pts, cls = gen_planted(q, mult, args.seed)
        sidecar_text = print_classification(cls)
    else:
        (base, _), entry = _load(args.input, parse_pts)
        inputs.append(entry)
        pts = perturb(base, args.delta, args.seed)
        params.update({"kind": "perturb", "delta": args.delta})
    text = print_pts(pts)
    result = {"pts": text, "classification": sidecar_text}
    _write_or_none(args.output, text)
    sidecar_path = args.sidecar if args.kind == "planted" else None
    if args.kind == "planted" and args.output and not sidecar_path:
        sidecar_path = args.output + ".cls"
    if sidecar_path and sidecar_text:
        _write_or_none(sidecar_path, sidecar_text)
    human = text if not args.output else f"wrote {args.output}\n"
    return 0, inputs, params, result, human


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _output_file(path: str) -> str:
    if path == "-":
        raise argparse.ArgumentTypeError("expected a file name, got '-'; leave out -o for stdout")
    return path


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pbisim",
        description="Exact and approximate probabilistic bisimulation checks, "
        "Kripke simulations and Galois connection verification.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    sources = []

    def source(path: str) -> str:
        if path == "-" and "-" in sources:
            raise argparse.ArgumentTypeError("standard input can be read only once")
        sources.append(path)
        return path

    def add_common(p):
        p.add_argument("--json", action="store_true", help="print a JSON report")

    p = sub.add_parser("bisim", help="check two systems for bisimilarity")
    p.add_argument("system1", type=source)
    p.add_argument("system2", type=source)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    add_common(p)
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("quotient", help="lump a system through a classification")
    p.add_argument("system", type=source)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--partition", metavar="FILE", type=source, help="classification file")
    grp.add_argument("--coarsest", action="store_true",
                     help="use the coarsest bisimulation")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    add_common(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("epsilon", help="approximate bisimilarity distance")
    p.add_argument("system1", type=source)
    p.add_argument("system2", type=source)
    p.add_argument("--norm", choices=NORM_KINDS, default="op-inf")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--exact", action="store_true",
                     help="exhaustive minimisation (default)")
    grp.add_argument("--budget", type=_at_least_one, default=None,
                     help="hill-climbing search with this many proposals")
    p.add_argument("--seed", type=int, default=0, help="search seed")
    p.add_argument("--pair-cap", type=_at_least_one, default=DEFAULT_PAIR_BUDGET,
                   help="abort exhaustive mode above this many pairs")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    add_common(p)
    p.set_defaults(func=_cmd_epsilon)

    p = sub.add_parser("sim-check", help="check or compute a simulation relation")
    p.add_argument("concrete", type=source)
    p.add_argument("abstract", type=source)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--relation", metavar="FILE", type=source)
    grp.add_argument("--largest", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_sim_check)

    p = sub.add_parser("galois-check", help="verify a Galois connection spec")
    p.add_argument("spec", type=source)
    p.add_argument("--against", nargs=2, metavar=("C.kripke", "A.kripke"), type=source,
                   help="also check the induced simulation basis")
    add_common(p)
    p.set_defaults(func=_cmd_galois_check)

    p = sub.add_parser("gen", help="generate systems for experiments")
    gsub = p.add_subparsers(dest="kind", required=True)

    g = gsub.add_parser("random", help="random reactive system")
    g.add_argument("--states", type=int, required=True)
    g.add_argument("--actions", default="a", help="comma-separated labels")
    g.add_argument("--density", type=float, default=1.0)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", type=_output_file,
                   help="write the system here instead of stdout")
    add_common(g)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("planted", help="lift a quotient to a bisimilar refinement")
    g.add_argument("--quotient", help="quotient system file")
    g.add_argument("--quotient-states", type=int, default=None,
                   help="generate a random quotient of this size")
    g.add_argument("--actions", default="a")
    g.add_argument("--density", type=float, default=1.0)
    g.add_argument("--multiplicities", required=True,
                   help="comma-separated block sizes, one per quotient state")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", type=_output_file)
    g.add_argument("--sidecar", type=_output_file,
                   help="where to write the ground-truth classification")
    add_common(g)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("perturb", help="move a bounded amount of mass per row")
    g.add_argument("input")
    g.add_argument("--delta", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", type=_output_file)
    add_common(g)
    g.set_defaults(func=_cmd_gen)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        code, inputs, params, result, out = args.func(args)
        if args.json:
            wall = time.monotonic() - started
            command = args.command if args.command != "gen" else f"gen-{args.kind}"
            out = report_json(make_report(command, inputs, params, result, wall))
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PbisimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # only this branch prints one

        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
