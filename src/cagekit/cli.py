"""Command-line surface: verification, constructions, generators,
enumeration, and spectrum runs over graph6 files."""
from __future__ import annotations

import argparse
import sys

from . import graph6
from .bounds import moore_bound, parity_admissible, sauer_bound, excluded_by_excess
from .canon import certificate
from .constructions import AMALGAMATE_MODES
from .errors import CagekitError, NotAnEdge, ParameterOutOfRange
from .graph import ACYCLIC, Graph, check_kg
from .limits import DEFAULT_BUDGET, Budget
from .recipes import OPERATIONS, Recipe, apply_operation, construct, write_recipes
from .spectrum import (
    DEFAULT_CONSTRUCTIONS,
    SearchConfig,
    load_seeds,
    parse_citations,
    render_report,
    spectrum_search,
)

CONSTRUCT_NAMES = tuple(name for name, op in OPERATIONS.items() if op.arity >= 1)
# construct's option flags: the grow keywords of the unary operations, then
# amalgamate's apply params; one not given takes the operation's own default
_GROW_OPTIONS = tuple(dict.fromkeys(
    key for op in OPERATIONS.values() if op.arity == 1 for key in op.options
))
_AMALGAM_PARAMS = ("e1", "e2", "mode")


def _emit(graphs, path):
    if path is None:
        for g in graphs:
            print(graph6.encode(g))
    else:
        graph6.write_file(path, graphs)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"want comma-separated integers, got {text!r}") from None


def _parse_edge(text: str) -> tuple[int, int]:
    try:
        u, v = _int_list(text)
    except (argparse.ArgumentTypeError, ValueError):
        raise argparse.ArgumentTypeError(f"edge must be u,v, got {text!r}") from None
    return u, v


def cmd_verify(args) -> int:
    failures = 0
    for i, g in graph6.iter_lines(args.file):
        reason = check_kg(g, args.k, args.g)
        if reason is None:
            print(f"line {i}: PASS")
        else:
            print(f"line {i}: FAIL {reason}")
            failures += 1
    return 1 if failures else 0


def cmd_girth(args) -> int:
    for _, g in graph6.iter_lines(args.file):
        degrees = g.degree_sequence()
        profile = (
            "none" if not degrees
            else str(degrees[0]) if degrees[0] == degrees[-1]
            else f"{degrees[0]}..{degrees[-1]}"
        )
        gg = g.girth()
        shown = "acyclic" if gg is ACYCLIC else gg
        print(f"order={g.order} degrees={profile} girth={shown}")
    return 0


def _construct_one(args, graphs, budget) -> list[tuple[Recipe, Graph]]:
    op = OPERATIONS[args.name]
    flags = _GROW_OPTIONS + _AMALGAM_PARAMS
    given = {key: getattr(args, key) for key in flags if getattr(args, key) is not None}
    if op.arity == 2:
        unread = sorted(set(given) - set(_AMALGAM_PARAMS))
        if unread:
            raise ParameterOutOfRange(f"{op.name} takes no option {', '.join(unread)}")
        if len(graphs) < 2:
            raise CagekitError("amalgamation needs two input graphs")
        g1, g2 = graphs[0], graphs[1]
        if not (g1.size and g2.size):
            raise NotAnEdge("amalgamation needs an edge in each input graph")
        e1, e2 = args.e1 or g1.edges()[0], args.e2 or g2.edges()[0]
        params = {"e1": list(e1), "e2": list(e2), "mode": args.mode or "cross"}
        h = apply_operation(op.name, (g1, g2), params)
        return [(Recipe(op.name, (certificate(g1), certificate(g2)), params, certificate(h)), h)]
    out: list[tuple[Recipe, Graph]] = []
    for parent in graphs:
        cert = certificate(parent)
        for params, h in construct(op.name, parent, budget=budget, **given):
            out.append((Recipe(op.name, (cert,), params, certificate(h)), h))
    return out


def cmd_construct(args) -> int:
    graphs = graph6.read_file(args.infile)
    budget = Budget(args.budget)
    produced = _construct_one(args, graphs, budget)
    _emit([h for _, h in produced], args.out)
    write_recipes(args.out + ".recipes", [r for r, _ in produced])
    print(f"{len(produced)} graphs -> {args.out}", file=sys.stderr)
    return 0


def _generate(args) -> int:
    """Build parentless table entry `args.operation` from its param flags."""
    params = {key: getattr(args, key) for key in args.params}
    _emit([apply_operation(args.operation, (), params)], args.out)
    return 0


def cmd_enumerate(args) -> int:
    from .enumeration import enumerate_regular  # only this command loads the oracle

    found = enumerate_regular(args.k, args.n, args.min_girth, args.cap)
    for g in found:
        print(graph6.encode(g))
    print(f"{len(found)} graphs")
    return 0


def cmd_spectrum(args) -> int:
    seeds = load_seeds(args.seeds, args.k, args.g)
    citations = parse_citations(args.citations) if args.citations else {}
    names = (
        tuple(args.constructions.split(","))
        if args.constructions is not None
        else DEFAULT_CONSTRUCTIONS
    )
    config = SearchConfig(
        constructions=names, budget=args.budget, rng_seed=args.rng_seed
    )
    report = spectrum_search(args.k, args.g, seeds, args.horizon, config, citations)
    text = render_report(report)
    if args.out is None:
        print(text, end="")
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_bounds(args) -> int:
    moore, sauer = moore_bound(args.k, args.g), sauer_bound(args.k, args.g)
    print(f"Moore={moore}")
    print(f"Sauer={sauer}")
    parity = "even orders only" if args.k % 2 else "all integer orders"
    print(f"parity={parity}")
    horizon = args.horizon if args.horizon is not None else moore + 30
    excluded = [
        str(n)
        for n in range(moore, horizon + 1)
        if parity_admissible(args.k, n) and excluded_by_excess(args.k, args.g, n)
    ]
    print(f"excess-excluded<={horizon}: {','.join(excluded) if excluded else 'none'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cagekit",
        description="Construct, verify, and search regular graphs of given girth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check graph6 lines against (k,g)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("girth", help="order, degree profile, girth per line")
    p.add_argument("file")
    p.set_defaults(func=cmd_girth)

    p = sub.add_parser("construct", help="run one construction over a file")
    p.add_argument("name", choices=CONSTRUCT_NAMES)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    for key in _GROW_OPTIONS:
        p.add_argument("--" + key.replace("_", "-"), type=int, default=None)
    p.add_argument("--e1", type=_parse_edge, default=None, help="edge as u,v (amalgamate)")
    p.add_argument("--e2", type=_parse_edge, default=None, help="edge as u,v (amalgamate)")
    p.add_argument("--mode", choices=AMALGAMATE_MODES, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("circulant", help="circulant graph from a connecting set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", dest="S", metavar="SET", type=_int_list, required=True,
                   help="comma-separated jumps")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_generate, operation="circulant", params=("n", "S"))

    p = sub.add_parser("gdgp", help="group divisible generalized Petersen graph")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=_int_list, required=True, help="comma-separated chord offsets")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_generate, operation="gdgp", params=("m", "n", "K"))

    p = sub.add_parser("parity46", help="4-regular girth-6 parity-rule graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_generate, operation="quartic_parity_graph", params=("n",))

    p = sub.add_parser("enumerate", help="all small (k,>=g)-graphs of one order")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-girth", type=int, default=3)
    p.add_argument("--cap", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("spectrum", help="classify orders for (k,g) up to a horizon")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seeds", required=True, help="directory of k{K}g{G}/*.g6")
    p.add_argument("--citations", default=None)
    p.add_argument("--constructions", default=None, help="comma-separated names")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--rng-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bounds", help="Moore and Sauer bounds plus exclusions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CagekitError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
