"""Command-line surface.

Subcommands: gen, solve, cost, bound, verify, proptest, export-dot.

Exit codes: 0 success; 1 usage or inapplicable-method errors (bad
parameters, non-balanced tree passed to a balanced-only solver, oracle size
limit); 2 I/O, parse, schema, or substrate errors; 3 verification failure
(``verify --oracle`` on a non-optimal layout).  With ``--json``, errors are
also emitted as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from .errors import (
    BadParam,
    HalinOlaError,
    InvalidSubstrate,
    NotRecursivelyBalanced,
    NotTreeOptimalInput,
    ParseError,
    SchemaVersionUnsupported,
    TooLarge,
)
from .generators import (
    GenSpec,
    caterpillar_spec,
    gen_caterpillar_halin,
    gen_kary_rbt_halin,
    gen_random_halin,
    gen_wheel,
    standard_corpus,
)
from .graph_core import HalinGraph
from .halin_arrange import certify, direct_rbt_halin_ola, rearrange_to_halin_ola
from .io_formats import (
    export_dot,
    parse_instance,
    parse_layout,
    serialize_instance,
    serialize_layout,
)
from .layout_ops import Layout, la_cost, la_total
from .property_suite import run_suite
from .tree_ola import brute_force_ola, rbt_ola


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _Usage(message)


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _write(path: str, data: bytes):
    with open(path, "wb") as f:
        f.write(data)


def _load_instance(path: str, strict: bool = True) -> HalinGraph:
    return parse_instance(_read(path), strict=strict)


def _load_layout(path: str, h: HalinGraph) -> Layout:
    layout = parse_layout(_read(path))
    if layout.n != h.n:
        raise ParseError(f"layout has {layout.n} vertices, instance has {h.n}")
    return layout


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.family == "wheel":
        if args.spokes is None:
            raise _Usage("gen --family wheel requires --spokes")
        h = gen_wheel(args.spokes)
        spec = GenSpec("wheel", (("spokes", args.spokes),))
    elif args.family == "kary":
        if None in (args.k, args.c, args.h):
            raise _Usage("gen --family kary requires --k, --c and --h")
        h = gen_kary_rbt_halin(args.k, args.c, args.h)
        spec = GenSpec("kary", (("k", args.k), ("c", args.c), ("h", args.h)))
    elif args.family == "caterpillar":
        if args.spine is None or args.leaves is None:
            raise _Usage("gen --family caterpillar requires --spine and --leaves")
        counts = _int_list(args.leaves)
        h = gen_caterpillar_halin(args.spine, counts)
        spec = caterpillar_spec(args.spine, counts)
    elif args.family == "random":
        if args.n is None:
            raise _Usage("gen --family random requires --n")
        h = gen_random_halin(args.n, args.seed)
        spec = GenSpec("random", (("n", args.n),), seed=args.seed)
    else:  # pragma: no cover - argparse choices guard this
        raise _Usage(f"unknown family {args.family!r}")
    metadata = {"genSpec": spec.to_jsonable()}
    _write(args.output, serialize_instance(h, metadata=metadata))
    print(f"wrote {args.output}: n={h.n}, m={h.m}")
    return 0


def _int_list(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise _Usage(f"expected comma-separated integers, got {text!r}") from exc


def _print_cost(h: HalinGraph, layout) -> None:
    report = la_cost(h, layout)
    print(
        f"total={report.total_cost} tree={report.tree_cost} "
        f"cycle={report.cycle_cost}"
    )


def _cmd_solve(args) -> int:
    h = _load_instance(args.input)
    if args.method == "oracle":
        layout = brute_force_ola(h, limit=args.limit).optimal_layouts[0]
    elif args.method == "rbt":
        layout = rbt_ola(h.tree)
    elif args.method == "direct":
        layout = direct_rbt_halin_ola(h)
    else:  # rearrange
        if args.tree_layout is not None:
            tree_layout = _load_layout(args.tree_layout, h)
        else:
            tree_layout = rbt_ola(h.tree)
        layout, trace = rearrange_to_halin_ola(h, tree_layout)
        print(
            f"rearranged in {trace.total_swaps} swaps "
            f"({trace.total_moved_vertices} vertex moves)"
        )
    _write(args.output, serialize_layout(layout))
    _print_cost(h, layout)
    return 0


def _cmd_cost(args) -> int:
    h = _load_instance(args.input)
    _print_cost(h, _load_layout(args.layout, h))
    return 0


def _tree_optimum(h: HalinGraph, use_oracle: bool, limit: int = 10) -> int:
    if not use_oracle:
        try:
            return la_total(h.tree, rbt_ola(h.tree))
        except NotRecursivelyBalanced:
            if h.n > limit:
                raise _Usage(
                    "tree is not recursively balanced and too large for the oracle; "
                    "pass --tree-opt or --oracle"
                ) from None
    return brute_force_ola(h.tree, limit=limit).optimal_cost


def _cmd_bound(args) -> int:
    h = _load_instance(args.input)
    if args.tree_opt is not None:
        tree_opt = args.tree_opt
    else:
        tree_opt = _tree_optimum(h, args.oracle)
    print(2 * (h.n - 1) + tree_opt)
    return 0


def _cmd_verify(args) -> int:
    h = _load_instance(args.input)
    layout = _load_layout(args.layout, h)
    tree_opt = _tree_optimum(h, args.oracle)
    cert = certify(h, layout, tree_opt)
    payload = {
        "layoutCost": cert.layout_cost,
        "lowerBound": cert.lower_bound,
        "cycleCost": cert.cycle_cost,
        "optimal": cert.optimal,
        "reason": cert.reason,
    }
    if args.oracle:
        true_opt = brute_force_ola(h, limit=args.limit).optimal_cost
        payload["oracleOptimum"] = true_opt
        if cert.layout_cost > true_opt:
            payload["verdict"] = "not optimal"
            print(json.dumps(payload, indent=2))
            return 3
        payload["verdict"] = "optimal"
    print(json.dumps(payload, indent=2))
    return 0


def _parse_corpus(spec_text: str) -> List[Tuple[GenSpec, HalinGraph]]:
    if spec_text == "standard":
        return standard_corpus()
    corpus: List[Tuple[GenSpec, HalinGraph]] = []
    for chunk in spec_text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise _Usage(f"bad corpus entry {chunk!r} (expected family=args)")
        family, argtext = chunk.split("=", 1)
        if family == "wheel":
            if ".." in argtext:
                lo, hi = (int(x) for x in argtext.split(".."))
                spokes_range = range(lo, hi + 1)
            else:
                spokes_range = [int(argtext)]
            for s in spokes_range:
                corpus.append((GenSpec("wheel", (("spokes", s),)), gen_wheel(s)))
        elif family == "kary":
            k, c, hh = _int_list(argtext)
            spec = GenSpec("kary", (("k", k), ("c", c), ("h", hh)))
            corpus.append((spec, gen_kary_rbt_halin(k, c, hh)))
        elif family == "caterpillar":
            spine_text, leaves_text = argtext.split(":", 1)
            spine = int(spine_text)
            counts = _int_list(leaves_text)
            corpus.append(
                (caterpillar_spec(spine, counts), gen_caterpillar_halin(spine, counts))
            )
        elif family == "random":
            vals = _int_list(argtext)
            n, count, seed0 = (vals + [1, 0])[:3]
            for i in range(count):
                spec = GenSpec("random", (("n", n),), seed=seed0 + i)
                corpus.append((spec, gen_random_halin(n, seed0 + i)))
        else:
            raise _Usage(f"unknown corpus family {family!r}")
    if not corpus:
        raise _Usage("empty corpus")
    return corpus


def _cmd_proptest(args) -> int:
    corpus = _parse_corpus(args.corpus)
    report = run_suite(corpus, oracle_limit=args.oracle_limit)
    if args.json:
        print(json.dumps(report.to_jsonable(), indent=2))
    else:
        print(report.table())
    return 0 if report.all_passed else 3


def _cmd_export_dot(args) -> int:
    h = _load_instance(args.input)
    layout = _load_layout(args.layout, h) if args.layout else None
    _write(args.output, export_dot(h, layout).encode("utf-8"))
    print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="halin-ola", description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", required=True,
                   choices=["wheel", "kary", "caterpillar", "random"])
    p.add_argument("--spokes", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--spine", type=int)
    p.add_argument("--leaves", help="comma-separated leaf counts per spine vertex")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="compute a layout")
    p.add_argument("--method", required=True,
                   choices=["oracle", "rbt", "rearrange", "direct"])
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-t", "--tree-layout",
                   help="optimal tree layout file (rearrange only)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--limit", type=int, default=10, help="oracle size limit")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("cost", help="cost breakdown of a layout")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-l", "--layout", required=True)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("bound", help="print the Halin lower bound")
    p.add_argument("-i", "--input", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tree-opt", type=int, help="known optimal tree cost")
    group.add_argument("--oracle", action="store_true",
                       help="compute the tree optimum with the exact oracle")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="certify a layout against the bound")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-l", "--layout", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also compare against the exact oracle optimum")
    p.add_argument("--limit", type=int, default=10, help="oracle size limit")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("proptest", help="run the structural property suite")
    p.add_argument("--corpus", default="standard",
                   help='"standard" or entries like '
                        '"wheel=3..8;caterpillar=2:2,2;random=7,5,100"')
    p.add_argument("--oracle-limit", type=int, default=10)
    p.set_defaults(func=_cmd_proptest)

    p = sub.add_parser("export-dot", help="write a DOT rendering")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-l", "--layout")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def _emit_error(exc: Exception, as_json: bool, code: int) -> None:
    message = str(exc) or exc.__class__.__name__
    print(f"error: {message}", file=sys.stderr)
    if as_json:
        print(
            json.dumps(
                {"error": exc.__class__.__name__, "message": message, "exitCode": code}
            ),
            file=sys.stderr,
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    as_json = bool(argv and "--json" in argv) or "--json" in sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        as_json = args.json
        return args.func(args)
    except _Usage as exc:
        _emit_error(exc, as_json, 1)
        return 1
    except (BadParam, NotRecursivelyBalanced, NotTreeOptimalInput, TooLarge) as exc:
        _emit_error(exc, as_json, 1)
        return 1
    except (ParseError, SchemaVersionUnsupported, InvalidSubstrate, OSError) as exc:
        _emit_error(exc, as_json, 2)
        return 2
    except HalinOlaError as exc:
        _emit_error(exc, as_json, 2)
        return 2


def console_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
