"""Command-line surface.

Subcommands: gen, solve, cost, bound, verify, proptest, export-dot.

Exit codes: 0 success; 1 usage or inapplicable-method errors (bad
parameters, non-balanced tree passed to a balanced-only solver, oracle size
limit, generator size ceiling); 2 I/O, parse, schema, or substrate errors;
3 verification failure (``verify --oracle`` on a non-optimal layout).  With
``--json``, errors are also emitted as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ._record import jsonable
from .errors import (
    BadParam,
    HalinOlaError,
    NotRecursivelyBalanced,
    NotTreeOptimalInput,
    ParseError,
    TooLarge,
)
from .generators import GenSpec, caterpillar_spec, generate, standard_corpus
from .graph_core import HalinGraph
from .halin_arrange import (
    certify,
    direct_rbt_halin_ola,
    halin_lower_bound,
    rearrange_to_halin_ola,
)
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


class _Help(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise BadParam(message)

    def exit(self, status=0, message=None):  # reached only after -h printed help
        raise _Help()


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _write(path: str, data: bytes):
    with open(path, "wb") as f:
        f.write(data)


def _load_instance(path: str) -> HalinGraph:
    return parse_instance(_read(path))


def _load_layout(path: str, h: HalinGraph) -> Layout:
    layout = parse_layout(_read(path))
    if layout.n != h.n:
        raise ParseError(f"layout has {layout.n} vertices, instance has {h.n}")
    return layout


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

# by family: its gen options, as its usage error lists them, and its --corpus grammar
_FAMILIES = {"wheel": (("spokes",), "wheel=S or wheel=LO..HI"),
             "kary": (("k", "c", "h"), "kary=K,C,H"),
             "caterpillar": (("spine", "leaves"), "caterpillar=SPINE:L0,L1,..."),
             "random": (("n",), "random=N[,COUNT[,SEED0]]")}
# gen's flags in table order, then random's seed; each an int unless set here
_GEN_FLAGS = (*(name for names, _ in _FAMILIES.values() for name in names), "seed")
_GEN_FLAG_ARGS = {"leaves": {"help": "comma-separated leaf counts per spine vertex"},
                  "seed": {"type": int, "help": "random only; defaults to 0"}}


def _listed(names: Sequence[str]) -> str:
    flags = [f"--{name}" for name in names]
    return ", ".join(flags[:-1]) + " and " + flags[-1] if flags[1:] else flags[0]


def _cmd_gen(args) -> int:
    names = _FAMILIES[args.family][0]
    if any(getattr(args, name) is None for name in names):
        raise BadParam(f"gen --family {args.family} requires {_listed(names)}")
    own = (*names, "seed") if args.family == "random" else names
    foreign = [name for name in _GEN_FLAGS if name not in own and getattr(args, name) is not None]
    if foreign:
        raise BadParam(f"gen --family {args.family} does not take {_listed(foreign)}")
    if args.family == "caterpillar":
        spec = caterpillar_spec(args.spine, _int_list(args.leaves))
    else:
        params = tuple((name, getattr(args, name)) for name in names)
        spec = GenSpec(args.family, params, seed=args.seed or 0)
    h = generate(spec)
    metadata = {"genSpec": spec.to_jsonable()}
    _write(args.output, serialize_instance(h, metadata=metadata))
    print(f"wrote {args.output}: n={h.n}, m={h.m}")
    return 0


def _int_list(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",")] if text else []
    except ValueError as exc:
        raise BadParam(f"expected comma-separated integers, got {text!r}") from exc


def _print_cost(h: HalinGraph, layout) -> None:
    report = la_cost(h, layout)
    print(
        f"total={report.total_cost} tree={report.tree_cost} "
        f"cycle={report.cycle_cost}"
    )


def _cmd_solve(args) -> int:
    if args.tree_layout is not None and args.method != "rearrange":
        raise BadParam("-t/--tree-layout applies only to --method rearrange")
    h = _load_instance(args.input)
    if args.method == "oracle":
        layout = brute_force_ola(h, limit=args.limit, layout_cap=1).optimal_layouts[0]
    elif args.method == "rbt":
        layout = rbt_ola(h.tree)
    elif args.method == "direct":
        layout = direct_rbt_halin_ola(h)
    else:  # rearrange, from rbt_ola's layout when no -t is given
        tree_layout = None if args.tree_layout is None else _load_layout(args.tree_layout, h)
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


def _tree_optimum(h: HalinGraph, use_oracle: bool, limit: int, advice: str = "") -> int:
    """The tree optimum; ``advice`` ends the refusal with the command's own options."""
    if not use_oracle:
        try:
            return la_total(h.tree, rbt_ola(h.tree))
        except NotRecursivelyBalanced:
            if h.n > limit:
                raise BadParam(
                    "tree is not recursively balanced and too large for the oracle; "
                    f"n={h.n} exceeds --limit {limit}" + advice
                ) from None
    return brute_force_ola(h.tree, limit=limit, layout_cap=0).optimal_cost


def _cmd_bound(args) -> int:
    h = _load_instance(args.input)
    if args.tree_opt is not None:
        tree_opt = args.tree_opt
        if tree_opt < h.n - 1:  # each of the n - 1 tree edges costs at least 1
            raise BadParam(f"--tree-opt {tree_opt} is below n-1 = {h.n - 1}, "
                           "the least cost of any tree layout")
    else:
        tree_opt = _tree_optimum(h, args.oracle, args.limit, "; pass --tree-opt")
    print(halin_lower_bound(h, tree_opt))
    return 0


def _cmd_verify(args) -> int:
    h = _load_instance(args.input)
    layout = _load_layout(args.layout, h)
    tree_opt = _tree_optimum(h, args.oracle, args.limit)
    cert = certify(h, layout, tree_opt)
    payload = jsonable(cert)
    if args.oracle:
        true_opt = brute_force_ola(h, limit=args.limit, layout_cap=0).optimal_cost
        payload["oracleOptimum"] = true_opt
        if cert.layout_cost > true_opt:
            payload["verdict"] = "not optimal"
            print(json.dumps(payload, indent=2))
            return 3
        payload["verdict"] = "optimal"
    print(json.dumps(payload, indent=2))
    return 0


# the most instances one proptest --corpus may hold, checked before any is built
MAX_CORPUS_INSTANCES = 10_000


def _corpus_entry(family: str, argtext: str) -> Tuple[range, Callable[[int], GenSpec]]:
    """The keys of one corpus entry and the GenSpec of each key.

    Only the keys' range is built, so an entry is counted in O(1) whatever
    its size; ValueError when it is malformed.
    """
    if family == "wheel":
        lo, dots, hi = argtext.partition("..")
        return (range(int(lo), int(hi if dots else lo) + 1),
                lambda s: GenSpec("wheel", (("spokes", s),)))
    if family == "caterpillar":
        spine, leaves = argtext.split(":", 1)
        spec = caterpillar_spec(int(spine), _int_list(leaves))
        return range(1), lambda _: spec
    vals = _int_list(argtext)
    if family == "kary":
        k, c, hh = vals
        return range(1), lambda _: GenSpec("kary", (("k", k), ("c", c), ("h", hh)))
    # COUNT defaults to 1 and SEED0 to 0, but SEED0 to 1 after an explicit COUNT
    n, count, seed0 = vals + [1, 0][:3 - len(vals)]
    return (range(seed0, seed0 + count),
            lambda seed: GenSpec("random", (("n", n),), seed=seed))


def _corpus_entries(spec_text: str) -> Iterator[Tuple[range, Callable[[int], GenSpec]]]:
    """Parse the ";"-separated entries one at a time."""
    for match in re.finditer("[^;]+", spec_text):
        chunk = match.group().strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise BadParam(f"bad corpus entry {chunk!r} (expected family=args)")
        family, argtext = chunk.split("=", 1)
        if family not in _FAMILIES:
            raise BadParam(f"unknown corpus family {family!r}")
        try:
            entry = _corpus_entry(family, argtext)
        except ValueError:
            raise BadParam(f"bad corpus entry {chunk!r} "
                           f"(expected {_FAMILIES[family][1]})") from None
        yield entry


def _parse_corpus(spec_text: str) -> List[Tuple[GenSpec, HalinGraph]]:
    """Every entry is parsed and counted before any instance is built."""
    if spec_text == "standard":
        return standard_corpus()
    # not len(keys): it overflows on a range longer than sys.maxsize
    total = sum(max(keys.stop - keys.start, 0) for keys, _ in _corpus_entries(spec_text))
    if total > MAX_CORPUS_INSTANCES:
        raise TooLarge(f"corpus asks for {total} instances; "
                       f"proptest takes at most {MAX_CORPUS_INSTANCES}")
    if not total:
        raise BadParam("empty corpus")
    return [(spec, generate(spec)) for keys, make in _corpus_entries(spec_text)
            for spec in map(make, keys)]


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
    with open(args.output, "wb") as f:  # only once both inputs are checked
        export_dot(h, layout, out=f)
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
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    for name in _GEN_FLAGS:
        p.add_argument(f"--{name}", **_GEN_FLAG_ARGS.get(name, {"type": int}))
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
    p.add_argument("--limit", type=int, default=10, help="oracle size limit")
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
                   help='"standard", or ";"-separated entries, each one of '
                        + ", ".join(grammar for _, grammar in _FAMILIES.values())
                        + ' (e.g. "wheel=3..8;caterpillar=2:2,2;random=7,5,100"),'
                        + f" {MAX_CORPUS_INSTANCES} instances at most")
    p.add_argument("--oracle-limit", type=int, default=10)
    p.set_defaults(func=_cmd_proptest)

    p = sub.add_parser("export-dot", help="write a DOT rendering")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-l", "--layout")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export_dot)

    return parser


# the options that take a count, each refused when negative before any input is read
_COUNT_OPTIONS = ("tree_opt", "limit", "oracle_limit")


def _check_counts(args) -> None:
    for name in _COUNT_OPTIONS:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise BadParam(f"--{name.replace('_', '-')} must be >= 0, got {value}")


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
    """Run one command and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``; an explicit ``argv`` is the only
    input, so ``--json`` in the process's own arguments does not apply to it.

    The cyclic garbage collector is off while the command runs, as the
    package makes no reference cycles; the caller's setting is restored
    afterwards, also after an error or ``-h``.
    """
    as_json = "--json" in (sys.argv[1:] if argv is None else argv)
    was_on = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        as_json = args.json
        _check_counts(args)
        return args.func(args)
    except _Help:
        return 0
    except (BadParam, NotRecursivelyBalanced, NotTreeOptimalInput,
            TooLarge) as exc:
        _emit_error(exc, as_json, 1)
        return 1
    except (HalinOlaError, OSError) as exc:
        _emit_error(exc, as_json, 2)
        return 2
    finally:
        if was_on:
            gc.enable()


def console_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
