"""Mutation sweep: mutate one named function at a time and run pytest on it.

Usage::

    python3 tools/mutants.py NAME [NAME ...] [-- PYTEST_ARGS]

Each NAME is a function or method defined in ``src/halin_ola``, written
``name``, or ``Class.name`` for a method (``outer.name`` for a nested
function), each optionally prefixed ``module:``.  A NAME must pick one
function: a name that two functions share, in one module or in two, must be
qualified until it does.  For every
mutation site in each named function, the runner copies ``src/`` into a
temporary directory, rewrites that one site there, and runs
``python -m pytest -x -q PYTEST_ARGS`` from the repository root with
``PYTHONPATH`` set to the copy.  The working tree is never written.  The
same run on the unmutated copy comes first: it must pass, and each mutant
may take ``TIMEOUT_FACTOR`` times as long as it took.

The operators:

* a comparison flipped: ``<`` and ``<=``, ``>`` and ``>=`` trade places,
  and ``==``, ``is`` and ``in`` trade places with their negations;
* ``+`` and ``-`` swapped, in expressions and augmented assignments;
* an integer constant raised by 1;
* a ``not`` dropped.

A mutant is killed when pytest fails, survives when it passes, and times
out when it runs past the limit.  The exit status is 0 only when every
mutant is killed.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "halin_ola"
# a hung mutant stops at this multiple of the unmutated run's time; a mutant
# that passes only a little slower, on a busy host, still finishes
TIMEOUT_FACTOR = 3

_FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-"}


def _functions(tree: ast.Module) -> List[Tuple[str, ast.FunctionDef]]:
    """(dotted name, node) of every function in the module: ``f``,
    ``Class.f``, ``outer.f``."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    found.append((prefix + child.name, child))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def find_function(name: str) -> Tuple[Path, str]:
    """The module file and the dotted name of the one function ``name`` picks.

    A name picks each function whose dotted name it equals or ends, after a
    dot; ``module:`` limits the search to one module.
    """
    module, _, func = name.rpartition(":")
    paths = [PACKAGE / f"{module}.py"] if module else sorted(PACKAGE.glob("*.py"))
    hits = [(p, dotted) for p in paths if p.exists()
            for dotted, _ in _functions(ast.parse(p.read_text()))
            if dotted == func or dotted.endswith("." + func)]
    if len(hits) != 1:
        where = ", ".join(f"{p.stem}:{dotted}" for p, dotted in hits) or "no module"
        raise SystemExit(f"{name}: defined in {where}; name exactly one")
    return hits[0]


def _function_node(tree: ast.Module, func: str) -> ast.FunctionDef:
    return next(node for dotted, node in _functions(tree) if dotted == func)


def _sites(func_node: ast.FunctionDef) -> List[Tuple[ast.AST, int, str]]:
    """(node, index, description) of each site, in source order."""
    found = []
    for node in ast.walk(func_node):
        if isinstance(node, ast.Compare):
            found += [(node, i, f"{_SYMBOL[type(op)]} -> {_SYMBOL[_FLIP[type(op)]]}")
                      for i, op in enumerate(node.ops)]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAP:
            found.append((node, 0, f"{_SYMBOL[type(node.op)]} -> "
                                   f"{_SYMBOL[_SWAP[type(node.op)]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, 0, f"{node.value} -> {node.value + 1}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((node, 0, "not dropped"))
    # stable: nested nodes that start at one column keep the walk's order
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset))


def _apply(node: ast.AST, index: int, parent_of: dict) -> None:
    if isinstance(node, ast.Compare):
        node.ops[index] = _FLIP[type(node.ops[index])]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = _SWAP[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:  # a dropped not: the operand takes the UnaryOp's place
        parent = parent_of[node]
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, node.operand)
            elif isinstance(value, list) and any(v is node for v in value):
                value[[id(v) for v in value].index(id(node))] = node.operand


def mutants(path: Path, func: str) -> List[Tuple[int, str, str]]:
    """(line, description, mutated module source) of every site in ``func``.

    Only the function's own lines change: it is unparsed after the one
    rewrite and put back at its indentation, decorators included.
    """
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    count = len(_sites(_function_node(ast.parse(source), func)))
    out = []
    for k in range(count):
        tree = ast.parse(source)
        func_node = _function_node(tree, func)
        parent_of = {child: parent for parent in ast.walk(func_node)
                     for child in ast.iter_child_nodes(parent)}
        node, index, what = _sites(func_node)[k]
        line = node.lineno
        _apply(node, index, parent_of)
        first = min([func_node.lineno] + [d.lineno for d in func_node.decorator_list])
        indent = " " * func_node.col_offset
        body = "".join(indent + row if row.strip() else row
                       for row in ast.unparse(func_node).splitlines(keepends=True))
        out.append((line, what, "".join(lines[:first - 1]) + body + "\n"
                    + "".join(lines[func_node.end_lineno:])))
    return out


def run_mutant(path: Path, mutated: str, pytest_args: List[str],
               timeout: Optional[float]) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "halin_ola" / path.name).write_text(mutated)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        probe = "import halin_ola; print(halin_ola.__file__)"
        where = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                               capture_output=True, text=True).stdout
        if not where.startswith(str(src)):
            raise SystemExit(f"the copy is not the package imported: {where.strip()!r}")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *pytest_args]
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "timeout"
    return "SURVIVED" if done.returncode == 0 else "killed"


def main(argv: List[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="+")
    args, pytest_args = parser.parse_args(argv[:split]), argv[split + 1:]
    found = [find_function(name) for name in args.names]
    # the unmutated copy must pass, or no verdict means anything
    path = found[0][0]
    started = time.monotonic()
    if run_mutant(path, path.read_text(), pytest_args, None) != "SURVIVED":
        raise SystemExit("the tests fail on the unmutated copy")
    timeout = TIMEOUT_FACTOR * (time.monotonic() - started)
    print(f"unmutated run passed; {timeout:.0f} s per mutant", flush=True)
    tally = {"killed": 0, "SURVIVED": 0, "timeout": 0}
    for path, func in found:
        for line, what, mutated in mutants(path, func):
            verdict = run_mutant(path, mutated, pytest_args, timeout)
            tally[verdict] += 1
            print(f"{verdict:<8} {path.stem}.py:{line} {func}: {what}", flush=True)
    print(", ".join(f"{count} {verdict.lower()}" for verdict, count in tally.items()))
    return 0 if tally["SURVIVED"] == tally["timeout"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
