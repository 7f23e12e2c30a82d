"""File formats: JSON instance/layout schemas and DOT export.

Instance files store only the rooted plane tree; the leaf cycle is always
recomputed from the embedding so files cannot carry an inconsistent cycle.
Serialization is canonical, so a parse/serialize round trip is byte-exact:
the bytes equal ``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline,
and the writers emit that format directly (``json`` encodes in pure Python
once ``indent`` is set).  Integers in files are JSON integers, never booleans.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Dict, List, Optional

from .errors import ParseError, SchemaVersionUnsupported
from .graph_core import HalinGraph, build_embedded_tree, halin_from_tree
from .layout_ops import Layout

SCHEMA_VERSION = 1

_INSTANCE_FIELDS = {"schemaVersion", "tree", "metadata"}
_TREE_FIELDS = {"root", "children"}
_LAYOUT_FIELDS = {"schemaVersion", "vertexAt"}
_INT = {int}  # exact type: bool is a subclass of int but not a JSON integer


def _load_json(data: bytes) -> object:
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def _check_version(doc: dict):
    version = doc.get("schemaVersion")
    if version == SCHEMA_VERSION and type(version) is not int:
        raise ParseError(f"schemaVersion {version!r} is not an integer")
    if version != SCHEMA_VERSION:
        raise SchemaVersionUnsupported(
            f"schemaVersion {version!r} unsupported (expected {SCHEMA_VERSION})"
        )


def _check_fields(doc: dict, allowed: set, where: str, strict: bool) -> List[str]:
    unknown = sorted(set(doc) - allowed)
    if unknown and strict:
        raise ParseError(f"unknown field(s) in {where}: {', '.join(unknown)}")
    return [f"ignoring unknown field {f!r} in {where}" for f in unknown]


def parse_instance(data: bytes, strict: bool = True) -> HalinGraph:
    """Parse an instance file into a validated Halin graph.

    Unknown fields are rejected in strict mode, ignored otherwise.
    Raises ParseError, SchemaVersionUnsupported, or InvalidSubstrate.
    """
    doc = _load_json(data)
    if not isinstance(doc, dict):
        raise ParseError("instance file must be a JSON object")
    _check_version(doc)
    _check_fields(doc, _INSTANCE_FIELDS, "instance", strict)
    tree_doc = doc.get("tree")
    if not isinstance(tree_doc, dict):
        raise ParseError("missing or malformed 'tree' object")
    _check_fields(tree_doc, _TREE_FIELDS, "tree", strict)
    root = tree_doc.get("root")
    children_doc = tree_doc.get("children")
    if type(root) is not int or not isinstance(children_doc, dict):
        raise ParseError("'tree' needs integer 'root' and object 'children'")
    children: Dict[int, List[int]] = {}
    for key, kids in children_doc.items():
        try:
            v = int(key)
        except ValueError as exc:
            raise ParseError(f"child-map key {key!r} is not an integer") from exc
        if str(v) != key:
            raise ParseError(f"child-map key {key!r} is not a canonical integer")
        if type(kids) is not list or not set(map(type, kids)) <= _INT:
            raise ParseError(f"children of {key} must be an integer array")
        children[v] = kids
    return halin_from_tree(build_embedded_tree(root, children))


def instance_metadata(data: bytes) -> Optional[dict]:
    """The optional metadata object of an instance file, if present."""
    doc = _load_json(data)
    return doc.get("metadata") if isinstance(doc, dict) else None


def _array_template(k: int, indent: str) -> str:
    """%-template of k ints laid out as json.dumps(indent=2) does at ``indent``."""
    if not k:
        return "[]"
    inner = ",\n  " + indent
    return f"[{inner[1:]}{inner.join(['%d'] * k)}\n{indent}]"


def serialize_instance(h: HalinGraph, metadata: Optional[dict] = None) -> bytes:
    """Canonical instance bytes: sorted keys, 2-space indent, trailing \\n."""
    children = h.tree.children
    internal = sorted([v for v, cs in enumerate(children) if cs], key=str)
    # the child map is one %-template: one entry shape per child count
    shape = {k: f'      "%d": {_array_template(k, "      ")}'
             for k in set(map(len, children))}
    cells: List[int] = []
    for v in internal:
        cells += (v, *children[v])
    entries = ",\n".join([shape[len(children[v])] for v in internal]) % tuple(cells)
    meta = ""
    if metadata is not None:
        meta = json.dumps(metadata, sort_keys=True, indent=2).replace("\n", "\n  ")
        meta = f'  "metadata": {meta},\n'
    return (f'{{\n{meta}  "schemaVersion": {SCHEMA_VERSION},\n  "tree": {{\n'
            f'    "children": {{\n{entries}\n    }},\n'
            f'    "root": {h.tree.root}\n  }}\n}}\n').encode("utf-8")


def parse_layout(data: bytes, strict: bool = True) -> Layout:
    doc = _load_json(data)
    if not isinstance(doc, dict):
        raise ParseError("layout file must be a JSON object")
    _check_version(doc)
    _check_fields(doc, _LAYOUT_FIELDS, "layout", strict)
    arr = doc.get("vertexAt")
    if type(arr) is not list or not set(map(type, arr)) <= _INT:
        raise ParseError("'vertexAt' must be an integer array")
    try:
        return Layout(tuple(arr))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_layout(layout: Layout) -> bytes:
    vertex_at = _array_template(layout.n, "  ") % layout.vertex_at
    return (f'{{\n  "schemaVersion": {SCHEMA_VERSION},\n'
            f'  "vertexAt": {vertex_at}\n}}\n').encode("utf-8")


def export_dot(h: HalinGraph, layout: Optional[Layout] = None) -> str:
    """DOT rendering: tree edges dashed, cycle edges bold.

    With a layout, vertices are labeled "name:position".
    """
    # each block is one %-format over a repeated line template, so no
    # per-line strings are built
    tree = h.tree
    ids = tree.vertices
    if layout is None:
        out = ["  %d;\n" * tree.n % tuple(ids)]
    else:
        cells = chain.from_iterable(zip(ids, ids, layout.positions()))
        out = ['  %d [label="%d:%d"];\n' * tree.n % tuple(cells)]
    tree_pairs = ((v, c) for v, cs in enumerate(tree.children) for c in cs)
    for style, pairs in (("dashed", tree_pairs), ("bold", h.cycle_pairs())):
        ends: List[int] = []  # both endpoints of every edge, smaller id first
        for a, b in pairs:
            ends += (a, b) if a < b else (b, a)
        out.append(f"  %d -- %d [style={style}];\n" * (len(ends) // 2) % tuple(ends))
    return "graph halin {\n" + "".join(out) + "}\n"
