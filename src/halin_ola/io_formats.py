"""File formats: JSON instance/layout schemas and DOT export.

Instance files store only the rooted plane tree; the leaf cycle is always
recomputed from the embedding so files cannot carry an inconsistent cycle.
Serialization is canonical (sorted keys, fixed indentation) so a
parse/serialize round trip is byte-exact.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .errors import ParseError, SchemaVersionUnsupported
from .graph_core import HalinGraph, build_embedded_tree, halin_from_tree
from .layout_ops import Layout

SCHEMA_VERSION = 1

_INSTANCE_FIELDS = {"schemaVersion", "tree", "metadata"}
_TREE_FIELDS = {"root", "children"}
_LAYOUT_FIELDS = {"schemaVersion", "vertexAt"}


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
    if not isinstance(root, int) or not isinstance(children_doc, dict):
        raise ParseError("'tree' needs integer 'root' and object 'children'")
    children: Dict[int, List[int]] = {}
    for key, kids in children_doc.items():
        try:
            v = int(key)
        except ValueError as exc:
            raise ParseError(f"child-map key {key!r} is not an integer") from exc
        if not isinstance(kids, list) or not all(isinstance(c, int) for c in kids):
            raise ParseError(f"children of {key} must be an integer array")
        children[v] = kids
    return halin_from_tree(build_embedded_tree(root, children))


def instance_metadata(data: bytes) -> Optional[dict]:
    """The optional metadata object of an instance file, if present."""
    doc = _load_json(data)
    return doc.get("metadata") if isinstance(doc, dict) else None


def serialize_instance(h: HalinGraph, metadata: Optional[dict] = None) -> bytes:
    """Canonical instance bytes: sorted keys, 2-space indent, trailing \\n."""
    tree = h.tree
    doc: dict = {
        "schemaVersion": SCHEMA_VERSION,
        "tree": {
            "root": tree.root,
            "children": {
                str(v): list(tree.children[v])
                for v in tree.vertices
                if tree.children[v]
            },
        },
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def parse_layout(data: bytes, strict: bool = True) -> Layout:
    doc = _load_json(data)
    if not isinstance(doc, dict):
        raise ParseError("layout file must be a JSON object")
    _check_version(doc)
    _check_fields(doc, _LAYOUT_FIELDS, "layout", strict)
    arr = doc.get("vertexAt")
    if not isinstance(arr, list) or not all(isinstance(v, int) for v in arr):
        raise ParseError("'vertexAt' must be an integer array")
    try:
        return Layout(tuple(arr))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_layout(layout: Layout) -> bytes:
    doc = {"schemaVersion": SCHEMA_VERSION, "vertexAt": list(layout.vertex_at)}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def export_dot(h: HalinGraph, layout: Optional[Layout] = None) -> str:
    """DOT rendering: tree edges dashed, cycle edges bold.

    With a layout, vertices are labeled "name:position".
    """
    lines = ["graph halin {"]
    for v in h.tree.vertices:
        if layout is not None:
            lines.append(f'  {v} [label="{v}:{layout.position(v)}"];')
        else:
            lines.append(f"  {v};")
    for v in h.tree.vertices:
        for c in h.tree.children[v]:
            lines.append(f"  {min(v, c)} -- {max(v, c)} [style=dashed];")
    for a, b in h.cycle_pairs():
        lines.append(f"  {min(a, b)} -- {max(a, b)} [style=bold];")
    lines.append("}")
    return "\n".join(lines) + "\n"
