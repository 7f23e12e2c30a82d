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
import os
import stat
from collections import Counter
from itertools import chain, islice
from typing import BinaryIO, List, Optional, Tuple

from . import generators
from .errors import ParseError, SchemaVersionUnsupported, TooLarge
from .graph_core import HalinGraph, _place_child_lists, halin_from_tree
from .layout_ops import Layout

SCHEMA_VERSION = 1

_INSTANCE_FIELDS = {"schemaVersion", "tree", "metadata"}
_TREE_FIELDS = {"root", "children"}
_LAYOUT_FIELDS = {"schemaVersion", "vertexAt"}
_INT = {int}  # exact type: bool is a subclass of int but not a JSON integer


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a repeated key is an error, not a silent overwrite."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for k, count in Counter(k for k, _v in pairs).items() if count > 1)
        raise ParseError(f"repeated key {key!r} in a JSON object")
    return doc


def _max_file_bytes() -> int:
    # With d the digits of MAX_GEN_N, a canonical file spends on each vertex
    # at most a child or layout line (d + 10 bytes) and, on at most half the
    # vertices (the internal ones), a child-map entry frame (d + 21) and a
    # caterpillar's line of gen metadata (2d + 15): under 3d + 30 bytes in
    # all.  The 1 KiB holds the fixed framing and a seed of up to 700 digits.
    ceiling = generators.MAX_GEN_N
    return (3 * len(str(ceiling)) + 30) * ceiling + 1024


def _check_bytes(size: int) -> None:
    if size > _max_file_bytes():
        raise TooLarge(f"file has {size} bytes, above the cap of {_max_file_bytes()}")


def read_input(path: str) -> bytes:
    """The file's bytes, refused unread past the byte cap; a pipe, whose size
    is not known, is read to one byte past the cap at most, which parsing refuses."""
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        _check_bytes(info.st_size)
        return f.read(None if stat.S_ISREG(info.st_mode) else _max_file_bytes() + 1)


def _check_n(n: int, what: str) -> None:
    if n > generators.MAX_GEN_N:
        raise TooLarge(f"{what} has {n} vertices, above the ceiling of {generators.MAX_GEN_N}")


def _load_json(data: bytes) -> object:
    _check_bytes(len(data))  # before decoding
    # a canonical file holds n - 2 commas in its child map, n/2 and a few at most
    # in gen's metadata (a caterpillar's leaf counts), n in a layout: fewer than
    # most while n is within the ceiling; only a file longer than most holds more
    most = 2 * generators.MAX_GEN_N + 1024
    commas = data.count(b",") if len(data) > most else 0
    if commas > most:
        raise TooLarge(f"file has {commas} commas, above the cap of {most}")
    sizes: List[int] = []  # keys per decoded object
    try:
        text = data.decode("utf-8")
        doc = json.loads(text, object_hook=lambda obj: sizes.append(len(obj)) or obj)
        # each key in the text is followed by one ':' outside any string, so
        # fewer decoded keys than ':'s means a repeated key or a ':' in a
        # string; only then is the text decoded again, pair by pair
        if sum(sizes) != text.count(":"):
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        return doc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise ParseError(str(exc)) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def _load_doc(data: bytes, what: str, fields: set) -> dict:
    """The file's JSON object, once its schema version is 1 and it holds only ``fields``."""
    doc = _load_json(data)
    if not isinstance(doc, dict):
        raise ParseError(f"{what} file must be a JSON object")
    version = doc.get("schemaVersion")
    if version == SCHEMA_VERSION and type(version) is not int:
        raise ParseError(f"schemaVersion {version!r} is not an integer")
    if version != SCHEMA_VERSION:
        raise SchemaVersionUnsupported(
            f"schemaVersion {version!r} unsupported (expected {SCHEMA_VERSION})"
        )
    _check_fields(doc, fields, what)
    return doc


def _check_fields(doc: dict, allowed: set, where: str):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ParseError(f"unknown field(s) in {where}: {', '.join(unknown)}")


def parse_instance(data: bytes) -> HalinGraph:
    """Parse an instance file into a validated Halin graph.

    Unknown fields are rejected, and the root, the child-map keys and the
    children must be JSON integers (ParseError).  The tree's n is 1 + the
    number of listed children, and a root, key or child outside 0..n-1 is
    refused.  Raises TooLarge for a file past the byte cap or an n above
    ``generators.MAX_GEN_N``, ParseError, SchemaVersionUnsupported, what
    ``build_embedded_tree`` raises (structural faults named in vertex-id
    order), or InvalidSubstrate.
    """
    doc = _load_doc(data, "instance", _INSTANCE_FIELDS)
    tree_doc = doc.get("tree")
    if not isinstance(tree_doc, dict):
        raise ParseError("missing or malformed 'tree' object")
    _check_fields(tree_doc, _TREE_FIELDS, "tree")
    root = tree_doc.get("root")
    children_doc = tree_doc.get("children")
    if type(root) is not int or not isinstance(children_doc, dict):
        raise ParseError("'tree' needs integer 'root' and object 'children'")
    return halin_from_tree(_place_child_lists(root, *_child_map(children_doc)))


def _child_map(children_doc: dict) -> Tuple[List[int], List[List[int]]]:
    """The child map's integer keys and its lists, checked in a few
    whole-map passes: what ``build_embedded_tree`` checks and more.

    Keys must be canonical integers and values integer arrays; only when a
    pass fails is the map walked key by key, to name the first offender.
    """
    keys = list(children_doc)
    lists = list(children_doc.values())
    try:
        ids = list(map(int, keys))
        canonical = list(map(str, ids)) == keys
    except ValueError:
        canonical = False
    if not (canonical and set(map(type, lists)) <= {list}
            and set(map(type, chain.from_iterable(lists))) <= _INT):
        _raise_first_bad_key(children_doc)
    _check_n(1 + sum(map(len, lists)), "instance")  # the tree's n
    return ids, lists


def _raise_first_bad_key(children_doc: dict):
    for key, kids in children_doc.items():
        try:
            v = int(key)
        except ValueError as exc:
            raise ParseError(f"child-map key {key!r} is not an integer") from exc
        if str(v) != key:
            raise ParseError(f"child-map key {key!r} is not a canonical integer")
        if type(kids) is not list or not set(map(type, kids)) <= _INT:
            raise ParseError(f"children of {key} must be an integer array")


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


def parse_layout(data: bytes) -> Layout:
    doc = _load_doc(data, "layout", _LAYOUT_FIELDS)
    arr = doc.get("vertexAt")
    if type(arr) is not list or not set(map(type, arr)) <= _INT:
        raise ParseError("'vertexAt' must be an integer array")
    _check_n(len(arr), "layout")
    try:
        return Layout(tuple(arr))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_layout(layout: Layout) -> bytes:
    vertex_at = _array_template(layout.n, "  ") % layout.vertex_at
    return (f'{{\n  "schemaVersion": {SCHEMA_VERSION},\n'
            f'  "vertexAt": {vertex_at}\n}}\n').encode("utf-8")


# the most DOT lines one piece of export_dot's output holds
_DOT_PIECE_LINES = 4096


def export_dot(h: HalinGraph, layout: Optional[Layout] = None, *, out: BinaryIO) -> None:
    """Write the DOT rendering to the binary file ``out``: tree edges dashed, cycle edges bold.

    With a layout, vertices are labeled "name:position".  The text is
    written as UTF-8 in pieces of at most ``_DOT_PIECE_LINES`` lines, each
    one %-format over a repeated line template, so no per-line strings are
    built and the whole text (3.6 MB at n = 49,150) is never held.
    """
    lines = _DOT_PIECE_LINES
    tree = h.tree
    out.write(b"graph halin {\n")
    for lo in range(0, tree.n, lines):
        ids = tree.vertices[lo:lo + lines]
        if layout is None:
            piece = "  %d;\n" * len(ids) % tuple(ids)
        else:
            cells = chain.from_iterable(zip(ids, ids, layout.positions[lo:lo + lines]))
            piece = '  %d [label="%d:%d"];\n' * len(ids) % tuple(cells)
        out.write(piece.encode("utf-8"))
    tree_pairs = ((v, c) for v, cs in enumerate(tree.children) for c in cs)
    for style, pairs in (("dashed", tree_pairs), ("bold", iter(h.cycle_pairs()))):
        while True:
            ends: List[int] = []  # both endpoints of each edge, smaller id first
            for a, b in islice(pairs, lines):
                ends += (a, b) if a < b else (b, a)
            if not ends:
                break
            piece = f"  %d -- %d [style={style}];\n" * (len(ends) // 2) % tuple(ends)
            out.write(piece.encode("utf-8"))
    out.write(b"}\n")
