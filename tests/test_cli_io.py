import hashlib
import io
import json
import os
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halin_ola import (
    CycleDetected,
    DisconnectedInput,
    DuplicateChild,
    HalinGraph,
    InvalidSubstrate,
    Layout,
    ParseError,
    SchemaVersionUnsupported,
    TooLarge,
    build_embedded_tree,
    direct_rbt_halin_ola,
    export_dot,
    gen_kary_rbt_halin,
    gen_random_halin,
    gen_wheel,
    halin_from_tree,
    instance_metadata,
    parse_instance,
    parse_layout,
    serialize_instance,
    serialize_layout,
)
from halin_ola import cli, io_formats
from halin_ola.cli import _parse_corpus, main
from halin_ola.io_formats import _load_json


class TestInstanceFormat:
    def test_round_trip(self):
        h = gen_wheel(4)
        data = serialize_instance(h)
        again = parse_instance(data)
        assert again.tree.children == h.tree.children
        assert again.cycle_order == h.cycle_order
        assert serialize_instance(again) == data

    def test_metadata_preserved_in_round_trip(self):
        h = gen_wheel(3)
        data = serialize_instance(h, metadata={"name": "k4"})
        assert instance_metadata(data) == {"name": "k4"}
        assert serialize_instance(parse_instance(data), metadata={"name": "k4"}) == data

    def test_truncated_file(self):
        with pytest.raises(ParseError):
            parse_instance(b'{"schemaVersion": 1, "tree":')

    def test_unsupported_schema_version(self):
        with pytest.raises(SchemaVersionUnsupported):
            parse_instance(b'{"schemaVersion": 99, "tree": {"root": 0, "children": {}}}')

    def test_unknown_field_strict_vs_lax(self):
        doc = json.loads(serialize_instance(gen_wheel(3)).decode())
        doc["surprise"] = 1
        data = json.dumps(doc).encode()
        with pytest.raises(ParseError):
            parse_instance(data)

    def test_cycle_never_trusted(self):
        # files carry no cycle; it is recomputed from the embedding
        data = serialize_instance(gen_wheel(3))
        assert b"cycle" not in data

    def test_invalid_substrate_rejected(self):
        data = json.dumps(
            {"schemaVersion": 1, "tree": {"root": 0, "children": {"0": [1, 2]}}}
        ).encode()
        with pytest.raises(InvalidSubstrate):
            parse_instance(data)

    # tracemalloc peak in bytes of parsing the kary(3,2,10) file (n = 3,070),
    # measured on CPython 3.11.7 while the tree build still collected every
    # mentioned id into a set to prove them contiguous
    _ID_SET_PARSE_PEAK = 757_091

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="peaks pinned on CPython 3.11")
    def test_parse_peak(self):
        # the id set's table alone took 128 KiB; peaks drift by a few
        # hundred bytes between runs
        data = serialize_instance(gen_kary_rbt_halin(3, 2, 10))
        tracemalloc.start()
        try:
            parse_instance(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self._ID_SET_PARSE_PEAK - 64 * 1024


def _instance_bytes(tree=None, version=1) -> bytes:
    tree = {"root": 0, "children": {"0": [1, 2, 3]}} if tree is None else tree
    return json.dumps({"schemaVersion": version, "tree": tree}).encode()


class TestStrictIntegers:
    """Booleans are not integers, and child-map keys must be canonical."""

    BAD_INSTANCES = {
        "schema-version-true": _instance_bytes(version=True),
        "root-true": _instance_bytes({"root": True, "children": {"1": [0, 2, 3]}}),
        "child-true": _instance_bytes({"root": 0, "children": {"0": [1, 2, True]}}),
        "keys-0-and-00": _instance_bytes(
            {"root": 0, "children": {"0": [1, 2, 3], "00": [4, 5]}}),
        "key-space-0": _instance_bytes(
            {"root": 0, "children": {"0": [1, 2, 3], " 0": [3, 2, 1]}}),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
    def test_instance_rejected(self, case, tmp_path):
        data = self.BAD_INSTANCES[case]
        with pytest.raises(ParseError):
            parse_instance(data)
        inst = tmp_path / "bad.json"
        inst.write_bytes(data)
        assert main(["export-dot", "-i", str(inst), "-o", str(tmp_path / "x.dot")]) == 2

    def test_vertex_at_booleans_rejected(self, tmp_path):
        data = b'{"schemaVersion": 1, "vertexAt": [true, false]}'
        with pytest.raises(ParseError):
            parse_layout(data)
        with pytest.raises(ParseError):
            parse_layout(b'{"schemaVersion": true, "vertexAt": [1, 0]}')
        inst = tmp_path / "w.json"
        lay = tmp_path / "w.layout.json"
        inst.write_bytes(serialize_instance(gen_wheel(3)))
        lay.write_bytes(data)
        assert main(["cost", "-i", str(inst), "-l", str(lay)]) == 2


def _children_bytes(children, root=0) -> bytes:
    return _instance_bytes({"root": root, "children": children})


class TestParseErrorMessages:
    """Every parse and tree-build error: its class and its exact message.

    The child map's keys and value shapes are checked key by key in file
    order, so the first offender in the file is the one named, whichever
    check it fails.  Structural faults are named in vertex-id order: the
    tree's check scans the child lists by vertex id, whatever the file order.
    """

    CASES = {
        "bad-key": ({"0": [1, 2, 3], "x": [4, 5]}, ParseError,
                    "child-map key 'x' is not an integer"),
        "non-canonical-key": ({"0": [1, 2, 3], "01": [4, 5]}, ParseError,
                              "child-map key '01' is not a canonical integer"),
        "non-list": ({"0": {"1": 2}}, ParseError,
                     "children of 0 must be an integer array"),
        "non-int": ({"0": [1, 2, 3.0]}, ParseError,
                    "children of 0 must be an integer array"),
        "bool": ({"0": [1, 2, 3], "1": [False, 4]}, ParseError,
                 "children of 1 must be an integer array"),
        "first-offender-wins": ({"0": [1, 2, "3"], "y": [4]}, ParseError,
                                "children of 0 must be an integer array"),
        "first-key-wins": ({"y": [4], "0": [1, 2, "3"]}, ParseError,
                           "child-map key 'y' is not an integer"),
        "range": ({"0": [1, 2, 5]}, DisconnectedInput,
                  "child 5 of vertex 0 is outside 0..3"),
        "key-beyond": ({"0": [1, 2, 3], "9": []}, DisconnectedInput,
                       "child-map key 9 is outside 0..3"),
        "negative-key": ({"0": [1, 2, 3], "-1": []}, DisconnectedInput,
                         "child-map key -1 is outside 0..3"),
        "self-child": ({"0": [1, 2, 3], "1": [1, 4]}, CycleDetected,
                       "vertex 1 is its own child"),
        "root-as-child": ({"0": [1, 2, 3], "1": [4, 0]}, CycleDetected,
                          "the root cannot be a child of 1"),
        "child-twice": ({"0": [1, 2, 1, 3]}, DuplicateChild,
                        "vertex 0 lists child 1 twice"),
        "two-parents": ({"0": [1, 2, 3], "1": [4, 5], "2": [5, 6]}, DuplicateChild,
                        "vertex 5 has two parents"),
        "first-edge-wins": ({"0": [1, 2, 3], "1": [2, 1]}, DuplicateChild,
                            "vertex 2 has two parents"),
        "unreachable": ({"0": [1, 2, 3], "4": [5, 6], "5": [4]}, DisconnectedInput,
                        "child lists do not connect every vertex to the root"),
        "id-order-wins": ({"0": [1, 2, 3], "2": [4, 0], "1": [1, 5]}, CycleDetected,
                          "vertex 1 is its own child"),
        "substrate": ({"0": [1, 2]}, InvalidSubstrate,
                      "needs >= 3 leaves, has 2; root has 2 children, needs >= 3"),
        "substrate-inner": ({"0": [1, 2, 3], "1": [4], "2": [5, 6]}, InvalidSubstrate,
                            "internal vertex 1 has 1 child, needs >= 2"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_parse_instance(self, case, tmp_path, capsys):
        children, error, message = self.CASES[case]
        data = _children_bytes(children)
        with pytest.raises(error) as info:
            parse_instance(data)
        assert type(info.value) is error
        assert str(info.value) == message
        inst = tmp_path / "bad.json"
        inst.write_bytes(data)
        assert main(["export-dot", "-i", str(inst), "-o", str(tmp_path / "x.dot")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("case", sorted(
        case for case, (_c, error, _m) in CASES.items() if error is not ParseError))
    def test_build_embedded_tree(self, case):
        children, error, message = self.CASES[case]
        with pytest.raises(error) as info:
            halin_from_tree(build_embedded_tree(0, {int(k): v for k, v in children.items()}))
        assert type(info.value) is error
        assert str(info.value) == message

    def test_root_outside_the_tree(self, tmp_path, capsys):
        # n is 1 + the listed children, so a root past them is refused
        # rather than widening the tree
        message = "root 4 is outside 0..3"
        data = _children_bytes({"0": [1, 2, 3]}, root=4)
        for build in (lambda: parse_instance(data),
                      lambda: build_embedded_tree(4, {0: [1, 2, 3]})):
            with pytest.raises(DisconnectedInput) as info:
                build()
            assert type(info.value) is DisconnectedInput and str(info.value) == message
        inst = tmp_path / "bad.json"
        inst.write_bytes(data)
        assert main(["export-dot", "-i", str(inst), "-o", str(tmp_path / "x.dot")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_tree_object_shape(self):
        with pytest.raises(ParseError, match="^'tree' needs integer 'root' and object"):
            parse_instance(_instance_bytes({"root": 0, "children": [[1, 2, 3]]}))

    @pytest.mark.parametrize("parse, data, message", [
        (parse_instance, b'{"schemaVersion": 1, "tree": [1]}',
         "missing or malformed 'tree' object"),
        (parse_layout, b"[0, 1]", "layout file must be a JSON object"),
    ], ids=["tree-not-object", "layout-not-object"])
    def test_document_shape(self, parse, data, message):
        with pytest.raises(ParseError) as exc:
            parse(data)
        assert str(exc.value) == message


def _relabeled_halin(data, max_n):
    """A random Halin graph under a random relabelling of its vertices."""
    h = gen_random_halin(data.draw(st.integers(4, max_n)),
                         seed=data.draw(st.integers(0, 10**6)))
    perm = data.draw(st.permutations(list(h.tree.vertices)))
    children = {perm[v]: [perm[c] for c in cs]
                for v, cs in enumerate(h.tree.children) if cs}
    return halin_from_tree(build_embedded_tree(perm[h.tree.root], children))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


class TestRepeatedKeys:
    """A repeated JSON object key is a ParseError, never a silent overwrite."""

    BAD_INSTANCES = {
        "child-map": b'{"schemaVersion": 1, "tree": {"root": 0, "children": '
                     b'{"0": [1, 2, 3], "0": [3, 2, 1]}}}',
        "schema-version": b'{"schemaVersion": 1, "schemaVersion": 1, "tree": '
                          b'{"root": 0, "children": {"0": [1, 2, 3]}}}',
    }

    @pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
    def test_instance_rejected(self, case, tmp_path):
        data = self.BAD_INSTANCES[case]
        with pytest.raises(ParseError, match="repeated key"):
            parse_instance(data)
        inst = tmp_path / "bad.json"
        inst.write_bytes(data)
        assert main(["export-dot", "-i", str(inst), "-o", str(tmp_path / "x.dot")]) == 2

    def test_layout_rejected(self, tmp_path):
        data = b'{"schemaVersion": 1, "vertexAt": [0, 1, 2, 3], "vertexAt": [3, 2, 1, 0]}'
        with pytest.raises(ParseError, match="repeated key 'vertexAt'"):
            parse_layout(data)
        inst = tmp_path / "w.json"
        lay = tmp_path / "w.layout.json"
        inst.write_bytes(serialize_instance(gen_wheel(3)))
        lay.write_bytes(data)
        assert main(["cost", "-i", str(inst), "-l", str(lay)]) == 2

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b:", ":"]), _json_values), max_size=5))
    def test_colons_in_strings(self, pairs):
        # keys and values may hold ':' outside the key separators
        text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
        keys = [k for k, _v in pairs]
        if len(set(keys)) < len(keys):
            with pytest.raises(ParseError, match="repeated key"):
                _load_json(text.encode())
        else:
            assert _load_json(text.encode()) == dict(pairs)


def _reference_dot(h, layout=None) -> str:
    lines = ["graph halin {"]
    for v in range(h.n):
        lines.append(f"  {v};" if layout is None else f'  {v} [label="{v}:{layout.positions[v]}"];')
    for v in range(h.n):
        for c in h.tree.children[v]:
            lines.append(f"  {min(v, c)} -- {max(v, c)} [style=dashed];")
    ring = h.cycle_order
    for a, b in zip(ring, ring[1:] + ring[:1]):
        lines.append(f"  {min(a, b)} -- {max(a, b)} [style=bold];")
    return "\n".join(lines + ["}"]) + "\n"


class TestCanonicalWriters:
    """The direct writers emit exactly what json.dumps(indent=2) would."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_serializers_equal_json_dumps(self, data):
        h = _relabeled_halin(data, 300)
        metadata = data.draw(st.none() | st.dictionaries(st.text(max_size=6), _json_values))
        doc = {"schemaVersion": 1, "tree": {
            "root": h.tree.root,
            "children": {str(v): list(cs) for v, cs in enumerate(h.tree.children) if cs},
        }}
        if metadata is not None:
            doc["metadata"] = metadata
        want = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        assert serialize_instance(h, metadata=metadata) == want
        assert parse_instance(want) == h
        order = list(h.tree.vertices)
        random.Random(data.draw(st.integers(0, 99))).shuffle(order)
        lay = Layout(tuple(order))
        want = {"schemaVersion": 1, "vertexAt": order}
        assert serialize_layout(lay) == (json.dumps(want, sort_keys=True, indent=2) + "\n").encode()

    def test_empty_layout(self):
        assert serialize_layout(Layout(())) == b'{\n  "schemaVersion": 1,\n  "vertexAt": []\n}\n'

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dot_equals_reference(self, data):
        h = _relabeled_halin(data, 300)
        lay = Layout(tuple(data.draw(st.permutations(list(h.tree.vertices)))))
        assert export_dot(h) == _reference_dot(h)
        assert export_dot(h, lay) == _reference_dot(h, lay)


class TestLayoutFormat:
    def test_round_trip(self):
        lay = Layout((2, 0, 1, 3))
        assert parse_layout(serialize_layout(lay)) == lay

    def test_non_permutation_rejected(self):
        with pytest.raises(ParseError):
            parse_layout(b'{"schemaVersion": 1, "vertexAt": [0, 0, 1]}')


class TestDot:
    def test_k4_edge_styles(self):
        text = export_dot(gen_wheel(3))
        assert text.count("style=dashed") == 3
        assert text.count("style=bold") == 3
        assert "label=" not in text

    def test_layout_labels(self):
        h = gen_wheel(4)
        text = export_dot(h, Layout((1, 2, 0, 3, 4)))
        assert text == (
            "graph halin {\n"
            '  0 [label="0:3"];\n'
            '  1 [label="1:1"];\n'
            '  2 [label="2:2"];\n'
            '  3 [label="3:4"];\n'
            '  4 [label="4:5"];\n'
            "  0 -- 1 [style=dashed];\n"
            "  0 -- 2 [style=dashed];\n"
            "  0 -- 3 [style=dashed];\n"
            "  0 -- 4 [style=dashed];\n"
            "  1 -- 2 [style=bold];\n"
            "  2 -- 3 [style=bold];\n"
            "  3 -- 4 [style=bold];\n"
            "  1 -- 4 [style=bold];\n"
            "}\n"
        )


class _PieceSink(io.BytesIO):
    """A BytesIO that also keeps the line count of each write."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, b):
        self.lines.append(bytes(b).count(b"\n"))
        return super().write(b)


class TestDotPieces:
    """export_dot(out=) writes the same bytes, a bounded piece at a time."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 3]), st.booleans())
    def test_written_bytes_equal_text(self, data, lines, labelled):
        h = _relabeled_halin(data, 300)
        lay = None
        if labelled:
            lay = Layout(tuple(data.draw(st.permutations(list(h.tree.vertices)))))
        sink = _PieceSink()
        with mock.patch.object(io_formats, "_DOT_PIECE_LINES", lines):
            assert export_dot(h, lay, out=sink) is None
        assert sink.getvalue() == export_dot(h, lay).encode() == _reference_dot(h, lay).encode()
        assert max(sink.lines) <= lines

    def test_written_peak_is_a_fraction_of_the_text(self):
        h = gen_kary_rbt_halin(3, 2, 10)
        lay = direct_rbt_halin_ola(h)
        size = len(export_dot(h, lay))  # also fills the graph's and layout's caches
        with mock.patch.object(io_formats, "_DOT_PIECE_LINES", 64), \
                open(os.devnull, "wb") as sink:
            tracemalloc.start()
            try:
                export_dot(h, lay, out=sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the whole text, joined and encoded, peaks at about 3x its length
        assert peak < size // 4


class TestCliPipeline:
    def test_gen_solve_verify(self, tmp_path):
        inst = tmp_path / "k4.json"
        lay = tmp_path / "k4.layout.json"
        assert main(["gen", "--family", "wheel", "--spokes", "3", "-o", str(inst)]) == 0
        assert main(
            ["solve", "--method", "rearrange", "-i", str(inst), "-o", str(lay)]
        ) == 0
        assert main(["verify", "-i", str(inst), "-l", str(lay), "--oracle"]) == 0

    def test_solve_methods_agree(self, tmp_path, capsys):
        inst = tmp_path / "w5.json"
        main(["gen", "--family", "wheel", "--spokes", "4", "-o", str(inst)])
        costs = {}
        for method in ("oracle", "rearrange", "direct"):
            out = tmp_path / f"{method}.json"
            assert main(["solve", "--method", method, "-i", str(inst), "-o", str(out)]) == 0
            costs[method] = capsys.readouterr().out
        assert all("total=14" in text for text in costs.values())

    def test_cost_and_bound(self, tmp_path, capsys):
        inst = tmp_path / "w5.json"
        lay = tmp_path / "w5.layout.json"
        main(["gen", "--family", "wheel", "--spokes", "4", "-o", str(inst)])
        main(["solve", "--method", "direct", "-i", str(inst), "-o", str(lay)])
        capsys.readouterr()
        assert main(["cost", "-i", str(inst), "-l", str(lay)]) == 0
        assert "total=14 tree=6 cycle=8" in capsys.readouterr().out
        assert main(["bound", "-i", str(inst), "--oracle"]) == 0
        assert capsys.readouterr().out.strip() == "14"

    @pytest.mark.parametrize("method", ["direct", "rearrange"])
    def test_solve_prices_its_layout_once(self, method, tmp_path, capsys, monkeypatch):
        # the cost line is the report of the solver's own bound check, so
        # the cycle is walked once; it reads as ``cost`` prints it
        inst, lay = tmp_path / "k5.json", tmp_path / "k5.layout.json"
        main(["gen", "--family", "kary", "--k", "3", "--c", "2", "--h", "5", "-o", str(inst)])
        real, calls = HalinGraph.cycle_pairs, []
        monkeypatch.setattr(HalinGraph, "cycle_pairs", lambda h: calls.append(h) or real(h))
        capsys.readouterr()
        assert main(["solve", "--method", method, "-i", str(inst), "-o", str(lay)]) == 0
        assert len(calls) == 1
        printed = capsys.readouterr().out.splitlines()[-1]
        assert main(["cost", "-i", str(inst), "-l", str(lay)]) == 0
        assert capsys.readouterr().out.splitlines() == [printed]

    def test_verify_exit_3_on_suboptimal(self, tmp_path):
        inst = tmp_path / "w5.json"
        bad = tmp_path / "bad.layout.json"
        main(["gen", "--family", "wheel", "--spokes", "4", "-o", str(inst)])
        bad.write_bytes(serialize_layout(Layout((0, 1, 2, 3, 4))))  # hub first
        assert main(["verify", "-i", str(inst), "-l", str(bad), "--oracle"]) == 3

    def test_missing_file_exit_2(self, tmp_path):
        assert main(
            ["solve", "--method", "direct", "-i", str(tmp_path / "nope.json"),
             "-o", str(tmp_path / "x.json")]
        ) == 2

    def test_usage_exit_1(self, tmp_path):
        assert main(["gen", "--family", "wheel", "-o", str(tmp_path / "x.json")]) == 1
        assert main(
            ["gen", "--family", "wheel", "--spokes", "2", "-o", str(tmp_path / "x")]
        ) == 1

    @pytest.mark.parametrize("argv,parser", [
        (["solve", "-h"], "solve"), (["verify", "--help"], "verify"),
        (["cost", "--h"], "cost"), (["--help"], None)])
    def test_help_returns_0(self, argv, parser, capsys):
        # help is printed and main returns, instead of raising SystemExit
        top = cli.build_parser()
        if parser is not None:
            top = top._subparsers._group_actions[0].choices[parser]
        assert main(argv) == 0
        assert capsys.readouterr() == (top.format_help(), "")

    def test_gen_flags_pinned(self):
        # rendered help varies with the Python version and COLUMNS; the
        # actions it is rendered from do not
        gen = cli.build_parser()._subparsers._group_actions[0].choices["gen"]
        assert [(a.option_strings, a.type, a.help, a.choices, a.required)
                for a in gen._actions] == [
            (["-h", "--help"], None, "show this help message and exit", None, False),
            (["--family"], None, None, ["wheel", "kary", "caterpillar", "random"], True),
            (["--spokes"], int, None, None, False),
            (["--k"], int, None, None, False),
            (["--c"], int, None, None, False),
            (["--h"], int, None, None, False),
            (["--spine"], int, None, None, False),
            (["--leaves"], None, "comma-separated leaf counts per spine vertex", None, False),
            (["--n"], int, None, None, False),
            (["--seed"], int, "random only; defaults to 0", None, False),
            (["-o", "--output"], None, None, None, True)]

    def test_proptest_corpus_help_pinned(self):
        proptest = cli.build_parser()._subparsers._group_actions[0].choices["proptest"]
        [corpus] = [a for a in proptest._actions if a.dest == "corpus"]
        assert corpus.help == (
            '"standard", or ";"-separated entries, each one of wheel=S or wheel=LO..HI, '
            'kary=K,C,H, caterpillar=SPINE:L0,L1,..., random=N[,COUNT[,SEED0]] '
            '(e.g. "wheel=3..8;caterpillar=2:2,2;random=7,5,100"), 10000 instances at most')

    @pytest.mark.parametrize("argv,digest", [
        (["wheel", "--spokes", "5"],
         "ae268c27e7a1c40c233756447c5a3bc16b3c3ea4b458d3a064f80f427d0b6635"),
        (["kary", "--k", "3", "--c", "2", "--h", "3"],
         "62d7a895ceb983e6b2cf2f02e67cbc9f1ad34233288c0d729af35dcd9910698c"),
        (["caterpillar", "--spine", "3", "--leaves", "3,2,4"],
         "fc5c2cfba02997e375ab9b1b665b627755460ad7fb88dd159eaf185c7520cc7d"),
        (["random", "--n", "30", "--seed", "7"],
         "50acb5f8e681a48298b078a79cc81d8e4fd535f0df5298515d0b2d657fbfb1a0")],
        ids=["wheel", "kary", "caterpillar", "random"])
    def test_gen_file_and_stdout_digest(self, argv, digest, tmp_path, capsys, monkeypatch):
        # the file's bytes, then gen's stdout, which names the file by its
        # relative path
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--family", *argv, "-o", "x.json"]) == 0
        data = (tmp_path / "x.json").read_bytes() + capsys.readouterr().out.encode()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("family,message", [
        ("wheel", "--spokes"), ("kary", "--k, --c and --h"),
        ("caterpillar", "--spine and --leaves"), ("random", "--n")])
    def test_gen_requires_options(self, family, message, tmp_path, capsys):
        assert main(["gen", "--family", family, "-o", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err == f"error: gen --family {family} requires {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["wheel", "--spokes", "3", "--seed", "5", "--k", "9"], "--k and --seed"),
        (["wheel", "--spokes", "3", "--seed", "0"], "--seed"),
        (["kary", "--k", "3", "--c", "2", "--h", "2", "--spokes", "4", "--n", "7"],
         "--spokes and --n"),
        (["caterpillar", "--spine", "2", "--leaves", "2,2", "--h", "1"], "--h"),
        (["random", "--n", "7", "--seed", "1", "--spine", "2", "--leaves", "2,2"],
         "--spine and --leaves")])
    def test_gen_refuses_options_of_other_families(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["gen", "--family", *argv, "-o", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: gen --family {argv[0]} does not take {message}\n")
        assert not out.exists()

    def test_gen_random_seed_defaults_to_0(self, tmp_path):
        unset, zero = tmp_path / "unset.json", tmp_path / "zero.json"
        assert main(["gen", "--family", "random", "--n", "9", "-o", str(unset)]) == 0
        assert main(["gen", "--family", "random", "--n", "9", "--seed", "0",
                     "-o", str(zero)]) == 0
        assert unset.read_bytes() == zero.read_bytes()
        assert instance_metadata(unset.read_bytes())["genSpec"]["seed"] == 0

    def test_gen_caterpillar_count_mismatch(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["gen", "--family", "caterpillar", "--spine", "3", "--leaves", "2,2",
                     "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: need one leaf count per spine vertex: 3 != 2\n")
        assert not out.exists()

    def test_json_diagnostics_on_stderr(self, tmp_path, capsys):
        code = main(
            ["--json", "gen", "--family", "wheel", "--spokes", "2",
             "-o", str(tmp_path / "x")]
        )
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "BadParam"
        assert payload["exitCode"] == 1

    @pytest.mark.parametrize("argv,message", [
        (["bound"], "the following arguments are required: -i/--input"),
        (["gen", "--family", "wheel", "-o", "x.json"], "gen --family wheel requires --spokes"),
    ], ids=["argparse", "handler"])
    def test_usage_errors_are_bad_param(self, argv, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--json", *argv]) == 1
        text, payload = capsys.readouterr().err.splitlines()
        assert text == f"error: {message}"
        assert json.loads(payload) == {"error": "BadParam", "message": message,
                                       "exitCode": 1}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("process_argv,argv,as_json", [
        (["prog", "--json"], ["gen"], False),
        (["prog", "--json", "gen"], None, True),
        (["prog"], ["--json", "gen"], True),
    ])
    def test_json_flag_read_from_parsed_arguments(self, process_argv, argv, as_json,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", process_argv)
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: ")
        assert len(err) == (2 if as_json else 1)
        if as_json:
            assert json.loads(err[1])["exitCode"] == 1

    def test_gen_above_ceiling_exit_1(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["gen", "--family", "kary", "--k", "3", "--c", "2", "--h", "40",
                     "-o", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: kary instance would exceed")
        assert not out.exists()

    def test_files_round_trip_byte_exact(self, tmp_path):
        inst = tmp_path / "r.json"
        main(["gen", "--family", "random", "--n", "8", "--seed", "5", "-o", str(inst)])
        data = inst.read_bytes()
        h = parse_instance(data)
        meta = instance_metadata(data)
        assert serialize_instance(h, metadata=meta) == data

    def test_export_dot_cli(self, tmp_path):
        inst = tmp_path / "k4.json"
        dot = tmp_path / "k4.dot"
        main(["gen", "--family", "wheel", "--spokes", "3", "-o", str(inst)])
        assert main(["export-dot", "-i", str(inst), "-o", str(dot)]) == 0
        assert dot.read_text().startswith("graph halin {")
        main(["gen", "--family", "kary", "--k", "3", "--c", "2", "--h", "3", "-o", str(inst)])
        lay = tmp_path / "k.layout.json"
        main(["solve", "--method", "direct", "-i", str(inst), "-o", str(lay)])
        assert main(["export-dot", "-i", str(inst), "-l", str(lay), "-o", str(dot)]) == 0
        h = parse_instance(inst.read_bytes())
        assert dot.read_bytes() == export_dot(h, parse_layout(lay.read_bytes())).encode()

    def test_proptest_small_corpus(self, capsys):
        assert main(["proptest", "--corpus", "wheel=3..4"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    @pytest.mark.parametrize("entry,name", [
        ("kary=3,2,2", "kary(k=3,c=2,h=2)"),
        ("caterpillar=2:2,2", "caterpillar(spine=2,l0=2,l1=2)")])
    def test_proptest_kary_and_caterpillar_entries(self, entry, name, capsys):
        assert main(["proptest", "--corpus", entry]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out[2:-1]] == [name]
        assert out[-1] == "overall: PASS"

    def test_blank_corpus_entry_skipped(self, capsys):
        assert main(["proptest", "--corpus", "wheel=3; ;wheel=4"]) == 0
        blank = capsys.readouterr()
        assert main(["proptest", "--corpus", "wheel=3;wheel=4"]) == 0
        assert blank == capsys.readouterr()
        assert blank.out.count("wheel(") == 2

    def test_unknown_corpus_family_exit_1(self, capsys):
        assert main(["proptest", "--corpus", "wheel=3;star=3"]) == 1
        assert capsys.readouterr() == ("", "error: unknown corpus family 'star'\n")

    @pytest.mark.parametrize("entry", [
        "wheel=x", "wheel=3..x", "kary=3,2", "caterpillar=3", "caterpillar=x:2,2",
        "random=", "random=7,1,0,9", "wheel"])
    def test_malformed_corpus_entry_exit_1(self, entry, capsys):
        assert main(["proptest", "--corpus", entry]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad corpus entry {entry!r} (expected ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv,text", [
        (["proptest", "--corpus", "random=7,,5"], "7,,5"),
        (["proptest", "--corpus", "kary=3,,2,2"], "3,,2,2"),
        (["gen", "--family", "caterpillar", "--spine", "2", "--leaves", ",2,,3,"],
         ",2,,3,")])
    def test_empty_integer_field_exit_1(self, argv, text, tmp_path, capsys):
        # an empty field is a typo: skipping it would change the request
        out = tmp_path / "x.json"
        if argv[0] == "gen":
            argv = argv + ["-o", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: expected comma-separated integers, got {text!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("entry,seeds", [
        ("random=7", [0]), ("random=7,2", [1, 2]), ("random=7,2,5", [5, 6])])
    def test_random_corpus_entry_defaults(self, entry, seeds, capsys):
        assert main(["--json", "proptest", "--corpus", entry]) == 0
        names = [e["name"] for e in json.loads(capsys.readouterr().out)["instances"]]
        assert names == [f"random(n=7)#seed={s}" for s in seeds]

    def test_rearrange_with_explicit_tree_layout(self, tmp_path):
        from halin_ola import rbt_ola, scramble_tree_ola

        inst = tmp_path / "t.json"
        tl = tmp_path / "tree.layout.json"
        out = tmp_path / "out.layout.json"
        main(["gen", "--family", "kary", "--k", "3", "--c", "2", "--h", "2",
              "-o", str(inst)])
        h = parse_instance(inst.read_bytes())
        scrambled = scramble_tree_ola(h.tree, rbt_ola(h.tree), seed=3)
        tl.write_bytes(serialize_layout(scrambled))
        assert main(
            ["solve", "--method", "rearrange", "-i", str(inst), "-t", str(tl),
             "-o", str(out)]
        ) == 0
        assert main(["verify", "-i", str(inst), "-l", str(out), "--oracle"]) == 0

    def test_rearrange_without_tree_layout_builds_it_once(self, tmp_path, capsys,
                                                          monkeypatch):
        # without -t the walk starts from the layout rbt_ola built to price
        # the optimum: the same bytes as -t on solve --method rbt's layout
        from halin_ola import halin_arrange

        inst, tl = tmp_path / "k.json", tmp_path / "rbt.layout.json"
        given, built = tmp_path / "given.layout.json", tmp_path / "built.layout.json"
        main(["gen", "--family", "kary", "--k", "3", "--c", "2", "--h", "4",
              "-o", str(inst)])
        main(["solve", "--method", "rbt", "-i", str(inst), "-o", str(tl)])
        capsys.readouterr()
        assert main(["solve", "--method", "rearrange", "-i", str(inst), "-t", str(tl),
                     "-o", str(given)]) == 0
        want = capsys.readouterr().out
        calls = []

        def counted(tree, stats=None):
            calls.append(tree.n)
            return real(tree, stats)

        real = halin_arrange.rbt_ola
        monkeypatch.setattr(halin_arrange, "rbt_ola", counted)
        monkeypatch.setattr(cli, "rbt_ola", counted)
        assert main(["solve", "--method", "rearrange", "-i", str(inst),
                     "-o", str(built)]) == 0
        assert capsys.readouterr().out == want
        assert built.read_bytes() == given.read_bytes()
        assert calls == [46]

    def test_bound_rejects_negative_tree_opt(self, tmp_path, capsys):
        inst = tmp_path / "w5.json"
        main(["gen", "--family", "wheel", "--spokes", "4", "-o", str(inst)])
        capsys.readouterr()
        assert main(["bound", "-i", str(inst), "--tree-opt", "-100"]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: --tree-opt must be >= 0, got -100\n")
        assert main(["bound", "-i", str(inst), "--tree-opt", "6"]) == 0
        assert capsys.readouterr().out == "14\n"

    @pytest.mark.parametrize("value", [0, 3])
    def test_bound_rejects_tree_opt_below_edge_count(self, value, tmp_path, capsys):
        # each of the n - 1 = 4 tree edges of W5 costs at least 1
        inst = tmp_path / "w5.json"
        main(["gen", "--family", "wheel", "--spokes", "4", "-o", str(inst)])
        capsys.readouterr()
        assert main(["bound", "-i", str(inst), "--tree-opt", str(value)]) == 1
        assert capsys.readouterr() == ("", f"error: --tree-opt {value} is below n-1 = 4, "
                                           "the least cost of any tree layout\n")
        assert main(["bound", "-i", str(inst), "--tree-opt", "4"]) == 0
        assert capsys.readouterr().out == "12\n"

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--method", "oracle", "-i", "k4", "-o", "out", "--limit", "-5"],
         "--limit must be >= 0, got -5"),
        (["bound", "-i", "k4", "--oracle", "--limit", "-1"], "--limit must be >= 0, got -1"),
        (["verify", "-i", "k4", "-l", "k4", "--limit", "-1"], "--limit must be >= 0, got -1"),
        (["proptest", "--corpus", "wheel=3", "--oracle-limit", "-1"],
         "--oracle-limit must be >= 0, got -1"),
    ], ids=["solve", "bound", "verify", "proptest"])
    def test_negative_count_refused_before_input(self, argv, message, tmp_path, capsys,
                                                 monkeypatch):
        reads = []
        monkeypatch.setattr(cli, "_read", reads.append)
        argv = [str(tmp_path / a) if a in ("k4", "out") else a for a in argv]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert reads == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["direct", "rbt", "oracle"])
    def test_tree_layout_only_with_rearrange(self, method, tmp_path, capsys, monkeypatch):
        inst, out = tmp_path / "k4.json", tmp_path / "out.json"
        main(["gen", "--family", "wheel", "--spokes", "3", "-o", str(inst)])
        capsys.readouterr()
        reads = []
        monkeypatch.setattr(cli, "_read", reads.append)
        assert main(["solve", "--method", method, "-i", str(inst),
                     "-t", str(tmp_path / "missing.json"), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: -t/--tree-layout applies only to --method rearrange\n")
        assert reads == [] and not out.exists()

    def test_tree_optimum_refusal_names_only_own_options(self, tmp_path, capsys):
        # a random instance whose tree is not recursively balanced, with n
        # above the default oracle limit of 10
        inst = tmp_path / "r.json"
        lay = tmp_path / "r.layout.json"
        assert main(["gen", "--family", "random", "--n", "30", "--seed", "1",
                     "-o", str(inst)]) == 0
        n = parse_instance(inst.read_bytes()).n
        lay.write_bytes(serialize_layout(Layout(tuple(range(n)))))
        capsys.readouterr()
        head = "error: tree is not recursively balanced and too large for the oracle; "
        fact = f"n={n} exceeds --limit 10"
        assert main(["bound", "-i", str(inst)]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", head + fact + "; pass --tree-opt\n")
        assert "--oracle" not in out.err
        assert main(["verify", "-i", str(inst), "-l", str(lay)]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", head + fact + "\n")
        assert "--tree-opt" not in out.err

    def test_rearrange_rejects_layout_without_equal_blocks(self, tmp_path, capsys):
        # an optimal tree layout of kary(3,2,2) (cost 15) whose root block
        # does not split into equal child slots
        inst = tmp_path / "t.json"
        tl = tmp_path / "tree.layout.json"
        assert main(["gen", "--family", "kary", "--k", "3", "--c", "2", "--h", "2",
                     "-o", str(inst)]) == 0
        tl.write_bytes(serialize_layout(Layout((8, 3, 9, 4, 0, 1, 5, 2, 6, 7))))
        capsys.readouterr()
        assert main(["solve", "--method", "rearrange", "-i", str(inst), "-t", str(tl),
                     "-o", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == (
            "error: subtree of 0 does not split into equal blocks around it\n")

    def test_proptest_standard_corpus(self, capsys):
        assert main(["proptest"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_proptest_standard_corpus_digest(self, capsys):
        # pinned before run_suite reused verdicts across endpoint and mirror pairs
        assert main(["--json", "proptest"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "bce10ad998291ec4a2540df2705c7411f7025e1fec4e697ab6b025b7e29010c3"
        )

    @pytest.mark.parametrize("entry", [
        "random=9,100000000", "wheel=3..100000000", ";".join(["random=9,1000"] * 11),
        "wheel=3;" * 10_001, "random=9," + "9" * 30],
        ids=["random", "wheel", "eleven-entries", "ten-thousand-one-entries", "beyond-ssize"])
    def test_corpus_above_cap_exit_1(self, entry, capsys):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                _parse_corpus(entry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert main(["proptest", "--corpus", entry]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corpus asks for ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_corpus_cap_boundary(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_CORPUS_INSTANCES", 3)
        assert main(["proptest", "--corpus", "wheel=3..4;random=7"]) == 0
        capsys.readouterr()
        assert main(["proptest", "--corpus", "wheel=3..4;random=7,2"]) == 1
        assert capsys.readouterr().err == (
            "error: corpus asks for 4 instances; proptest takes at most 3\n")

    def test_limit_reaches_tree_optimum(self, tmp_path, capsys):
        # n = 12, a non-balanced tree, so the tree optimum needs the oracle
        inst = tmp_path / "cat.json"
        lay = tmp_path / "cat.layout.json"
        main(["gen", "--family", "caterpillar", "--spine", "3", "--leaves", "3,2,4",
              "-o", str(inst)])
        assert main(["solve", "--method", "oracle", "--limit", "14", "-i", str(inst),
                     "-o", str(lay)]) == 0
        capsys.readouterr()
        for argv in (["bound", "--oracle", "-i", str(inst)],
                     ["verify", "--oracle", "-i", str(inst), "-l", str(lay)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == "error: n=12 exceeds oracle limit 10\n"
        assert main(["bound", "--oracle", "--limit", "14", "-i", str(inst)]) == 0
        assert capsys.readouterr().out == "41\n"
        assert main(["verify", "--oracle", "--limit", "14", "-i", str(inst),
                     "-l", str(lay)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["verdict"], payload["oracleOptimum"], payload["lowerBound"]) == (
            "optimal", 41, 41)

    def test_oracle_commands_parity_digest(self, tmp_path, capsys):
        # exit codes, stdout, stderr and layout bytes of every oracle-backed
        # command, pinned byte for byte; random seed 19 is n = 11, over the limit
        gens = [["--family", "wheel", "--spokes", str(s)] for s in range(3, 10)]
        gens += [["--family", "random", "--n", "9", "--seed", str(s)] for s in range(18, 22)]
        rows = []

        def run(argv, output=None):
            code = main(argv)
            out = capsys.readouterr()
            data = output.read_bytes() if output is not None and output.exists() else None
            rows.append((argv[0], code, out.out, out.err, data))

        for i, spec in enumerate(gens):
            inst, lay = tmp_path / f"{i}.json", tmp_path / f"{i}.layout.json"
            main(["gen", *spec, "-o", str(inst)])
            capsys.readouterr()
            run(["solve", "--method", "oracle", "-i", str(inst), "-o", str(lay)], lay)
            if lay.exists():
                run(["verify", "--oracle", "-i", str(inst), "-l", str(lay)])
            run(["bound", "--oracle", "-i", str(inst)])
        run(["--json", "proptest", "--corpus", "wheel=3..9;random=9,4,18"])
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "8e3d95ec5540696b786622361b9bc1013d0991b6b693a458940456bbced3c453"
        )

    def _wheels_with_layouts(self, tmp_path):
        paths = {}
        for name, spokes in (("k4", 3), ("w5", 4)):
            inst = tmp_path / f"{name}.json"
            lay = tmp_path / f"{name}.layout.json"
            main(["gen", "--family", "wheel", "--spokes", str(spokes), "-o", str(inst)])
            main(["solve", "--method", "direct", "-i", str(inst), "-o", str(lay)])
            paths[name] = (inst, lay)
        return paths

    def test_rearrange_rejects_layout_of_wrong_size(self, tmp_path):
        paths = self._wheels_with_layouts(tmp_path)
        out = tmp_path / "out.layout.json"
        assert main(
            ["solve", "--method", "rearrange", "-i", str(paths["w5"][0]),
             "-t", str(paths["k4"][1]), "-o", str(out)]
        ) == 2
        assert not out.exists()

    def test_export_dot_rejects_layout_of_wrong_size(self, tmp_path):
        paths = self._wheels_with_layouts(tmp_path)
        out = tmp_path / "out.dot"
        assert main(
            ["export-dot", "-i", str(paths["k4"][0]), "-l", str(paths["w5"][1]),
             "-o", str(out)]
        ) == 2
        assert not out.exists()

    def test_deeply_nested_json_exit_2(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        lay = tmp_path / "lay.json"
        lay.write_bytes(serialize_layout(Layout((0, 1, 2, 3))))
        assert main(["cost", "-i", str(deep), "-l", str(lay)]) == 2
