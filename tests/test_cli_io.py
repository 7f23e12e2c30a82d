import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halin_ola import (
    InvalidSubstrate,
    Layout,
    ParseError,
    SchemaVersionUnsupported,
    build_embedded_tree,
    export_dot,
    gen_random_halin,
    gen_wheel,
    halin_from_tree,
    instance_metadata,
    parse_instance,
    parse_layout,
    serialize_instance,
    serialize_layout,
)
from halin_ola.cli import main


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
        assert parse_instance(data, strict=False).n == 4

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


def _reference_dot(h, layout=None) -> str:
    lines = ["graph halin {"]
    for v in range(h.n):
        lines.append(f"  {v};" if layout is None else f'  {v} [label="{v}:{layout.position(v)}"];')
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

    def test_proptest_small_corpus(self, capsys):
        assert main(["proptest", "--corpus", "wheel=3..4"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

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

    def test_proptest_standard_corpus(self, capsys):
        assert main(["proptest"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

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
