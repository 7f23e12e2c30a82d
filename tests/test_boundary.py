"""Every input at the package's boundary ends in a result or a typed error.

``parse_instance`` and ``parse_layout`` get arbitrary bytes and
schema-shaped JSON with wrong types; ``cli.main`` gets argument lists drawn
from the CLI grammar.  The generator and corpus ceilings are patched low so
that no drawn number builds anything large.
"""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halin_ola import (
    HalinGraph,
    HalinOlaError,
    Layout,
    ParseError,
    gen_random_halin,
    gen_wheel,
    generators,
    parse_instance,
    parse_layout,
    serialize_instance,
    serialize_layout,
    validate_halin_substrate,
)
from halin_ola import cli

# JSON tokens as text, so that bools, floats, huge and over-long integers
# can all stand where an integer belongs
_HUGE = "9" * 4301  # past the digits int() converts by default
_INT_TOKENS = ["-1", "0", "1", "2", "3", "4", "5", "9", str(10**20), str(-10**20), _HUGE]
_tokens = st.one_of(
    st.sampled_from(_INT_TOKENS), st.integers(-3, 12).map(str),
    st.sampled_from(["true", "false", "null", "1.0", "-0.0", "1e400", '"0"', "[]", "{}"]),
)
_KEYS = ["0", "1", "2", "3", "4", "5", "00", " 1", "-1", "+1", "1.0", "1_0", "١",
         "", str(10**20), _HUGE]


def _array(items):
    return "[" + ", ".join(items) + "]"


def _object(pairs):
    return "{" + ", ".join(f'"{key}": {value}' for key, value in pairs) + "}"


_int_arrays = st.lists(_tokens, max_size=6).map(_array)
_child_maps = st.lists(st.tuples(st.sampled_from(_KEYS), _int_arrays),
                       max_size=5).map(_object)
_trees = st.tuples(_tokens, _child_maps | _tokens).map(
    lambda rc: _object([("root", rc[0]), ("children", rc[1])]))
_instance_docs = st.lists(st.one_of(
    st.tuples(st.just("schemaVersion"), _tokens),
    st.tuples(st.just("tree"), _trees | _tokens),
    st.tuples(st.just("metadata"), _tokens),
    st.tuples(st.just("extra"), _tokens),
), max_size=4).map(_object)
_layout_docs = st.lists(st.one_of(
    st.tuples(st.just("schemaVersion"), _tokens),
    st.tuples(st.just("vertexAt"), _int_arrays | _tokens),
    st.tuples(st.just("extra"), _tokens),
), max_size=3).map(_object)


# a valid star and a valid layout with one entry drawn as a token, so that
# near-valid documents, and valid ones, are drawn often
def _one_replaced(items):
    return st.tuples(st.integers(0, len(items) - 1), _tokens).map(
        lambda it: _array(items[:it[0]] + [it[1]] + items[it[0] + 1:]))


_near_instances = _one_replaced(["1", "2", "3"]).map(
    lambda kids: _object([("schemaVersion", "1"), ("tree", _object([
        ("root", "0"), ("children", _object([("0", kids)]))]))]))
_near_layouts = _one_replaced(["0", "1", "2", "3", "4"]).map(
    lambda vertex_at: _object([("schemaVersion", "1"), ("vertexAt", vertex_at)]))


def _parsed_or_typed_error(parse, data):
    try:
        return parse(data)
    except HalinOlaError:
        return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), _instance_docs.map(str.encode),
                 _near_instances.map(str.encode)))
def test_parse_instance_result_or_typed_error(data):
    h = _parsed_or_typed_error(parse_instance, data)
    if h is not None:
        assert isinstance(h, HalinGraph)
        assert validate_halin_substrate(h.tree) == []
        assert parse_instance(serialize_instance(h)) == h


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), _layout_docs.map(str.encode),
                 _near_layouts.map(str.encode)))
def test_parse_layout_result_or_typed_error(data):
    layout = _parsed_or_typed_error(parse_layout, data)
    if layout is not None:
        assert isinstance(layout, Layout)
        assert sorted(layout.vertex_at) == list(range(layout.n))
        assert parse_layout(serialize_layout(layout)) == layout


@pytest.mark.parametrize("data", [
    b'{"schemaVersion": 1, "vertexAt": [' + _HUGE.encode() + b"]}",
    b'{"schemaVersion": 1, "tree": {"root": ' + _HUGE.encode() + b', "children": {}}}',
    _HUGE.encode(),
], ids=["layout", "instance", "bare"])
def test_over_long_integer_is_a_parse_error(data):
    for parse in (parse_instance, parse_layout):
        with pytest.raises(ParseError, match="4300 digits"):
            parse(data)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Small instance and layout files, and paths that cannot be read."""
    d = tmp_path_factory.mktemp("boundary")
    paths = {"dir": str(d), "missing": str(d / "missing.json"),
             "out": str(d / "out.json"), "bad": str(d / "bad.json"),
             "missing_dir": str(d / "nowhere" / "out.json")}
    (d / "bad.json").write_bytes(b'{"schemaVersion": 1, "vertexAt": [0, 0]}')
    for name, h in (("w4", gen_wheel(3)), ("r7", gen_random_halin(7, seed=3))):
        paths[name] = str(d / f"{name}.json")
        (d / f"{name}.json").write_bytes(serialize_instance(h))
        paths[f"{name}.layout"] = str(d / f"{name}.layout.json")
        (d / f"{name}.layout.json").write_bytes(
            serialize_layout(Layout(tuple(range(h.n)))))
    return paths


_NUMBERS = ["-1", "0", "1", "2", "3", "4", "7", str(10**20 - 1), "x"]
_INPUTS = ["w4", "r7", "missing", "dir", "bad"]
_LAYOUTS = ["w4.layout", "r7.layout", "missing", "dir", "bad"]
_OUTPUTS = ["out", "dir", "missing_dir"]
_CORPORA = ["wheel=3..5", "wheel=-1..20", "kary=3,2,1", "kary=3,2",
            "caterpillar=2:2,2", "caterpillar=x", "random=6,2", f"random=5,{10**20}",
            "random=7,1,-1", "wheel=3;random=5", "bogus=1", ";", ""]

# per subcommand, each option and the values it draws; None marks a flag
_GRAMMAR = {
    "gen": {"--family": ["wheel", "kary", "caterpillar", "random", "star"],
            "--spokes": _NUMBERS, "--k": _NUMBERS, "--c": _NUMBERS, "--h": _NUMBERS,
            "--spine": _NUMBERS, "--leaves": ["2,2", "2,2,2", "", "x", "-1,3",
                                              f"{10**20},2"],
            "--n": _NUMBERS, "--seed": _NUMBERS, "-o": _OUTPUTS},
    "solve": {"--method": ["oracle", "rbt", "rearrange", "direct", "greedy"],
              "-i": _INPUTS, "-t": _LAYOUTS, "-o": _OUTPUTS, "--limit": _NUMBERS},
    "cost": {"-i": _INPUTS, "-l": _LAYOUTS},
    "bound": {"-i": _INPUTS, "--tree-opt": _NUMBERS, "--oracle": None,
              "--limit": _NUMBERS},
    "verify": {"-i": _INPUTS, "-l": _LAYOUTS, "--oracle": None, "--limit": _NUMBERS},
    "proptest": {"--corpus": _CORPORA, "--oracle-limit": _NUMBERS},
    "export-dot": {"-i": _INPUTS, "-l": _LAYOUTS, "-o": _OUTPUTS},
}


@st.composite
def _argv(draw):
    """Symbolic arguments: a file's name stands for its path."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    options = _GRAMMAR[command]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    if command == "proptest" and "--corpus" not in chosen:
        chosen.append("--corpus")  # the default, the standard corpus, is slow here
    argv = draw(st.sampled_from([[], ["--json"]])) + [command]
    for option in draw(st.permutations(chosen)):
        argv.append(option)
        if options[option] is not None:
            argv.append(draw(st.sampled_from(options[option])))
    return argv + draw(st.sampled_from([[], [], ["-h"], ["--bogus"]]))


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_exit_code_without_traceback(files, argv):
    real = [files.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(generators, "MAX_GEN_N", 9), \
            mock.patch.object(cli, "MAX_CORPUS_INSTANCES", 3), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(real)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
