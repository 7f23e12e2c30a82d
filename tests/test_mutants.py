"""The mutation runner's listing, checked without running any mutant."""

import ast
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_mutant_rewrites_one_site_of_the_named_function():
    path, func = mutants.find_function("_structural_verdict")
    source = path.read_text()
    listed = mutants.mutants(path, func)
    assert [what for _, what, _ in listed] == [
        "0 -> 1", "< -> <=", "> -> >=", "> -> >=", "> -> >=", "1 -> 2", "< -> <=", "1 -> 2"]
    def others(module):  # every top-level statement but the named function
        return [ast.dump(node) for node in ast.parse(module).body
                if getattr(node, "name", None) != func]

    for _, _, mutated in listed:
        assert ast.dump(ast.parse(mutated)) != ast.dump(ast.parse(source))
        assert others(mutated) == others(source)
    assert path.read_text() == source


def test_nested_function_keeps_its_indentation():
    # leaf_extreme is nested in check_extremes_are_leaves; its one site is a not
    path, func = mutants.find_function("leaf_extreme")
    (line, what, mutated), = mutants.mutants(path, func)
    old = path.read_text().splitlines()
    new = mutated.splitlines()
    assert what == "not dropped" and len(new) == len(old)
    assert [(a, b) for a, b in zip(old, new) if a != b] == [(
        "        return not children[cur.vertex_at[extreme]]",
        "        return children[cur.vertex_at[extreme]]")]
    assert old[line - 1].strip().startswith("return not")


@pytest.mark.parametrize("name", ["no_such_function", "__post_init__"])
def test_a_name_must_pick_one_function(name):
    with pytest.raises(SystemExit, match="name exactly one"):
        mutants.find_function(name)


@pytest.mark.parametrize("name", ["graph_core:__post_init__", "tree_ola:no_such_function"])
def test_a_module_qualified_name_must_pick_one_function(name):
    # EmbeddedTree and HalinGraph both define __post_init__ in graph_core
    with pytest.raises(SystemExit, match="name exactly one"):
        mutants.find_function(name)


@pytest.mark.parametrize("cls", ["EmbeddedTree", "HalinGraph"])
def test_a_class_picks_its_method(cls):
    path, func = mutants.find_function(f"graph_core:{cls}.__post_init__")
    assert (path.stem, func) == ("graph_core", f"{cls}.__post_init__")
    assert mutants.find_function(f"{cls}.__post_init__") == (path, func)


def test_only_the_picked_method_is_mutated():
    # EmbeddedTree's __post_init__ comes first in the module, so a first
    # match would mutate it whichever class was named
    path, func = mutants.find_function("graph_core:HalinGraph.__post_init__")
    assert mutants.mutants(path, func) == []  # its one test is a truth test

    path, func = mutants.find_function("graph_core:EmbeddedTree.__post_init__")
    source = path.read_text()

    def dumps(module):  # each class member and top-level statement but the method
        out = []
        for node in ast.parse(module).body:
            members = node.body if getattr(node, "name", None) == "EmbeddedTree" else [node]
            out += [ast.dump(m) for m in members if getattr(m, "name", None) != "__post_init__"]
        return out

    listed = mutants.mutants(path, func)
    assert listed
    for _, _, mutated in listed:
        assert ast.dump(ast.parse(mutated)) != ast.dump(ast.parse(source))
        assert dumps(mutated) == dumps(source)


def test_an_outer_function_qualifies_a_nested_one():
    assert (mutants.find_function("check_extremes_are_leaves.leaf_extreme")
            == mutants.find_function("leaf_extreme"))
    assert mutants.find_function("leaf_extreme")[1] == "check_extremes_are_leaves.leaf_extreme"
