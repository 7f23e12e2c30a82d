"""Value semantics of the package's record types.

Every record type is built here from known field values and checked for
its repr text, equality and hashing over the compared fields only,
immutability when frozen, keyword and positional construction, and the
construction-time checks of ``__post_init__``.  The repr strings are
literals, so a change to their format shows here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from halin_ola import (
    ArrangementReport,
    EmbeddedTree,
    GenSpec,
    HalinGraph,
    InstanceReport,
    Layout,
    OlaCertificate,
    OracleResult,
    RbtCertificate,
    SimpleGraph,
    SuiteReport,
    SwapStep,
    SwapTrace,
    build_embedded_tree,
)

STAR = build_embedded_tree(0, {0: [1, 2, 3]})

# (type, field values in declaration order, a second value set that differs
#  in one compared field, repr of the first, frozen)
RECORDS = [
    (EmbeddedTree,
     dict(root=0, children=((1, 2, 3), (), (), ())),
     dict(root=0, children=((1, 3, 2), (), (), ())),
     "EmbeddedTree(root=0, children=((1, 2, 3), (), (), ()))",
     True),
    (HalinGraph,
     dict(tree=STAR),
     dict(tree=build_embedded_tree(0, {0: [3, 2, 1]})),
     "HalinGraph(tree=EmbeddedTree(root=0, children=((1, 2, 3), (), (), ())))",
     True),
    (GenSpec,
     dict(family="random", params=(("n", 9),), seed=4),
     dict(family="random", params=(("n", 9),), seed=5),
     "GenSpec(family='random', params=(('n', 9),), seed=4)",
     True),
    (SimpleGraph,
     dict(n=3, edge_pairs=((0, 1), (1, 2))),
     dict(n=3, edge_pairs=((0, 1), (0, 2))),
     "SimpleGraph(n=3, edge_pairs=((0, 1), (1, 2)))",
     True),
    (RbtCertificate,
     dict(verdict=True),
     dict(verdict=False),
     "RbtCertificate(verdict=True)",
     True),
    (OracleResult,
     dict(optimal_cost=2, optimal_layouts=(Layout((0, 1, 2)),), optimal_count=2,
          states_explored=8),
     dict(optimal_cost=2, optimal_layouts=(Layout((2, 1, 0)),), optimal_count=2,
          states_explored=8),
     "OracleResult(optimal_cost=2, optimal_layouts=(Layout(vertex_at=(0, 1, 2)),), "
     "optimal_count=2, states_explored=8)",
     True),
    (OlaCertificate,
     dict(layout_cost=14, lower_bound=14, cycle_cost=8, optimal=True, reason="met"),
     dict(layout_cost=15, lower_bound=14, cycle_cost=8, optimal=True, reason="met"),
     "OlaCertificate(layout_cost=14, lower_bound=14, cycle_cost=8, optimal=True, "
     "reason='met')",
     True),
    (SwapStep,
     dict(level_height=1, block_a=2, block_b=3, reversed_pair=False),
     dict(level_height=1, block_a=2, block_b=3, reversed_pair=True),
     "SwapStep(level_height=1, block_a=2, block_b=3, reversed_pair=False)",
     True),
    (SwapTrace,
     dict(steps=(SwapStep(1, 2, 3, False),), total_swaps=1, total_moved_vertices=4),
     dict(steps=(), total_swaps=1, total_moved_vertices=4),
     "SwapTrace(steps=(SwapStep(level_height=1, block_a=2, block_b=3, "
     "reversed_pair=False),), total_swaps=1, total_moved_vertices=4)",
     True),
    (Layout,
     dict(vertex_at=(2, 0, 1)),
     dict(vertex_at=(2, 1, 0)),
     "Layout(vertex_at=(2, 0, 1))",
     True),
    (ArrangementReport,
     dict(total_cost=14, tree_cost=6, cycle_cost=8),
     dict(total_cost=14, tree_cost=6, cycle_cost=9),
     "ArrangementReport(total_cost=14, tree_cost=6, cycle_cost=8)",
     True),
    (InstanceReport,
     dict(name="w4", n=5, optimal_cost=14, lower_bound=14, bound_tight=True,
          optima_checked=2, contiguity_failures=0, monotone_failures=0,
          branch_failures=0, branch_vacuous_passes=1, extremes_violations=0,
          extremes_repaired=0, counterexamples=[], error=None),
     dict(name="w4", n=5, optimal_cost=14, lower_bound=14, bound_tight=True,
          optima_checked=2, contiguity_failures=0, monotone_failures=0,
          branch_failures=0, branch_vacuous_passes=1, extremes_violations=0,
          extremes_repaired=0, counterexamples=[{"kind": "x"}], error=None),
     "InstanceReport(name='w4', n=5, optimal_cost=14, lower_bound=14, bound_tight=True, "
     "optima_checked=2, contiguity_failures=0, monotone_failures=0, branch_failures=0, "
     "branch_vacuous_passes=1, extremes_violations=0, extremes_repaired=0, "
     "counterexamples=[], error=None)",
     False),
    (SuiteReport,
     dict(entries=[InstanceReport("w4", 5)]),
     dict(entries=[]),
     "SuiteReport(entries=[InstanceReport(name='w4', n=5, optimal_cost=None, "
     "lower_bound=None, bound_tight=None, optima_checked=0, contiguity_failures=0, "
     "monotone_failures=0, branch_failures=0, branch_vacuous_passes=0, "
     "extremes_violations=0, extremes_repaired=0, counterexamples=[], error=None)])",
     False),
]


@pytest.mark.parametrize("cls,values,other,text,frozen", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_record_semantics(cls, values, other, text, frozen):
    record = cls(**values)
    assert repr(record) == text
    assert [getattr(record, name) for name in values] == list(values.values())

    twin = cls(*values.values())
    assert twin == record and not twin != record
    assert cls(**other) != record and not cls(**other) == record
    assert record != tuple(values.values())
    assert cls.__match_args__ == tuple(values)

    name = next(iter(values))
    if frozen:
        assert hash(twin) == hash(record)
        with pytest.raises(AttributeError):
            setattr(record, name, values[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, name, values[name])
        assert record == twin


def test_cycle_order_derived_from_tree():
    tree = build_embedded_tree(0, {0: [4, 1, 2], 4: [3, 5]})
    h = HalinGraph(tree)
    assert h.cycle_order == (3, 5, 1, 2)  # the leaves in preorder
    assert h.cycle_order is h.cycle_order
    assert h == HalinGraph(tree) and "cycle_order" not in repr(h)
    with pytest.raises(TypeError):
        HalinGraph(tree, (3, 5, 1, 2))
    with pytest.raises(TypeError):
        HalinGraph(tree=tree, cycle_order=(3, 5, 1, 2))
    with pytest.raises(AttributeError):
        h.cycle_order = (1, 2, 3, 5)


def test_preorder_not_compared_nor_shown():
    a = build_embedded_tree(0, {0: [1, 2, 3]})
    b = build_embedded_tree(0, {0: [1, 2, 3]})
    assert a._preorder == (0, 1, 2, 3)
    object.__setattr__(b, "_preorder", ())
    assert a == b and hash(a) == hash(b)
    assert "_preorder" not in repr(a)
    with pytest.raises(TypeError):
        EmbeddedTree(root=0, children=((),), _preorder=(0,))
    with pytest.raises(AttributeError):
        a._preorder = ()


def test_defaults():
    spec = GenSpec("wheel")
    assert spec.params == () and spec.seed == 0
    first, second = InstanceReport("a", 4), InstanceReport("b", 4)
    assert first.counterexamples == [] and first.optima_checked == 0
    first.counterexamples.append({"kind": "x"})
    assert second.counterexamples == []
    assert InstanceReport("c", 4).counterexamples == []


def test_suite_report_takes_new_attributes():
    report = SuiteReport([])
    report.elapsed_seconds = 1.5
    assert report.elapsed_seconds == 1.5


def test_post_init_checks():
    with pytest.raises(ValueError, match="permutation"):
        Layout((0, 0, 1))
    with pytest.raises(ValueError, match="self-loop"):
        SimpleGraph(2, ((1, 1),))
    assert Layout(vertex_at=(1, 0)).positions == (2, 1)


def test_cli_import_skips_dataclasses_and_inspect():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, halin_ola.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
