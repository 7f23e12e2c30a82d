"""The cyclic collector: paused only while the builders run, and not needed after.

``parse_instance``, the ``gen_*`` factories, the balanced emitter (behind
``rbt_ola`` and ``direct_rbt_halin_ola``) and the block walk (behind
``scramble_tree_ola`` and ``rearrange_to_halin_ola``) turn the collector off
while they run, because what they build holds no reference cycles.  That is
only sound if the package leaves no cyclic garbage behind, so the builders
and the oracle are checked to free everything by reference counting.
"""

import gc

import pytest

from halin_ola import (
    BadParam,
    DuplicateChild,
    GenSpec,
    Layout,
    NotContiguous,
    brute_force_ola,
    cycle_graph,
    direct_rbt_halin_ola,
    gen_kary_rbt_halin,
    gen_wheel,
    generate,
    parse_instance,
    rbt_ola,
    rearrange_to_halin_ola,
    run_suite,
    scramble_tree_ola,
    serialize_instance,
    standard_corpus,
)
from halin_ola import generators, halin_arrange, io_formats, tree_ola

KARY = GenSpec("kary", (("k", 3), ("c", 2), ("h", 3)))
WHEEL_BYTES = serialize_instance(gen_wheel(5))
BAD_BYTES = b'{"schemaVersion": 1, "tree": {"root": 0, "children": {"0": [1, 1, 2]}}}'
H = gen_kary_rbt_halin(3, 2, 4)
SCRAMBLED = scramble_tree_ola(H.tree, rbt_ola(H.tree), seed=5)
# the walk plans the root's slots, then finds a leaf of 1 in a slot of 2
REFUSED = Layout((0, 4, 5, 6, 2, 7, 1, 9, 3, 8))
REFUSED_TREE = gen_kary_rbt_halin(3, 2, 2).tree

# kary(3,2,4) has 1 + 3 + 6 + 12 internal vertices; the walk plans each once
PLANS = [False] * 22

# case: (call, error it raises or None, the collector's state at each record)
BUILDS = {
    "generate": (lambda: generate(KARY), None, [False]),
    "generate-error": (lambda: generate(GenSpec("kary", (("k", 2), ("c", 2), ("h", 3)))),
                       BadParam, []),
    "gen_kary_rbt_halin": (lambda: gen_kary_rbt_halin(3, 2, 3), None, [False]),
    "parse": (lambda: parse_instance(WHEEL_BYTES), None, [False]),
    "parse-error": (lambda: parse_instance(BAD_BYTES), DuplicateChild, [False]),
    "rbt_ola": (lambda: rbt_ola(H.tree), None, [False]),
    # the pricing Layout from rbt_ola, then the mirrored one
    "direct_rbt_halin_ola": (lambda: direct_rbt_halin_ola(H), None, [False, False]),
    "scramble_tree_ola": (lambda: scramble_tree_ola(H.tree, SCRAMBLED, seed=1), None, PLANS),
    "scramble-refused": (lambda: scramble_tree_ola(REFUSED_TREE, REFUSED, seed=1),
                         NotContiguous, [False]),
    # the pricing Layout from rbt_ola, then the walk
    "rearrange_to_halin_ola": (lambda: rearrange_to_halin_ola(H, SCRAMBLED), None,
                               [False] + PLANS),
}


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector_on(request):
    was_on = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_on else gc.disable)()


@pytest.mark.parametrize("case", sorted(BUILDS))
def test_builders_restore_collector_state(case, collector_on, monkeypatch):
    build, error, expected = BUILDS[case]
    # the collector's state each time a tree is built, the emitter makes its
    # Layout, or the walk plans a node's slots
    during = []

    def spy(real):
        def call(*args):
            during.append(gc.isenabled())
            return real(*args)
        return call

    spy_tree = spy(io_formats.build_embedded_tree)
    monkeypatch.setattr(io_formats, "build_embedded_tree", spy_tree)
    monkeypatch.setattr(generators, "build_embedded_tree", spy_tree)
    monkeypatch.setattr(tree_ola, "Layout", spy(tree_ola.Layout))
    real_walk = halin_arrange._walk
    monkeypatch.setattr(halin_arrange, "_walk",
                        lambda tree, order, plan: real_walk(tree, order, spy(plan)))
    if error is None:
        build()
    else:
        with pytest.raises(error):
            build()
    assert during == expected
    assert gc.isenabled() is collector_on


def _cyclic_garbage_after(call) -> int:
    """Objects only the collector can free, left behind by ``call()``."""
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if was_on:
            gc.enable()


CALLS = {
    "gen_kary_rbt_halin": lambda: gen_kary_rbt_halin(3, 2, 6),
    "generate": lambda: generate(GenSpec("random", (("n", 500),), seed=1)),
    "parse_instance": lambda: parse_instance(WHEEL_BYTES),
    "oracle-cap-0": lambda: brute_force_ola(cycle_graph(10), layout_cap=0),
    "oracle-cap-1": lambda: brute_force_ola(cycle_graph(10), layout_cap=1),
    "oracle-all": lambda: brute_force_ola(cycle_graph(10)),
    "run_suite": lambda: run_suite(standard_corpus(n_random=5)),
    "rbt_ola": lambda: rbt_ola(H.tree),
    "direct_rbt_halin_ola": lambda: direct_rbt_halin_ola(H),
    "scramble_tree_ola": lambda: scramble_tree_ola(H.tree, SCRAMBLED, seed=1),
    "scramble-refused": lambda: pytest.raises(NotContiguous, scramble_tree_ola,
                                              REFUSED_TREE, REFUSED, seed=1),
    "rearrange_to_halin_ola": lambda: rearrange_to_halin_ola(H, SCRAMBLED),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_no_cyclic_garbage(name):
    assert _cyclic_garbage_after(CALLS[name]) == 0
