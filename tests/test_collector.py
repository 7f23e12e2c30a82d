"""The cyclic collector: paused only while a tree is built, and not needed after.

``parse_instance`` and ``generate`` turn the collector off while they build,
because the decoded document and the tree hold no reference cycles.  That is
only sound if the package leaves no cyclic garbage behind, so the builders
and the oracle are checked to free everything by reference counting.
"""

import gc

import pytest

from halin_ola import (
    BadParam,
    DuplicateChild,
    GenSpec,
    brute_force_ola,
    cycle_graph,
    gen_kary_rbt_halin,
    gen_wheel,
    generate,
    parse_instance,
    run_suite,
    serialize_instance,
    standard_corpus,
)
from halin_ola import generators, io_formats

KARY = GenSpec("kary", (("k", 3), ("c", 2), ("h", 3)))
WHEEL_BYTES = serialize_instance(gen_wheel(5))
BAD_BYTES = b'{"schemaVersion": 1, "tree": {"root": 0, "children": {"0": [1, 1, 2]}}}'

BUILDS = {
    "generate": (lambda: generate(KARY), None),
    "generate-error": (lambda: generate(GenSpec("kary", (("k", 2), ("c", 2), ("h", 3)))),
                       BadParam),
    "parse": (lambda: parse_instance(WHEEL_BYTES), None),
    "parse-error": (lambda: parse_instance(BAD_BYTES), DuplicateChild),
}


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector_on(request):
    was_on = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_on else gc.disable)()


@pytest.mark.parametrize("case", sorted(BUILDS))
def test_builders_restore_collector_state(case, collector_on, monkeypatch):
    build, error = BUILDS[case]
    during = []  # the collector's state each time a tree is built
    real = io_formats.build_embedded_tree

    def spy(root, child_lists):
        during.append(gc.isenabled())
        return real(root, child_lists)

    monkeypatch.setattr(io_formats, "build_embedded_tree", spy)
    monkeypatch.setattr(generators, "build_embedded_tree", spy)
    if error is None:
        build()
        assert during == [False]
    else:
        with pytest.raises(error):
            build()
        assert not any(during)
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
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_no_cyclic_garbage(name):
    assert _cyclic_garbage_after(CALLS[name]) == 0
