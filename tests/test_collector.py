"""The cyclic collector: paused by ``cli.main`` for one command, and not needed.

The library never touches the collector; it is a process-wide setting.
``cli.main`` turns it off while one command runs and restores the caller's
setting afterwards, also after an error or ``-h``.  That is only sound if
the package leaves no cyclic garbage behind, so the builders and the oracle
are checked to free everything by reference counting.
"""

import gc

import pytest

from halin_ola import (
    GenSpec,
    Layout,
    NotContiguous,
    brute_force_ola,
    cli,
    cycle_graph,
    direct_rbt_halin_ola,
    gen_kary_rbt_halin,
    gen_random_halin,
    gen_wheel,
    generate,
    parse_instance,
    rbt_ola,
    rearrange_to_halin_ola,
    run_suite,
    scramble_tree_ola,
    serialize_instance,
    serialize_layout,
    standard_corpus,
)

WHEEL_BYTES = serialize_instance(gen_wheel(5))
H = gen_kary_rbt_halin(3, 2, 4)
SCRAMBLED = scramble_tree_ola(H.tree, rbt_ola(H.tree), seed=5)
# the walk plans the root's slots, then finds a leaf of 1 in a slot of 2
REFUSED = Layout((0, 4, 5, 6, 2, 7, 1, 9, 3, 8))
REFUSED_TREE = gen_kary_rbt_halin(3, 2, 2).tree

# case: (argv with file names for paths, exit code, how many instances it parses)
COMMANDS = {
    "cost": (["cost", "-i", "wheel", "-l", "wheel.layout"], 0, 1),
    "not-balanced": (["solve", "--method", "direct", "-i", "random", "-o", "out"], 1, 1),
    "usage-error": (["cost", "--bogus"], 1, 0),
    "parse-error": (["cost", "-i", "bad", "-l", "wheel.layout"], 2, 1),
    "help": (["solve", "-h"], 0, 0),
}


@pytest.mark.parametrize("was_on", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_main_pauses_collector_for_one_command(case, was_on, tmp_path, monkeypatch, capsys):
    argv, code, parses = COMMANDS[case]
    files = {"wheel": WHEEL_BYTES,
             "wheel.layout": serialize_layout(Layout(tuple(range(6)))),
             "random": serialize_instance(gen_random_halin(7, seed=3)),
             "bad": b"{"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    # the collector's state when the parser is built and each instance is read
    during = []

    def spy(real):
        def call(*args):
            during.append(gc.isenabled())
            return real(*args)
        return call

    monkeypatch.setattr(cli, "build_parser", spy(cli.build_parser))
    monkeypatch.setattr(cli, "parse_instance", spy(cli.parse_instance))
    restore = gc.enable if gc.isenabled() else gc.disable
    (gc.enable if was_on else gc.disable)()
    try:
        assert cli.main([str(tmp_path / a) if a in files or a == "out" else a
                         for a in argv]) == code
        assert gc.isenabled() is was_on
    finally:
        restore()
    capsys.readouterr()
    assert during == [False] * (1 + parses)


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
    # the corpus with its first 5 random instances only
    "run_suite": lambda: run_suite(standard_corpus()[:-45]),
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
