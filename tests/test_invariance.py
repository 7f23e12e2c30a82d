"""Metamorphic tests: the solvers see the graph, not its vertex ids or its
embedding's handedness.

Two transforms of a Halin graph give the same graph up to isomorphism: a
relabelling pi of the vertex ids, and mirroring (every child list reversed,
so the leaf cycle runs the other way).  Under both, the oracle's optimum and
optimum count, the tree oracle's optimum and every ``run_suite`` counter are
unchanged, and on recursively balanced trees the constructions map through
the transform.
"""

import random

import pytest

from halin_ola import (
    EmbeddedTree,
    GenSpec,
    HalinGraph,
    Layout,
    brute_force_ola,
    direct_rbt_halin_ola,
    gen_kary_rbt_halin,
    gen_random_halin,
    gen_wheel,
    rbt_ola,
    rearrange_to_halin_ola,
    run_suite,
)

LIMIT = 13  # the oracle's limit: kary(4,2,2) has 13 vertices
BALANCED = [gen_wheel(s) for s in range(3, 9)] + [
    gen_kary_rbt_halin(3, 2, 2), gen_kary_rbt_halin(4, 2, 2)]
RANDOM = [gen_random_halin(n, seed) for n in range(5, 10) for seed in range(1, 7)]

COUNTERS = ("n", "optimal_cost", "lower_bound", "bound_tight", "optima_checked",
            "contiguity_failures", "monotone_failures", "branch_failures",
            "branch_vacuous_passes", "extremes_violations", "extremes_repaired",
            "error")


def relabel(h: HalinGraph, pi) -> HalinGraph:
    children = [()] * h.n
    for v, cs in enumerate(h.tree.children):
        children[pi[v]] = tuple(pi[c] for c in cs)
    return HalinGraph(EmbeddedTree(pi[h.tree.root], tuple(children)))


def mirror(h: HalinGraph) -> HalinGraph:
    return HalinGraph(EmbeddedTree(h.tree.root, tuple(cs[::-1] for cs in h.tree.children)))


def permutation(h: HalinGraph, seed: int) -> list:
    pi = list(range(h.n))
    random.Random(seed).shuffle(pi)
    return pi


def mapped(pi, layout: Layout) -> Layout:
    return Layout(tuple(pi[v] for v in layout.vertex_at))


def facts(h: HalinGraph) -> tuple:
    oracle = brute_force_ola(h, limit=LIMIT, layout_cap=0)
    # the spec only names the report; no counter reads it
    report = run_suite([(GenSpec("random", (("n", h.n),)), h)], LIMIT).entries[0]
    return (oracle.optimal_cost, oracle.optimal_count,
            brute_force_ola(h.tree, limit=LIMIT, layout_cap=0).optimal_cost,
            tuple(getattr(report, name) for name in COUNTERS),
            len(report.counterexamples))


@pytest.mark.parametrize("i", range(len(BALANCED + RANDOM)))
def test_oracle_and_suite_invariant(i):
    h = (BALANCED + RANDOM)[i]
    want = facts(h)
    assert facts(relabel(h, permutation(h, i))) == want
    assert facts(mirror(h)) == want


@pytest.mark.parametrize("h", BALANCED, ids=lambda h: f"n={h.n}")
def test_constructions_follow_relabelling(h):
    pi = permutation(h, h.n)
    g = relabel(h, pi)
    assert direct_rbt_halin_ola(g) == mapped(pi, direct_rbt_halin_ola(h))
    tree_layout = rbt_ola(h.tree)
    layout, trace = rearrange_to_halin_ola(h, tree_layout)
    got, got_trace = rearrange_to_halin_ola(g, mapped(pi, tree_layout))
    assert got == mapped(pi, layout)
    assert [(s.level_height, s.block_a, s.block_b, s.reversed_pair)
            for s in got_trace.steps] == [
        (s.level_height, pi[s.block_a], pi[s.block_b], s.reversed_pair)
        for s in trace.steps]
    assert (got_trace.total_swaps, got_trace.total_moved_vertices) == (
        trace.total_swaps, trace.total_moved_vertices)


@pytest.mark.parametrize("h", BALANCED, ids=lambda h: f"n={h.n}")
def test_direct_is_the_mirrored_emitter(h):
    # direct lays out the mirrored embedding with rbt_ola's emitter
    m = mirror(h)
    assert direct_rbt_halin_ola(m).vertex_at == rbt_ola(h.tree).vertex_at
    assert rbt_ola(m.tree) == direct_rbt_halin_ola(h)
