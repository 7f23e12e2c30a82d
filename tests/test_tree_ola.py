import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halin_ola
from halin_ola import (
    NotRecursivelyBalanced,
    SimpleGraph,
    TooLarge,
    VisitCounter,
    brute_force_ola,
    build_embedded_tree,
    central_vertex,
    complete_graph,
    cycle_graph,
    gen_caterpillar_halin,
    gen_kary_rbt_halin,
    gen_wheel,
    is_recursively_balanced,
    la_total,
    rbt_ola,
    standard_corpus,
)
from halin_ola.tree_ola import LAYOUT_CAP


def path(n):
    return build_embedded_tree(0, {i: [i + 1] for i in range(n - 1)})


def star(k):
    return build_embedded_tree(0, {0: list(range(1, k + 1))})


def tri_star():
    return build_embedded_tree(0, {0: [1, 2, 3], 1: [4, 5], 2: [6, 7], 3: [8, 9]})


class TestCentralVertex:
    def test_path_middle(self):
        assert central_vertex(path(5)) == 2

    def test_star_center(self):
        assert central_vertex(star(5)) == 0

    def test_tie_break_smallest_id(self):
        # P4 has two centroids (vertices 1 and 2)
        assert central_vertex(path(4)) == 1

    def test_single_vertex(self):
        assert central_vertex(build_embedded_tree(0, {})) == 0

    def test_check_raises_under_optimize(self):
        # the centroid bound must not be an assert: under -O a broken
        # selection would otherwise return a vertex that is no centroid
        script = textwrap.dedent("""
            import sys
            from halin_ola import HalinOlaError, central_vertex, gen_wheel, tree_ola
            if __debug__:
                sys.exit("not running under -O")
            tree_ola.max = lambda comps, default: 99  # every component "too big"
            try:
                central_vertex(gen_wheel(5).tree)
            except HalinOlaError:
                sys.exit(0)
            sys.exit("wrong centroid returned without an error")
        """)
        src = str(Path(halin_ola.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_components_bounded(self):
        for tree in (path(9), star(6), tri_star()):
            v = central_vertex(tree)
            sizes = tree.subtree_sizes()
            comps = [sizes[c] for c in tree.children[v]]
            if v != tree.root:
                comps.append(tree.n - sizes[v])
            assert max(comps) <= tree.n // 2


class TestRbtDetection:
    def test_single_vertex(self):
        assert is_recursively_balanced(build_embedded_tree(0, {})).verdict

    def test_star(self):
        cert = is_recursively_balanced(star(3))
        assert cert.verdict
        assert cert.subtree_size == (4, 1, 1, 1)

    def test_unequal_children(self):
        t = build_embedded_tree(0, {0: [1, 2], 1: [3]})
        cert = is_recursively_balanced(t)
        assert not cert.verdict
        assert not cert.balanced[0]

    def test_unbalanced_grandchild(self):
        # child subtrees have equal size 4 but one is internally unbalanced
        t = build_embedded_tree(
            0, {0: [1, 2], 1: [3, 4, 5], 2: [6, 7], 6: [8]}
        )
        cert = is_recursively_balanced(t)
        assert not cert.verdict
        assert cert.balanced[1] and not cert.balanced[2]

    def test_tri_star(self):
        assert is_recursively_balanced(tri_star()).verdict


class TestRbtOla:
    @pytest.mark.parametrize(
        "k,opt", [(3, 4), (4, 6), (5, 9)]
    )  # star optima confirmed by the oracle below
    def test_star_costs(self, k, opt):
        tree = star(k)
        lay = rbt_ola(tree)
        assert la_total(tree, lay) == opt
        assert la_total(tree, lay) == brute_force_ola(tree).optimal_cost

    def test_tri_star_matches_oracle(self):
        tree = tri_star()
        assert la_total(tree, rbt_ola(tree)) == 15
        assert brute_force_ola(tree).optimal_cost == 15

    def test_heterogeneous_siblings(self):
        # equal-size child subtrees of different shape: star vs 2-chain
        t = build_embedded_tree(0, {0: [1, 4], 1: [2, 3], 4: [5], 5: [6]})
        assert is_recursively_balanced(t).verdict
        assert la_total(t, rbt_ola(t)) == brute_force_ola(t).optimal_cost == 7

    def test_rejects_non_rbt(self):
        with pytest.raises(NotRecursivelyBalanced):
            rbt_ola(build_embedded_tree(0, {0: [1, 2], 1: [3]}))

    def test_certificate_and_touches_pinned(self):
        tree = gen_kary_rbt_halin(3, 2, 4).tree
        stats = VisitCounter()
        cert = is_recursively_balanced(tree, stats=stats)
        assert cert.subtree_size == (
            46, 15, 15, 15, 7, 7, 3, 3, 1, 1, 1, 1, 3, 3, 1, 1, 1, 1, 7, 7, 3, 3, 1,
            1, 1, 1, 3, 3, 1, 1, 1, 1, 7, 7, 3, 3, 1, 1, 1, 1, 3, 3, 1, 1, 1, 1)
        assert cert.balanced == (True,) * 46 and cert.verdict
        assert stats.touches == 92
        stats = VisitCounter()
        rbt_ola(tree, stats=stats)
        assert stats.touches == 138
        stats = VisitCounter()
        cert = is_recursively_balanced(gen_caterpillar_halin(3, [2, 1, 2]).tree, stats=stats)
        assert cert.subtree_size == (8, 5, 3, 1, 1, 1, 1, 1)
        assert cert.balanced == (False, False, True, True, True, True, True, True)
        assert not cert.verdict and stats.touches == 16

    def test_visit_counter_linear(self):
        tree = tri_star()
        stats = VisitCounter()
        rbt_ola(tree, stats=stats)
        assert stats.touches <= 3 * tree.n

    def test_sibling_block_swap_preserves_cost(self):
        from halin_ola import sigma_swap

        tree = tri_star()
        lay = rbt_ola(tree)
        base = la_total(tree, lay)
        # find two sibling subtrees on the same side of the root
        pos = lay.positions()
        root_pos = pos[0]
        sides = {}
        for c in (1, 2, 3):
            block = [c] + list(tree.children[c])
            sides.setdefault(min(pos[v] for v in block) > root_pos, []).append(block)
        same_side = next(bs for bs in sides.values() if len(bs) >= 2)
        swapped = sigma_swap(lay, same_side[0], same_side[1])
        assert la_total(tree, swapped) == base


class TestOracle:
    def test_k4_all_layouts_optimal(self):
        res = brute_force_ola(complete_graph(4))
        assert res.optimal_cost == 10
        assert res.optimal_count == 24
        assert len(res.optimal_layouts) == 24

    def test_cycles(self):
        assert brute_force_ola(cycle_graph(3)).optimal_cost == 4
        assert brute_force_ola(cycle_graph(4)).optimal_cost == 6

    def test_limit(self):
        with pytest.raises(TooLarge):
            brute_force_ola(complete_graph(11))
        brute_force_ola(complete_graph(5), limit=5)  # at the limit is fine

    def test_all_optima_have_optimal_cost(self):
        res = brute_force_ola(star(4))
        assert res.optimal_cost == 6
        for lay in res.optimal_layouts:
            assert la_total(star(4), lay) == 6

    def test_reversals_included(self):
        res = brute_force_ola(star(3))
        layouts = set(res.optimal_layouts)
        assert all(lay.reversed() in layouts for lay in layouts)
        assert res.optimal_count % 2 == 0

    def test_single_vertex(self):
        res = brute_force_ola(build_embedded_tree(0, {}))
        assert res.optimal_cost == 0
        assert res.optimal_count == 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6))
    def test_pruned_equals_unpruned_on_paths(self, n):
        g = path(n)
        a = brute_force_ola(g, pruned=True)
        b = brute_force_ola(g, pruned=False)
        assert a.optimal_cost == b.optimal_cost == n - 1
        assert a.optimal_count == b.optimal_count
        assert set(a.optimal_layouts) == set(b.optimal_layouts)

    def test_hard_ceiling_before_allocation(self):
        # the subset DP would need two lists of 2^21 ints; refuse before that
        g = path(21)
        tracemalloc.start()
        try:
            for pruned in (True, False):
                with pytest.raises(TooLarge):
                    brute_force_ola(g, limit=30, pruned=pruned)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_layout_cap(self):
        tree = star(8)
        res = brute_force_ola(tree)
        assert res.optimal_cost == 20
        assert res.optimal_count == 40320
        assert len(res.optimal_layouts) == LAYOUT_CAP
        assert all(la_total(tree, lay) == 20 for lay in res.optimal_layouts)

    def test_parity_digest(self):
        # optima, counts and layout order, as pinned from the former
        # branch-and-bound search on the same graphs
        graphs = [g for _s, h in standard_corpus() for g in (h, h.tree)]
        graphs += [gen_wheel(8), gen_wheel(8).tree]
        rows = []
        for g in graphs:
            r = brute_force_ola(g)
            rows.append((r.optimal_cost, r.optimal_count,
                         [lay.vertex_at for lay in r.optimal_layouts]))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "6ae28cefe6d244afbe4e8d0e405498091b4cdde0c430c7c4b01eb11b3ecb4f2d"
        )

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_dp_equals_scan_on_random_graphs(self, data):
        n = data.draw(st.integers(2, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        # lists, so parallel edges are drawn too
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * len(pairs)))
        g = SimpleGraph(n, tuple(edges))
        a = brute_force_ola(g, pruned=True)
        b = brute_force_ola(g, pruned=False)
        assert a.optimal_cost == b.optimal_cost
        assert a.optimal_count == b.optimal_count
        assert set(a.optimal_layouts) == set(b.optimal_layouts)
