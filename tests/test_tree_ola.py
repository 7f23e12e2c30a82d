import hashlib
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halin_ola import (
    BadParam,
    EmbeddedTree,
    HalinGraph,
    Layout,
    NotRecursivelyBalanced,
    OracleResult,
    SimpleGraph,
    TooLarge,
    VisitCounter,
    brute_force_ola,
    build_embedded_tree,
    complete_graph,
    cycle_graph,
    gen_caterpillar_halin,
    gen_kary_rbt_halin,
    gen_wheel,
    is_recursively_balanced,
    la_cost,
    la_total,
    rbt_ola,
    standard_corpus,
)
from halin_ola import tree_ola
from halin_ola.tree_ola import LAYOUT_CAP


def path(n):
    return build_embedded_tree(0, {i: [i + 1] for i in range(n - 1)})


def star(k):
    return build_embedded_tree(0, {0: list(range(1, k + 1))})


def tri_star():
    return build_embedded_tree(0, {0: [1, 2, 3], 1: [4, 5], 2: [6, 7], 3: [8, 9]})


class TestRbtDetection:
    def test_single_vertex(self):
        assert is_recursively_balanced(build_embedded_tree(0, {})).verdict

    def test_star(self):
        tree = star(3)
        assert is_recursively_balanced(tree).verdict
        assert tree.subtree_sizes == (4, 1, 1, 1)

    def test_unequal_children(self):
        t = build_embedded_tree(0, {0: [1, 2], 1: [3]})
        assert not is_recursively_balanced(t).verdict

    def test_unbalanced_grandchild(self):
        # child subtrees have equal size 4 but one is internally unbalanced
        t = build_embedded_tree(
            0, {0: [1, 2], 1: [3, 4, 5], 2: [6, 7], 6: [8]}
        )
        assert not is_recursively_balanced(t).verdict

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

    def test_one_vertex_tree(self):
        assert rbt_ola(EmbeddedTree(0, ((),))) == Layout((0,))

    @pytest.mark.parametrize("family", ["kary", "wheel", "unequal-shapes"])
    def test_own_layout_meets_the_halin_bound(self, family):
        # the emitter writes leaves in embedding order, the cycle order, and
        # both end positions hold leaves (every inner vertex of a substrate
        # has two or more children), so the cycle costs 2(n - 1)
        if family == "kary":
            graphs = [gen_kary_rbt_halin(k, c, h) for k in range(3, 8)
                      for c in range(2, 6) for h in range(1, 6)]
        elif family == "wheel":
            graphs = [gen_wheel(s) for s in range(3, 40)]
        else:  # equal-size siblings of different shape: K_{1,6} and binary trees
            graphs = [HalinGraph(build_embedded_tree(0, {
                0: [1, 8, 15], 1: [2, 3, 4, 5, 6, 7], 8: [9, 12], 9: [10, 11],
                12: [13, 14], 15: [16, 19], 16: [17, 18], 19: [20, 21]}))]
        for h in graphs:
            report = la_cost(h, rbt_ola(h.tree))
            tree_opt = report.tree_cost
            if h.n <= 12:  # LA*(T) from the exact oracle where it is cheap
                tree_opt = brute_force_ola(h.tree, limit=12, layout_cap=0).optimal_cost
            assert (report.tree_cost, report.cycle_cost) == (tree_opt, 2 * (h.n - 1)), h

    def test_certificate_and_touches_pinned(self):
        # only rbt_ola counts touches: 2n for the certificate, n for the emitter
        tree = gen_kary_rbt_halin(3, 2, 4).tree
        assert is_recursively_balanced(tree).verdict
        assert tree.subtree_sizes == (
            46, 15, 15, 15, 7, 7, 3, 3, 1, 1, 1, 1, 3, 3, 1, 1, 1, 1, 7, 7, 3, 3, 1,
            1, 1, 1, 3, 3, 1, 1, 1, 1, 7, 7, 3, 3, 1, 1, 1, 1, 3, 3, 1, 1, 1, 1)
        stats = VisitCounter()
        rbt_ola(tree, stats=stats)
        assert stats.touches == 138
        tree = gen_caterpillar_halin(3, [2, 1, 2]).tree
        assert not is_recursively_balanced(tree).verdict
        assert tree.subtree_sizes == (8, 5, 3, 1, 1, 1, 1, 1)
        stats = VisitCounter()
        with pytest.raises(NotRecursivelyBalanced):
            rbt_ola(tree, stats=stats)
        assert stats.touches == 16  # a refused tree still reads 2n

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
        pos = lay.positions
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

    @pytest.mark.parametrize("cap", [0, 1, LAYOUT_CAP])
    def test_empty_graph(self, cap):
        # both paths give the scan's result: the one empty layout, of cost 0
        want = OracleResult(0, (Layout(()),)[:cap], 1, 1)
        for pruned in (True, False):
            assert brute_force_ola(SimpleGraph(0, ()), pruned=pruned, layout_cap=cap) == want

    @pytest.mark.parametrize("cap", [0, 1, LAYOUT_CAP])
    def test_one_vertex_graph(self, cap):
        # both paths give the scan's result: the one layout (0,), of cost 0
        want = OracleResult(0, (Layout((0,)),)[:cap], 1, 1)
        for pruned in (True, False):
            assert brute_force_ola(SimpleGraph(1, ()), pruned=pruned, layout_cap=cap) == want

    def test_states_explored_pinned(self):
        # 2^n subsets for the DP, n! permutations for the scan; n = 6
        assert brute_force_ola(gen_wheel(5)).states_explored == 64
        assert brute_force_ola(gen_wheel(5), pruned=False).states_explored == 720

    def test_hard_ceiling_admits_n_at_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(tree_ola, "_ORACLE_MAX_N", 6)
        for pruned in (True, False):
            assert brute_force_ola(gen_wheel(5), limit=20, pruned=pruned).optimal_cost == 19
            with pytest.raises(TooLarge, match="^n=7 exceeds the oracle's hard ceiling 6$"):
                brute_force_ola(gen_wheel(6), limit=20, pruned=pruned)

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
        # the subset DP would need two lists of 2^21 ints; refuse before that,
        # and before the check for a repeated edge
        graphs = (path(21), SimpleGraph(21, ((0, 1), (1, 0))))
        tracemalloc.start()
        try:
            for g in graphs:
                for pruned in (True, False):
                    with pytest.raises(TooLarge):
                        brute_force_ola(g, limit=30, pruned=pruned)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("g", [
        SimpleGraph(2, ((0, 1), (1, 0))),
        SimpleGraph(2, ((0, 1), (0, 1))),
        cycle_graph(2),
        SimpleGraph(6, ((0, 1), (2, 3), (3, 4), (4, 2), (2, 3))),
    ], ids=["reversed", "twice", "cycle-2", "disconnected"])
    def test_repeated_edge_refused(self, g):
        # the oracle takes simple graphs; both paths refuse before allocating
        tracemalloc.start()
        try:
            for pruned in (True, False):
                for cap in (0, LAYOUT_CAP):
                    with pytest.raises(BadParam, match="repeats"):
                        brute_force_ola(g, pruned=pruned, layout_cap=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    # tracemalloc peaks in bytes, measured on CPython 3.11.7 when the listing
    # kept no per-prefix list and walked both mirror halves of the optima:
    # (graph, cap 0 peak, default cap peak)
    _PARENT_PEAKS = [
        (lambda: SimpleGraph(14, ()), 679_741, 3_286_676),
        (lambda: gen_wheel(13), 281_408, 2_583_976),
    ]

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="peaks pinned on CPython 3.11")
    @pytest.mark.parametrize("make, peak0, peak", _PARENT_PEAKS)
    def test_listing_memory(self, make, peak0, peak):
        # the record is paid only when layouts are listed, and costs at
        # most 1 MiB there; an edgeless graph reaches every prefix set.
        # Peaks drift by a few hundred bytes between runs, so cap 0 gets
        # 4 KiB; one more 2^14-slot list would be 128 KiB.
        got = []
        for cap in (0, LAYOUT_CAP):
            g = make()
            tracemalloc.start()
            try:
                brute_force_ola(g, limit=14, layout_cap=cap)
                got.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert got[0] <= peak0 + 4096
        assert got[1] <= peak + 2**20

    @pytest.mark.parametrize("make", [
        lambda: SimpleGraph(14, ()), lambda: star(13), lambda: gen_wheel(13),
    ], ids=["edgeless-14", "star-13", "wheel-13"])
    def test_cap_one_pays_one_list(self, make):
        # listing one optimum holds at most one list of 2^n slots more than
        # the DP alone; both peaks come from this process, so none is pinned
        g = make()
        peaks = []
        for cap in (0, 1):
            tracemalloc.start()
            try:
                brute_force_ola(g, limit=14, layout_cap=cap)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 8 * 2**g.n + 16 * 1024

    def test_layout_cap(self):
        tree = star(8)
        res = brute_force_ola(tree)
        assert res.optimal_cost == 20
        assert res.optimal_count == 40320
        assert len(res.optimal_layouts) == LAYOUT_CAP
        assert all(la_total(tree, lay) == 20 for lay in res.optimal_layouts)

    def test_negative_layout_cap(self):
        for pruned in (True, False):
            with pytest.raises(BadParam):
                brute_force_ola(star(3), pruned=pruned, layout_cap=-1)

    @pytest.mark.parametrize("value", [None, True, 10.0])
    @pytest.mark.parametrize("option", ["limit", "layout_cap"])
    def test_limits_of_another_type_refused(self, option, value):
        # unchecked, None ends in a TypeError from a comparison and True
        # is taken as 1
        with pytest.raises(BadParam) as exc:
            brute_force_ola(gen_wheel(3), **{option: value})
        assert str(exc.value) == f"{option} must be an int, got {value!r}"

    @pytest.mark.parametrize("bad", [5, -1])
    def test_vertex_ids_out_of_range(self, bad):
        for pruned in (True, False):
            with pytest.raises(ValueError, match="vertex range"):
                brute_force_ola(SimpleGraph(3, ((0, bad),)), pruned=pruned)

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
    @given(st.integers(2, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                             .filter(lambda e: e[0] != e[1]), unique_by=frozenset))))
    @example((2, []))
    @example((7, []))
    @example((6, [(0, 1), (2, 3), (3, 4), (4, 2)]))
    def test_listing_order(self, graph):
        # an independent spec of the DP's order: the lexicographically
        # sorted optima whose first vertex is smaller than their last, each
        # followed by its reversal, cut to the cap
        n, edges = graph
        g = SimpleGraph(n, tuple(edges))
        scan = brute_force_ola(g, pruned=False, layout_cap=LAYOUT_CAP)
        firsts = sorted(lay.vertex_at for lay in scan.optimal_layouts
                        if lay.vertex_at[0] < lay.vertex_at[-1])
        spec = [Layout(x) for t in firsts for x in (t, t[::-1])]
        for cap in (0, 1, 2, 3, 7, LAYOUT_CAP):
            assert brute_force_ola(g, layout_cap=cap).optimal_layouts == tuple(spec[:cap])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_dp_equals_scan_on_random_graphs(self, data):
        n = data.draw(st.integers(2, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        g = SimpleGraph(n, tuple(edges))
        a = brute_force_ola(g, pruned=True)
        b = brute_force_ola(g, pruned=False)
        assert a.optimal_cost == b.optimal_cost
        assert a.optimal_count == b.optimal_count
        assert set(a.optimal_layouts) == set(b.optimal_layouts)
        # a cap trims the listed layouts and nothing else
        for cap in (0, 1, 2, LAYOUT_CAP):
            for default, pruned in ((a, True), (b, False)):
                r = brute_force_ola(g, pruned=pruned, layout_cap=cap)
                assert (r.optimal_cost, r.optimal_count, r.states_explored) == (
                    default.optimal_cost, default.optimal_count, default.states_explored)
            dp = brute_force_ola(g, pruned=True, layout_cap=cap)
            assert dp.optimal_layouts == a.optimal_layouts[:cap]
            scan = brute_force_ola(g, pruned=False, layout_cap=cap)
            assert len(scan.optimal_layouts) == min(cap, b.optimal_count)
            assert scan.optimal_layouts == b.optimal_layouts[:cap]
