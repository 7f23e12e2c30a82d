import random
import re
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halin_ola import (
    BadParam,
    Layout,
    NotContiguous,
    Overlapping,
    build_embedded_tree,
    gen_random_halin,
    gen_wheel,
    la_cost,
    la_total,
    reverse_block,
    sigma_swap,
)
from halin_ola.property_suite import _spine, _structural_verdict


def permutation(n, seed=0):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return Layout(tuple(order))


perm_strategy = st.integers(2, 40).flatmap(
    lambda n: st.permutations(list(range(n)))
).map(lambda p: Layout(tuple(p)))


class TestLayout:
    def test_positions_are_inverse(self):
        lay = Layout((2, 0, 1))
        assert lay.positions == (2, 3, 1)
        assert lay.positions is lay.positions  # computed once, then kept
        assert lay == Layout((2, 0, 1)) and repr(lay) == "Layout(vertex_at=(2, 0, 1))"

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Layout((0, 0, 1))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-3, 12), max_size=12),
        st.integers(0, 12).flatmap(lambda n: st.permutations(list(range(n)))),
        st.integers(1, 12).flatmap(lambda n: st.permutations(list(range(n))).flatmap(
            lambda p: st.tuples(st.integers(0, n - 1), st.integers(-2, n + 1)).map(
                lambda ix: p[:ix[0]] + [ix[1]] + p[ix[0] + 1:]))),
    ))
    def test_verdict_equals_sorting(self, ids):
        # any int tuple is accepted exactly when it sorts to 0..n-1
        try:
            Layout(tuple(ids))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (sorted(ids) == list(range(len(ids))))

    def test_reversed(self):
        lay = Layout((2, 0, 1))
        assert lay.reversed().vertex_at == (1, 0, 2)


class TestCost:
    def test_wheel_breakdown(self):
        h = gen_wheel(4)
        # hub 0 between two leaf pairs; cycle order 1,2,3,4
        lay = Layout((1, 2, 0, 3, 4))
        report = la_cost(h, lay)
        assert (report.tree_cost, report.cycle_cost) == (6, 8)
        assert report.total_cost == 14 == la_total(h, lay)

    @pytest.mark.parametrize("order", [(0, 1, 2), (4, 0, 1, 2, 3)],
                             ids=["shorter", "longer"])
    @pytest.mark.parametrize("on_tree", [False, True], ids=["halin", "tree"])
    def test_layout_of_another_size_refused(self, order, on_tree):
        h = gen_wheel(3)
        with pytest.raises(BadParam, match=f"layout has {len(order)} vertices, graph has 4"):
            la_cost(h.tree if on_tree else h, Layout(order))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_edge_sum(self, data):
        h = gen_random_halin(data.draw(st.integers(4, 60)),
                             seed=data.draw(st.integers(0, 10**6)))
        lay = Layout(tuple(data.draw(st.permutations(list(h.tree.vertices)))))
        pos = lay.positions

        def edge_sum(pairs):
            return sum(abs(pos[u] - pos[v]) for u, v in pairs)

        report = la_cost(h, lay)
        assert report.tree_cost == edge_sum(h.tree.edges())
        assert report.cycle_cost == edge_sum(h.cycle_pairs())
        assert report.total_cost == report.tree_cost + report.cycle_cost
        bare = la_cost(h.tree, lay)
        assert (bare.tree_cost, bare.cycle_cost) == (report.tree_cost, 0)

    @settings(max_examples=50, deadline=None)
    @given(perm_strategy)
    def test_reversal_invariance(self, lay):
        n = lay.n
        tree = build_embedded_tree(0, {0: list(range(1, n))})
        assert la_total(tree, lay) == la_total(tree, lay.reversed())


class TestBlockOps:
    def test_sigma_swap_equal_blocks(self):
        lay = Layout(tuple(range(6)))
        out = sigma_swap(lay, [0, 1], [4, 5])
        assert out.vertex_at == (4, 5, 2, 3, 0, 1)

    def test_sigma_swap_is_involution_for_equal_sizes(self):
        lay = permutation(10, seed=3)
        a = [lay.vertex_at[1], lay.vertex_at[2]]
        b = [lay.vertex_at[6], lay.vertex_at[7]]
        assert sigma_swap(sigma_swap(lay, a, b), a, b) == lay

    def test_sigma_swap_unequal_sizes_shifts_gap(self):
        lay = Layout(tuple(range(6)))
        out = sigma_swap(lay, [0], [3, 4, 5])
        assert out.vertex_at == (3, 4, 5, 1, 2, 0)

    def test_sigma_swap_argument_order_irrelevant(self):
        lay = Layout(tuple(range(6)))
        assert sigma_swap(lay, [4, 5], [0, 1]) == sigma_swap(lay, [0, 1], [4, 5])

    def test_non_contiguous_rejected(self):
        with pytest.raises(NotContiguous):
            sigma_swap(Layout(tuple(range(5))), [0, 2], [3, 4])

    def test_empty_block_rejected(self):
        with pytest.raises(NotContiguous, match="^empty block$"):
            sigma_swap(Layout((0, 1, 2)), [], [0])

    def test_overlapping_rejected(self):
        with pytest.raises(Overlapping):
            sigma_swap(Layout(tuple(range(5))), [0, 1], [1, 2])

    @pytest.mark.parametrize("vertex", [-1, 5])
    def test_block_vertex_outside_the_layout_rejected(self, vertex):
        # unchecked, -1 would be read as the last vertex and 5 would end in
        # an IndexError
        message = rf"block vertices \[{vertex}\] are outside 0..2"
        with pytest.raises(BadParam, match=message):
            sigma_swap(Layout((0, 1, 2)), [vertex], [1])
        with pytest.raises(BadParam, match=message):
            reverse_block(Layout((0, 1, 2)), [vertex, 0])

    @pytest.mark.parametrize("vertex", [1.0, "x", True])
    def test_block_vertex_of_another_type_rejected(self, vertex):
        # unchecked, 1.0 and "x" end in a TypeError and True is read as vertex 1
        lay, got = Layout((0, 1, 2)), re.escape(f"[0] must be an int, got {vertex!r}")
        with pytest.raises(BadParam, match=f"^block_a{got}$"):
            sigma_swap(lay, [vertex], [2])
        with pytest.raises(BadParam, match=f"^block{got}$"):
            reverse_block(lay, [vertex])

    def test_bool_block_vertex_rejected_before_the_overlap_test(self):
        # set() would fold True into 1, so the blocks would look shared
        with pytest.raises(BadParam, match=r"^block_a\[0\] must be an int, got True$"):
            sigma_swap(Layout((0, 1, 2)), [True], [1])

    def test_reverse_block(self):
        out = reverse_block(Layout(tuple(range(5))), [1, 2, 3])
        assert out.vertex_at == (0, 3, 2, 1, 4)
        assert reverse_block(out, [1, 2, 3]) == Layout(tuple(range(5)))


class TestTypeAndDelta:
    def test_is_of_type(self):
        # the property suite's test that the subtrees, each a path vertex
        # and its branches, wholly precede one another in path order
        lay = Layout((3, 4, 0, 1, 2))
        in_order = ((3, 0, 1), (((4,),), (), ((2,),)))  # {3, 4}, {0}, {1, 2}
        out_of_order = ((0, 3, 1), ((), ((4,),), ((2,),)))  # {0}, {3, 4}, {1, 2}
        assert _structural_verdict(in_order, lay.positions)[0]
        assert not _structural_verdict(out_of_order, lay.positions)[0]


class TestSpinal:
    # the property suite's private decomposition, keyed by the end vertices
    def test_tree_path(self):
        t = build_embedded_tree(0, {0: [1, 2, 3], 1: [4, 5], 2: [6, 7], 3: [8, 9]})
        assert _spine(t, 4, 9)[0] == (4, 1, 0, 3, 9)
        assert _spine(t, 4, 5)[0] == (4, 1, 5)
        assert _spine(t, 0, 7)[0] == (0, 2, 7)
        assert _spine(t, 6, 6)[0] == (6,)

    def test_spinal_path_wheel(self):
        h = gen_wheel(4)
        lay = Layout((1, 2, 0, 3, 4))
        assert _spine(h.tree, lay.vertex_at[0], lay.vertex_at[-1])[0] == (1, 0, 4)

    def test_spinal_decomposition(self):
        h = gen_wheel(4)
        path, branches = _spine(h.tree, 1, 4)
        assert path == (1, 0, 4)
        # each subtree is its path vertex plus the branches anchored there
        assert [{w, *chain(*bs)} for w, bs in zip(path, branches)] == [{1}, {0, 2, 3}, {4}]
        assert sorted(map(sorted, branches[1])) == [[2], [3]]
        assert branches[0] == branches[2] == ()
