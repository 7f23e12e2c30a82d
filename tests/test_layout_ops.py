import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halin_ola import (
    Layout,
    NotContiguous,
    Overlapping,
    build_embedded_tree,
    gen_random_halin,
    gen_wheel,
    halin_from_tree,
    identity_layout,
    is_of_type,
    la_cost,
    la_total,
    reverse_block,
    sigma_swap,
    spinal_decomposition,
    spinal_path,
    tree_path,
)


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
        assert lay.position(2) == 1
        assert lay.position(0) == 2
        assert lay.positions() == (2, 3, 1)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Layout((0, 0, 1))

    def test_reversed(self):
        lay = Layout((2, 0, 1))
        assert lay.reversed().vertex_at == (1, 0, 2)
        assert lay.first() == 2 and lay.last() == 1

    def test_identity(self):
        assert identity_layout(4).vertex_at == (0, 1, 2, 3)


class TestCost:
    def test_wheel_breakdown(self):
        h = gen_wheel(4)
        # hub 0 between two leaf pairs; cycle order 1,2,3,4
        lay = Layout((1, 2, 0, 3, 4))
        report = la_cost(h, lay)
        assert (report.tree_cost, report.cycle_cost) == (6, 8)
        assert report.total_cost == 14 == la_total(h, lay)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_edge_sum(self, data):
        h = gen_random_halin(data.draw(st.integers(4, 60)),
                             seed=data.draw(st.integers(0, 10**6)))
        lay = Layout(tuple(data.draw(st.permutations(list(h.tree.vertices)))))
        pos = lay.positions()

        def edge_sum(edges):
            return sum(abs(pos[e.u] - pos[e.v]) for e in edges)

        report = la_cost(h, lay)
        assert report.tree_cost == edge_sum(h.tree_edges())
        assert report.cycle_cost == edge_sum(h.cycle_edges())
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
        lay = identity_layout(6)
        out = sigma_swap(lay, [0, 1], [4, 5])
        assert out.vertex_at == (4, 5, 2, 3, 0, 1)

    def test_sigma_swap_is_involution_for_equal_sizes(self):
        lay = permutation(10, seed=3)
        a = [lay.vertex_at[1], lay.vertex_at[2]]
        b = [lay.vertex_at[6], lay.vertex_at[7]]
        assert sigma_swap(sigma_swap(lay, a, b), a, b) == lay

    def test_sigma_swap_unequal_sizes_shifts_gap(self):
        lay = identity_layout(6)
        out = sigma_swap(lay, [0], [3, 4, 5])
        assert out.vertex_at == (3, 4, 5, 1, 2, 0)

    def test_sigma_swap_argument_order_irrelevant(self):
        lay = identity_layout(6)
        assert sigma_swap(lay, [4, 5], [0, 1]) == sigma_swap(lay, [0, 1], [4, 5])

    def test_non_contiguous_rejected(self):
        with pytest.raises(NotContiguous):
            sigma_swap(identity_layout(5), [0, 2], [3, 4])

    def test_overlapping_rejected(self):
        with pytest.raises(Overlapping):
            sigma_swap(identity_layout(5), [0, 1], [1, 2])

    def test_reverse_block(self):
        out = reverse_block(identity_layout(5), [1, 2, 3])
        assert out.vertex_at == (0, 3, 2, 1, 4)
        assert reverse_block(out, [1, 2, 3]) == identity_layout(5)


class TestTypeAndDelta:
    def test_is_of_type(self):
        lay = Layout((3, 4, 0, 1, 2))
        assert is_of_type(lay, [[3, 4], [0], [1, 2]])
        assert not is_of_type(lay, [[0], [3, 4], [1, 2]])

    def test_is_of_type_needs_cover(self):
        with pytest.raises(ValueError):
            is_of_type(identity_layout(4), [[0], [1]])


class TestSpinal:
    def test_tree_path(self):
        t = build_embedded_tree(0, {0: [1, 2, 3], 1: [4, 5], 2: [6, 7], 3: [8, 9]})
        assert tree_path(t, 4, 9) == [4, 1, 0, 3, 9]
        assert tree_path(t, 4, 5) == [4, 1, 5]
        assert tree_path(t, 0, 7) == [0, 2, 7]
        assert tree_path(t, 6, 6) == [6]

    def test_spinal_path_wheel(self):
        h = gen_wheel(4)
        lay = Layout((1, 2, 0, 3, 4))
        assert spinal_path(h, lay) == [1, 0, 4]

    def test_spinal_decomposition(self):
        h = gen_wheel(4)
        lay = Layout((1, 2, 0, 3, 4))
        dec = spinal_decomposition(h, lay)
        assert dec.path == (1, 0, 4)
        assert dec.subtrees == (frozenset({1}), frozenset({0, 2, 3}), frozenset({4}))
        assert dec.subtree_sizes == (1, 3, 1)
        hub_branches = {b.vertices for b in dec.branches[1]}
        assert hub_branches == {frozenset({2}), frozenset({3})}

    def test_spinal_path_needs_two_vertices(self):
        t = build_embedded_tree(0, {})
        with pytest.raises(ValueError):
            spinal_path(t, Layout((0,)))
