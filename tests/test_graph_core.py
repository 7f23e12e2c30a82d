import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halin_ola import (
    CycleDetected,
    DisconnectedInput,
    DuplicateChild,
    InvalidSubstrate,
    SimpleGraph,
    build_embedded_tree,
    cycle_graph,
    gen_random_halin,
    halin_from_tree,
    leaves_in_embedding_order,
    validate_halin_substrate,
)


def star(k):
    return build_embedded_tree(0, {0: list(range(1, k + 1))})


def tri_star():
    # root 0 with three children, each with two leaves
    return build_embedded_tree(
        0, {0: [1, 2, 3], 1: [4, 5], 2: [6, 7], 3: [8, 9]}
    )


class TestEdge:
    def test_endpoints_normalized(self):
        t = build_embedded_tree(0, {0: [5, 1, 2], 5: [3, 4]})
        assert t.edges() == [(0, 5), (0, 1), (0, 2), (3, 5), (4, 5)]
        h = halin_from_tree(build_embedded_tree(0, {0: [3, 1, 2]}))
        assert h.edges() == [(0, 3), (0, 1), (0, 2), (1, 3), (1, 2), (2, 3)]
        assert SimpleGraph(3, ((2, 0), (1, 2))).edges() == [(0, 2), (1, 2)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 200), st.integers(0, 10**6))
    def test_halin_edges_distinct(self, n, seed):
        h = gen_random_halin(n, seed)
        assert all(u < v for u, v in h.edges())
        assert len(set(h.edges())) == h.m

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            SimpleGraph(3, ((0, 1), (2, 2)))
        with pytest.raises(ValueError, match="self-loop"):
            cycle_graph(1)


class TestBuildEmbeddedTree:
    def test_single_vertex(self):
        t = build_embedded_tree(0, {})
        assert t.n == 1
        assert t.is_leaf(0)
        assert t.subtree_heights()[t.root] == 1

    def test_star_shape(self):
        t = star(3)
        assert t.n == 4
        assert t.degree(0) == 3
        assert all(t.degree(v) == 1 for v in (1, 2, 3))
        assert len(t.edges()) == 3

    def test_child_order_preserved(self):
        t = build_embedded_tree(0, {0: [3, 1, 2]})
        assert t.children[0] == (3, 1, 2)
        assert leaves_in_embedding_order(t) == [3, 1, 2]

    def test_dfs_order_is_embedding_preorder(self):
        t = tri_star()
        assert t._preorder == (0, 1, 4, 5, 2, 6, 7, 3, 8, 9)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dfs_order_matches_stack_walk(self, data):
        h = gen_random_halin(data.draw(st.integers(4, 300)),
                             seed=data.draw(st.integers(0, 10**6)))
        perm = data.draw(st.permutations(list(h.tree.vertices)))
        t = build_embedded_tree(perm[h.tree.root], {
            perm[v]: [perm[c] for c in cs] for v, cs in enumerate(h.tree.children)})
        expected, stack = [], [t.root]
        while stack:
            v = stack.pop()
            expected.append(v)
            stack.extend(reversed(t.children[v]))
        assert t._preorder == tuple(expected)
        assert leaves_in_embedding_order(t) == [v for v in expected if not t.children[v]]

    def test_subtree_sizes(self):
        t = tri_star()
        sizes = t.subtree_sizes()
        assert sizes[0] == 10
        assert sizes[1] == sizes[2] == sizes[3] == 3
        assert sizes[4] == 1

    def test_subtree_sizes_cached_outside_the_fields(self):
        t, u = tri_star(), tri_star()
        sizes = t.subtree_sizes()
        assert t.subtree_sizes() is sizes
        assert t == u and hash(t) == hash(u) and repr(t) == repr(u)

    def test_height(self):
        assert star(3).subtree_heights()[0] == 2
        assert tri_star().subtree_heights()[0] == 3

    def test_non_contiguous_ids_rejected(self):
        with pytest.raises(DisconnectedInput):
            build_embedded_tree(0, {0: [1, 5]})

    def test_duplicate_child_rejected(self):
        with pytest.raises(DuplicateChild):
            build_embedded_tree(0, {0: [1, 1]})

    def test_two_parents_rejected(self):
        with pytest.raises(DuplicateChild):
            build_embedded_tree(0, {0: [1, 2], 1: [3], 2: [3]})

    def test_root_as_child_rejected(self):
        with pytest.raises(CycleDetected):
            build_embedded_tree(0, {0: [1], 1: [0]})

    def test_disconnected_rejected(self):
        # 3 is mentioned as a parent key but never reachable from 0
        with pytest.raises((DisconnectedInput, CycleDetected)):
            build_embedded_tree(0, {0: [1, 2], 3: [4], 4: [3]})


class TestSubstrateValidation:
    def test_valid_star(self):
        assert validate_halin_substrate(star(3)) == []

    def test_too_few_leaves(self):
        violations = validate_halin_substrate(build_embedded_tree(0, {0: [1, 2]}))
        assert any("root" in v for v in violations)

    def test_internal_single_child(self):
        t = build_embedded_tree(0, {0: [1, 2, 3], 1: [4]})
        assert any("internal vertex 1" in v for v in validate_halin_substrate(t))

    def test_halin_from_bad_tree_raises(self):
        with pytest.raises(InvalidSubstrate):
            halin_from_tree(build_embedded_tree(0, {0: [1, 2]}))


class TestHalinGraph:
    def test_k4(self):
        h = halin_from_tree(star(3))
        assert h.n == 4
        assert h.m == 6
        assert h.cycle_order == (1, 2, 3)
        assert [sum(v in e for e in h.edges()) for v in h.tree.vertices] == [3] * 4

    def test_cycle_follows_embedding(self):
        h = halin_from_tree(tri_star())
        assert h.cycle_order == (4, 5, 6, 7, 8, 9)
        assert h.cycle_pairs() == [(4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4)]

    def test_edge_partition(self):
        h = halin_from_tree(tri_star())
        assert len(h.tree.edges()) == 9
        assert h.edges()[9:] == [(4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (4, 9)]
        assert len(set(h.edges())) == h.m
