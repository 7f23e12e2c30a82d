import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halin_ola import (
    CycleDetected,
    DisconnectedInput,
    DuplicateChild,
    Edge,
    EdgeKind,
    InvalidSubstrate,
    build_embedded_tree,
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
        e = Edge(5, 2, kind=EdgeKind.TREE)
        assert e.endpoints == (2, 5)
        assert e == Edge(2, 5, kind=EdgeKind.TREE)

    def test_other(self):
        e = Edge(1, 3, kind=EdgeKind.CYCLE)
        assert e.other(1) == 3
        assert e.other(3) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Edge(2, 2, kind=EdgeKind.TREE)

    def test_kind_distinguishes(self):
        assert Edge(0, 1, kind=EdgeKind.TREE) != Edge(0, 1, kind=EdgeKind.CYCLE)


class TestBuildEmbeddedTree:
    def test_single_vertex(self):
        t = build_embedded_tree(0, {})
        assert t.n == 1
        assert t.is_leaf(0)
        assert t.height() == 1

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
        assert t.dfs_order() == [0, 1, 4, 5, 2, 6, 7, 3, 8, 9]

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
        order = t.dfs_order()
        assert order == expected
        order.reverse()
        order.append(-1)
        assert t.dfs_order() == expected
        assert leaves_in_embedding_order(t) == [v for v in expected if not t.children[v]]

    def test_subtree_sizes(self):
        t = tri_star()
        sizes = t.subtree_sizes()
        assert sizes[0] == 10
        assert sizes[1] == sizes[2] == sizes[3] == 3
        assert sizes[4] == 1

    def test_height(self):
        assert star(3).height() == 2
        assert tri_star().height() == 3

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
        assert h.degree(0) == 3
        assert h.degree(1) == 3

    def test_cycle_follows_embedding(self):
        h = halin_from_tree(tri_star())
        assert h.cycle_order == (4, 5, 6, 7, 8, 9)
        assert h.cycle_pairs() == [(4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4)]

    def test_edge_partition(self):
        h = halin_from_tree(tri_star())
        assert len(h.tree_edges()) == 9
        assert len(h.cycle_edges()) == 6
        assert all(e.kind is EdgeKind.TREE for e in h.tree_edges())
        assert all(e.kind is EdgeKind.CYCLE for e in h.cycle_edges())
        assert len(set(h.edges())) == h.m
