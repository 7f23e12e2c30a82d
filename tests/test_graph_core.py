import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halin_ola import (
    BadParam,
    CycleDetected,
    DisconnectedInput,
    DuplicateChild,
    EmbeddedTree,
    GenSpec,
    HalinGraph,
    InvalidSubstrate,
    Layout,
    SimpleGraph,
    build_embedded_tree,
    cycle_graph,
    gen_caterpillar_halin,
    gen_kary_rbt_halin,
    gen_random_halin,
    gen_wheel,
    generate,
    halin_from_tree,
    la_cost,
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
        assert t.children[0] == ()
        assert t.subtree_heights[t.root] == 1

    def test_star_shape(self):
        t = star(3)
        assert t.n == 4
        assert t.children == ((1, 2, 3), (), (), ())
        assert len(t.edges()) == 3

    def test_child_order_preserved(self):
        t = build_embedded_tree(0, {0: [3, 1, 2]})
        assert t.children[0] == (3, 1, 2)
        assert HalinGraph(t).cycle_order == (3, 1, 2)

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
        assert HalinGraph(t).cycle_order == tuple(v for v in expected if not t.children[v])

    def test_subtree_sizes(self):
        t = tri_star()
        sizes = t.subtree_sizes
        assert sizes[0] == 10
        assert sizes[1] == sizes[2] == sizes[3] == 3
        assert sizes[4] == 1

    def test_subtree_sizes_cached_outside_the_fields(self):
        t, u = tri_star(), tri_star()
        sizes = t.subtree_sizes
        assert t.subtree_sizes is sizes
        assert t == u and hash(t) == hash(u) and repr(t) == repr(u)

    def test_height(self):
        assert star(3).subtree_heights[0] == 2
        assert tri_star().subtree_heights == (3, 2, 2, 2, 1, 1, 1, 1, 1, 1)

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


class TestEmbeddedTreeChecks:
    # (root, children, error, message): hand-built trees that the constructor
    # refuses, before any cached fact is read
    REFUSED = {
        # edge (0, 1) twice, and a (1, 1) loop in the leaf cycle
        "child-twice": (0, ((1, 2, 3, 1), (), (), ()), DuplicateChild,
                        "vertex 0 lists child 1 twice"),
        # a HalinGraph over it would walk the leaf cycle forever
        "root-under-child": (0, ((1, 2, 3), (4, 5, 0), (), (), (), ()), CycleDetected,
                             "the root cannot be a child of 1"),
        "cycle-off-root": (0, ((1, 2, 3), (), (), (), (5,), (4,)), DisconnectedInput,
                           "child lists do not connect every vertex to the root"),
        "self-child": (0, ((1, 2, 3), (1,), (), ()), CycleDetected,
                       "vertex 1 is its own child"),
        "negative-child": (0, ((1, 2, -1), (), (), ()), DisconnectedInput,
                           "child -1 of vertex 0 is outside 0..3"),
        "child-too-large": (0, ((1, 2, 4), (), (), ()), DisconnectedInput,
                            "child 4 of vertex 0 is outside 0..3"),
        "root-out-of-range": (4, ((1, 2, 3), (), (), ()), DisconnectedInput,
                              "root 4 is outside 0..3"),
        "no-vertex": (0, (), DisconnectedInput, "a tree needs at least one vertex"),
        # the type rule: a list of lists hashes with a TypeError and has no
        # () leaves, and a float child or bool root is not a vertex id
        "lists": (0, [[1, 2, 3], [], [], []], BadParam, "children must be a tuple of tuples"),
        "float-child": (0, ((1.0, 2, 3), (), (), ()), BadParam,
                        "child 1.0 of vertex 0 is not an int"),
        "bool-root": (True, ((), (0, 2, 3), (), ()), BadParam, "root True is not an int"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_at_construction(self, case):
        root, children, error, message = self.REFUSED[case]
        with pytest.raises(error) as raised:
            EmbeddedTree(root, children)
        assert type(raised.value) is error and str(raised.value) == message

    def test_parent_is_derived_not_passed(self):
        # a parent array that disagrees with the child lists cannot be given
        children = ((1, 2, 3), (), (), ())
        with pytest.raises(TypeError):
            EmbeddedTree(0, children, (None, 0, 0, 2))
        with pytest.raises(TypeError):
            EmbeddedTree(root=0, children=children, parent=(None, 0, 0, 2))
        tree = EmbeddedTree(0, children)
        assert tree.parent == (None, 0, 0, 0)
        assert la_cost(tree, Layout((0, 1, 2, 3))).tree_cost == 6

    def test_parent_not_compared_nor_shown(self):
        a, b = star(3), star(3)
        object.__setattr__(b, "parent", ())
        assert a == b and hash(a) == hash(b)
        assert "parent" not in repr(a)

    def test_parent_matches_the_child_lists(self, corpus):
        graphs = [h for _spec, h in corpus]
        graphs += [gen_kary_rbt_halin(3, 2, 14), gen_random_halin(49150, 1)]
        for h in graphs:
            children = h.tree.children
            parent_of = {c: v for v, cs in enumerate(children) for c in cs}
            assert h.tree.parent == tuple(map(parent_of.get, range(len(children))))


class TestTypeRule:
    # (build, error, message): ids, sizes and seeds must be ints that are not
    # bools, sizes at least 0, and containers of the declared type; each is
    # refused where it is given, with the error type the record, adapter or
    # generator already raises
    REFUSED = {
        "layout-float": (lambda: Layout((0.0, 1, 2, 3)), ValueError,
                         "vertex_at must be a permutation of 0..n-1"),
        # a list hashes with a TypeError
        "layout-list": (lambda: Layout([0, 1, 2, 3]), ValueError, "vertex_at must be a tuple"),
        "layout-bools": (lambda: Layout((True, False, 2, 3)), ValueError,
                         "vertex_at must be a permutation of 0..n-1"),
        "graph-float-end": (lambda: SimpleGraph(3, ((0, 1.5), (1, 2))), ValueError,
                            "edge (0, 1.5) has an endpoint that is not an int"),
        "graph-bool-n": (lambda: SimpleGraph(True, ()), ValueError, "n True is not an int"),
        "graph-negative-n": (lambda: SimpleGraph(-1, ()), ValueError, "n -1 is below 0"),
        "graph-list-edges": (lambda: SimpleGraph(2, [(0, 1)]), ValueError,
                             "edge_pairs must be a tuple of 2-tuples"),
        "graph-triple": (lambda: SimpleGraph(3, ((0, 1, 2),)), ValueError,
                         "edge_pairs must be a tuple of 2-tuples"),
        "graph-list-pair": (lambda: SimpleGraph(2, ([0, 1],)), ValueError,
                            "edge_pairs must be a tuple of 2-tuples"),
        # a length check on an int would raise TypeError
        "graph-int-pair": (lambda: SimpleGraph(2, (5,)), ValueError,
                           "edge_pairs must be a tuple of 2-tuples"),
        "map-float-key": (lambda: build_embedded_tree(0, {0: [1, 2, 3], 1.0: [4, 5]}),
                          BadParam, "child-map key 1.0 is not an int"),
        "map-str-key": (lambda: build_embedded_tree(0, {0: [1, 2, 3], "1": [4, 5]}),
                        BadParam, "child-map key '1' is not an int"),
        # True would otherwise be taken as vertex 1
        "map-bool-key": (lambda: build_embedded_tree(0, {0: [1, 2, 3], True: [4, 5]}),
                         BadParam, "child-map key True is not an int"),
        "map-int-value": (lambda: build_embedded_tree(0, {0: 5}), BadParam,
                          "the child list of vertex 0 is not a list or tuple"),
        # a set has no order, so it cannot give an embedding
        "map-set-value": (lambda: build_embedded_tree(0, {0: {1, 2, 3}}), BadParam,
                          "the child list of vertex 0 is not a list or tuple"),
        "wheel-float": (lambda: gen_wheel(4.0), BadParam, "spokes must be an int, got 4.0"),
        "kary-float": (lambda: gen_kary_rbt_halin(3, 2, 2.0), BadParam,
                       "height must be an int, got 2.0"),
        "spec-float": (lambda: generate(GenSpec("wheel", (("spokes", 4.0),))), BadParam,
                       "spokes must be an int, got 4.0"),
        "random-float": (lambda: gen_random_halin(10.5, 1), BadParam,
                         "n_target must be an int, got 10.5"),
        "seed-float": (lambda: gen_random_halin(9, 1.5), BadParam,
                       "seed must be an int, got 1.5"),
        # True would otherwise build seed 1's instance
        "seed-bool": (lambda: gen_random_halin(9, True), BadParam,
                      "seed must be an int, got True"),
        # None would seed from the operating system, so two calls would differ
        "seed-none": (lambda: generate(GenSpec("random", (("n", 9),), seed=None)), BadParam,
                      "seed must be an int, got None"),
        "caterpillar-float": (lambda: gen_caterpillar_halin(1, [3.0]), BadParam,
                              "leaves_per_spine[0] must be an int, got 3.0"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused(self, case):
        build, error, message = self.REFUSED[case]
        with pytest.raises(error) as raised:
            build()
        assert type(raised.value) is error and str(raised.value) == message


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

    @pytest.mark.parametrize("child_lists,violations", [
        ({0: [1, 2]}, ["needs >= 3 leaves, has 2", "root has 2 children, needs >= 3"]),
        ({0: [1]}, ["needs >= 3 leaves, has 1", "root has 1 children, needs >= 3"]),
        ({}, ["needs >= 3 leaves, has 1", "root has 0 children, needs >= 3"]),
        ({0: [1, 2, 3], 1: [4]}, ["internal vertex 1 has 1 child, needs >= 2"]),
        ({0: [1, 2], 1: [3]}, ["needs >= 3 leaves, has 2", "root has 2 children, needs >= 3",
                               "internal vertex 1 has 1 child, needs >= 2"]),
    ], ids=["two-leaf-star", "one-child-root", "one-vertex", "unary-internal",
            "two-child-root-unary-internal"])
    def test_halin_graph_checks_its_tree(self, child_lists, violations):
        tree = build_embedded_tree(0, child_lists)
        for build in (HalinGraph, halin_from_tree):
            with pytest.raises(InvalidSubstrate) as raised:
                build(tree)
            assert raised.value.violations == violations
            assert str(raised.value) == "; ".join(violations)


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
