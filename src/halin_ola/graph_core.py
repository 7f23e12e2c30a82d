"""Plane-embedded rooted trees and the Halin graphs built on top of them.

Vertices are dense integers 0..n-1.  A tree's planar embedding is carried
entirely by the order of each vertex's child list; the leaf cycle of a Halin
graph is the left-to-right leaf sequence of that embedding, closed last to
first.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Collection, Iterable, List, Mapping, Optional, Sequence, Tuple

from ._record import record
from .errors import (BadParam, CycleDetected, DisconnectedInput, DuplicateChild,
                     InvalidSubstrate)

VertexId = int


@record(frozen=True)
class EmbeddedTree:
    """Rooted tree with ordered (= plane-embedded) child lists.

    ``children[v]`` lists v's children in embedding order; n is its length.
    Construction checks that the lists make one tree on 0..n-1.  The root
    and every child must be an ``int`` that is not a bool, and ``children``
    a tuple of tuples; BadParam otherwise.  It raises DisconnectedInput for
    n = 0 or a root outside 0..n-1; then, scanning the lists by vertex id,
    for the first faulty child: BadParam when not an int, DisconnectedInput
    when outside 0..n-1, CycleDetected when it is its own parent or the
    root, DuplicateChild when repeated or given a second parent; last,
    DisconnectedInput when the root does not reach every vertex.  So the
    fault named is the one under the smallest vertex id.

    ``parent`` (None at the root), derived by that scan, the preorder in
    embedding order, the subtree sizes and the heights are not fields: each
    is computed once, kept on the instance and left out of ``==``, ``hash``
    and ``repr``.  Immutable; safe for concurrent reads.  From Python 3.12
    ``cached_property`` takes no lock: two threads reading a fact first may
    both compute it, and both get the same value.
    """

    root: VertexId
    children: Tuple[Tuple[VertexId, ...], ...]

    def __post_init__(self):
        root, children = self.root, self.children
        # bool is an int subclass, so the tests are on the exact type
        if type(children) is not tuple or not set(map(type, children)) <= {tuple}:
            raise BadParam("children must be a tuple of tuples")
        if type(root) is not int:
            raise BadParam(f"root {root!r} is not an int")
        n = len(children)
        if not n:
            raise DisconnectedInput("a tree needs at least one vertex")
        if not 0 <= root < n:
            raise DisconnectedInput(f"root {root} is outside 0..{n - 1}")
        parent: List[Optional[VertexId]] = [None] * n
        for v in compress(range(n), children):  # the vertices with children
            for c in children[v]:
                if type(c) is not int:
                    raise BadParam(f"child {c!r} of vertex {v} is not an int")
                if not 0 <= c < n:
                    raise DisconnectedInput(f"child {c} of vertex {v} is outside 0..{n - 1}")
                if c == v:
                    raise CycleDetected(f"vertex {v} is its own child")
                if c == root:
                    raise CycleDetected(f"the root cannot be a child of {v}")
                if parent[c] is not None:
                    if parent[c] == v:
                        raise DuplicateChild(f"vertex {v} lists child {c} twice")
                    raise DuplicateChild(f"vertex {c} has two parents")
                parent[c] = v
        # with one parent per vertex and the root nobody's child, the preorder
        # walk visits each vertex at most once; reaching all n doubles as the
        # acyclicity check given n-1 parent links
        if len(self._preorder) != n:
            raise DisconnectedInput("child lists do not connect every vertex to the root")
        self.__dict__["parent"] = tuple(parent)

    @cached_property
    def _preorder(self) -> Tuple[VertexId, ...]:
        children = self.children
        order: List[VertexId] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack += children[v][::-1]
        return tuple(order)

    @property
    def n(self) -> int:
        return len(self.children)

    @property
    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> List[Tuple[VertexId, VertexId]]:
        """Parent-child vertex pairs, smaller id first, by parent id."""
        return [(v, c) if v < c else (c, v)
                for v, cs in enumerate(self.children) for c in cs]

    @cached_property
    def subtree_sizes(self) -> Tuple[int, ...]:
        """Size of the subtree rooted at each vertex, summed once per tree."""
        size = [1] * self.n
        children = self.children
        for v in reversed(self._preorder):
            for c in children[v]:
                size[v] += size[c]
        return tuple(size)

    @cached_property
    def subtree_heights(self) -> Tuple[int, ...]:
        """Height of the subtree rooted at each vertex, a leaf counting as 1."""
        height = [1] * self.n
        children = self.children
        for v in reversed(self._preorder):
            for c in children[v]:
                if height[c] >= height[v]:
                    height[v] = height[c] + 1
        return tuple(height)


def build_embedded_tree(
    root: VertexId, child_lists: Mapping[VertexId, Sequence[VertexId]]
) -> EmbeddedTree:
    """Assemble an EmbeddedTree from a map of per-vertex ordered child lists.

    A tree on n vertices lists n - 1 children, so n is 1 + the number of
    listed children; a vertex that is not a key is a leaf.  Child order is
    preserved verbatim (it is the planar embedding).  Raises BadParam,
    before any list is placed, for a key that is not an ``int`` or is a
    bool, or a child list that is not a list or tuple; then
    DisconnectedInput for a key outside 0..n-1; every other check, and the
    vertex-id order it names faults in, is ``EmbeddedTree``'s, which then
    proves that each of 0..n-1 occurs once.
    """
    keys, lists = child_lists.keys(), child_lists.values()
    # bool is an int subclass, so the tests are on the exact type
    if not set(map(type, keys)) <= {int}:
        bad = next(v for v in keys if type(v) is not int)
        raise BadParam(f"child-map key {bad!r} is not an int")
    if not set(map(type, lists)) <= {list, tuple}:
        bad = next(v for v, cs in child_lists.items() if type(cs) not in (list, tuple))
        raise BadParam(f"the child list of vertex {bad} is not a list or tuple")
    return _place_child_lists(root, keys, lists)


def _place_child_lists(root: VertexId, keys: Iterable[VertexId],
                       lists: Collection[Sequence[VertexId]]) -> EmbeddedTree:
    """``build_embedded_tree`` after its type checks; ``keys`` pairs with ``lists``."""
    n = 1 + sum(map(len, lists))
    children: List[Tuple[VertexId, ...]] = [()] * n
    for v, cs in zip(keys, lists):
        if not 0 <= v < n:
            raise DisconnectedInput(f"child-map key {v} is outside 0..{n - 1}")
        children[v] = tuple(cs)
    return EmbeddedTree(root, tuple(children))


def validate_halin_substrate(tree: EmbeddedTree) -> List[str]:
    """Check that gluing a leaf cycle onto ``tree`` yields min degree 3.

    Returns a list of violations; empty means the tree is a valid substrate.
    Required: at least 3 leaves, root with >= 3 children, every internal
    non-root vertex with >= 2 children.
    """
    violations = []
    children = tree.children
    n_leaves = children.count(())
    if n_leaves < 3:
        violations.append(f"needs >= 3 leaves, has {n_leaves}")
    if len(children[tree.root]) < 3:
        violations.append(f"root has {len(children[tree.root])} children, needs >= 3")
    sizes = list(map(len, children))
    if sizes.count(1) > (sizes[tree.root] == 1):  # some non-root vertex has one child
        violations += [f"internal vertex {v} has 1 child, needs >= 2"
                       for v, k in enumerate(sizes) if k == 1 and v != tree.root]
    return violations


@record(frozen=True)
class HalinGraph:
    """A plane tree plus the cycle through its leaves in embedding order.

    The tree is the only field; the cycle is read off its embedding, so it
    cannot disagree with the tree.  Every graph is simple.

    Raises InvalidSubstrate, with its violations, when
    ``validate_halin_substrate`` finds the tree is not a Halin substrate.
    """

    tree: EmbeddedTree

    def __post_init__(self):
        violations = validate_halin_substrate(self.tree)
        if violations:
            raise InvalidSubstrate(violations)

    @cached_property
    def cycle_order(self) -> Tuple[VertexId, ...]:
        """The leaves in depth-first, child-order (left-to-right) sequence."""
        children = self.tree.children
        return tuple([v for v in self.tree._preorder if not children[v]])

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def m(self) -> int:
        return self.n - 1 + len(self.cycle_order)

    def cycle_pairs(self) -> List[Tuple[VertexId, VertexId]]:
        """Consecutive leaves of the cycle, closed by the pair (last, first)."""
        ring = self.cycle_order
        return list(zip(ring, ring[1:] + ring[:1]))

    def edges(self) -> List[Tuple[VertexId, VertexId]]:
        """Vertex pairs, smaller id first: the tree's edges, then the cycle's."""
        return self.tree.edges() + [(a, b) if a < b else (b, a)
                                    for a, b in self.cycle_pairs()]


def halin_from_tree(tree: EmbeddedTree) -> HalinGraph:
    """Close the leaves of a substrate tree into a Halin graph: ``HalinGraph(tree)``."""
    return HalinGraph(tree)
