"""Plane-embedded rooted trees and the Halin graphs built on top of them.

Vertices are dense integers 0..n-1.  A tree's planar embedding is carried
entirely by the order of each vertex's child list; the leaf cycle of a Halin
graph is the left-to-right leaf sequence of that embedding, closed last to
first.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import chain
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from ._record import field, record
from .errors import CycleDetected, DisconnectedInput, DuplicateChild, InvalidSubstrate

VertexId = int


@record(frozen=True)
class EmbeddedTree:
    """Rooted tree with ordered (= plane-embedded) child lists.

    Immutable after construction; safe for concurrent reads.  The preorder
    in embedding order is computed once, at construction, and every
    traversal reads it; ``build_embedded_tree`` checks the child lists
    before that walk.
    """

    root: VertexId
    children: Tuple[Tuple[VertexId, ...], ...]
    parent: Tuple[Optional[VertexId], ...]
    _preorder: Tuple[VertexId, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        children = self.children
        order: List[VertexId] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack += children[v][::-1]
        object.__setattr__(self, "_preorder", tuple(order))

    @property
    def n(self) -> int:
        return len(self.children)

    @property
    def vertices(self) -> range:
        return range(self.n)

    def is_leaf(self, v: VertexId) -> bool:
        return not self.children[v]

    def degree(self, v: VertexId) -> int:
        return len(self.children[v]) + (0 if v == self.root else 1)

    def edges(self) -> List[Tuple[VertexId, VertexId]]:
        """Parent-child vertex pairs, smaller id first, by parent id."""
        return [(v, c) if v < c else (c, v)
                for v, cs in enumerate(self.children) for c in cs]

    def subtree_sizes(self) -> Tuple[int, ...]:
        """Size of the subtree rooted at each vertex, summed once per tree.

        Cached outside the fields, so it is not in ``==``, ``hash`` or ``repr``.
        """
        cached = self.__dict__.get("_size_cache")
        if cached is None:
            size = [1] * self.n
            children = self.children
            for v in reversed(self._preorder):
                for c in children[v]:
                    size[v] += size[c]
            cached = self.__dict__["_size_cache"] = tuple(size)
        return cached

    def subtree_heights(self) -> List[int]:
        """Height of the subtree rooted at each vertex, a leaf counting as 1."""
        height = [1] * self.n
        for v in reversed(self._preorder):
            for c in self.children[v]:
                if height[c] >= height[v]:
                    height[v] = height[c] + 1
        return height


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic collector off while a builder runs.

    What the builders make (a decoded document, a tree, a layout, a swap
    list) is acyclic, so a collection pass over it frees nothing.  The
    caller's collector state is restored on exit, also on error; a collector
    that was off stays off.  ``@_collector_paused()`` pauses a whole function.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def build_embedded_tree(
    root: VertexId, child_lists: Mapping[VertexId, Sequence[VertexId]]
) -> EmbeddedTree:
    """Assemble an EmbeddedTree from per-vertex ordered child lists.

    Vertex ids must cover exactly 0..n-1.  Child order is preserved verbatim
    (it is the planar embedding).

    Raises:
        DuplicateChild: a vertex appears twice as a child.
        CycleDetected: the parent relation is cyclic (includes re-rooting
            the root under a descendant).
        DisconnectedInput: some vertex is unreachable from the root.
    """
    kids = chain.from_iterable(child_lists.values())
    mentioned = set(chain((root,), child_lists, kids))
    n = len(mentioned)
    if not mentioned.issuperset(range(n)):
        raise DisconnectedInput(
            f"vertex ids must be the contiguous range 0..{n - 1}, got {sorted(mentioned)}"
        )

    children: List[Tuple[VertexId, ...]] = [()] * n
    parent: List[Optional[VertexId]] = [None] * n
    for v, cs in child_lists.items():
        children[v] = tuple(cs)
        for c in cs:
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
    tree = EmbeddedTree(root=root, children=tuple(children), parent=tuple(parent))
    if len(tree._preorder) != n:
        raise DisconnectedInput("child lists do not connect every vertex to the root")
    return tree


def leaves_in_embedding_order(tree: EmbeddedTree) -> List[VertexId]:
    """Leaves in depth-first, child-order (left-to-right) sequence."""
    children = tree.children
    return [v for v in tree._preorder if not children[v]]


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
    """A plane tree plus the cycle through its leaves in embedding order."""

    tree: EmbeddedTree
    cycle_order: Tuple[VertexId, ...] = field(compare=False)

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
    """Close the leaves of a valid substrate tree into a Halin graph.

    The cycle order is always recomputed from the embedding; it is never an
    independent degree of freedom.
    """
    violations = validate_halin_substrate(tree)
    if violations:
        raise InvalidSubstrate(violations)
    return HalinGraph(tree=tree, cycle_order=tuple(leaves_in_embedding_order(tree)))
