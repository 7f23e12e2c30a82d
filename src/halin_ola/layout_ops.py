"""Layouts (vertex -> position bijections) and the cost machinery on them.

Positions are 1-based.  A layout is value-semantic and immutable; every
operation returns a fresh layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple, Union

from .errors import NotContiguous, Overlapping
from .graph_core import EmbeddedTree, HalinGraph, VertexId


@dataclass(frozen=True)
class Layout:
    """Bijection between vertices 0..n-1 and positions 1..n.

    ``vertex_at[i]`` is the vertex at position i+1.
    """

    vertex_at: Tuple[VertexId, ...]

    def __post_init__(self):
        n = len(self.vertex_at)
        if sorted(self.vertex_at) != list(range(n)):
            raise ValueError("vertex_at must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.vertex_at)

    def position(self, v: VertexId) -> int:
        return self._pos[v]

    @property
    def _pos(self) -> Tuple[int, ...]:
        # lazily cached inverse
        cached = self.__dict__.get("_pos_cache")
        if cached is None:
            cached = [0] * self.n
            for i, v in enumerate(self.vertex_at):
                cached[v] = i + 1
            cached = tuple(cached)
            self.__dict__["_pos_cache"] = cached
        return cached

    def positions(self) -> Tuple[int, ...]:
        """Position of every vertex, indexed by vertex id."""
        return self._pos

    def reversed(self) -> "Layout":
        return Layout(tuple(reversed(self.vertex_at)))

    def first(self) -> VertexId:
        return self.vertex_at[0]

    def last(self) -> VertexId:
        return self.vertex_at[-1]


def identity_layout(n: int) -> Layout:
    return Layout(tuple(range(n)))


GraphLike = Union[EmbeddedTree, HalinGraph]


@dataclass(frozen=True)
class ArrangementReport:
    total_cost: int
    tree_cost: int
    cycle_cost: int


def la_cost(g: GraphLike, layout: Layout) -> ArrangementReport:
    """Linear arrangement cost of ``layout``, split into tree and cycle parts.

    The tree part sums each vertex's distance to its parent; for a
    HalinGraph the cycle part sums the distances of consecutive cycle
    leaves, and for a plain tree it is 0.
    """
    pos = layout.positions()
    if isinstance(g, HalinGraph):
        tree, ring = g.tree, g.cycle_pairs()
    else:
        tree, ring = g, ()
    tree_cost = sum(abs(pos[v] - pos[p]) for v, p in enumerate(tree.parent)
                    if p is not None)
    cycle_cost = sum(abs(pos[a] - pos[b]) for a, b in ring)
    return ArrangementReport(tree_cost + cycle_cost, tree_cost, cycle_cost)


def la_total(g: GraphLike, layout: Layout) -> int:
    """Total LA cost of ``layout``."""
    return la_cost(g, layout).total_cost


BlockPartition = Sequence[Iterable[VertexId]]


def is_of_type(layout: Layout, partition: BlockPartition) -> bool:
    """True iff every block of ``partition`` wholly precedes the next one."""
    pos = layout.positions()
    prev_max = 0
    total = 0
    for block in partition:
        block = list(block)
        total += len(block)
        if not block:
            continue
        lo = min(pos[v] for v in block)
        hi = max(pos[v] for v in block)
        if lo <= prev_max:
            return False
        prev_max = hi
    if total != layout.n:
        raise ValueError("partition does not cover all vertices")
    return True


def _contiguous_range(layout: Layout, block: Iterable[VertexId]) -> Tuple[int, int]:
    pos = layout.positions()
    ps = sorted(pos[v] for v in block)
    if not ps:
        raise NotContiguous("empty block")
    if ps[-1] - ps[0] + 1 != len(ps):
        raise NotContiguous(f"block occupies non-contiguous positions {ps}")
    return ps[0], ps[-1]


def sigma_swap(layout: Layout, block_a: Iterable[VertexId],
               block_b: Iterable[VertexId]) -> Layout:
    """Exchange two contiguous position blocks, keeping inner orders.

    Blocks may differ in size: the vertices between them shift by the size
    difference.  After the swap the (originally) later block starts where the
    earlier one did, and the earlier block ends where the later one did.
    """
    a = set(block_a)
    b = set(block_b)
    if a & b:
        raise Overlapping(f"blocks share vertices {sorted(a & b)}")
    a_lo, a_hi = _contiguous_range(layout, a)
    b_lo, b_hi = _contiguous_range(layout, b)
    if a_lo > b_lo:
        a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi
    if a_hi >= b_lo:
        raise Overlapping("block position ranges overlap")

    order = list(layout.vertex_at)
    seg_a = order[a_lo - 1:a_hi]
    seg_gap = order[a_hi:b_lo - 1]
    seg_b = order[b_lo - 1:b_hi]
    order[a_lo - 1:b_hi] = seg_b + seg_gap + seg_a
    return Layout(tuple(order))


def reverse_block(layout: Layout, block: Iterable[VertexId]) -> Layout:
    """Reverse the inner order of one contiguous position block."""
    lo, hi = _contiguous_range(layout, set(block))
    order = list(layout.vertex_at)
    order[lo - 1:hi] = reversed(order[lo - 1:hi])
    return Layout(tuple(order))


def tree_path(tree: EmbeddedTree, u: VertexId, v: VertexId) -> List[VertexId]:
    """Unique tree path from u to v (inclusive)."""
    seen_depth = {}
    a = u
    up_a = [a]
    while a is not None:
        seen_depth[a] = len(up_a) - 1
        a = tree.parent[a]
        if a is not None:
            up_a.append(a)
    up_b = [v]
    b = v
    while b not in seen_depth:
        b = tree.parent[b]
        up_b.append(b)
    lca = b
    head = up_a[: seen_depth[lca] + 1]  # u .. lca
    return head + list(reversed(up_b[:-1]))


def spinal_path(g: GraphLike, layout: Layout) -> List[VertexId]:
    """Tree path between the vertices at positions 1 and n.

    Requires n >= 2 (the notion degenerates on a single vertex).
    """
    if layout.n < 2:
        raise ValueError("spinal path needs at least two vertices")
    tree = g.tree if isinstance(g, HalinGraph) else g
    return tree_path(tree, layout.first(), layout.last())


@dataclass(frozen=True)
class Branch:
    anchor: VertexId
    vertices: frozenset

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class SpinalDecomposition:
    path: Tuple[VertexId, ...]
    subtrees: Tuple[frozenset, ...]          # vertex sets, subtrees[i] owns path[i]
    branches: Tuple[Tuple[Branch, ...], ...]  # per spinal vertex

    @property
    def subtree_sizes(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.subtrees)


def spinal_decomposition(g: GraphLike, layout: Layout) -> SpinalDecomposition:
    """Split the tree along the spinal path of ``layout``.

    Removing the spinal (and, for Halin graphs, cycle) edges leaves one
    subtree per spinal vertex; removing the spinal vertex from its subtree
    leaves its anchored branches.
    """
    tree = g.tree if isinstance(g, HalinGraph) else g
    path = spinal_path(g, layout)
    on_path = set(path)
    path_edges = {frozenset(p) for p in zip(path, path[1:])}

    adjacency: List[List[VertexId]] = [[] for _ in tree.vertices]
    for v in tree.vertices:
        for c in tree.children[v]:
            if frozenset((v, c)) not in path_edges:
                adjacency[v].append(c)
                adjacency[c].append(v)

    def component(start: VertexId, banned: Set[VertexId]) -> Set[VertexId]:
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adjacency[x]:
                if y not in comp and y not in banned:
                    comp.add(y)
                    stack.append(y)
        return comp

    subtrees = []
    branches = []
    for w in path:
        sub = component(w, banned=set())
        subtrees.append(frozenset(sub))
        anchored = []
        for a in adjacency[w]:
            anchored.append(Branch(anchor=a, vertices=frozenset(component(a, banned={w}))))
        branches.append(tuple(anchored))
    return SpinalDecomposition(
        path=tuple(path), subtrees=tuple(subtrees), branches=tuple(branches)
    )
