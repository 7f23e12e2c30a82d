"""Layouts (vertex -> position bijections) and the cost machinery on them.

Positions are 1-based.  A layout is value-semantic and immutable; every
operation returns a fresh layout.
"""

from __future__ import annotations

from functools import cached_property
from typing import AbstractSet, Iterable, Tuple, Union

from ._record import record
from .errors import BadParam, NotContiguous, Overlapping, _check_ints
from .graph_core import EmbeddedTree, HalinGraph, VertexId


@record(frozen=True)
class Layout:
    """Bijection between vertices 0..n-1 and positions 1..n.

    ``vertex_at[i]`` is the vertex at position i+1.  Raises ValueError
    unless it is a tuple that holds each of 0..n-1 once, every entry an
    ``int`` that is not a bool.
    """

    vertex_at: Tuple[VertexId, ...]

    def __post_init__(self):
        if type(self.vertex_at) is not tuple:
            raise ValueError("vertex_at must be a tuple")
        # n distinct ints in 0..n-1 are exactly 0..n-1; one pass checks it
        n = len(self.vertex_at)
        free = [True] * n
        for v in self.vertex_at:
            if type(v) is not int or not 0 <= v < n or not free[v]:
                raise ValueError("vertex_at must be a permutation of 0..n-1")
            free[v] = False

    @property
    def n(self) -> int:
        return len(self.vertex_at)

    @cached_property
    def positions(self) -> Tuple[int, ...]:
        """Position of every vertex, indexed by vertex id; cached."""
        pos = [0] * self.n
        for i, v in enumerate(self.vertex_at):
            pos[v] = i + 1
        return tuple(pos)

    def reversed(self) -> "Layout":
        return Layout(tuple(reversed(self.vertex_at)))


GraphLike = Union[EmbeddedTree, HalinGraph]


@record(frozen=True)
class ArrangementReport:
    total_cost: int
    tree_cost: int
    cycle_cost: int


def la_cost(g: GraphLike, layout: Layout) -> ArrangementReport:
    """Linear arrangement cost of ``layout``, split into tree and cycle parts.

    The tree part sums each vertex's distance to its parent; for a
    HalinGraph the cycle part sums the distances of consecutive cycle
    leaves, and for a plain tree it is 0.  Raises BadParam, before pricing,
    when the layout's size is not the graph's.

    The layout keeps its last report, keyed by the graph object: both are
    immutable, so pricing the same pair again (a solver's bound check, then
    the CLI's cost line) computes nothing.
    """
    _check_same_size(g, layout)
    last = layout.__dict__.get("_last_cost")
    if last is not None and last[0] is g:
        return last[1]
    pos = layout.positions
    if isinstance(g, HalinGraph):
        tree, ring = g.tree, g.cycle_pairs()
    else:
        tree, ring = g, ()
    tree_cost = sum(abs(pos[v] - pos[p]) for v, p in enumerate(tree.parent)
                    if p is not None)
    cycle_cost = sum(abs(pos[a] - pos[b]) for a, b in ring)
    report = ArrangementReport(tree_cost + cycle_cost, tree_cost, cycle_cost)
    layout.__dict__["_last_cost"] = (g, report)
    return report


def la_total(g: GraphLike, layout: Layout) -> int:
    """Total LA cost of ``layout``."""
    return la_cost(g, layout).total_cost


def _check_same_size(g: GraphLike, layout: Layout) -> None:
    if layout.n != g.n:
        raise BadParam(f"layout has {layout.n} vertices, graph has {g.n}")


def _vertex_set(block: Iterable[VertexId], name: str) -> AbstractSet[VertexId]:
    block = tuple(block)  # checked before set() folds True into 1
    _check_ints(**{f"{name}[{i}]": v for i, v in enumerate(block)})
    return set(block)


def _contiguous_range(layout: Layout, block: AbstractSet[VertexId]) -> Tuple[int, int]:
    outside = sorted(v for v in block if not 0 <= v < layout.n)
    if outside:
        raise BadParam(f"block vertices {outside} are outside 0..{layout.n - 1}")
    pos = layout.positions
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
    Raises BadParam for a block vertex that is not an ``int``, or is a bool,
    before any other check, and for one outside 0..n-1; NotContiguous for an
    empty or scattered block; Overlapping for blocks that share a vertex.
    """
    a, b = _vertex_set(block_a, "block_a"), _vertex_set(block_b, "block_b")
    if a & b:
        raise Overlapping(f"blocks share vertices {sorted(a & b)}")
    a_lo, a_hi = _contiguous_range(layout, a)
    b_lo, b_hi = _contiguous_range(layout, b)
    if a_lo > b_lo:
        a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi

    order = list(layout.vertex_at)
    seg_a = order[a_lo - 1:a_hi]
    seg_gap = order[a_hi:b_lo - 1]
    seg_b = order[b_lo - 1:b_hi]
    order[a_lo - 1:b_hi] = seg_b + seg_gap + seg_a
    return Layout(tuple(order))


def reverse_block(layout: Layout, block: Iterable[VertexId]) -> Layout:
    """Reverse the inner order of one contiguous position block (raises as
    ``sigma_swap`` does for a bad block)."""
    lo, hi = _contiguous_range(layout, _vertex_set(block, "block"))
    order = list(layout.vertex_at)
    order[lo - 1:hi] = reversed(order[lo - 1:hi])
    return Layout(tuple(order))
