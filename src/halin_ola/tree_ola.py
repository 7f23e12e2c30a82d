"""Exact tree arrangement machinery.

Contains the tree centroid, recursive-balance detection, the linear-time
optimal arrangement for recursively balanced trees, and the exhaustive
branch-and-bound oracle used to certify everything else at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from .errors import NotRecursivelyBalanced, TooLarge
from .graph_core import Edge, EdgeKind, EmbeddedTree, VertexId
from .layout_ops import Layout

LAYOUT_CAP = 10_000


@dataclass(frozen=True)
class SimpleGraph:
    """Minimal edge-list graph for oracle runs on non-Halin instances."""

    n: int
    edge_pairs: Tuple[Tuple[VertexId, VertexId], ...]
    kind: EdgeKind = EdgeKind.TREE

    def edges(self) -> List[Edge]:
        return [Edge(u, v, kind=self.kind) for u, v in self.edge_pairs]


def cycle_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, (i + 1) % n) for i in range(n)), kind=EdgeKind.CYCLE)


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def central_vertex(tree: EmbeddedTree) -> VertexId:
    """Tree centroid: deleting it leaves components of size <= floor(n/2).

    Ties are broken toward the smaller vertex id.
    """
    n = tree.n
    size = tree.subtree_sizes()
    best_v = None
    best_key = None
    for v in tree.vertices:
        comps = [size[c] for c in tree.children[v]]
        if v != tree.root:
            comps.append(n - size[v])
        worst = max(comps, default=0)
        key = (worst, v)
        if best_key is None or key < best_key:
            best_key = key
            best_v = v
    assert best_key[0] <= n // 2
    return best_v


@dataclass(frozen=True)
class RbtCertificate:
    subtree_size: Tuple[int, ...]
    balanced: Tuple[bool, ...]
    verdict: bool


class VisitCounter:
    """Counts vertex touches; used by the linear-time complexity evidence."""

    __slots__ = ("touches",)

    def __init__(self):
        self.touches = 0


def is_recursively_balanced(tree: EmbeddedTree,
                            stats: Optional[VisitCounter] = None) -> RbtCertificate:
    """Check that every internal vertex heads equal-size balanced subtrees."""
    order = tree.dfs_order()
    if stats is not None:
        stats.touches += len(order)
    n = tree.n
    size = [1] * n
    balanced = [True] * n
    for v in reversed(order):
        if stats is not None:
            stats.touches += 1
        cs = tree.children[v]
        if not cs:
            continue
        sizes = [size[c] for c in cs]
        size[v] += sum(sizes)
        balanced[v] = all(balanced[c] for c in cs) and len(set(sizes)) == 1
    return RbtCertificate(
        subtree_size=tuple(size), balanced=tuple(balanced), verdict=balanced[tree.root]
    )


def rbt_ola(tree: EmbeddedTree, stats: Optional[VisitCounter] = None) -> Layout:
    """Optimal linear arrangement of a recursively balanced tree.

    Each vertex sits between a balanced split of its child blocks; a child
    block keeps its own root on the side facing its parent.  The split uses
    the cheaper of the two roundings of (k+1)/2 (ceil overshoots for stars of
    even degree).  Every vertex is touched O(1) times.

    Raises NotRecursivelyBalanced when the certificate fails.
    """
    if not is_recursively_balanced(tree, stats=stats).verdict:
        raise NotRecursivelyBalanced(
            "tree is not recursively balanced; rbt_ola does not apply"
        )
    return _balanced_layout(tree, mirror=False, stats=stats)


def _balanced_layout(tree: EmbeddedTree, mirror: bool,
                     stats: Optional[VisitCounter] = None) -> Layout:
    """The balanced-split emitter behind ``rbt_ola``; the tree must be balanced.

    ``mirror=True`` reverses every child list first, i.e. lays out the
    mirrored embedding.
    """
    order: List[VertexId] = []
    # (vertex, parent-side) work items; EMIT marks a vertex's own slot.
    EMIT = -1
    PARENT_RIGHT, PARENT_LEFT = 0, 1  # also used for the free root (RIGHT split)
    stack: List[Tuple[VertexId, int]] = [(tree.root, PARENT_RIGHT)]
    while stack:
        v, side = stack.pop()
        if side == EMIT:
            order.append(v)
            continue
        if stats is not None:
            stats.touches += 1
        cs = tree.children[v]
        if not cs:
            order.append(v)
            continue
        if mirror:
            cs = cs[::-1]
        c = len(cs)
        a = (c + 1) // 2 if side == PARENT_RIGHT else c // 2
        # pushed in reverse so the leftmost block is emitted first
        for child in reversed(cs[a:]):
            stack.append((child, PARENT_LEFT))
        stack.append((v, EMIT))
        for child in reversed(cs[:a]):
            stack.append((child, PARENT_RIGHT))
    return Layout(tuple(order))


@dataclass(frozen=True)
class OracleResult:
    optimal_cost: int
    optimal_layouts: Tuple[Layout, ...]
    optimal_count: int
    states_explored: int


def _scan_all_permutations(n: int, pairs: Sequence[Tuple[int, int]]) -> OracleResult:
    """Plain full enumeration; the independent check for the pruned search."""
    best = None
    count = 0
    layouts: List[Layout] = []
    states = 0
    for perm in permutations(range(n)):
        states += 1
        pos = [0] * n
        for i, v in enumerate(perm):
            pos[v] = i + 1
        cost = sum(abs(pos[u] - pos[v]) for u, v in pairs)
        if best is None or cost < best:
            best = cost
            count = 1
            layouts = [Layout(perm)]
        elif cost == best:
            count += 1
            if len(layouts) < LAYOUT_CAP:
                layouts.append(Layout(perm))
    return OracleResult(best, tuple(layouts), count, states)


def _branch_and_bound(n: int, pairs: Sequence[Tuple[int, int]]) -> OracleResult:
    """Exhaustive search with reversal-symmetry and admissible cost pruning.

    Only layouts whose first vertex id is smaller than their last are
    enumerated; optima are re-expanded with their reversals afterwards.  The
    bound adds 1 per not-yet-internal edge to the prefix cost, so pruning
    uses strict inequality and all optima survive.
    """
    m = len(pairs)
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)

    best = [None]
    count = [0]
    layouts: List[Tuple[int, ...]] = []
    states = [0]
    pos = [0] * n
    prefix: List[int] = []

    def descend(depth: int, partial: int, edges_done: int):
        states[0] += 1
        if depth == n:
            if prefix[-1] < prefix[0]:
                return
            if best[0] is None or partial < best[0]:
                best[0] = partial
                count[0] = 1
                del layouts[:]
                layouts.append(tuple(prefix))
            elif partial == best[0]:
                count[0] += 1
                if len(layouts) < LAYOUT_CAP:
                    layouts.append(tuple(prefix))
            return
        p = depth + 1
        for v in range(n):
            if pos[v]:
                continue
            inc = 0
            closed = 0
            for u in adjacency[v]:
                if pos[u]:
                    inc += p - pos[u]
                    closed += 1
            new_partial = partial + inc
            if best[0] is not None and new_partial + (m - edges_done - closed) > best[0]:
                continue
            pos[v] = p
            prefix.append(v)
            descend(depth + 1, new_partial, edges_done + closed)
            prefix.pop()
            pos[v] = 0

    descend(0, 0, 0)
    count[0] *= 2
    expanded: List[Layout] = []
    for t in layouts:
        expanded.append(Layout(t))
        if len(expanded) >= LAYOUT_CAP:
            break
        expanded.append(Layout(tuple(reversed(t))))
        if len(expanded) >= LAYOUT_CAP:
            break
    return OracleResult(best[0], tuple(expanded), count[0], states[0])


def brute_force_ola(g, limit: int = 10, pruned: bool = True) -> OracleResult:
    """Exact optimum of any small graph by exhaustive search.

    ``pruned=False`` runs the independent plain-enumeration path; both paths
    must agree, which the test suite checks for all n <= 7 instances.

    Raises TooLarge when n exceeds ``limit`` (default 10).
    """
    n = g.n
    if n > limit:
        raise TooLarge(f"n={n} exceeds oracle limit {limit}")
    pairs = [(e.u, e.v) for e in g.edges()]
    if n == 1:
        return OracleResult(0, (Layout((0,)),), 1, 1)
    if pruned:
        return _branch_and_bound(n, pairs)
    return _scan_all_permutations(n, pairs)
