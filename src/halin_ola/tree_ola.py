"""Exact tree arrangement machinery.

Contains the tree centroid, recursive-balance detection, the linear-time
optimal arrangement for recursively balanced trees, and the exact oracle
used to certify everything else at small sizes: a dynamic program over
prefix sets (a layout costs the sum of its prefix cuts), cross-checked by
a plain scan of all permutations.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import Iterator, List, Optional, Sequence, Tuple

from ._record import record
from .errors import BadParam, NotRecursivelyBalanced, TooLarge
from .graph_core import EmbeddedTree, VertexId, _collector_paused
from .layout_ops import Layout

LAYOUT_CAP = 10_000
# The subset DP holds two lists of 2^n ints: about 0.1 GB at n = 20.
_ORACLE_MAX_N = 20


@record(frozen=True)
class SimpleGraph:
    """Minimal edge-list graph for oracle runs on non-Halin instances."""

    n: int
    edge_pairs: Tuple[Tuple[VertexId, VertexId], ...]

    def __post_init__(self):
        for u, v in self.edge_pairs:
            if u == v:
                raise ValueError("self-loop")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) leaves the vertex range 0..{self.n - 1}")

    def edges(self) -> List[Tuple[VertexId, VertexId]]:
        """The edge pairs, smaller id first, in ``edge_pairs`` order."""
        return [(u, v) if u < v else (v, u) for u, v in self.edge_pairs]


def cycle_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


@record(frozen=True)
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
    """Check that every internal vertex heads equal-size balanced subtrees.

    The sizes are the tree's own ``subtree_sizes()`` tuple.
    """
    n = tree.n
    if stats is not None:
        stats.touches += 2 * n  # the preorder, then one visit per vertex
    children = tree.children
    size = tree.subtree_sizes()
    balanced = [True] * n
    for v in reversed(tree._preorder):
        cs = children[v]
        if cs:
            first = size[cs[0]]
            for c in cs:
                if size[c] != first or not balanced[c]:
                    balanced[v] = False
                    break
    return RbtCertificate(
        subtree_size=size, balanced=tuple(balanced), verdict=balanced[tree.root]
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


@_collector_paused()
def _balanced_layout(tree: EmbeddedTree, mirror: bool,
                     stats: Optional[VisitCounter] = None) -> Layout:
    """The balanced-split emitter behind ``rbt_ola``; the tree must be balanced.

    ``mirror=True`` reverses every child list first, i.e. lays out the
    mirrored embedding.  The cyclic collector is off while it runs.
    """
    if stats is not None:
        stats.touches += tree.n  # one visit per vertex
    children = tree.children
    order: List[VertexId] = []
    emit = order.append
    # (vertex, parent-side) work items; EMIT marks a vertex's own slot.
    EMIT = -1
    PARENT_RIGHT, PARENT_LEFT = 0, 1  # also used for the free root (RIGHT split)
    stack: List[Tuple[VertexId, int]] = [(tree.root, PARENT_RIGHT)]
    pop, push = stack.pop, stack.append
    while stack:
        v, side = pop()
        if side == EMIT:
            emit(v)
            continue
        cs = children[v]
        if not cs:
            emit(v)  # a one-vertex tree; no leaf is pushed
            continue
        if mirror:
            cs = cs[::-1]
        c = len(cs)
        a = (c + 1) // 2 if side == PARENT_RIGHT else c // 2
        if not children[cs[0]]:  # balanced: every child is a leaf
            order += cs[:a]
            emit(v)
            order += cs[a:]
            continue
        # pushed in reverse so the leftmost block is emitted first
        for child in reversed(cs[a:]):
            push((child, PARENT_LEFT))
        push((v, EMIT))
        for child in reversed(cs[:a]):
            push((child, PARENT_RIGHT))
    return Layout(tuple(order))


@record(frozen=True)
class OracleResult:
    """What the exact oracle found.

    ``optimal_cost``, ``optimal_count`` and ``states_explored`` are complete
    whatever the call's ``layout_cap``; ``optimal_layouts`` holds at most
    ``layout_cap`` of the optima.
    """

    optimal_cost: int
    optimal_layouts: Tuple[Layout, ...]
    optimal_count: int
    states_explored: int  # subsets for the DP (2^n), permutations for the scan


def _scan_all_permutations(n: int, pairs: Sequence[Tuple[int, int]],
                           layout_cap: int) -> OracleResult:
    """Plain full enumeration; the independent check for the subset DP.

    Keeps the first ``layout_cap`` optima in lexicographic order.
    """
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
            best, count, layouts = cost, 0, []
        if cost == best:
            count += 1
            if len(layouts) < layout_cap:
                layouts.append(Layout(perm))
    return OracleResult(best, tuple(layouts), count, states)


def _subset_dp(n: int, pairs: Sequence[Tuple[int, int]], layout_cap: int) -> OracleResult:
    """Exact optimum, optimum count and optima by a DP over prefix sets.

    A layout's cost is the sum of ``cut(prefix)`` over its n-1 gaps, so with
    ``h[full] = 0`` and ``h[S] = cut[S] + min_{v not in S} h[S | v]`` the
    optimum is ``h[0]``; ``cnt[S]`` sums the counts of the minimising
    extensions.  Optima are walked depth-first from the empty prefix in
    increasing vertex order, i.e. lexicographically.  Only layouts whose
    first vertex is smaller than their last are kept, each emitted with its
    reversal, up to ``layout_cap``; the walk stops once it has enough and is
    skipped at cap 0.
    """
    # masks[v][k]: the neighbours joined to v by more than k parallel edges.
    deg = [0] * n
    masks: List[List[int]] = [[] for _ in range(n)]
    for (u, v), m in Counter(pairs).items():
        deg[u] += m
        deg[v] += m
        for a, b in ((u, v), (v, u)):
            masks[a] += [0] * (m - len(masks[a]))
            for k in range(m):
                masks[a][k] |= 1 << b

    full = (1 << n) - 1
    h = [0] * (full + 1)  # cut[S] first, then overwritten by h[S]
    for s in range(1, full + 1):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        c = h[rest] + deg[v]
        for mask in masks[v]:
            c -= 2 * (mask & rest).bit_count()
        h[s] = c
    cnt = [0] * (full + 1)
    cnt[full] = 1
    for s in range(full - 1, -1, -1):
        free = full ^ s
        best = None
        ways = 0
        while free:
            low = free & -free
            free ^= low
            t = s | low
            if best is None or h[t] < best:
                best = h[t]
                ways = cnt[t]
            elif h[t] == best:
                ways += cnt[t]
        h[s] += best
        cnt[s] = ways

    want = (layout_cap + 1) // 2
    kept: List[Tuple[int, ...]] = []
    prefix: List[int] = []

    bits = [(v, 1 << v) for v in range(n)]

    def steps(s: int) -> Iterator[Tuple[int, int]]:
        """(v, s | 1 << v) for each v outside s whose step keeps h minimal."""
        nxt = [(v, s | b) for v, b in bits if not s & b]
        best = min([h[t] for _, t in nxt])
        return iter([vt for vt in nxt if h[vt[1]] == best])

    # iterative, so the walk holds no reference to itself: one step
    # iterator per prefix on the current path
    stack = [steps(0)] if want else []
    while stack:
        for v, t in stack[-1]:
            prefix.append(v)
            if t != full:
                stack.append(steps(t))
                break
            if prefix[0] < prefix[-1]:
                kept.append(tuple(prefix))
                if len(kept) == want:
                    stack.clear()
                    break
            prefix.pop()
        else:
            stack.pop()
            if prefix:
                prefix.pop()
    layouts: List[Layout] = []
    for t in kept:
        layouts += (Layout(t), Layout(t[::-1]))
    return OracleResult(h[0], tuple(layouts[:layout_cap]), cnt[0], full + 1)


def brute_force_ola(g, limit: int = 10, pruned: bool = True,
                    layout_cap: int = LAYOUT_CAP) -> OracleResult:
    """Exact optimum of any small graph.

    The default path is the prefix-cut subset DP, O(2^n * n) time and about
    2 * 2^n list slots.  ``pruned=False`` runs the independent enumeration
    of all n! permutations; both paths must agree, which the test suite
    checks for all n <= 7 instances.

    ``layout_cap`` bounds how many optimal layouts are listed (default
    ``LAYOUT_CAP``); ``0`` lists none and skips the enumeration, which is
    what callers that need only the optimum should pass.  The optimum, the
    optimum count and the states explored are complete for every cap.  The
    listed layouts are the first ``layout_cap`` optima of one fixed order,
    so a cap below the default lists the default list cut to that cap.  A
    negative cap raises BadParam.

    Raises TooLarge when n exceeds ``limit`` (default 10), and whatever
    ``limit`` says, when n exceeds ``_ORACLE_MAX_N``, before allocating.
    """
    n = g.n
    if layout_cap < 0:
        raise BadParam(f"layout_cap must be >= 0, got {layout_cap}")
    if n > limit:
        raise TooLarge(f"n={n} exceeds oracle limit {limit}")
    if n > _ORACLE_MAX_N:
        raise TooLarge(f"n={n} exceeds the oracle's hard ceiling {_ORACLE_MAX_N}")
    if n <= 1:  # the scan's result: one layout, of cost 0
        return OracleResult(0, (Layout(tuple(range(n))),)[:layout_cap], 1, 1)
    if pruned:
        return _subset_dp(n, g.edges(), layout_cap)
    return _scan_all_permutations(n, g.edges(), layout_cap)
