"""Exact tree arrangement machinery.

Contains recursive-balance detection, the linear-time optimal
arrangement for recursively balanced trees, and the exact oracle used to
certify everything else at small sizes: a dynamic program over prefix sets
(a layout costs the sum of its prefix cuts), cross-checked by a plain scan
of all permutations.
"""

from __future__ import annotations

from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from ._record import record
from .errors import BadParam, NotRecursivelyBalanced, TooLarge, _check_ints
from .graph_core import EmbeddedTree, VertexId
from .layout_ops import Layout

LAYOUT_CAP = 10_000
ORACLE_LIMIT = 10
# The subset DP holds two lists of 2^n ints: about 0.1 GB at n = 20.  A
# call that lists layouts holds a third list of 2^n slots while it walks.
_ORACLE_MAX_N = 20


@record(frozen=True)
class SimpleGraph:
    """Minimal edge-list graph for oracle runs on non-Halin instances.

    ``n`` must be an ``int`` >= 0 and every endpoint an ``int``, neither a
    bool, and ``edge_pairs`` a tuple of 2-tuples; ValueError otherwise.  A
    self-loop is refused here, a repeated edge by ``brute_force_ola``.
    """

    n: int
    edge_pairs: Tuple[Tuple[VertexId, VertexId], ...]

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"n {self.n!r} is not an int")
        if self.n < 0:
            raise ValueError(f"n {self.n} is below 0")
        pairs = self.edge_pairs
        if (type(pairs) is not tuple or not set(map(type, pairs)) <= {tuple}
                or not set(map(len, pairs)) <= {2}):
            raise ValueError("edge_pairs must be a tuple of 2-tuples")
        for u, v in pairs:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
            if u == v:
                raise ValueError("self-loop")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) leaves the vertex range 0..{self.n - 1}")

    def edges(self) -> List[Tuple[VertexId, VertexId]]:
        """The edge pairs, smaller id first, in ``edge_pairs`` order."""
        return [(u, v) if u < v else (v, u) for u, v in self.edge_pairs]


def cycle_graph(n: int) -> SimpleGraph:
    """The n-cycle; ``cycle_graph(2)`` repeats its edge, so the oracle refuses it."""
    return SimpleGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


@record(frozen=True)
class RbtCertificate:
    verdict: bool


class VisitCounter:
    """Counts vertex touches; used by the linear-time complexity evidence."""

    __slots__ = ("touches",)

    def __init__(self):
        self.touches = 0


def is_recursively_balanced(tree: EmbeddedTree) -> RbtCertificate:
    """Check that every internal vertex heads equal-size balanced subtrees.

    That holds exactly when every vertex's children head subtrees of one
    size, read from the tree's cached ``subtree_sizes``.
    """
    size = tree.subtree_sizes
    for cs in tree.children:
        if cs:
            first = size[cs[0]]
            for c in cs:
                if size[c] != first:
                    return RbtCertificate(verdict=False)
    return RbtCertificate(verdict=True)


def rbt_ola(tree: EmbeddedTree, stats: Optional[VisitCounter] = None) -> Layout:
    """Optimal linear arrangement of a recursively balanced tree.

    Each vertex sits between a balanced split of its child blocks; a child
    block keeps its own root on the side facing its parent.  The split uses
    the cheaper of the two roundings of (k+1)/2 (ceil overshoots for stars of
    even degree).  Every vertex is touched O(1) times, and only here are the
    touches counted into ``stats``: 2n for the certificate, n for the emitter.

    Raises NotRecursivelyBalanced when the certificate fails.
    """
    if stats is not None:
        stats.touches += 2 * tree.n  # the preorder, then one visit per vertex
    if not is_recursively_balanced(tree).verdict:
        raise NotRecursivelyBalanced(
            "tree is not recursively balanced; rbt_ola does not apply"
        )
    if stats is not None:
        stats.touches += tree.n  # the emitter: one visit per vertex
    return _balanced_layout(tree, mirror=False)


def _balanced_layout(tree: EmbeddedTree, mirror: bool) -> Layout:
    """The balanced-split emitter behind ``rbt_ola``; the tree must be balanced.

    ``mirror=True`` reverses every child list first, i.e. lays out the
    mirrored embedding.
    """
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
    extensions.  That is all that runs at cap 0.  Otherwise the lazy walk
    ``_first_optima`` lists, in lexicographic order, the optima whose first
    vertex is below their last, each with its reversal, up to ``layout_cap``.
    """
    adj = [0] * n  # cut(S | v) = cut(S) + |adj[v] - S - v| - |adj[v] & S|
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    full = (1 << n) - 1
    h = [0] * (full + 1)  # cut[S] first, then overwritten by h[S]
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        a = adj[low.bit_length() - 1]
        h[s] = h[rest] + (a & ~s).bit_count() - (a & rest).bit_count()
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

    layouts = _first_optima(n, h, layout_cap) if layout_cap else []
    return OracleResult(h[0], tuple(layouts[:layout_cap]), cnt[0], full + 1)


def _first_optima(n: int, h: List[int], cap: int) -> List[Layout]:
    """The first ``cap`` optima in the listing order (one more if ``cap`` is
    odd), or all of them, read from the subset DP's filled ``h`` by one
    depth-first walk along optimal steps, smallest vertex first.  ``nxt[S]``,
    the optimal next vertices of prefix set S, is scanned when the walk first
    enters S.  The walk enters a prefix only while some unplaced vertex lies
    above the first, and keeps a layout, with its reversal, only if its last
    vertex does.
    """
    full = (1 << n) - 1
    nxt = [0] * full  # 0 until the walk first enters the set
    layouts: List[Layout] = []
    prefix: List[int] = []
    s, start = 0, 1  # at prefix set s, the walk next tries nxt[s] from bit start up
    while True:
        m = nxt[s]
        if not m:
            free = full ^ s
            best = None
            while free:
                low = free & -free
                free ^= low
                x = h[s | low]
                if best is None or x < best:
                    best, m = x, low
                elif x == best:
                    m |= low
            nxt[s] = m
        m &= -start
        if not m:  # s is done: back up one vertex
            if not prefix:
                return layouts
            start = 2 << prefix.pop()
            s ^= start >> 1
            continue
        low = m & -m
        start = low << 1
        if not prefix:
            above = full ^ (start - 1)  # the vertices above the first
        left = full ^ s ^ low
        if not left & above:
            continue
        if left & (left - 1):  # two or more left: enter s | low
            prefix.append(low.bit_length() - 1)
            s |= low
            start = 1
            continue
        kept = (*prefix, low.bit_length() - 1, left.bit_length() - 1)
        layouts += (Layout(kept), Layout(kept[::-1]))
        if len(layouts) >= cap:
            return layouts


def brute_force_ola(g, limit: int = ORACLE_LIMIT, pruned: bool = True,
                    layout_cap: int = LAYOUT_CAP) -> OracleResult:
    """Exact optimum of any small simple graph.

    The default path is the prefix-cut subset DP, O(2^n * n) time and about
    2 * 2^n list slots.  Only when layouts are listed does it hold one more
    list of 2^n slots, filled lazily by one walk that stops at the cap.
    ``pruned=False`` runs the independent enumeration of all n!
    permutations; both paths must agree, which the test suite checks for
    all n <= 7 instances.

    ``layout_cap`` bounds how many optimal layouts are listed (default
    ``LAYOUT_CAP``); ``0`` lists none and skips the enumeration, which is
    what callers that need only the optimum should pass.  The optimum, the
    optimum count and the states explored are complete for every cap.  The
    listed layouts are the first ``layout_cap`` optima of one fixed order,
    so a cap below the default lists the default list cut to that cap.  A
    negative cap raises BadParam.

    Raises BadParam first when ``limit`` or ``layout_cap`` is not an ``int``
    or is a bool.  Raises TooLarge when n exceeds ``limit`` (default
    ``ORACLE_LIMIT``), and whatever ``limit`` says, when n exceeds
    ``_ORACLE_MAX_N``, before allocating.  Raises BadParam, after those
    checks and before allocating, when an edge repeats in either
    orientation; no ``EmbeddedTree`` or ``HalinGraph`` repeats one.
    """
    _check_ints(limit=limit, layout_cap=layout_cap)
    n = g.n
    if layout_cap < 0:
        raise BadParam(f"layout_cap must be >= 0, got {layout_cap}")
    if n > limit:
        raise TooLarge(f"n={n} exceeds oracle limit {limit}")
    if n > _ORACLE_MAX_N:
        raise TooLarge(f"n={n} exceeds the oracle's hard ceiling {_ORACLE_MAX_N}")
    pairs = g.edges()
    if len(set(map(frozenset, pairs))) < len(pairs):
        raise BadParam("an edge repeats; the oracle takes simple graphs")
    if n <= 1:  # the scan's result: one layout, of cost 0
        return OracleResult(0, (Layout(tuple(range(n))),)[:layout_cap], 1, 1)
    if pruned:
        return _subset_dp(n, pairs, layout_cap)
    return _scan_all_permutations(n, pairs, layout_cap)
