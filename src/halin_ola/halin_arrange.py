"""Halin-graph arrangement: lower bound, rearrangement, and certification.

The optimum of a Halin graph H = T + C is bounded below by
``2(n-1) + LA*(T)``.  When T is recursively balanced the bound is attained:
``rearrange_to_halin_ola`` turns any block-structured optimal tree layout
into an optimal Halin layout by swapping equal-size sibling subtree blocks
(cost-free on the tree) until the leaves read in cyclic order, and
``direct_rbt_halin_ola`` builds the same optimum from scratch: it is the
balanced emitter of ``rbt_ola`` run on the mirrored embedding.  The direct
construction never touches the swap engine, so it stays an independent
cross-check of the rearranger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import HalinOlaError, NotContiguous, NotRbt, NotTreeOptimalInput
from .graph_core import EmbeddedTree, HalinGraph, VertexId
from .layout_ops import Layout, la_cost, la_total, reverse_block, sigma_swap
from .tree_ola import _balanced_layout, is_recursively_balanced, rbt_ola


def halin_lower_bound(h: HalinGraph, tree_opt_cost: int) -> int:
    """2(n-1) + optimal tree cost: no layout of H can cost less.

    The cycle alone costs at least 2(n-1): positions 1..i and i+1..n each
    contain a cycle vertex, so the closed cycle crosses every gap at least
    twice; the tree part costs at least its own optimum.
    """
    return 2 * (h.n - 1) + tree_opt_cost


def cycle_cost_is_tight(h: HalinGraph, layout: Layout) -> bool:
    """True iff the cycle edges cost exactly 2(n-1) under ``layout``."""
    return la_cost(h, layout).cycle_cost == 2 * (h.n - 1)


@dataclass(frozen=True)
class OlaCertificate:
    layout_cost: int
    lower_bound: int
    cycle_cost: int
    optimal: bool
    reason: str


def certify(h: HalinGraph, layout: Layout, tree_opt_cost: int) -> OlaCertificate:
    """Compare a layout's cost against the Halin lower bound.

    ``optimal=True`` is a proof; ``optimal=False`` only means the bound was
    not attained — for some non-balanced instances no layout attains it, so
    absence of the certificate does not prove sub-optimality.
    """
    report = la_cost(h, layout)
    bound = halin_lower_bound(h, tree_opt_cost)
    if report.total_cost == bound:
        reason = f"cost {report.total_cost} meets lower bound {bound}"
    elif report.total_cost > bound:
        reason = (
            f"cost {report.total_cost} > bound {bound}; "
            "not certified (bound may or may not be attainable)"
        )
    else:
        reason = (
            f"cost {report.total_cost} < bound {bound}: "
            "tree_opt_cost is not the true tree optimum"
        )
    return OlaCertificate(
        layout_cost=report.total_cost,
        lower_bound=bound,
        cycle_cost=report.cycle_cost,
        optimal=report.total_cost == bound,
        reason=reason,
    )


@dataclass(frozen=True)
class SwapStep:
    """One sigma application: exchange the subtree blocks rooted at a and b.

    ``reversed_pair`` marks the cross-side case where both blocks are also
    reversed in place (together with the exchange this keeps the tree cost
    unchanged even when the two block roots sit at different inner offsets).
    """

    level_height: int
    block_a: VertexId
    block_b: VertexId
    reversed_pair: bool


@dataclass(frozen=True)
class SwapTrace:
    steps: Tuple[SwapStep, ...]
    total_swaps: int
    total_moved_vertices: int

    def to_jsonable(self) -> dict:
        return {
            "totalSwaps": self.total_swaps,
            "totalMovedVertices": self.total_moved_vertices,
            "steps": [
                {
                    "levelHeight": s.level_height,
                    "blockA": s.block_a,
                    "blockB": s.block_b,
                    "reversedPair": s.reversed_pair,
                }
                for s in self.steps
            ],
        }


def subtree_vertices(tree: EmbeddedTree, v: VertexId) -> List[VertexId]:
    out = []
    stack = [v]
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(tree.children[x])
    return out


def replay_trace(tree: EmbeddedTree, start: Layout, trace: SwapTrace) -> Layout:
    """Re-apply a trace step by step with the block operators.

    Slow (rebuilds a layout per step) but definitionally faithful; used to
    audit that the fast in-place engine and the trace agree.
    """
    layout = start
    for step in trace.steps:
        a = subtree_vertices(tree, step.block_a)
        b = subtree_vertices(tree, step.block_b)
        layout = sigma_swap(layout, a, b)
        if step.reversed_pair:
            layout = reverse_block(layout, a)
            layout = reverse_block(layout, b)
    return layout


# ---------------------------------------------------------------------------
# In-place engine
# ---------------------------------------------------------------------------

class _BlockEngine:
    """Mutable order/position arrays plus equal-size block slot operations.

    A node's child subtrees occupy equal-size contiguous slots around the
    node's own position.  Exchanging two same-side slots never changes the
    tree cost; exchanging slots on opposite sides of the node is paired with
    reversing both blocks, which restores the two parent-edge expansions.
    """

    def __init__(self, tree: EmbeddedTree, layout: Layout):
        self.tree = tree
        self.order: List[VertexId] = list(layout.vertex_at)
        self.pos: List[int] = [0] * tree.n
        for i, v in enumerate(self.order):
            self.pos[v] = i + 1
        self.moved = 0

    def layout(self) -> Layout:
        return Layout(tuple(self.order))

    def child_owning(self, v: VertexId, u: VertexId) -> VertexId:
        """The child of v whose subtree contains u."""
        parent = self.tree.parent
        while parent[u] != v:
            u = parent[u]
            if u is None:
                raise NotContiguous(f"vertex not below {v}")
        return u

    def swap_slots(self, lo_a: int, lo_b: int, s: int, reverse_pair: bool):
        """Exchange the s-vertex blocks starting at positions lo_a, lo_b."""
        order, pos = self.order, self.pos
        seg_a = order[lo_a - 1: lo_a - 1 + s]
        seg_b = order[lo_b - 1: lo_b - 1 + s]
        if reverse_pair:
            seg_a.reverse()
            seg_b.reverse()
        order[lo_a - 1: lo_a - 1 + s] = seg_b
        order[lo_b - 1: lo_b - 1 + s] = seg_a
        for i, v in enumerate(seg_b):
            pos[v] = lo_a + i
        for i, v in enumerate(seg_a):
            pos[v] = lo_b + i
        self.moved += 2 * s

    def slot_map(self, v: VertexId, lo: int, hi: int, size: List[int]):
        """Slot geometry of v's children inside v's block [lo, hi].

        Returns (slot_starts, occupants, left_count).  Raises NotContiguous
        when the block is not partitioned into equal child slots around v —
        i.e. the layout is not a block-structured tree optimum.
        """
        cs = self.tree.children[v]
        k = len(cs)
        s = (size[v] - 1) // k
        p = self.pos[v]
        if hi - lo + 1 != size[v] or (p - lo) % s != 0:
            raise NotContiguous(
                f"subtree of {v} does not split into equal blocks around it"
            )
        a = (p - lo) // s
        if not (0 <= a <= k) or (hi - p) != (k - a) * s:
            raise NotContiguous(
                f"subtree of {v} does not split into equal blocks around it"
            )
        starts = [lo + j * s if j < a else p + 1 + (j - a) * s for j in range(k)]
        occupants = []
        for st in starts:
            c = self.child_owning(v, self.order[st - 1])
            if size[c] != s:
                raise NotContiguous(f"child block sizes differ under {v}")
            occupants.append(c)
        if len(set(occupants)) != k:
            raise NotContiguous(f"child blocks interleave under {v}")
        return starts, occupants, a


def rearrange_to_halin_ola(h: HalinGraph, tree_layout: Layout) -> Tuple[Layout, SwapTrace]:
    """Turn an optimal tree layout into an optimal Halin layout by swaps.

    Works when the underlying tree is recursively balanced.  Top-down, every
    node's equal-size child blocks are selection-sorted into (a rotation of)
    reversed embedding order, so the final left-to-right leaf sequence is a
    reflection of the cycle and the cycle edges cost exactly 2(n-1); no swap
    changes the tree cost, so the result meets the lower bound.

    The top-level rotation is anchored at the block currently occupying the
    leftmost slot; its rightmost partner ends up being its embedding
    successor on the cycle.

    Raises NotRbt, NotTreeOptimalInput (input cost differs from the
    recursively-balanced optimum), or NotContiguous (input layout is not
    block-structured).  The result is checked against the bound before it
    is returned (also under ``python -O``); a miss raises HalinOlaError.
    """
    tree = h.tree
    opt_cost = la_total(tree, rbt_ola(tree))
    in_cost = la_total(tree, tree_layout)
    if in_cost != opt_cost:
        raise NotTreeOptimalInput(f"input tree cost {in_cost} != optimum {opt_cost}")

    size = tree.subtree_sizes()
    heights = tree.subtree_heights()
    engine = _BlockEngine(tree, tree_layout)
    steps: List[SwapStep] = []

    def arrange(v: VertexId, lo: int, hi: int, want_rev: bool,
                target: Optional[List[VertexId]] = None):
        cs = tree.children[v]
        if not cs:
            return
        k = len(cs)
        s = (size[v] - 1) // k
        starts, occupants, a = engine.slot_map(v, lo, hi, size)
        if target is None:
            target = list(reversed(cs)) if want_rev else list(cs)
        slot_of = {c: j for j, c in enumerate(occupants)}
        for j in range(k):
            want = target[j]
            if occupants[j] == want:
                continue
            jt = slot_of[want]
            cross = (j < a) != (jt < a)
            engine.swap_slots(starts[j], starts[jt], s, reverse_pair=cross)
            steps.append(SwapStep(heights[v], occupants[j], want, cross))
            other = occupants[j]
            occupants[j], occupants[jt] = want, other
            slot_of[want], slot_of[other] = j, jt
        # the orientation requirement is absolute (desired final leaf
        # direction), so it passes down unchanged even through physical
        # reversals: each child pass sorts whatever is there now.
        for j in range(k):
            c = target[j]
            arrange(c, starts[j], starts[j] + s - 1, want_rev)

    root = tree.root
    cs = tree.children[root]
    # top level: keep the current leftmost block, walk the cycle backwards
    starts, occupants, _a = engine.slot_map(root, 1, tree.n, size)
    anchor = cs.index(occupants[0])
    top_target = [cs[(anchor - j) % len(cs)] for j in range(len(cs))]
    arrange(root, 1, tree.n, True, target=top_target)

    out = engine.layout()
    report = la_cost(h, out)
    tight = (opt_cost, 2 * (h.n - 1))
    if (report.tree_cost, report.cycle_cost) != tight:
        raise HalinOlaError(f"rearranged layout misses the bound: (tree, cycle) = "
                            f"{(report.tree_cost, report.cycle_cost)}, needs {tight}")
    return out, SwapTrace(tuple(steps), len(steps), engine.moved)


def direct_rbt_halin_ola(h: HalinGraph) -> Layout:
    """Build an optimal Halin layout from scratch (no input layout).

    This is the balanced emitter of ``rbt_ola`` run on the mirrored
    embedding: children are emitted in reversed embedding order with the
    node inserted between a balanced split of its blocks (the node lands on
    the side facing its parent).  The leaf sequence comes out as a
    reflection of the cycle, so the cycle part is tight; the tree part
    matches the recursively balanced optimum.  It does not use the swap
    engine, so it serves as an independent cross-check of
    ``rearrange_to_halin_ola``.

    Raises NotRbt.
    """
    if not is_recursively_balanced(h.tree).verdict:
        raise NotRbt("underlying tree is not recursively balanced")
    return _balanced_layout(h.tree, mirror=True)


def scramble_tree_ola(tree: EmbeddedTree, layout: Layout, seed: int) -> Layout:
    """Shuffle an optimal tree layout into a different, equally optimal one.

    Randomly permutes the equal-size child blocks at every node using the
    same cost-free operations as the rearranger (same-side exchange, or
    cross-side exchange with paired reversal).  Useful for producing inputs
    whose rearrangement trace is non-trivial.
    """
    rng = random.Random(seed)
    size = tree.subtree_sizes()
    engine = _BlockEngine(tree, layout)

    def shuffle(v: VertexId, lo: int, hi: int):
        cs = tree.children[v]
        if not cs:
            return
        k = len(cs)
        s = (size[v] - 1) // k
        starts, occupants, a = engine.slot_map(v, lo, hi, size)
        for j in range(k - 1, 0, -1):
            jt = rng.randrange(j + 1)
            if jt == j:
                continue
            cross = (j < a) != (jt < a)
            engine.swap_slots(starts[j], starts[jt], s, reverse_pair=cross)
            occupants[j], occupants[jt] = occupants[jt], occupants[j]
        for j in range(k):
            shuffle(occupants[j], starts[j], starts[j] + s - 1)

    shuffle(tree.root, 1, tree.n)
    return engine.layout()
