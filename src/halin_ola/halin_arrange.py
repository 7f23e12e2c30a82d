"""Halin-graph arrangement: lower bound, rearrangement, and certification.

The optimum of a Halin graph H = T + C is bounded below by
``2(n-1) + LA*(T)``.  When T is recursively balanced the bound is attained:
``rearrange_to_halin_ola`` turns any block-structured optimal tree layout
into an optimal Halin layout by swapping equal-size sibling subtree blocks
(cost-free on the tree) until the leaves read in cyclic order, and
``direct_rbt_halin_ola`` builds the same optimum from scratch: it is the
balanced emitter of ``rbt_ola`` run on the mirrored embedding.  The direct
construction never runs the block walk, so it stays an independent
cross-check of the rearranger.  Both check their result against the bound.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ._record import record
from .errors import HalinOlaError, NotContiguous, NotRecursivelyBalanced, NotTreeOptimalInput
from .graph_core import EmbeddedTree, HalinGraph, VertexId, _collector_paused
from .layout_ops import Layout, la_cost, la_total, reverse_block, sigma_swap
from .tree_ola import _balanced_layout, rbt_ola


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


@record(frozen=True)
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


@record(frozen=True)
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


@record(frozen=True)
class SwapTrace:
    steps: Tuple[SwapStep, ...]
    total_swaps: int
    total_moved_vertices: int


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
    audit that the fast in-place walk and the trace agree.
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
# In-place block walk
# ---------------------------------------------------------------------------

@_collector_paused()
def _walk(tree: EmbeddedTree, order: List[VertexId], plan) -> Tuple[list, int]:
    """Exchange child slots of ``order`` in place, top-down, as ``plan`` says.

    A node's child subtrees occupy equal-size contiguous slots around the
    node's own position; the slot size is read off ``tree.subtree_sizes()``.
    Exchanging two same-side slots never changes the tree cost; exchanging
    slots on opposite sides of the node is paired with reversing both
    blocks, which restores the two parent-edge expansions.

    At each internal node v, ``plan(v, occupants)`` yields slot pairs
    (j, jt) to exchange in turn; ``occupants`` (the child in each slot) is
    updated after each exchange.  The walk then descends into the occupants
    in slot order.  Returns the exchanges, as (v, child leaving slot j,
    child entering it, reversed) in order, and the number of vertices moved.
    The cyclic collector is off during the walk.

    Raises NotContiguous when a node's block is not partitioned into equal
    child slots around it, i.e. the layout is not a block-structured tree
    optimum.
    """
    children, parent, size = tree.children, tree.parent, tree.subtree_sizes()
    index = order.index
    exchanges = []
    record_exchange = exchanges.append
    moved = 0
    stack = [(tree.root, 0)]
    pop = stack.pop
    while stack:
        v, lo = pop()
        k = len(children[v])
        if not k:
            continue  # a one-vertex tree; no leaf is pushed
        # v's block is order[lo:hi]: k slots of s vertices, a of them left of v
        hi = lo + size[v]
        s = (size[v] - 1) // k
        try:
            p = index(v, lo, hi)
        except ValueError:
            p = hi  # v lies outside its own block
        a, off = divmod(p - lo, s)
        if off or not 0 <= a <= k or hi - 1 - p != (k - a) * s:
            raise NotContiguous(
                f"subtree of {v} does not split into equal blocks around it"
            )
        if s == 1:
            # every child of v is a leaf: a slot is one vertex, and if
            # each occupant is a child of v an exchange is a plain swap
            occupants = order[lo:p] + order[p + 1:hi]
            for c in occupants:
                if parent[c] != v:
                    break  # the slot checks below say what is wrong
            else:
                for j, jt in plan(v, occupants):
                    x, y = lo + j + (j >= a), lo + jt + (jt >= a)
                    order[x], order[y] = order[y], order[x]
                    moved += 2
                    record_exchange((v, occupants[j], occupants[jt],
                                     (j < a) != (jt < a)))
                    occupants[j], occupants[jt] = occupants[jt], occupants[j]
                continue
        starts = [*range(lo, p, s), *range(p + 1, hi, s)]
        occupants = []
        for st in starts:
            c = order[st]  # climb to the child of v above the slot's first vertex
            while parent[c] != v:
                c = parent[c]
                if c is None:
                    raise NotContiguous(f"vertex not below {v}")
            if size[c] != s:
                raise NotContiguous(f"child block sizes differ under {v}")
            occupants.append(c)
        if len(set(occupants)) != k:
            raise NotContiguous(f"child blocks interleave under {v}")
        for j, jt in plan(v, occupants):
            cross = (j < a) != (jt < a)
            d = -1 if cross else 1
            x, y = starts[j], starts[jt]
            order[x:x + s], order[y:y + s] = order[y:y + s][::d], order[x:x + s][::d]
            moved += 2 * s
            record_exchange((v, occupants[j], occupants[jt], cross))
            occupants[j], occupants[jt] = occupants[jt], occupants[j]
        stack += zip(reversed(occupants), reversed(starts))
    return exchanges, moved


def _check_bound(h: HalinGraph, layout: Layout, opt_cost: int, what: str):
    """Raise HalinOlaError unless ``layout`` meets the bound; also under -O."""
    report = la_cost(h, layout)
    tight = (opt_cost, 2 * (h.n - 1))
    if (report.tree_cost, report.cycle_cost) != tight:
        raise HalinOlaError(f"{what} layout misses the bound: (tree, cycle) = "
                            f"{(report.tree_cost, report.cycle_cost)}, needs {tight}")


def rearrange_to_halin_ola(h: HalinGraph,
                           tree_layout: Optional[Layout] = None) -> Tuple[Layout, SwapTrace]:
    """Turn an optimal tree layout into an optimal Halin layout by swaps.

    Works when the underlying tree is recursively balanced.  Top-down, every
    node's equal-size child blocks are selection-sorted into (a rotation of)
    reversed embedding order, so the final left-to-right leaf sequence is a
    reflection of the cycle and the cycle edges cost exactly 2(n-1); no swap
    changes the tree cost, so the result meets the lower bound.

    The top-level rotation is anchored at the block currently occupying the
    leftmost slot; its rightmost partner ends up being its embedding
    successor on the cycle.

    The optimum is priced on ``rbt_ola``'s layout; with ``tree_layout=None``
    the walk starts from that same layout, so it is built only once.  The
    walk reads the subtree sizes that ``rbt_ola``'s certificate summed.

    Raises NotRecursivelyBalanced, NotTreeOptimalInput (input cost differs
    from the recursively-balanced optimum), or NotContiguous (input layout
    is not block-structured).  The result is checked against the bound before it
    is returned (also under ``python -O``); a miss raises HalinOlaError.
    """
    tree = h.tree
    opt_layout = rbt_ola(tree)
    opt_cost = la_total(tree, opt_layout)
    if tree_layout is None:
        tree_layout = opt_layout
    else:
        in_cost = la_total(tree, tree_layout)
        if in_cost != opt_cost:
            raise NotTreeOptimalInput(f"input tree cost {in_cost} != optimum {opt_cost}")

    heights = tree.subtree_heights()

    def sort_toward_reversed(v: VertexId, occupants: List[VertexId]):
        # selection sort into reversed embedding order (at the root, the
        # rotation of it that keeps the leftmost block in place).  The order
        # is absolute, so below a reversed block each node sorts what it finds
        cs = tree.children[v]
        j0 = cs.index(occupants[0]) if v == tree.root else -1
        slot_of = {c: j for j, c in enumerate(occupants)}
        for j in range(len(cs)):
            jt = slot_of[cs[(j0 - j) % len(cs)]]
            if jt != j:
                yield j, jt
                slot_of[occupants[jt]] = jt

    order = list(tree_layout.vertex_at)
    exchanges, moved = _walk(tree, order, sort_toward_reversed)
    steps = [SwapStep(heights[v], out_, in_, cross) for v, out_, in_, cross in exchanges]
    out = Layout(tuple(order))
    _check_bound(h, out, opt_cost, "rearranged")
    return out, SwapTrace(tuple(steps), len(steps), moved)


def direct_rbt_halin_ola(h: HalinGraph) -> Layout:
    """Build an optimal Halin layout from scratch (no input layout).

    This is the balanced emitter of ``rbt_ola`` run on the mirrored
    embedding: children are emitted in reversed embedding order with the
    node inserted between a balanced split of its blocks (the node lands on
    the side facing its parent).  The leaf sequence comes out as a
    reflection of the cycle, so the cycle part is tight; the tree part
    matches the recursively balanced optimum.  It does not use the block
    walk, so it serves as an independent cross-check of
    ``rearrange_to_halin_ola``.

    Raises NotRecursivelyBalanced.  The result is checked against the bound,
    priced on ``rbt_ola``'s layout, before it is returned (also under
    ``python -O``); a miss raises HalinOlaError.
    """
    tree = h.tree
    try:
        opt_cost = la_total(tree, rbt_ola(tree))
    except NotRecursivelyBalanced:
        raise NotRecursivelyBalanced("underlying tree is not recursively balanced") from None
    out = _balanced_layout(tree, mirror=True)
    _check_bound(h, out, opt_cost, "direct")
    return out


def scramble_tree_ola(tree: EmbeddedTree, layout: Layout, seed: int) -> Layout:
    """Shuffle an optimal tree layout into a different, equally optimal one.

    Randomly permutes the equal-size child blocks at every node (a
    Fisher-Yates shuffle of the slots) with the rearranger's cost-free
    exchanges.  Useful for producing inputs whose rearrangement trace is
    non-trivial.

    Raises NotContiguous when ``layout`` is not block-structured.  Neither
    balance nor cost is checked first, so each of the walk's refusals is
    reachable here.
    """
    rng = random.Random(seed)

    def fisher_yates(v: VertexId, occupants: List[VertexId]):
        for j in range(len(occupants) - 1, 0, -1):
            jt = rng.randrange(j + 1)
            if jt != j:
                yield j, jt

    order = list(layout.vertex_at)
    _walk(tree, order, fisher_yates)
    return Layout(tuple(order))
