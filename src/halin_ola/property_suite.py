"""Structural checks on optimal layouts, run over all enumerated optima.

Every optimal arrangement of a Halin graph is expected to satisfy: spinal
subtrees occupy contiguous blocks in spine order, spine positions increase
monotonically, same-side branches of a spinal vertex do not interleave, and
both extreme positions hold tree leaves (up to a degree-3 relabel).  The
suite runs these checks against every brute-force optimum of a corpus and
reports violations with full counterexamples.  Its public route is
``run_suite`` plus ``check_extremes_are_leaves``; the spinal decomposition
and the one pass that checks the lemmas on it are private to this module.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ._record import jsonable, record
from .errors import HalinOlaError
from .generators import GenSpec
from .graph_core import EmbeddedTree, HalinGraph, VertexId
from .halin_arrange import halin_lower_bound
from .layout_ops import Layout, la_total
from .tree_ola import ORACLE_LIMIT, brute_force_ola


def _spine(tree: EmbeddedTree, first: VertexId, last: VertexId) -> tuple:
    """The spinal decomposition of a layout that starts at ``first`` and ends
    at ``last``, as vertex tuples: (path, branches).

    The path is the tree path from ``first`` to ``last``.  Removing its
    edges leaves one subtree per path vertex: path[i] and the branches
    anchored at it, branches[i] holding the vertices of each.  The path holds
    the ancestors of ``first`` and ``last`` up to its top vertex, so no path
    vertex lies below a child of path[i] off it: that child's subtree, a
    preorder slice, is a branch; the top, unless the root, anchors all
    outside its subtree too.
    """
    parent, children = tree.parent, tree.children
    pre, size = tree._preorder, tree.subtree_sizes
    up = [first]
    while parent[up[-1]] is not None:
        up.append(parent[up[-1]])
    depth = {v: i for i, v in enumerate(up)}
    down = [last]
    while down[-1] not in depth:
        down.append(parent[down[-1]])
    path = (*up[:depth[down[-1]]], *reversed(down))
    branches = []
    for w in path:
        i = pre.index(w)
        at_w = [pre[:i] + pre[i + size[w]:]] if w == down[-1] != tree.root else []
        for c in children[w]:  # pre[i] is the last vertex before c's subtree
            if c not in path:
                at_w.append(pre[i + 1:i + 1 + size[c]])
            i += size[c]
        branches.append(tuple(at_w))
    return path, tuple(branches)


def _structural_verdict(spine: tuple, pos: Sequence[int]) -> Tuple[bool, bool, bool, bool]:
    """Contiguity, monotonicity, branch disjointness and a vacuous branch pass.

    One walk along the path reads each branch's positions once, keeping its
    (min, max) span.  The subtree at path vertex w spans pos[w] joined with
    every branch span at w; the subtrees are contiguous in path order when
    each span starts after the previous one ends.  Branches wholly before or
    wholly after pos[w] form that side's list, and the branches on one side
    are disjoint when their sorted spans do not overlap.  The pass is vacuous
    when no side holds two branches.
    """
    contiguous = monotone = disjoint = vacuous = True
    prev_hi = prev_pw = 0
    for w, branches in zip(*spine):
        pw = lo = hi = pos[w]
        left, right = [], []
        for branch in branches:
            ps = [pos[v] for v in branch]
            b_lo, b_hi = min(ps), max(ps)
            lo, hi = min(lo, b_lo), max(hi, b_hi)
            if b_hi < pw:
                left.append((b_lo, b_hi))
            elif b_lo > pw:
                right.append((b_lo, b_hi))
        contiguous = contiguous and lo > prev_hi
        monotone = monotone and pw > prev_pw
        prev_hi, prev_pw = hi, pw
        for side in (left, right):
            if side[1:]:
                vacuous = False
                side.sort()
                disjoint = disjoint and all(a < b for (_, a), (b, _) in zip(side, side[1:]))
    return contiguous, monotone, disjoint, disjoint and vacuous


class ExtremesVerdict(Enum):
    BOTH_LEAVES = "bothLeaves"
    REPAIRED_LEAF_SWAP = "repairedLeafSwap"
    VIOLATION = "violation"


def check_extremes_are_leaves(h: HalinGraph, layout: Layout) -> ExtremesVerdict:
    """Classify the two extreme positions of an optimal layout.

    ``BOTH_LEAVES``: positions 1 and n hold tree leaves.
    ``REPAIRED_LEAF_SWAP``: a non-leaf extreme has tree degree 3 with at
    least two leaf children (the star hub is the boundary case with three),
    and exchanging its position with one of those leaves
    preserves the total cost exactly (yielding an equally optimal layout
    with leaf extremes).
    ``VIOLATION``: anything else.
    """
    tree = h.tree
    children = tree.children

    def leaf_extreme(cur: Layout, extreme: int) -> bool:
        return not children[cur.vertex_at[extreme]]

    if leaf_extreme(layout, 0) and leaf_extreme(layout, layout.n - 1):
        return ExtremesVerdict.BOTH_LEAVES
    base_cost = la_total(h, layout)

    def repairs(cur: Layout, extreme: int) -> List[Layout]:
        """Cost-preserving relabelings making this extreme a leaf."""
        v = cur.vertex_at[extreme]
        if not children[v]:
            return [cur]
        if len(children[v]) + (v != tree.root) != 3:  # tree degree
            return []
        leaf_children = [c for c in children[v] if not children[c]]
        if len(leaf_children) < 2:
            return []
        out = []
        for c in leaf_children:
            order = list(cur.vertex_at)
            i, j = cur.positions[v] - 1, cur.positions[c] - 1
            order[i], order[j] = order[j], order[i]
            candidate = Layout(tuple(order))
            if la_total(h, candidate) == base_cost:
                out.append(candidate)
        return out

    # a repair at one extreme may disturb the other, so search the (tiny)
    # space of repair choices for one that leaves both extremes on leaves
    for first in repairs(layout, 0):
        for second in repairs(first, layout.n - 1):
            if leaf_extreme(second, 0) and leaf_extreme(second, second.n - 1):
                return ExtremesVerdict.REPAIRED_LEAF_SWAP
    return ExtremesVerdict.VIOLATION


@record
class InstanceReport:
    name: str
    n: int
    optimal_cost: Optional[int] = None
    lower_bound: Optional[int] = None
    bound_tight: Optional[bool] = None
    optima_checked: int = 0
    contiguity_failures: int = 0
    monotone_failures: int = 0
    branch_failures: int = 0
    branch_vacuous_passes: int = 0
    extremes_violations: int = 0
    extremes_repaired: int = 0
    counterexamples: Optional[List[dict]] = None
    error: Optional[str] = None

    def __post_init__(self):
        if self.counterexamples is None:
            self.counterexamples = []

    @property
    def passed(self) -> bool:
        return (
            self.error is None
            and self.contiguity_failures == 0
            and self.monotone_failures == 0
            and self.branch_failures == 0
            and self.extremes_violations == 0
            and (self.lower_bound is None or self.optimal_cost >= self.lower_bound)
        )

    def to_jsonable(self) -> dict:
        return {**jsonable(self), "passed": self.passed}


@record
class SuiteReport:
    entries: List[InstanceReport]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_jsonable(self) -> dict:
        return {
            "allPassed": self.all_passed,
            "instances": [e.to_jsonable() for e in self.entries],
        }

    def table(self) -> str:
        header = (
            f"{'instance':<28} {'n':>3} {'opt':>5} {'bound':>5} {'tight':>5} "
            f"{'optima':>7} {'lemmas':>7} {'extremes':>9}"
        )
        lines = [header, "-" * len(header)]
        for e in self.entries:
            if e.error is not None:
                lines.append(f"{e.name:<28} ERROR: {e.error}")
                continue
            lemmas = "ok" if (
                e.contiguity_failures == e.monotone_failures == e.branch_failures == 0
            ) else "FAIL"
            extremes = "ok" if e.extremes_violations == 0 else "FAIL"
            if e.extremes_repaired and not e.extremes_violations:
                extremes = "repaired"
            lines.append(
                f"{e.name:<28} {e.n:>3} {e.optimal_cost:>5} {e.lower_bound:>5} "
                f"{str(bool(e.bound_tight)).lower():>5} {e.optima_checked:>7} "
                f"{lemmas:>7} {extremes:>9}"
            )
        lines.append(f"overall: {'PASS' if self.all_passed else 'FAIL'}")
        return "\n".join(lines)


def _spec_name(spec: GenSpec) -> str:
    params = ",".join(f"{k}={v}" for k, v in spec.params)
    name = f"{spec.family}({params})"
    if spec.family == "random":
        name += f"#seed={spec.seed}"
    return name


def run_suite(corpus: Sequence[Tuple[GenSpec, HalinGraph]],
              oracle_limit: int = ORACLE_LIMIT) -> SuiteReport:
    """Check every lemma on every enumerated optimum of every instance.

    Individual instance failures are recorded (with serialized
    counterexamples) without aborting the rest of the corpus.

    Two facts keep the per-optimum work small; tallies and counterexamples
    are still recorded per layout, in the oracle's order.

    * A spinal decomposition depends only on the layout's first and last
      vertex: the spinal path is the tree path between them, and the
      branches are the components left when its edges and vertices are
      removed.  Within one instance it is computed once per endpoint pair.
    * A layout L and its reversal R = ``L.reversed()`` get the same
      contiguity, monotone, branch-overlap and vacuous-pass verdicts.  R
      puts v at position n + 1 - pos(v), and its spinal path is L's path
      reversed, with the same branches at every path vertex.  So each
      branch span [lo, hi] under L is [n + 1 - hi, n + 1 - lo] under R, and
      so is the span of each path vertex joined with its branches.  Each
      such subtree span ends before the next one starts, and the path's
      positions increase, along the path under L exactly when they do along
      the reversed path under R.
      A branch wholly left of its path vertex under L is wholly right of it
      under R, and straddling branches straddle in both, so each side's
      spans under R are the other side's spans under L, reflected.
      Reflection keeps two spans disjoint or overlapping, so the overlap
      verdict agrees, and so does whether some side holds two branches.
      Hence the structural verdict of an optimum is computed once per
      mirror pair: it is kept under the layout's ``vertex_at`` until the
      reversal arrives, whatever order the oracle lists them in.

    The extremes verdict is computed for every layout: its repair search
    repairs position 1 before position n, so it is not shown to be
    symmetric.
    """
    entries: List[InstanceReport] = []
    for spec, h in corpus:
        rep = InstanceReport(name=_spec_name(spec), n=h.n)
        try:
            oracle = brute_force_ola(h, limit=oracle_limit)
            tree_oracle = brute_force_ola(h.tree, limit=oracle_limit, layout_cap=0)
            rep.optimal_cost = oracle.optimal_cost
            rep.lower_bound = halin_lower_bound(h, tree_oracle.optimal_cost)
            rep.bound_tight = oracle.optimal_cost == rep.lower_bound
            spines: Dict[Tuple[VertexId, VertexId], tuple] = {}
            unmatched: Dict[Tuple[VertexId, ...], Tuple[bool, bool, bool, bool]] = {}
            for layout in oracle.optimal_layouts:
                rep.optima_checked += 1
                order = layout.vertex_at
                verdict = unmatched.pop(order[::-1], None)
                if verdict is None:
                    ends = (order[0], order[-1])
                    spine = spines.get(ends)
                    if spine is None:
                        spine = spines[ends] = _spine(h.tree, *ends)
                    verdict = unmatched[order] = _structural_verdict(
                        spine, layout.positions)
                contiguous, monotone, disjoint, vacuous = verdict
                failed = []
                if not contiguous:
                    rep.contiguity_failures += 1
                    failed.append("contiguity")
                if not monotone:
                    rep.monotone_failures += 1
                    failed.append("monotone")
                if not disjoint:
                    rep.branch_failures += 1
                    failed.append("branch-overlap")
                elif vacuous:
                    rep.branch_vacuous_passes += 1
                extremes = check_extremes_are_leaves(h, layout)
                if extremes is ExtremesVerdict.VIOLATION:
                    rep.extremes_violations += 1
                    failed.append("extremes")
                elif extremes is ExtremesVerdict.REPAIRED_LEAF_SWAP:
                    rep.extremes_repaired += 1
                if failed:
                    rep.counterexamples.append(
                        {
                            "layout": list(layout.vertex_at),
                            "failedChecks": failed,
                            "genSpec": spec.to_jsonable(),
                        }
                    )
            if rep.optimal_cost < rep.lower_bound:
                rep.counterexamples.append(
                    {
                        "boundViolation": {
                            "optimalCost": rep.optimal_cost,
                            "lowerBound": rep.lower_bound,
                        },
                        "genSpec": spec.to_jsonable(),
                    }
                )
        except HalinOlaError as exc:
            rep.error = str(exc)
        entries.append(rep)
    return SuiteReport(entries)
