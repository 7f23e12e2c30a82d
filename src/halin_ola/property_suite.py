"""Structural checks on optimal layouts, run over all enumerated optima.

Every optimal arrangement of a Halin graph is expected to satisfy: spinal
subtrees occupy contiguous blocks in spine order, spine positions increase
monotonically, same-side branches of a spinal vertex do not interleave, and
both extreme positions hold tree leaves (up to a degree-3 relabel).  The
suite runs these checks against every brute-force optimum of a corpus and
reports violations with full counterexamples.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ._record import field, record
from .errors import HalinOlaError
from .generators import GenSpec
from .graph_core import HalinGraph
from .halin_arrange import halin_lower_bound
from .layout_ops import (Layout, SpinalDecomposition, is_of_type, la_total,
                         spinal_decomposition)
from .tree_ola import brute_force_ola


def check_subtree_contiguity(h: HalinGraph, layout: Layout) -> bool:
    """Spinal subtrees occupy contiguous position blocks in spine order."""
    return is_of_type(layout, spinal_decomposition(h, layout).subtrees)


def check_spine_monotone(h: HalinGraph, layout: Layout) -> bool:
    """Positions strictly increase along the spinal path."""
    return _spine_monotone(layout, spinal_decomposition(h, layout))


def _spine_monotone(layout: Layout, dec: SpinalDecomposition) -> bool:
    pos = layout.positions()
    ps = [pos[w] for w in dec.path]
    return all(a < b for a, b in zip(ps, ps[1:]))


def _branch_side_groups(layout: Layout, dec: SpinalDecomposition):
    """Left and right branches of each spinal vertex (straddling ones left out)."""
    pos = layout.positions()
    groups = []
    for w, branches in zip(dec.path, dec.branches):
        left, right = [], []
        for br in branches:
            ps = [pos[v] for v in br.vertices]
            if max(ps) < pos[w]:
                left.append(br)
            elif min(ps) > pos[w]:
                right.append(br)
        groups.append((left, right))
    return groups


def count_same_side_branch_pairs(h: HalinGraph, layout: Layout) -> int:
    """Number of same-side branch pairs the non-overlap check inspects.

    Zero means the check passes vacuously for this layout.
    """
    return _same_side_pairs(_branch_side_groups(layout, spinal_decomposition(h, layout)))


def _same_side_pairs(groups) -> int:
    return sum(len(side) * (len(side) - 1) // 2 for sides in groups for side in sides)


def check_branch_non_overlap(h: HalinGraph, layout: Layout) -> bool:
    """Same-side branches of each spinal vertex occupy disjoint blocks.

    For every pair of branches on the same side of their spinal vertex, one
    must wholly precede the other (either order is fine).
    """
    groups = _branch_side_groups(layout, spinal_decomposition(h, layout))
    return _branches_disjoint(layout, groups)


def _branches_disjoint(layout: Layout, groups) -> bool:
    pos = layout.positions()
    for sides in groups:
        for side in sides:
            spans = sorted(
                (min(pos[v] for v in br.vertices), max(pos[v] for v in br.vertices))
                for br in side
            )
            for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
                if hi1 >= lo2:
                    return False
    return True


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
    base_cost = la_total(h, layout)

    def leaf_extreme(cur: Layout, extreme: int) -> bool:
        return tree.is_leaf(cur.vertex_at[extreme])

    if leaf_extreme(layout, 0) and leaf_extreme(layout, layout.n - 1):
        return ExtremesVerdict.BOTH_LEAVES

    def repairs(cur: Layout, extreme: int) -> List[Layout]:
        """Cost-preserving relabelings making this extreme a leaf."""
        v = cur.vertex_at[extreme]
        if tree.is_leaf(v):
            return [cur]
        if tree.degree(v) != 3:
            return []
        leaf_children = [c for c in tree.children[v] if tree.is_leaf(c)]
        if len(leaf_children) < 2:
            return []
        out = []
        for c in leaf_children:
            order = list(cur.vertex_at)
            i, j = cur.position(v) - 1, cur.position(c) - 1
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
    counterexamples: List[dict] = field(default_factory=list)
    error: Optional[str] = None

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
        return {
            "name": self.name,
            "n": self.n,
            "optimalCost": self.optimal_cost,
            "lowerBound": self.lower_bound,
            "boundTight": self.bound_tight,
            "optimaChecked": self.optima_checked,
            "contiguityFailures": self.contiguity_failures,
            "monotoneFailures": self.monotone_failures,
            "branchFailures": self.branch_failures,
            "branchVacuousPasses": self.branch_vacuous_passes,
            "extremesViolations": self.extremes_violations,
            "extremesRepaired": self.extremes_repaired,
            "counterexamples": self.counterexamples,
            "error": self.error,
            "passed": self.passed,
        }


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
              oracle_limit: int = 10) -> SuiteReport:
    """Check every lemma on every enumerated optimum of every instance.

    Individual instance failures are recorded (with serialized
    counterexamples) without aborting the rest of the corpus.
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
            for layout in oracle.optimal_layouts:
                rep.optima_checked += 1
                failed = []
                dec = spinal_decomposition(h, layout)  # shared by three checks
                if not is_of_type(layout, dec.subtrees):
                    rep.contiguity_failures += 1
                    failed.append("contiguity")
                if not _spine_monotone(layout, dec):
                    rep.monotone_failures += 1
                    failed.append("monotone")
                groups = _branch_side_groups(layout, dec)
                if not _branches_disjoint(layout, groups):
                    rep.branch_failures += 1
                    failed.append("branch-overlap")
                elif _same_side_pairs(groups) == 0:
                    rep.branch_vacuous_passes += 1
                verdict = check_extremes_are_leaves(h, layout)
                if verdict is ExtremesVerdict.VIOLATION:
                    rep.extremes_violations += 1
                    failed.append("extremes")
                elif verdict is ExtremesVerdict.REPAIRED_LEAF_SWAP:
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
