import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halin_ola import (
    ExtremesVerdict,
    Layout,
    brute_force_ola,
    check_extremes_are_leaves,
    gen_caterpillar_halin,
    gen_kary_rbt_halin,
    gen_random_halin,
    gen_wheel,
    generate,
    run_suite,
)
from halin_ola import property_suite
from halin_ola.generators import GenSpec, caterpillar_spec
from halin_ola.property_suite import (
    _branch_sides,
    _same_side_pairs,
    _spine,
    _structural_verdict,
)


def k4_optima():
    h = gen_wheel(3)
    return h, brute_force_ola(h).optimal_layouts


def spine_of(h, lay):
    return _spine(h.tree, lay.vertex_at[0], lay.vertex_at[-1])


def verdict(h, lay):
    """(contiguous, monotone, branches disjoint, branch pass vacuous)."""
    return _structural_verdict(spine_of(h, lay), lay.positions)


class TestChecksOnOptima:
    def test_k4_contiguity_and_monotone(self):
        h, optima = k4_optima()
        for lay in optima:
            contiguous, monotone, _, _ = verdict(h, lay)
            assert contiguous and monotone

    def test_w5_all_checks(self):
        h = gen_wheel(4)
        for lay in brute_force_ola(h).optimal_layouts:
            assert all(verdict(h, lay)[:3])
            assert check_extremes_are_leaves(h, lay) is not ExtremesVerdict.VIOLATION

    def test_monotone_holds_for_reversed_optimum(self):
        # the spine is re-extracted from the reversed layout's own extremes
        h = gen_wheel(4)
        lay = brute_force_ola(h).optimal_layouts[0]
        assert verdict(h, lay.reversed())[1]


class TestBranchNonOverlap:
    def test_singleton_branches_vacuous(self):
        h = gen_wheel(4)
        lay = Layout((1, 2, 0, 3, 4))
        # the hub has one branch per side here: nothing to compare
        assert verdict(h, lay)[2:] == (True, True)
        assert _same_side_pairs(_branch_sides(lay.positions, spine_of(h, lay))) == 0

    def test_same_side_pair_counted(self):
        h = gen_wheel(5)
        lay = Layout((1, 2, 3, 0, 4, 5))  # two same-side branches at the hub
        assert _same_side_pairs(_branch_sides(lay.positions, spine_of(h, lay))) >= 1
        assert verdict(h, lay)[2:] == (True, False)


class TestExtremes:
    def test_both_leaves(self):
        h = gen_wheel(4)
        assert (
            check_extremes_are_leaves(h, Layout((1, 2, 0, 3, 4)))
            is ExtremesVerdict.BOTH_LEAVES
        )

    def test_k4_hub_extreme_repairable(self):
        # (hub, l, l, l) is optimal for K4 with a non-leaf extreme
        h = gen_wheel(3)
        lay = Layout((0, 1, 2, 3))
        assert check_extremes_are_leaves(h, lay) is ExtremesVerdict.REPAIRED_LEAF_SWAP

    def test_k4_hub_both_sides(self):
        # worst case: hub at one end, repair must not break the other end
        h = gen_wheel(3)
        for lay in brute_force_ola(h).optimal_layouts:
            assert check_extremes_are_leaves(h, lay) is not ExtremesVerdict.VIOLATION

    def test_violation_on_unrepairable_layout(self):
        # a deliberately non-optimal layout with an interior vertex stuck at
        # the extreme; the degree-3 relabel cannot preserve cost here
        h = gen_caterpillar_halin(2, [2, 2])
        lay = Layout((1, 0, 2, 3, 4, 5))  # spine vertex 1 has leaf children 4,5
        verdict = check_extremes_are_leaves(h, lay)
        assert verdict is ExtremesVerdict.VIOLATION

    @pytest.mark.parametrize("h, first", [
        (gen_wheel(4), 0),  # the hub has tree degree 4
        (gen_kary_rbt_halin(3, 2, 3), 1),  # degree 3, but no leaf child
    ], ids=["degree-not-3", "too-few-leaf-children"])
    def test_violation_when_no_relabel_applies(self, h, first):
        # an internal first vertex that no leaf-child swap can replace; the
        # last vertex, n - 1, is a leaf
        lay = Layout((first, *(v for v in range(h.n) if v != first)))
        assert check_extremes_are_leaves(h, lay) is ExtremesVerdict.VIOLATION


class TestRunSuite:
    def test_small_suite_passes(self):
        corpus = [
            (GenSpec("wheel", (("spokes", 3),)), gen_wheel(3)),
            (GenSpec("wheel", (("spokes", 4),)), gen_wheel(4)),
        ]
        report = run_suite(corpus)
        assert report.all_passed
        assert all(e.bound_tight for e in report.entries)
        assert "overall: PASS" in report.table()

    def test_never_aborts_on_oversized_instance(self):
        corpus = [
            (GenSpec("wheel", (("spokes", 3),)), gen_wheel(3)),
            (GenSpec("wheel", (("spokes", 12),)), gen_wheel(12)),  # beyond oracle
        ]
        report = run_suite(corpus, oracle_limit=10)
        assert report.entries[0].passed
        assert report.entries[1].error is not None
        assert not report.all_passed

    def test_jsonable(self):
        import json

        corpus = [(GenSpec("wheel", (("spokes", 3),)), gen_wheel(3))]
        doc = json.loads(json.dumps(run_suite(corpus).to_jsonable()))
        assert doc["allPassed"] is True
        assert doc["instances"][0]["optimaChecked"] == 24


def test_run_suite_decomposes_each_endpoint_pair_once(monkeypatch):
    # a layout whose reversal was already checked is not decomposed, so the
    # calls are one per endpoint pair among the first layout of each mirror pair
    calls = []
    real = property_suite._spine

    def counted(tree, first, last):
        calls.append((tree.n, first, last))
        return real(tree, first, last)

    monkeypatch.setattr(property_suite, "_spine", counted)
    corpus = [(GenSpec("wheel", (("spokes", s),)), gen_wheel(s)) for s in (4, 5)]
    report = run_suite(corpus)
    assert report.all_passed
    assert sum(e.optima_checked for e in report.entries) == 96
    assert len(calls) == len(set(calls)) == 16


def _reference_spine(tree, first, last):
    """The decomposition from its definition, as sets: the path by search
    over the undirected tree, subtrees and branches as components."""
    adjacent = {v: set(tree.children[v]) for v in tree.vertices}
    for v, p in enumerate(tree.parent):
        if p is not None:
            adjacent[v].add(p)
    came = {first: None}
    frontier = [first]
    while frontier:
        x = frontier.pop()
        for y in adjacent[x] - came.keys():
            came[y] = x
            frontier.append(y)
    path = [last]
    while path[-1] != first:
        path.append(came[path[-1]])
    path.reverse()
    for a, b in zip(path, path[1:]):
        adjacent[a].discard(b)
        adjacent[b].discard(a)

    def component(start, banned):
        seen, frontier = {start}, [start]
        while frontier:
            for y in adjacent[frontier.pop()] - seen - {banned}:
                seen.add(y)
                frontier.append(y)
        return frozenset(seen)

    return (tuple(path), tuple(component(w, None) for w in path),
            tuple({component(a, w) for a in adjacent[w]} for w in path))


def _as_sets(spine):
    path, subtrees, branches = spine
    return (path, tuple(map(frozenset, subtrees)),
            tuple({frozenset(b) for b in bs} for bs in branches))


def _assert_mirror_and_endpoint_facts(h, optima):
    """What run_suite's reuse rests on.

    The decomposition of each endpoint pair matches its definition, and the
    pair read backwards gives the same blocks in reverse order.  A layout and
    its reversal, each with its own spine, get the same structural verdict.
    """
    spines = {}

    def verdict_of(order):
        ends = (order[0], order[-1])
        if ends not in spines:
            spines[ends] = _spine(h.tree, *ends)
            path, subtrees, branches = _as_sets(spines[ends])
            assert (path, subtrees, branches) == _reference_spine(h.tree, *ends), ends
            assert _as_sets(_spine(h.tree, *ends[::-1])) == (
                path[::-1], subtrees[::-1], branches[::-1]), ends
        return _structural_verdict(spines[ends], Layout(order).positions)

    for lay in optima:
        assert verdict_of(lay.vertex_at) == verdict_of(lay.vertex_at[::-1]), lay


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 10), st.integers(0, 10**6))
def test_spine_matches_its_definition_on_every_endpoint_pair(n, seed):
    # optima end at leaves whose paths mostly meet at the root, so every
    # pair is tried here, including paths that turn below the root
    tree = gen_random_halin(n, seed=seed).tree
    for first in tree.vertices:
        for last in tree.vertices:
            assert _as_sets(_spine(tree, first, last)) == _reference_spine(
                tree, first, last), (first, last)


def test_mirror_and_endpoint_facts_on_standard_corpus(corpus):
    for _, h in corpus:
        _assert_mirror_and_endpoint_facts(h, brute_force_ola(h).optimal_layouts)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 7), st.integers(0, 10**6))
def test_mirror_and_endpoint_facts_on_random_halins(n, seed):
    h = gen_random_halin(n, seed=seed)  # at most n + 2 = 9 vertices
    assert h.n <= 9
    _assert_mirror_and_endpoint_facts(h, brute_force_ola(h).optimal_layouts)


def test_run_suite_reports_contiguity_overlap_bound_and_error(monkeypatch):
    # stand-ins fail every optimum's contiguity and branch checks and raise
    # the bound one above the optimum; an instance past the oracle's limit
    # becomes the table's ERROR row
    real_bound = property_suite.halin_lower_bound
    monkeypatch.setattr(property_suite, "_blocks_in_order", lambda pos, blocks: False)
    monkeypatch.setattr(property_suite, "_sides_disjoint", lambda sides: False)
    monkeypatch.setattr(property_suite, "halin_lower_bound",
                        lambda h, tree_opt: real_bound(h, tree_opt) + 1)
    specs = [GenSpec("wheel", (("spokes", s),)) for s in (3, 12)]
    report = run_suite([(spec, generate(spec)) for spec in specs])
    k4 = report.entries[0]
    assert (k4.contiguity_failures, k4.monotone_failures, k4.branch_failures,
            k4.branch_vacuous_passes, k4.optima_checked) == (24, 0, 24, 0, 24)
    assert not k4.passed and k4.bound_tight is False
    spec = specs[0].to_jsonable()
    assert k4.counterexamples[0] == {"layout": [0, 1, 2, 3], "genSpec": spec,
                                     "failedChecks": ["contiguity", "branch-overlap"]}
    assert k4.counterexamples[24:] == [
        {"boundViolation": {"optimalCost": 10, "lowerBound": 11}, "genSpec": spec}]
    assert report.table().splitlines()[2:] == [
        "wheel(spokes=3)                4    10    11 false      24    FAIL  repaired",
        "wheel(spokes=12)             ERROR: n=13 exceeds oracle limit 10",
        "overall: FAIL"]


def test_counterexamples_digest(monkeypatch):
    # Failing checks on a fixed set of layouts pin the tallies and the order
    # of counterexamples.  The monotone stand-in fails when vertex 1 sits
    # second from either end, a set closed under reversal, as a real
    # structural check is; the extremes stand-in is not mirror-symmetric.
    real_spine_monotone = property_suite._spine_monotone
    real_extremes = property_suite.check_extremes_are_leaves

    def monotone(pos, path):
        return real_spine_monotone(pos, path) and pos[1] not in (2, len(pos) - 1)

    def extremes(h, layout):
        if layout.vertex_at[1] == 2:
            return ExtremesVerdict.VIOLATION
        return real_extremes(h, layout)

    monkeypatch.setattr(property_suite, "_spine_monotone", monotone)
    monkeypatch.setattr(property_suite, "check_extremes_are_leaves", extremes)
    specs = [GenSpec("wheel", (("spokes", s),)) for s in (4, 5)]
    specs += [caterpillar_spec(2, [2, 2]), GenSpec("random", (("n", 7),), seed=3)]
    doc = run_suite([(spec, generate(spec)) for spec in specs]).to_jsonable()
    assert [(e["monotoneFailures"], e["extremesViolations"], len(e["counterexamples"]),
             e["optimaChecked"]) for e in doc["instances"]] == [
        (8, 4, 11, 16), (32, 16, 46, 80), (24, 12, 32, 72), (0, 16, 16, 96)]
    # pinned before run_suite reused verdicts across endpoint and mirror pairs
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == (
        "40236f1a1173eb6126a8600ff7584f546b9cde617b216e5a1966a783cbdce2bd"
    )
