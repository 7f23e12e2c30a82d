from halin_ola import (
    ExtremesVerdict,
    Layout,
    brute_force_ola,
    check_branch_non_overlap,
    check_extremes_are_leaves,
    check_spine_monotone,
    check_subtree_contiguity,
    gen_caterpillar_halin,
    gen_wheel,
    run_suite,
)
from halin_ola import property_suite
from halin_ola.generators import GenSpec
from halin_ola.property_suite import count_same_side_branch_pairs


def k4_optima():
    h = gen_wheel(3)
    return h, brute_force_ola(h).optimal_layouts


class TestChecksOnOptima:
    def test_k4_contiguity_and_monotone(self):
        h, optima = k4_optima()
        for lay in optima:
            assert check_subtree_contiguity(h, lay)
            assert check_spine_monotone(h, lay)

    def test_w5_all_checks(self):
        h = gen_wheel(4)
        for lay in brute_force_ola(h).optimal_layouts:
            assert check_subtree_contiguity(h, lay)
            assert check_spine_monotone(h, lay)
            assert check_branch_non_overlap(h, lay)
            assert check_extremes_are_leaves(h, lay) is not ExtremesVerdict.VIOLATION

    def test_monotone_holds_for_reversed_optimum(self):
        # the spine is re-extracted from the reversed layout's own extremes
        h = gen_wheel(4)
        lay = brute_force_ola(h).optimal_layouts[0]
        assert check_spine_monotone(h, lay.reversed())


class TestBranchNonOverlap:
    def test_singleton_branches_vacuous(self):
        h = gen_wheel(4)
        lay = Layout((1, 2, 0, 3, 4))
        assert check_branch_non_overlap(h, lay)
        # the hub has one branch per side here: nothing to compare
        assert count_same_side_branch_pairs(h, lay) == 0

    def test_same_side_pair_counted(self):
        h = gen_wheel(5)
        lay = Layout((1, 2, 3, 0, 4, 5))  # two same-side branches at the hub
        assert count_same_side_branch_pairs(h, lay) >= 1


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


def test_run_suite_decomposes_each_optimum_once(monkeypatch):
    calls = []
    real = property_suite.spinal_decomposition

    def counted(h, layout):
        calls.append(layout)
        return real(h, layout)

    monkeypatch.setattr(property_suite, "spinal_decomposition", counted)
    corpus = [(GenSpec("wheel", (("spokes", s),)), gen_wheel(s)) for s in (4, 5)]
    report = run_suite(corpus)
    assert report.all_passed
    assert len(calls) == sum(e.optima_checked for e in report.entries) > 0
