import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import halin_ola

from halin_ola import (
    Layout,
    NotRbt,
    NotTreeOptimalInput,
    brute_force_ola,
    certify,
    cycle_cost_is_tight,
    direct_rbt_halin_ola,
    gen_caterpillar_halin,
    gen_kary_rbt_halin,
    gen_wheel,
    halin_lower_bound,
    la_cost,
    la_total,
    rbt_ola,
    rearrange_to_halin_ola,
    replay_trace,
    scramble_tree_ola,
)


class TestLowerBound:
    def test_k4(self):
        h = gen_wheel(3)
        assert halin_lower_bound(h, 4) == 10 == brute_force_ola(h).optimal_cost

    def test_w5(self):
        h = gen_wheel(4)
        assert halin_lower_bound(h, 6) == 14 == brute_force_ola(h).optimal_cost

    def test_monotone_in_tree_cost_and_n(self):
        h5, h6 = gen_wheel(4), gen_wheel(5)
        assert halin_lower_bound(h5, 6) < halin_lower_bound(h5, 7)
        assert halin_lower_bound(h5, 6) < halin_lower_bound(h6, 6)


class TestCycleTightness:
    def test_tight_wheel_layout(self):
        h = gen_wheel(4)
        assert cycle_cost_is_tight(h, Layout((1, 2, 0, 3, 4)))

    def test_interleaved_leaves_not_tight(self):
        h = gen_wheel(4)
        assert not cycle_cost_is_tight(h, Layout((1, 3, 0, 2, 4)))

    def test_hub_at_extreme_not_tight(self):
        h = gen_wheel(4)
        assert not cycle_cost_is_tight(h, Layout((0, 1, 2, 3, 4)))


class TestRearrange:
    @pytest.mark.parametrize("spokes", [3, 4, 5, 6])
    def test_wheels_meet_bound(self, spokes):
        h = gen_wheel(spokes)
        tree_lay = rbt_ola(h.tree)
        out, trace = rearrange_to_halin_ola(h, tree_lay)
        bound = halin_lower_bound(h, la_total(h.tree, tree_lay))
        assert la_total(h, out) == bound
        assert cycle_cost_is_tight(h, out)
        assert la_total(h.tree, out) == la_total(h.tree, tree_lay)

    def test_tri_star_matches_oracle(self):
        h = gen_kary_rbt_halin(3, 2, 2)
        out, _ = rearrange_to_halin_ola(h, rbt_ola(h.tree))
        assert la_total(h, out) == 33 == brute_force_ola(h).optimal_cost

    def test_trace_replays_to_output(self):
        h = gen_kary_rbt_halin(3, 2, 3)
        start = scramble_tree_ola(h.tree, rbt_ola(h.tree), seed=5)
        out, trace = rearrange_to_halin_ola(h, start)
        assert replay_trace(h.tree, start, trace) == out
        assert trace.total_swaps == len(trace.steps)

    def test_tree_cost_constant_after_every_step(self):
        h = gen_kary_rbt_halin(3, 2, 2)
        start = scramble_tree_ola(h.tree, rbt_ola(h.tree), seed=9)
        out, trace = rearrange_to_halin_ola(h, start)
        base = la_total(h.tree, start)
        cur = start
        from halin_ola import reverse_block, sigma_swap, subtree_vertices

        for step in trace.steps:
            a = subtree_vertices(h.tree, step.block_a)
            b = subtree_vertices(h.tree, step.block_b)
            cur = sigma_swap(cur, a, b)
            if step.reversed_pair:
                cur = reverse_block(cur, a)
                cur = reverse_block(cur, b)
            assert la_total(h.tree, cur) == base
        assert cur == out

    def test_rejects_non_rbt(self):
        h = gen_caterpillar_halin(3, [2, 1, 2])
        with pytest.raises(NotRbt):
            rearrange_to_halin_ola(h, Layout(tuple(range(h.n))))

    def test_rejects_suboptimal_tree_layout(self):
        h = gen_wheel(4)
        with pytest.raises(NotTreeOptimalInput):
            rearrange_to_halin_ola(h, Layout((0, 1, 2, 3, 4)))  # hub first: cost 10

    def test_faulty_engine_raises_under_optimize(self):
        # the final certify must not be an assert: under -O a broken engine
        # would otherwise hand back a layout that misses the bound
        script = textwrap.dedent("""
            import sys
            from halin_ola import (HalinOlaError, gen_kary_rbt_halin, halin_arrange,
                                   rbt_ola, rearrange_to_halin_ola, scramble_tree_ola)
            if __debug__:
                sys.exit("not running under -O")
            h = gen_kary_rbt_halin(3, 2, 3)
            start = scramble_tree_ola(h.tree, rbt_ola(h.tree), seed=5)
            halin_arrange._BlockEngine.layout = lambda self: start
            try:
                rearrange_to_halin_ola(h, start)
            except HalinOlaError:
                sys.exit(0)
            sys.exit("faulty layout returned without an error")
        """)
        src = str(Path(halin_ola.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_trace_serializable(self):
        import json

        h = gen_wheel(5)
        _, trace = rearrange_to_halin_ola(h, rbt_ola(h.tree))
        doc = json.loads(json.dumps(trace.to_jsonable()))
        assert doc["totalSwaps"] == trace.total_swaps
        assert len(doc["steps"]) == trace.total_swaps


class TestDirect:
    @pytest.mark.parametrize("spokes,opt", [(3, 10), (4, 14), (5, 19)])
    def test_wheels(self, spokes, opt):
        h = gen_wheel(spokes)
        assert la_total(h, direct_rbt_halin_ola(h)) == opt

    def test_layouts_pinned(self):
        assert direct_rbt_halin_ola(gen_wheel(4)).vertex_at == (4, 3, 0, 2, 1)
        h = gen_kary_rbt_halin(3, 2, 2)
        assert direct_rbt_halin_ola(h).vertex_at == (9, 3, 8, 7, 2, 6, 0, 5, 1, 4)

    def test_agrees_with_rearrange_at_n40(self):
        # complete ternary substrate of height 3: too big for the oracle,
        # the two independent constructions must agree with each other
        h = gen_kary_rbt_halin(3, 3, 3)
        assert h.n == 40
        direct = direct_rbt_halin_ola(h)
        rearranged, _ = rearrange_to_halin_ola(h, rbt_ola(h.tree))
        assert la_total(h, direct) == la_total(h, rearranged)
        assert cycle_cost_is_tight(h, direct)

    def test_rejects_non_rbt(self):
        with pytest.raises(NotRbt):
            direct_rbt_halin_ola(gen_caterpillar_halin(3, [2, 1, 2]))


class TestScramble:
    def test_preserves_tree_cost_and_differs(self):
        h = gen_kary_rbt_halin(3, 2, 4)
        base = rbt_ola(h.tree)
        scrambled = scramble_tree_ola(h.tree, base, seed=123)
        assert la_total(h.tree, scrambled) == la_total(h.tree, base)
        assert scrambled != base

    def test_deterministic(self):
        h = gen_kary_rbt_halin(3, 2, 3)
        base = rbt_ola(h.tree)
        assert scramble_tree_ola(h.tree, base, seed=7) == scramble_tree_ola(
            h.tree, base, seed=7
        )


class TestCertify:
    def test_optimal_layout(self):
        h = gen_wheel(3)
        out, _ = rearrange_to_halin_ola(h, rbt_ola(h.tree))
        cert = certify(h, out, 4)
        assert cert.optimal
        assert cert.layout_cost == cert.lower_bound == 10
        assert cert.cycle_cost == 6

    def test_suboptimal_layout(self):
        h = gen_wheel(4)
        cert = certify(h, Layout((1, 3, 0, 2, 4)), 6)
        assert not cert.optimal
        assert cert.layout_cost > 14
        assert "bound" in cert.reason

    def test_bound_not_attained_is_not_disproof(self):
        # non-balanced substrate whose optimum exceeds the bound
        h = gen_caterpillar_halin(3, [2, 1, 2])
        oracle = brute_force_ola(h)
        tree_opt = brute_force_ola(h.tree).optimal_cost
        cert = certify(h, oracle.optimal_layouts[0], tree_opt)
        # the layout is a true optimum either way; the certificate may only
        # confirm optimality when the bound is met
        assert cert.layout_cost == oracle.optimal_cost
        if not cert.optimal:
            assert cert.layout_cost > cert.lower_bound
