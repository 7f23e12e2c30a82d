import hashlib
import os
import random
import re
import subprocess
import sys
import textwrap
from functools import cached_property
from pathlib import Path
from typing import Optional

import pytest

import halin_ola

from halin_ola import (
    BadParam,
    EmbeddedTree,
    HalinGraph,
    HalinOlaError,
    InvalidSubstrate,
    Layout,
    NotContiguous,
    NotRecursivelyBalanced,
    NotTreeOptimalInput,
    brute_force_ola,
    build_embedded_tree,
    certify,
    cycle_cost_is_tight,
    direct_rbt_halin_ola,
    gen_caterpillar_halin,
    gen_kary_rbt_halin,
    gen_wheel,
    halin_arrange,
    halin_lower_bound,
    is_recursively_balanced,
    la_cost,
    la_total,
    rbt_ola,
    rearrange_to_halin_ola,
    replay_trace,
    scramble_tree_ola,
)


def _raises_under_optimize(body: str, message: Optional[str] = None):
    """Run ``body`` under ``python -O``; it must end in a HalinOlaError, whose
    text is ``message`` when one is given."""
    script = textwrap.dedent("""
        import sys
        from halin_ola import (HalinOlaError, Layout, direct_rbt_halin_ola,
                               gen_kary_rbt_halin, halin_arrange, rbt_ola,
                               rearrange_to_halin_ola, scramble_tree_ola)
        if __debug__:
            sys.exit("not running under -O")
        try:
        %s
        except HalinOlaError as exc:
            sys.exit(0 if %r in (None, str(exc)) else f"wrong error: {exc}")
        sys.exit("faulty layout returned without an error")
    """) % (textwrap.indent(textwrap.dedent(body), "    "), message)
    src = str(Path(halin_ola.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _trace_doc(trace) -> dict:
    """A swap trace as the plain dict the parity digests were pinned on."""
    return {
        "totalSwaps": trace.total_swaps,
        "totalMovedVertices": trace.total_moved_vertices,
        "steps": [
            {
                "levelHeight": s.level_height,
                "blockA": s.block_a,
                "blockB": s.block_b,
                "reversedPair": s.reversed_pair,
            }
            for s in trace.steps
        ],
    }


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
    def test_sizes_summed_once_per_tree(self, monkeypatch):
        # the summing routine behind the cached property, counted: two
        # certificates, the walk and a third certificate sum it once
        h = gen_kary_rbt_halin(3, 2, 4)
        real = EmbeddedTree.__dict__["subtree_sizes"].func
        seen = []
        counted = cached_property(lambda tree: seen.append(real(tree)) or seen[-1])
        counted.__set_name__(EmbeddedTree, "subtree_sizes")
        monkeypatch.setattr(EmbeddedTree, "subtree_sizes", counted)
        rbt_ola(h.tree)
        rearrange_to_halin_ola(h)
        assert is_recursively_balanced(h.tree).verdict
        assert len(seen) == 1 and h.tree.subtree_sizes is seen[0]
        assert seen[0] == real(h.tree)

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
        from halin_ola import reverse_block, sigma_swap

        pre, size = h.tree._preorder, h.tree.subtree_sizes
        for step in trace.steps:
            i, j = pre.index(step.block_a), pre.index(step.block_b)
            a = pre[i:i + size[step.block_a]]
            b = pre[j:j + size[step.block_b]]
            cur = sigma_swap(cur, a, b)
            if step.reversed_pair:
                cur = reverse_block(cur, a)
                cur = reverse_block(cur, b)
            assert la_total(h.tree, cur) == base
        assert cur == out

    def test_rejects_optimal_layouts_without_equal_blocks(self):
        # optimal tree layouts need not be block-structured; the walk
        # refuses those, naming the vertex whose block does not split
        h = gen_kary_rbt_halin(3, 2, 2)
        optima = brute_force_ola(h.tree, layout_cap=2000).optimal_layouts
        refused = 0
        for lay in optima:
            try:
                rearrange_to_halin_ola(h, lay)
            except NotContiguous as exc:
                assert str(exc) == "subtree of 0 does not split into equal blocks around it"
                assert la_total(h.tree, lay) == 15
                refused += 1
        assert (len(optima), refused) == (1152, 384)

    def test_rejects_non_rbt(self):
        h = gen_caterpillar_halin(3, [2, 1, 2])
        with pytest.raises(NotRecursivelyBalanced):
            rearrange_to_halin_ola(h, Layout(tuple(range(h.n))))

    def test_rejects_suboptimal_tree_layout(self):
        h = gen_wheel(4)
        with pytest.raises(NotTreeOptimalInput):
            rearrange_to_halin_ola(h, Layout((0, 1, 2, 3, 4)))  # hub first: cost 10

    def test_faulty_engine_raises_under_optimize(self):
        # the final certify must not be an assert: under -O a walk that swaps
        # nothing would otherwise hand back a layout that misses the bound
        _raises_under_optimize("""
            h = gen_kary_rbt_halin(3, 2, 3)
            start = scramble_tree_ola(h.tree, rbt_ola(h.tree), seed=5)
            halin_arrange._walk = lambda tree, order, plan: ([], 0)
            rearrange_to_halin_ola(h, start)
        """)


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
        with pytest.raises(NotRecursivelyBalanced):
            direct_rbt_halin_ola(gen_caterpillar_halin(3, [2, 1, 2]))

    def test_faulty_emitter_raises_under_optimize(self):
        # the direct layout is checked against the bound too, also under -O
        _raises_under_optimize("""
            h = gen_kary_rbt_halin(3, 2, 3)
            start = scramble_tree_ola(h.tree, rbt_ola(h.tree), seed=5)
            halin_arrange._balanced_layout = lambda tree, mirror: start
            direct_rbt_halin_ola(h)
        """)


# a real fault in each construction: its first two entries exchanged after
# the real emitter or walk.  A skipped walk from rbt_ola's layout, or an
# unmirrored emitter, still meets the bound, as rbt_ola's layout does.
_EXCHANGE_FIRST_TWO = {
    "direct": """
        real = halin_arrange._balanced_layout
        def faulty(tree, mirror):
            order = list(real(tree, mirror).vertex_at)
            order[:2] = order[1::-1]
            return Layout(tuple(order))
        halin_arrange._balanced_layout = faulty
        direct_rbt_halin_ola(gen_kary_rbt_halin(3, 2, 3))
    """,
    "rearranged": """
        real = halin_arrange._walk
        def faulty(tree, order, plan):
            real(tree, order, plan)
            order[:2] = order[1::-1]
        halin_arrange._walk = faulty
        rearrange_to_halin_ola(gen_kary_rbt_halin(3, 2, 3))
    """,
}


@pytest.mark.parametrize("what", sorted(_EXCHANGE_FIRST_TWO))
def test_bound_check_refuses_a_faulty_construction(what, monkeypatch):
    body = _EXCHANGE_FIRST_TWO[what]
    message = f"{what} layout misses the bound: (tree, cycle) = (45, 40), needs (43, 42)"
    for name in ("_balanced_layout", "_walk"):  # restored after the test
        monkeypatch.setattr(halin_arrange, name, getattr(halin_arrange, name))
    with pytest.raises(HalinOlaError) as caught:
        exec(textwrap.dedent(body), dict(vars(halin_ola)))
    assert str(caught.value) == message
    _raises_under_optimize(body, message)


class TestScramble:
    def test_one_vertex_tree(self):
        tree = EmbeddedTree(0, ((),))
        assert scramble_tree_ola(tree, rbt_ola(tree), seed=1) == Layout((0,))

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

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 1, 2, 3, 4, 5, 6)],
                             ids=["shorter", "longer"])
    def test_layout_of_another_size_refused(self, order):
        # unchecked, the walk would return a layout that is not of the tree
        with pytest.raises(BadParam, match=f"layout has {len(order)} vertices, graph has 4"):
            scramble_tree_ola(gen_wheel(3).tree, Layout(order), seed=1)

    @pytest.mark.parametrize("seed", [None, True, 1.5, "1"], ids=["None", "bool", "float", "str"])
    def test_seed_of_another_type_refused(self, seed):
        # None would draw a seed from the operating system, so two equal
        # calls would return different layouts
        tree = gen_kary_rbt_halin(3, 2, 2).tree
        with pytest.raises(BadParam) as exc:
            scramble_tree_ola(tree, rbt_ola(tree), seed=seed)
        assert str(exc.value) == f"seed must be an int, got {seed!r}"

    @pytest.mark.parametrize("tree, order, message", [
        (gen_kary_rbt_halin(3, 2, 2).tree, (0, 1, 5, 6, 3, 7, 4, 8, 2, 9),
         "child blocks interleave under 0"),
        # the walk reaches the block of 2 first only for some shuffles: seed 1 is one
        (gen_kary_rbt_halin(3, 2, 2).tree, (0, 4, 5, 6, 2, 7, 1, 9, 3, 8),
         "vertex not below 2"),
        (gen_kary_rbt_halin(3, 2, 2).tree, (4, 1, 5, 6, 0, 8, 2, 7, 3, 9),
         "subtree of 0 does not split into equal blocks around it"),
        (build_embedded_tree(0, {0: [1, 2], 2: [3, 4]}), (1, 2, 0, 3, 4),
         "child block sizes differ under 0"),
    ])
    def test_refuses_layouts_without_equal_blocks(self, tree, order, message):
        # scramble checks neither balance nor cost, so the walk's own checks
        # are what reject these layouts, each with its own message
        with pytest.raises(NotContiguous) as exc:
            scramble_tree_ola(tree, Layout(order), seed=1)
        assert type(exc.value) is NotContiguous and str(exc.value) == message

    def test_block_walk_parity_digest(self):
        # scrambled layouts, their rearrangements and swap traces, as pinned
        # from the separate scramble and rearrange walks
        graphs = [gen_kary_rbt_halin(3, 2, hh) for hh in range(1, 7)]
        graphs += [gen_kary_rbt_halin(4, 3, 3), gen_kary_rbt_halin(5, 2, 4)]
        graphs += [gen_wheel(s) for s in range(3, 12)]
        rows = []
        for h in graphs:
            base = rbt_ola(h.tree)
            starts = [scramble_tree_ola(h.tree, base, seed) for seed in (0, 1, 7, 123)]
            for start in [base] + starts:
                out, trace = rearrange_to_halin_ola(h, start)
                rows.append((start.vertex_at, out.vertex_at, _trace_doc(trace)))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "af392ad649f7dad2eee538d20334b22ae71a303b8b02d7165c38d5bd20c79b43"
        )


def _outcome(call):
    """What ``call()`` returns, or the class and message of a typed refusal."""
    try:
        return call()
    except HalinOlaError as exc:
        return type(exc).__name__, str(exc)


def _rearranged(h, lay):
    out, trace = rearrange_to_halin_ola(h, lay)
    return out.vertex_at, _trace_doc(trace)


def test_refusal_parity_digest():
    # random permutations and one- or two-transposition perturbations of
    # scrambled optima: each input's scramble and rearrange outcomes (output
    # layout and trace, or refusal message), as pinned before the walk's
    # one-vertex-slot fast path
    rng = random.Random(2024)
    rows = []
    for h in [gen_kary_rbt_halin(*p) for p in ((3, 2, 3), (3, 3, 2), (4, 2, 2), (3, 2, 2))]:
        n, base = h.n, rbt_ola(h.tree)
        inputs = []
        for _ in range(150):
            order = list(range(n))
            rng.shuffle(order)
            inputs.append(order)
        leaves = [v for v in range(n) if not h.tree.children[v]]
        for seed in range(150):
            order = list(scramble_tree_ola(h.tree, base, seed).vertex_at)
            for _ in range(1 + seed % 2):  # half the time, of two leaves
                i, j = rng.sample(range(n), 2) if seed % 4 < 2 else (
                    order.index(v) for v in rng.sample(leaves, 2))
                order[i], order[j] = order[j], order[i]
            inputs.append(order)
        for order in inputs:
            lay = Layout(tuple(order))
            scrambled = _outcome(lambda: scramble_tree_ola(h.tree, lay, 3).vertex_at)
            rearranged = _outcome(lambda: _rearranged(h, lay))
            rows.append((lay.vertex_at, scrambled, rearranged))
    # the three refusals a balanced tree can reach ("child block sizes
    # differ" needs unequal siblings), and inputs both walks accept
    kinds = {re.sub(r"\d+", "V", r[1][1]) for r in rows if isinstance(r[1][1], str)}
    assert kinds == {"subtree of V does not split into equal blocks around it",
                     "child blocks interleave under V", "vertex not below V"}
    assert sum(isinstance(r[2][0], tuple) for r in rows) > 40
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "35e3a8a097435a617fb580e89d635354cfe92eb801a05a6a662ca8561df29c7c"
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

    def test_tree_optimum_too_high(self):
        h = gen_wheel(3)
        cert = certify(h, direct_rbt_halin_ola(h), 5)  # LA*(K_{1,3}) is 4
        assert (cert.optimal, cert.layout_cost, cert.lower_bound) == (False, 10, 11)
        assert cert.reason == "cost 10 < bound 11: tree_opt_cost is not the true tree optimum"

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

    def test_no_certificate_for_a_non_halin_graph_or_foreign_layout(self):
        # layout (1, 0, 2) of the two-leaf star with its leaf pair doubled
        # costs 6, which "meets" a bound of 6, while (0, 1, 2) costs 5
        with pytest.raises(InvalidSubstrate):
            certify(HalinGraph(build_embedded_tree(0, {0: [1, 2]})), Layout((1, 0, 2)), 2)
        # a 5-vertex layout of the 4-vertex wheel would "meet" the bound 10
        with pytest.raises(BadParam, match="layout has 5 vertices, graph has 4"):
            certify(gen_wheel(3), Layout((4, 0, 1, 2, 3)), 4)
