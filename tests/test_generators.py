import tracemalloc

import pytest

from halin_ola import (
    BadParam,
    GenSpec,
    TooLarge,
    all_caterpillar_halins_up_to,
    gen_caterpillar_halin,
    gen_kary_rbt_halin,
    gen_random_halin,
    gen_wheel,
    generate,
    is_recursively_balanced,
    serialize_instance,
    standard_corpus,
    validate_halin_substrate,
)
from halin_ola import generators
from halin_ola.generators import caterpillar_spec


class TestWheel:
    def test_k4(self):
        h = gen_wheel(3)
        assert h.n == 4
        assert h.cycle_order == (1, 2, 3)

    def test_w5(self):
        assert gen_wheel(4).n == 5

    def test_too_few_spokes(self):
        with pytest.raises(BadParam):
            gen_wheel(2)


class TestKary:
    def test_height_one_is_star(self):
        h = gen_kary_rbt_halin(3, 2, 1)
        assert h.n == 4

    def test_tri_star(self):
        h = gen_kary_rbt_halin(3, 2, 2)
        assert h.n == 10

    def test_height_three(self):
        assert gen_kary_rbt_halin(3, 2, 3).n == 22

    def test_always_recursively_balanced(self):
        for k, c, hh in [(3, 2, 1), (3, 3, 2), (4, 2, 3), (5, 3, 2)]:
            h = gen_kary_rbt_halin(k, c, hh)
            assert is_recursively_balanced(h.tree).verdict
            assert validate_halin_substrate(h.tree) == []

    @pytest.mark.parametrize("bad", [(2, 2, 1), (3, 1, 1), (3, 2, 0)])
    def test_bad_params(self, bad):
        with pytest.raises(BadParam):
            gen_kary_rbt_halin(*bad)


class TestCaterpillar:
    def test_single_spine_is_wheel(self):
        h = gen_caterpillar_halin(1, [3])
        assert h.n == 4

    def test_two_spine(self):
        h = gen_caterpillar_halin(2, [2, 2])
        assert h.n == 6
        assert validate_halin_substrate(h.tree) == []

    def test_three_spine(self):
        assert gen_caterpillar_halin(3, [2, 1, 2]).n == 8

    def test_degree_violations(self):
        with pytest.raises(BadParam):
            gen_caterpillar_halin(1, [2])
        with pytest.raises(BadParam):
            gen_caterpillar_halin(2, [1, 2])
        with pytest.raises(BadParam):
            gen_caterpillar_halin(3, [2, 0, 2])

    def test_count_mismatch(self):
        with pytest.raises(BadParam):
            gen_caterpillar_halin(2, [2])

    def test_empty_spine(self):
        with pytest.raises(BadParam, match="^spine length must be >= 1, got 0$"):
            gen_caterpillar_halin(0, [])

    def test_enumeration_bounded_and_valid(self):
        cats = all_caterpillar_halins_up_to(9)
        assert cats  # non-empty
        for _spec, h in cats:
            assert 4 <= h.n <= 9
            assert validate_halin_substrate(h.tree) == []


class TestRandom:
    def test_minimum_is_k4(self):
        h = gen_random_halin(4, seed=99)
        assert h.n == 4

    def test_deterministic(self):
        a = gen_random_halin(7, seed=1)
        b = gen_random_halin(7, seed=1)
        assert a.tree.children == b.tree.children
        assert serialize_instance(a) == serialize_instance(b)

    def test_always_valid_substrate(self):
        for seed in range(20):
            h = gen_random_halin(10, seed=seed)
            assert validate_halin_substrate(h.tree) == []
            assert h.n >= 10

    def test_bad_target(self):
        with pytest.raises(BadParam):
            gen_random_halin(3, seed=0)


class TestDispatchAndCorpus:
    def test_generate_round_trip(self):
        spec = GenSpec("kary", (("k", 3), ("c", 2), ("h", 2)))
        assert generate(spec).n == 10

    def test_generate_unknown_family(self):
        with pytest.raises(BadParam):
            generate(GenSpec("torus", ()))

    def test_generate_bad_params_are_bad_param(self):
        with pytest.raises(BadParam, match="need one leaf count per spine vertex: 3 != 2"):
            generate(caterpillar_spec(3, [2, 2]))
        with pytest.raises(BadParam, match="spokes"):
            generate(GenSpec("wheel", ()))
        with pytest.raises(BadParam, match="'h'"):
            generate(GenSpec("kary", (("k", 3), ("c", 2))))

    def test_standard_corpus_shape(self):
        corpus = standard_corpus()
        families = {}
        for spec, h in corpus:
            families.setdefault(spec.family, 0)
            families[spec.family] += 1
            assert h.n <= 9
            assert validate_halin_substrate(h.tree) == []
        assert families["wheel"] == 6
        assert families["random"] == 50
        assert families["caterpillar"] >= 10

    def test_byte_identical_for_identical_spec(self):
        spec = GenSpec("random", (("n", 7),), seed=42)
        assert serialize_instance(generate(spec)) == serialize_instance(generate(spec))


class TestSizeCeiling:
    # (largest spec under a ceiling of 100, smallest above it); kary(3,2,5)
    # has n = 94 and kary(3,2,6) n = 190; random n = 98 may reach n = 100
    BOUNDARY = [
        (GenSpec("wheel", (("spokes", 99),)), GenSpec("wheel", (("spokes", 100),))),
        (GenSpec("kary", (("k", 3), ("c", 2), ("h", 5))),
         GenSpec("kary", (("k", 3), ("c", 2), ("h", 6)))),
        (caterpillar_spec(2, [2, 96]), caterpillar_spec(2, [2, 97])),
        (GenSpec("random", (("n", 98),)), GenSpec("random", (("n", 99),))),
    ]

    @pytest.mark.parametrize("fits,too_big", BOUNDARY,
                             ids=[fits.family for fits, _ in BOUNDARY])
    def test_ceiling_boundary(self, fits, too_big, monkeypatch):
        monkeypatch.setattr(generators, "MAX_GEN_N", 100, raising=False)
        assert generate(fits).n <= 100
        with pytest.raises(TooLarge, match="ceiling of 100 vertices"):
            generate(too_big)

    @pytest.mark.parametrize("spec", [
        GenSpec("wheel", (("spokes", 10**12),)),
        GenSpec("kary", (("k", 3), ("c", 2), ("h", 10**12))),
        GenSpec("kary", (("k", 10**12), ("c", 10**12), ("h", 1))),
        caterpillar_spec(2, [2, 10**12]),
        GenSpec("random", (("n", 10**12),)),
    ], ids=["wheel", "kary-deep", "kary-wide", "caterpillar", "random"])
    def test_huge_spec_raises_before_allocating(self, spec):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_invalid_params_stay_bad_param(self):
        with pytest.raises(BadParam):
            generate(GenSpec("kary", (("k", 3), ("c", 1), ("h", 10**12))))
