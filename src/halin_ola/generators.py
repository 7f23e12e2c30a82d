"""Seeded, deterministic instance factories for Halin graph families.

Each of the four ``gen_*`` factories raises BadParam for a size parameter,
or the random family's seed, that is not an ``int`` or is a bool.
"""

from __future__ import annotations

import random
from itertools import product
from typing import List, Sequence, Tuple

from ._record import record
from .errors import BadParam, TooLarge, _check_ints
from .graph_core import EmbeddedTree, HalinGraph, halin_from_tree


# The most vertices a generator builds: about 21 times the largest benchmark
# instance.  Each generator checks its n (random: the most it can reach) after
# validating its parameters and before it allocates anything.
MAX_GEN_N = 1 << 20


def _check_size(family: str, n: int) -> None:
    if n > MAX_GEN_N:
        raise TooLarge(f"{family} instance would exceed the generator ceiling "
                       f"of {MAX_GEN_N} vertices")


@record(frozen=True)
class GenSpec:
    """Reproducible description of a generated instance."""

    family: str                      # wheel | kary | caterpillar | random
    params: Tuple[Tuple[str, int], ...] = ()
    seed: int = 0

    def to_jsonable(self) -> dict:
        return {"family": self.family, "params": dict(self.params), "seed": self.seed}


def gen_wheel(spokes: int) -> HalinGraph:
    """Wheel: a star hub plus the cycle through its ``spokes`` leaves."""
    _check_ints(spokes=spokes)
    if spokes < 3:
        raise BadParam(f"wheel needs >= 3 spokes, got {spokes}")
    _check_size("wheel", spokes + 1)
    return halin_from_tree(EmbeddedTree(0, (tuple(range(1, spokes + 1)),) + ((),) * spokes))


def gen_kary_rbt_halin(k: int, c: int, height: int) -> HalinGraph:
    """Recursively balanced substrate: root degree k, inner degree c.

    ``height`` counts levels below the root; height 1 is the star K_{1,k}.
    n = 1 + k(1 + c + ... + c^(height-1)).
    """
    _check_ints(k=k, c=c, height=height)
    if k < 3:
        raise BadParam(f"root degree must be >= 3, got {k}")
    if c < 2:
        raise BadParam(f"inner degree must be >= 2, got {c}")
    if height < 1:
        raise BadParam(f"height must be >= 1, got {height}")
    n, level = 1, k
    for _ in range(height):  # c >= 2: past the ceiling within 20 levels
        n += level
        if n > MAX_GEN_N:
            break
        level *= c
    _check_size("kary", n)
    # internal vertices take their children's ids in preorder; depths[i] is
    # the level of stack[i], the root's being 1
    children: List[Tuple[int, ...]] = [()] * n
    next_id = 1
    stack, depths = [0], [1]
    while stack:
        v = stack.pop()
        depth = depths.pop() + 1  # the level of v's children
        deg = k if v == 0 else c
        kids = tuple(range(next_id, next_id + deg))
        next_id += deg
        children[v] = kids
        if depth <= height:
            stack += kids[::-1]
            depths += [depth] * deg
    return halin_from_tree(EmbeddedTree(0, tuple(children)))


def gen_caterpillar_halin(spine_len: int, leaves_per_spine: Sequence[int]) -> HalinGraph:
    """Halin graph over a caterpillar: a spine path with pendant leaves.

    The spine is rooted at its first vertex.  Degree constraints: with
    spine_len == 1 the single vertex needs >= 3 leaves; otherwise the two
    spine endpoints need >= 2 pendant leaves and interior spine vertices
    need >= 1 (so every internal vertex keeps degree >= 3 in the Halin
    graph).
    """
    _check_ints(spine_len=spine_len)
    if spine_len < 1:
        raise BadParam(f"spine length must be >= 1, got {spine_len}")
    leaves = list(leaves_per_spine)
    _check_ints(**{f"leaves_per_spine[{i}]": cnt for i, cnt in enumerate(leaves)})
    if len(leaves) != spine_len:
        raise BadParam(
            f"need one leaf count per spine vertex: {spine_len} != {len(leaves)}"
        )
    if spine_len == 1:
        if leaves[0] < 3:
            raise BadParam("single spine vertex needs >= 3 leaves")
    else:
        for i, cnt in enumerate(leaves):
            endpoint = i in (0, spine_len - 1)
            need = 2 if endpoint else 1
            if cnt < need:
                raise BadParam(
                    f"spine vertex {i} needs >= {need} leaves, got {cnt}"
                )
    n = spine_len + sum(leaves)
    _check_size("caterpillar", n)

    children: List[Tuple[int, ...]] = [()] * n
    next_id = spine_len
    for i in range(spine_len):
        # embedding: leaves first, then the next spine vertex, except the
        # root which splits its leaves around the spine to keep the
        # leaf cycle planar.
        pendant = tuple(range(next_id, next_id + leaves[i]))
        next_id += leaves[i]
        if i == 0 and spine_len > 1:
            children[i] = pendant[:1] + (i + 1,) + pendant[1:]
        elif i < spine_len - 1:
            children[i] = pendant + (i + 1,)
        else:
            children[i] = pendant
    return halin_from_tree(EmbeddedTree(0, tuple(children)))


def gen_random_halin(n_target: int, seed: int) -> HalinGraph:
    """Seeded random Halin graph with at least ``n_target`` vertices.

    Grows from K_{1,3} by repeatedly giving a random current leaf two or
    three children; stops once n_target is reached (the last step may
    overshoot by up to 2).  Identical (n_target, seed) pairs produce
    identical instances, so the seed must be an ``int`` too: a float or
    bool seed, or ``None`` (a seed from the operating system), raises
    BadParam.
    """
    _check_ints(n_target=n_target, seed=seed)
    if n_target < 4:
        raise BadParam(f"n_target must be >= 4, got {n_target}")
    _check_size("random", n_target + 2)  # the last step may overshoot by 2
    rng = random.Random(seed)
    children: List[Tuple[int, ...]] = [(1, 2, 3), (), (), ()]
    leaves = [1, 2, 3]
    n = 4
    while n < n_target:
        idx = rng.randrange(len(leaves))
        v = leaves.pop(idx)
        deg = rng.choice([2, 3])
        kids = tuple(range(n, n + deg))
        children[v] = kids
        children += [()] * deg
        leaves.extend(kids)
        n += deg
    return halin_from_tree(EmbeddedTree(0, tuple(children)))


def generate(spec: GenSpec) -> HalinGraph:
    """Build the instance a GenSpec describes: the one family dispatcher.

    A caterpillar spec lists its leaf counts as ``l0, l1, ...`` after
    ``spine``.  Raises BadParam for an unknown family, a missing parameter,
    or parameters the family generator rejects, and TooLarge for an
    instance above ``MAX_GEN_N`` vertices.
    """
    params = dict(spec.params)

    def param(name: str) -> int:
        if name not in params:
            raise BadParam(f"{spec.family} spec lacks parameter {name!r}")
        return params[name]

    if spec.family == "wheel":
        return gen_wheel(param("spokes"))
    if spec.family == "kary":
        return gen_kary_rbt_halin(param("k"), param("c"), param("h"))
    if spec.family == "caterpillar":
        leaves = [param(f"l{i}") for i in range(len(params) - 1)]
        return gen_caterpillar_halin(param("spine"), leaves)
    if spec.family == "random":
        return gen_random_halin(param("n"), spec.seed)
    raise BadParam(f"unknown family {spec.family!r}")


def caterpillar_spec(spine: int, counts: Sequence[int]) -> GenSpec:
    params = [("spine", spine)] + [(f"l{i}", c) for i, c in enumerate(counts)]
    return GenSpec("caterpillar", tuple(params))


def all_caterpillar_halins_up_to(n_max: int) -> List[Tuple[GenSpec, HalinGraph]]:
    """Every caterpillar Halin instance with at most ``n_max`` vertices.

    By spine length, then leaf counts in lexicographic order.
    """
    out = []
    for spine in range(1, n_max):
        mins = [3] if spine == 1 else [2] + [1] * (spine - 2) + [2]
        slack = n_max - spine - sum(mins)  # leaves to spread beyond the minimum
        for counts in product(*(range(m, m + slack + 1) for m in mins)):
            if sum(counts) - sum(mins) <= slack:
                spec = caterpillar_spec(spine, counts)
                out.append((spec, generate(spec)))
    return out


# random instances in the standard corpus
_CORPUS_RANDOMS = 50


def standard_corpus() -> List[Tuple[GenSpec, HalinGraph]]:
    """The evaluation corpus: wheels 3-8, all caterpillars n<=9, random n<=9.

    The ``_CORPUS_RANDOMS`` random instances have target size 7 and seeds
    1000 on.
    """
    wheels = [GenSpec("wheel", (("spokes", s),)) for s in range(3, 9)]
    randoms = [GenSpec("random", (("n", 7),), seed=1000 + i) for i in range(_CORPUS_RANDOMS)]
    return ([(spec, generate(spec)) for spec in wheels]
            + all_caterpillar_halins_up_to(9)
            + [(spec, generate(spec)) for spec in randoms])
