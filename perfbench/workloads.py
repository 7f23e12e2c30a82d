"""The three benchmark workloads: their inputs, sessions and output checks.

A workload builds its inputs in ``setup`` from the workload seed and returns
the fixed session of CLI commands that one iteration replays.  Every command
carries a check of its output; a check returns ``None`` or a failure message.

- ``rbt-deep``: kary(3,2,14), n = 49,150.  Parse, tree build, balance
  certificate, ``rbt_ola``, both constructions, cost and serialization do
  nearly all of the work; the oracle does none.
- ``oracle-small``: ``proptest`` over wheel(8) and two n = 9 random
  instances, then ``verify --oracle`` on an optimal wheel(8) layout.  The
  oracle and the property suite do nearly all of the work.
- ``random-eval``: a random, non-balanced Halin graph with n ~ 49,150 whose
  tree is about twice as deep.  It only generates, reads and evaluates, so
  it shares parse, build and cost with ``rbt-deep`` but never reaches the
  balance certificate or a construction.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

REFERENCE = Path(__file__).with_name("reference.json")

SIZES = {
    "full": {"kary": (3, 2, 14), "random_n": 49150, "wheel": 8, "oracle_random_n": 9},
    "toy": {"kary": (3, 2, 4), "random_n": 40, "wheel": 5, "oracle_random_n": 7},
}
POOL = 32          # seeds per frozen pool of random instances
ORACLE_RANDOMS = 2  # random instances in the oracle-small corpus


@dataclass
class Op:
    """One CLI command of a session and the check of its output."""

    label: str
    argv: List[str]
    check: Callable[[str], Optional[str]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def derive(workload: str, seed: int) -> random.Random:
    """The source of every random input of one workload at one seed."""
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------------------
# Independent cost routine and DOT rendering (no halin_ola code involved)
# ---------------------------------------------------------------------------

class Structure:
    """Parent array and leaf cycle of an instance file."""

    def __init__(self, instance: Path):
        tree = json.loads(instance.read_bytes())["tree"]
        self.children = {int(k): v for k, v in tree["children"].items()}
        self.n = 1 + sum(len(v) for v in self.children.values())
        self.parent = [-1] * self.n
        for v, kids in self.children.items():
            for c in kids:
                self.parent[c] = v
        self.leaves = []
        stack = [tree["root"]]
        while stack:
            v = stack.pop()
            kids = self.children.get(v)
            if kids:
                stack.extend(reversed(kids))
            else:
                self.leaves.append(v)

    def positions(self, layout: Path) -> List[int]:
        pos = [0] * self.n
        for i, v in enumerate(json.loads(layout.read_bytes())["vertexAt"]):
            pos[v] = i + 1
        return pos

    def cost_line(self, layout: Path) -> str:
        """``cost`` output computed from the parent array and leaf cycle."""
        pos = self.positions(layout)
        tree = sum(abs(pos[v] - pos[p]) for v, p in enumerate(self.parent) if p >= 0)
        ring = self.leaves[1:] + self.leaves[:1]
        cycle = sum(abs(pos[a] - pos[b]) for a, b in zip(self.leaves, ring))
        return f"total={tree + cycle} tree={tree} cycle={cycle}"

    def dot(self, layout: Path) -> bytes:
        """The DOT file ``export-dot`` must write for this layout."""
        pos = self.positions(layout)
        lines = ["graph halin {"]
        lines += [f'  {v} [label="{v}:{pos[v]}"];' for v in range(self.n)]
        for v in range(self.n):
            for c in self.children.get(v, ()):
                lines.append(f"  {min(v, c)} -- {max(v, c)} [style=dashed];")
        ring = self.leaves[1:] + self.leaves[:1]
        for a, b in zip(self.leaves, ring):
            lines.append(f"  {min(a, b)} -- {max(a, b)} [style=bold];")
        return ("\n".join(lines) + "\n}\n").encode()


def write_layout(path: Path, vertex_at: List[int]):
    doc = {"schemaVersion": 1, "vertexAt": vertex_at}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _expect(got: str, want: str, what: str) -> Optional[str]:
    return None if got == want else f"{what}: expected {want!r}, got {got[:200]!r}"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, size: str, ref: Optional[dict] = None):
        self.p = SIZES[size]
        self.ref = ref if ref is not None else json.loads(REFERENCE.read_text())[size][self.name]
        self._cache: Dict[str, str] = {}

    def setup(self, seed: int, inputs: Path) -> dict:
        raise NotImplementedError

    def session(self, inputs: dict, out: Path) -> List[Op]:
        raise NotImplementedError

    def _once(self, key: str, compute: Callable[[], str]) -> str:
        """Expected outputs are computed once per distinct input file."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


class RbtDeep(Workload):
    name = "rbt-deep"

    def setup(self, seed, inputs):
        from halin_ola import (gen_kary_rbt_halin, rbt_ola, scramble_tree_ola,
                               serialize_layout)

        h = gen_kary_rbt_halin(*self.p["kary"])
        scramble_seed = derive(self.name, seed).randrange(2**31)
        layout = scramble_tree_ola(h.tree, rbt_ola(h.tree), scramble_seed)
        path = inputs / "scrambled.layout.json"
        path.write_bytes(serialize_layout(layout))
        return {"scrambled": path}

    def session(self, inputs, out):
        ref = self.ref
        k, c, hh = self.p["kary"]
        inst, direct = out / "kary.json", out / "direct.layout.json"
        rearranged, dot = out / "rearranged.layout.json", out / "kary.dot"
        bound_line = f"total={ref['lower_bound']}"

        def cost_of(path: Path) -> str:
            return self._once(sha256(path), lambda: Structure(inst).cost_line(path))

        def check_gen(stdout):
            return (_expect(stdout, f"wrote {inst}: n={ref['n']}, m={ref['m']}\n", "gen")
                    or _expect(sha256(inst), ref["instance_sha256"], "instance digest"))

        def check_direct(stdout):
            line = cost_of(direct)
            return (_expect(sha256(direct), ref["direct_sha256"], "direct layout digest")
                    or _expect(stdout, line + "\n", "solve direct")
                    or _expect(line.split()[0], bound_line, "direct cost vs bound"))

        def check_rearrange(stdout):
            if sha256(rearranged) not in ref["rearranged_sha256"]:
                return "rearranged layout digest not among the frozen ones"
            lines = stdout.splitlines()
            if len(lines) != 2 or not lines[0].startswith("rearranged in "):
                return f"solve rearrange: unexpected output {stdout[:200]!r}"
            line = cost_of(rearranged)
            return (_expect(lines[1], line, "solve rearrange cost")
                    or _expect(line.split()[0], bound_line, "rearranged cost vs bound"))

        def check_cost(stdout):
            return _expect(stdout, cost_of(rearranged) + "\n", "cost")

        def check_verify(stdout):
            doc = json.loads(stdout)
            want = {"layoutCost": ref["lower_bound"], "lowerBound": ref["lower_bound"],
                    "cycleCost": 2 * (ref["n"] - 1), "optimal": True}
            got = {key: doc.get(key) for key in want}
            return _expect(repr(got), repr(want), "verify")

        def check_dot(stdout):
            return (_expect(stdout, f"wrote {dot}\n", "export-dot")
                    or _expect(sha256(dot), ref["dot_sha256"], "DOT digest"))

        return [
            Op("gen", ["gen", "--family", "kary", "--k", str(k), "--c", str(c),
                       "--h", str(hh), "-o", str(inst)], check_gen),
            Op("solve-direct", ["solve", "--method", "direct", "-i", str(inst),
                                "-o", str(direct)], check_direct),
            Op("solve-rearrange", ["solve", "--method", "rearrange", "-i", str(inst),
                                   "-t", str(inputs["scrambled"]),
                                   "-o", str(rearranged)], check_rearrange),
            Op("cost", ["cost", "-i", str(inst), "-l", str(rearranged)], check_cost),
            Op("verify", ["verify", "-i", str(inst), "-l", str(rearranged)], check_verify),
            Op("export-dot", ["export-dot", "-i", str(inst), "-l", str(direct),
                              "-o", str(dot)], check_dot),
        ]


class OracleSmall(Workload):
    name = "oracle-small"

    def setup(self, seed, inputs):
        from halin_ola import brute_force_ola, gen_wheel

        rng = derive(self.name, seed)
        randoms = rng.sample(self.ref["random_pool"], ORACLE_RANDOMS)
        corpus = f"wheel={self.p['wheel']}"
        corpus += "".join(f";random={self.p['oracle_random_n']},1,{s}" for s in randoms)
        # One of the oracle's optimal wheel layouts.  Sorting makes the choice
        # independent of the order in which the oracle enumerates its optima.
        s = self.p["wheel"]
        optima = sorted(lay.vertex_at for lay in brute_force_ola(gen_wheel(s)).optimal_layouts)
        order = list(optima[rng.randrange(len(optima))])
        wheel = inputs / "wheel.json"
        doc = {"schemaVersion": 1, "tree": {"root": 0, "children": {"0": list(range(1, s + 1))}}}
        wheel.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        layout = inputs / "wheel.layout.json"
        write_layout(layout, order)
        return {"corpus": corpus, "randoms": randoms, "wheel": wheel, "layout": layout}

    def session(self, inputs, out):
        ref = self.ref
        names = [f"wheel(spokes={self.p['wheel']})"]
        names += [f"random(n={self.p['oracle_random_n']})#seed={s}" for s in inputs["randoms"]]
        table = "\n".join(ref["table_head"] + [ref["rows"][n] for n in names]
                          + ["overall: PASS"]) + "\n"
        return [
            Op("proptest", ["proptest", "--corpus", inputs["corpus"]],
               lambda stdout: _expect(stdout, table, "proptest table")),
            Op("verify-oracle", ["verify", "--oracle", "-i", str(inputs["wheel"]),
                                 "-l", str(inputs["layout"])],
               lambda stdout: _expect(stdout, ref["verify_stdout"], "verify --oracle")),
        ]


class RandomEval(Workload):
    name = "random-eval"

    def setup(self, seed, inputs):
        rng = derive(self.name, seed)
        instance_seed = rng.randrange(POOL)
        vertex_at = list(range(self.ref["pool"][instance_seed]["n"]))
        rng.shuffle(vertex_at)
        layout = inputs / "shuffled.layout.json"
        write_layout(layout, vertex_at)
        return {"instance_seed": instance_seed, "layout": layout}

    def session(self, inputs, out):
        frozen = self.ref["pool"][inputs["instance_seed"]]
        inst, dot, layout = out / "random.json", out / "random.dot", inputs["layout"]

        def check_gen(stdout):
            return (_expect(stdout, f"wrote {inst}: n={frozen['n']}, m={frozen['m']}\n", "gen")
                    or _expect(sha256(inst), frozen["sha256"], "instance digest"))

        def check_cost(stdout):
            want = self._once(frozen["sha256"], lambda: Structure(inst).cost_line(layout))
            return _expect(stdout, want + "\n", "cost")

        def check_dot(stdout):
            want = self._once("dot", lambda: hashlib.sha256(Structure(inst).dot(layout)).hexdigest())
            return (_expect(stdout, f"wrote {dot}\n", "export-dot")
                    or _expect(sha256(dot), want, "DOT digest"))

        return [
            Op("gen", ["gen", "--family", "random", "--n", str(self.p["random_n"]),
                       "--seed", str(inputs["instance_seed"]), "-o", str(inst)], check_gen),
            Op("cost", ["cost", "-i", str(inst), "-l", str(layout)], check_cost),
            Op("export-dot", ["export-dot", "-i", str(inst), "-l", str(layout),
                              "-o", str(dot)], check_dot),
        ]


WORKLOADS = {w.name: w for w in (RbtDeep, OracleSmall, RandomEval)}
COMMANDS = ("gen", "solve-direct", "solve-rearrange", "cost", "verify",
            "export-dot", "proptest", "verify-oracle")
