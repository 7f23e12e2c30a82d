"""Freeze the reference outputs that the benchmark checks against.

Runs the CLI on every fixed input of both sizes and writes
perfbench/reference.json: output digests (layouts must stay byte-identical),
the Halin lower bound, the property-suite table rows and the
``verify --oracle`` report.  Run it from the repository root, only on a
commit whose outputs are known to be right:

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import Cli
from workloads import POOL, REFERENCE, SIZES, OracleSmall, RbtDeep, sha256

POOL_SCAN = 400  # generator seeds scanned for the oracle-small pool


def cli_ok(cli: Cli, argv) -> str:
    code, stdout, *_ = cli.run(argv)
    if code != 0:
        sys.exit(f"freeze: {' '.join(argv)} failed with {code}: {stdout}")
    return stdout


def freeze_rbt_deep(cli: Cli, size: str, tmp: Path) -> dict:
    k, c, hh = SIZES[size]["kary"]
    inst, direct, dot = tmp / "kary.json", tmp / "direct.json", tmp / "kary.dot"
    gen = cli_ok(cli, ["gen", "--family", "kary", "--k", str(k), "--c", str(c),
                       "--h", str(hh), "-o", str(inst)])
    n, m = (int(tok.split("=")[1].rstrip(",\n")) for tok in gen.split()[2:4])
    cli_ok(cli, ["solve", "--method", "direct", "-i", str(inst), "-o", str(direct)])
    report = json.loads(cli_ok(cli, ["verify", "-i", str(inst), "-l", str(direct)]))
    assert report["optimal"], report
    cli_ok(cli, ["export-dot", "-i", str(inst), "-l", str(direct), "-o", str(dot)])
    rearranged = set()
    workload = RbtDeep(size, ref={})
    for seed in range(40):
        scrambled = workload.setup(seed, tmp)["scrambled"]
        out = tmp / "rearranged.json"
        cli_ok(cli, ["solve", "--method", "rearrange", "-i", str(inst),
                     "-t", str(scrambled), "-o", str(out)])
        check = json.loads(cli_ok(cli, ["verify", "-i", str(inst), "-l", str(out)]))
        assert check["optimal"], check
        rearranged.add(sha256(out))
        if len(rearranged) == k:  # one outcome per root block the rotation can anchor on
            break
    return {"n": n, "m": m, "lower_bound": report["lowerBound"],
            "instance_sha256": sha256(inst), "direct_sha256": sha256(direct),
            "dot_sha256": sha256(dot), "rearranged_sha256": sorted(rearranged)}


def freeze_random_eval(cli: Cli, size: str, tmp: Path) -> dict:
    pool = []
    for seed in range(POOL):
        inst = tmp / "random.json"
        gen = cli_ok(cli, ["gen", "--family", "random", "--n", str(SIZES[size]["random_n"]),
                           "--seed", str(seed), "-o", str(inst)])
        n, m = (int(tok.split("=")[1].rstrip(",\n")) for tok in gen.split()[2:4])
        pool.append({"n": n, "m": m, "sha256": sha256(inst)})
    return {"pool": pool}


def equal_work_pool(n: int) -> list:
    """Generator seeds whose random instances cost the oracle the same work.

    Among the seeds below ``POOL_SCAN`` whose draw has exactly ``n`` vertices,
    keeps the largest group with the same states explored and optima found
    (ties go to the group with the smallest seed), at most ``POOL`` of them.
    Which instances a workload seed picks then leaves the work of a session
    unchanged.
    """
    from halin_ola import brute_force_ola, gen_random_halin

    groups = {}
    for seed in range(POOL_SCAN):
        g = gen_random_halin(n, seed)
        if g.n == n:
            r = brute_force_ola(g)
            groups.setdefault((r.states_explored, r.optimal_count), []).append(seed)
    return max(groups.values(), key=lambda seeds: (len(seeds), -seeds[0]))[:POOL]


def freeze_oracle_small(cli: Cli, size: str, tmp: Path) -> dict:
    p = SIZES[size]
    n = p["oracle_random_n"]
    seeds = equal_work_pool(n)
    corpus = f"wheel={p['wheel']}"
    corpus += "".join(f";random={n},1,{s}" for s in seeds)
    lines = cli_ok(cli, ["proptest", "--corpus", corpus]).splitlines()
    assert lines[-1] == "overall: PASS", lines[-1]
    rows = {line.split()[0]: line for line in lines[2:-1]}
    ref = {"random_pool": seeds, "table_head": lines[:2], "rows": rows}
    inputs = OracleSmall(size, ref=ref).setup(0, tmp)
    verify = cli_ok(cli, ["verify", "--oracle", "-i", str(inputs["wheel"]),
                          "-l", str(inputs["layout"])])
    assert json.loads(verify)["verdict"] == "optimal", verify
    ref["verify_stdout"] = verify
    return ref


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-freeze-", dir=root))
    try:
        cli = Cli(root, tmp)
        reference = {
            size: {
                "rbt-deep": freeze_rbt_deep(cli, size, tmp),
                "oracle-small": freeze_oracle_small(cli, size, tmp),
                "random-eval": freeze_random_eval(cli, size, tmp),
            }
            for size in SIZES
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
