"""Smoke test of the benchmark: every workload at toy size, both modes.

Runs ``run.py --size toy`` (kary(3,2,4), a random n = 40 instance, and an
n = 4-7 oracle corpus) for one second per workload, with tracing off and on,
and checks that every run is correct and emits exactly the metrics that
BENCHMARK.json declares, each with its declared unit.  Run it from the
repository root; it exits non-zero on the first problem:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace),
                    "--size", "toy"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed ops\n{proc.stdout}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                units = sorted(n for n in got if n in declared[trace]
                               and got[n] != declared[trace][n])
                problems.append(f"{where}: missing {missing}, extra {extra}, "
                                f"wrong units {units}")
            for name in declared[trace]:
                if name in got and not isinstance(result["metrics"][name]["value"], (int, float)):
                    problems.append(f"{where}: {name} is not a number")
            print(f"ok  {where}: {len(got)} metrics, {result['attempted']} ops")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
