"""Layered benchmark of the halin-ola CLI.

Run from the repository root:

    python3 perfbench/run.py --workload rbt-deep --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it replays the workload's session of real CLI commands
(``python -m halin_ola.cli`` with ``PYTHONPATH=src``, one child at a time, a
closed loop with one client) for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it also replays the session in-process through
``halin_ola.cli.main`` with every layer call wrapped in a span, and reports
the per-layer metrics.  Every command's output is checked.  The last line of
standard output is one JSON object; the lines before it print every metric
by name with its unit and sample count.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import LAYERS, Tracer, session_breakdown, untimed_counts
from workloads import COMMANDS, WORKLOADS

STARTUP_PROBES = 5   # `--help` runs per traced run; cli.startup_s is their median
OP_TIMEOUT = 120.0   # seconds before a command is killed and counted as failed


class Ledger:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, label: str, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{label}: {problem}")


class Cli:
    """Runs CLI commands as child processes and reads their own rusage."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, argv):
        """Returns (exit code, stdout, wall s, cpu s, max RSS MiB).

        A command still running after ``OP_TIMEOUT`` is killed, so its exit
        code is negative.
        """
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "halin_ola.cli", *argv],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err)
            timer = threading.Timer(OP_TIMEOUT, child.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        code = child.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        stdout = out_path.read_text(errors="replace")
        if code != 0:
            stdout += err_path.read_text(errors="replace")
        return code, stdout, wall, cpu, usage.ru_maxrss / 1024


def check_op(op, code, stdout):
    if code < 0:
        return f"killed by signal {-code} (commands time out after {OP_TIMEOUT:.0f} s)"
    if code != 0:
        return f"exit code {code}: {stdout[-300:]!r}"
    try:
        return op.check(stdout)
    except (OSError, ValueError, KeyError) as exc:
        return f"output check raised {exc!r}"


def cli_session(cli: Cli, ops, ledger: Ledger) -> dict:
    """One untraced session; per-command wall/cpu/rss and session totals."""
    cmds = {}
    for op in ops:
        code, stdout, wall, cpu, rss = cli.run(op.argv)
        ledger.record(op.label, check_op(op, code, stdout))
        cmds[op.label] = {"wall": wall, "cpu": cpu, "rss": rss}
    return {
        "cmds": cmds,
        "session_s": sum(c["wall"] for c in cmds.values()),
        "session_cpu_s": sum(c["cpu"] for c in cmds.values()),
        "peak_rss_mb": max(c["rss"] for c in cmds.values()),
    }


def inproc_session(ops, ledger: Ledger, tracer=None) -> float:
    """One session through ``halin_ola.cli.main`` in this process."""
    from halin_ola import cli

    # Keep the benchmark's own objects (spans, references) out of the
    # collector's way, as they would be in a fresh CLI process.
    gc.collect()
    gc.freeze()
    total = 0.0
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            if tracer is None:
                code = cli.main(op.argv)
            else:
                code = tracer.call(f"cli.{op.label}", cli.main, op.argv)
            total += time.perf_counter() - start
        ledger.record(op.label, check_op(op, code, out.getvalue()))
    return total


def closed_loop(seconds: float, step):
    """Repeat ``step`` while the next one is expected to end within ``seconds``."""
    start = time.perf_counter()
    count, longest = 0, 0.0
    while count == 0 or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - t0)
        count += 1


def median(values):
    return statistics.median(values) if values else 0.0


def environment(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = root / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": commit,
    }


def end_to_end(sessions, setup_times) -> dict:
    metrics = {
        "session_s": ("s", [s["session_s"] for s in sessions]),
        "session_cpu_s": ("s", [s["session_cpu_s"] for s in sessions]),
        "peak_rss_mb": ("MiB", [s["peak_rss_mb"] for s in sessions]),
        "setup_s": ("s", setup_times),
    }
    return {name: (median(vals), unit, len(vals)) for name, (unit, vals) in metrics.items()}


def walls(sessions, label):
    return [s["cmds"][label]["wall"] for s in sessions if label in s["cmds"]]


def command_diagnostics(sessions) -> dict:
    """Per-command wall median and max; diagnostics, not gated metrics."""
    return {f"cmd.{label}_s": (median(w), max(w), len(w))
            for label in COMMANDS if (w := walls(sessions, label))}


def command_accounting(cli_sessions, traced, startup) -> dict:
    """Per command: untraced CLI wall time against startup plus layer self times.

    ``lib_s`` is the in-process time spent inside library calls; the gap is
    what the in-process command time (all layer self times, ``cli`` included)
    and ``startup_s`` leave unexplained.
    """
    out = {}
    for label in COMMANDS:
        runs = [b["commands"][label] for b in traced if label in b["commands"]]
        if not runs:
            continue
        wall = median(walls(cli_sessions, label))
        out[label] = {
            "wall_s": wall, "startup_s": startup,
            "lib_s": median([r["lib"] for r in runs]),
            "layer_self_s": {layer: median([r["self"][layer] for r in runs])
                             for layer in LAYERS},
            "gap_s": wall - startup - median([r["inproc"] for r in runs]),
        }
    return out


def per_layer(accounting, traced, plain, startup, counts) -> dict:
    """Per-layer metrics: medians over traced sessions of span-derived figures."""

    def med(fn):
        return median([fn(b) for b in traced])

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}

    def put(name, unit, value):
        m[name] = (value, unit, len(traced))

    put("cli.startup_s", "s", startup)
    for label in COMMANDS:
        row = accounting.get(label)
        put(f"cli.overhead.{label}_s", "s", row["wall_s"] - row["lib_s"] if row else 0.0)
        put(f"cli.gap.{label}_s", "s", row["gap_s"] if row else 0.0)
    for layer in LAYERS:
        put(f"{layer}.self_s", "s", med(lambda b: b["layer_self"][layer]))

    def incl(name, **kw):
        return med(lambda b: b["incl"](name, **kw))

    def total(name, key):
        return med(lambda b: sum(b["notes"](name, key)))

    parse_s = incl("io_formats.parse_instance")
    parsed_mib = total("io_formats.parse_instance", "bytes") / 2**20
    put("io_formats.parse_instance_s", "s", parse_s)
    put("io_formats.parse_layout_s", "s", incl("io_formats.parse_layout"))
    put("io_formats.serialize_instance_s", "s", incl("io_formats.serialize_instance"))
    put("io_formats.serialize_layout_s", "s", incl("io_formats.serialize_layout"))
    put("io_formats.export_dot_s", "s", incl("io_formats.export_dot"))
    put("io_formats.instance_bytes", "bytes",
        med(lambda b: max(b["notes"]("io_formats.parse_instance", "bytes"), default=0)))
    put("io_formats.parse_instance_mb_per_s", "MiB/s", rate(parsed_mib, parse_s))
    put("io_formats.parse_instance_peak_mb", "MiB", counts["parse_peak_mib"])

    put("graph_core.build_embedded_tree_s", "s", incl("graph_core.build_embedded_tree"))
    put("graph_core.halin_from_tree_s", "s", incl("graph_core.halin_from_tree"))
    put("graph_core.edges_s", "s", incl("graph_core.edges", top_only=True))
    put("graph_core.edges_peak_mb", "MiB", counts["edges_peak_mib"])

    put("generators.gen_s", "s", sum(incl(f"generators.{g}") for g in
                                     ("gen_wheel", "gen_kary_rbt_halin", "gen_random_halin")))

    rbt_n = total("tree_ola.rbt_ola", "n")
    oracle_s = incl("tree_ola.brute_force_ola")
    states = total("tree_ola.brute_force_ola", "states")
    optima = total("tree_ola.brute_force_ola", "optima")
    put("tree_ola.is_recursively_balanced_s", "s", incl("tree_ola.is_recursively_balanced"))
    put("tree_ola.rbt_ola_s", "s", incl("tree_ola.rbt_ola"))
    put("tree_ola.rbt_ola_touches", "count", counts["touches"])
    put("tree_ola.touches_per_vertex", "ratio", rate(counts["touches"], rbt_n))
    put("tree_ola.oracle_s", "s", oracle_s)
    put("tree_ola.oracle_states", "count", states)
    put("tree_ola.oracle_states_per_s", "1/s", rate(states, oracle_s))
    put("tree_ola.oracle_optima", "count", optima)
    put("tree_ola.oracle_optima_per_state", "ratio", rate(optima, states))

    swaps = total("halin_arrange.rearrange_to_halin_ola", "swaps")
    moved = total("halin_arrange.rearrange_to_halin_ola", "moved")
    n = total("halin_arrange.rearrange_to_halin_ola", "n")
    put("halin_arrange.direct_s", "s", incl("halin_arrange.direct_rbt_halin_ola"))
    put("halin_arrange.rearrange_s", "s", incl("halin_arrange.rearrange_to_halin_ola"))
    put("halin_arrange.swaps", "count", swaps)
    put("halin_arrange.moved_vertices", "count", moved)
    put("halin_arrange.moved_per_n_log_n", "ratio",
        rate(moved, n * math.log2(n)) if n > 1 else 0.0)
    put("halin_arrange.certify_s", "s", incl("halin_arrange.certify"))

    put("layout_ops.la_cost_s", "s", incl("layout_ops.la_cost"))
    put("layout_ops.la_total_s", "s", incl("layout_ops.la_total"))
    put("layout_ops.la_cost_peak_mb", "MiB", counts["la_cost_peak_mib"])

    suite_s = incl("property_suite.run_suite")
    checks_s = med(lambda b: b["incl"]("property_suite.run_suite")
                   - b["under"]("property_suite.run_suite", "tree_ola.brute_force_ola"))
    checked = total("property_suite.run_suite", "optima_checked")
    put("property_suite.run_suite_s", "s", suite_s)
    put("property_suite.checks_s", "s", checks_s)
    put("property_suite.optima_checked", "count", checked)
    put("property_suite.checks_per_s", "1/s", rate(checked, checks_s))

    put("trace.overhead_ratio", "ratio",
        rate(med(lambda b: b["session_s"]), median(plain)))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs tiny instances, for the smoke test")
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception: the running child is killed and
    # waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "halin_ola" / "cli.py").is_file():
        print("perfbench: src/halin_ola not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workload = WORKLOADS[args.workload](args.size)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    results = root / ".perfbench" / "results"
    work = root / ".perfbench" / f"work-{tag}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    for sub in ("in", "cli", "inproc"):
        (work / sub).mkdir(parents=True)
    try:
        import halin_ola  # noqa: F401  (import once, outside the set-up timing)

        setup_times = []

        def set_up():
            t0 = time.perf_counter()
            built = workload.setup(args.seed, work / "in")
            setup_times.append(time.perf_counter() - t0)
            return built

        inputs = set_up()

        cli = Cli(root, work)
        ledger = Ledger()
        cli_ops = workload.session(inputs, work / "cli")
        inproc_ops = workload.session(inputs, work / "inproc")
        cli_session(cli, cli_ops, ledger)  # warm-up, discarded
        sessions = []
        accounting = {}

        if not args.trace:
            def step():
                # Inputs are rebuilt (identically) before every session, so the
                # set-up samples are spread over the run like the sessions.
                set_up()
                sessions.append(cli_session(cli, cli_ops, ledger))

            closed_loop(args.seconds, step)
            metrics = end_to_end(sessions, setup_times)
        else:
            startups = []
            for _ in range(STARTUP_PROBES):
                code, stdout, wall, _cpu, _rss = cli.run(["--help"])
                ledger.record("--help", None if code == 0 and "usage:" in stdout
                              else f"exit code {code}")
                startups.append(wall)
            inproc_session(inproc_ops, ledger)  # warm-up, discarded
            tracer = Tracer()
            plain = []
            counts = {}

            def cycle():
                sessions.append(cli_session(cli, cli_ops, ledger))
                tracer.session += 1
                tracer.capture = not counts
                tracer.install()
                try:
                    inproc_session(inproc_ops, ledger, tracer)
                finally:
                    tracer.uninstall()
                if tracer.capture:
                    # drop the captured arguments before timing anything else
                    counts.update(untimed_counts(tracer))
                    tracer.capture = False
                plain.append(inproc_session(inproc_ops, ledger))

            closed_loop(args.seconds, cycle)
            traced = [session_breakdown(tracer, s) for s in range(1, tracer.session + 1)]
            tracer.write(results / f"{tag}.spans.jsonl")
            accounting = command_accounting(sessions, traced, median(startups))
            metrics = per_layer(accounting, traced, plain, median(startups), counts)
        diagnostics = command_diagnostics(sessions)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(root)
    error_rate = ledger.failed / ledger.attempted
    print(f"# perfbench {tag}")
    for key, value in env.items():
        print(f"# env {key}: {value}")
    print(f"# {'metric':<40} {'value':>14} {'unit':<6} samples")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {count}")
    print("# diagnostics (not gated)")
    print(f"  {'error_rate':<40} {error_rate:>14.6g} {'ratio':<6} {ledger.attempted}")
    for name, (med_v, max_v, count) in diagnostics.items():
        print(f"  {name:<40} {med_v:>14.6g} {'s':<6} {count}  (max {max_v:.6g})")
    if accounting:
        print("# per command: untraced wall = startup + layer self times + gap (s)")
        print(f"  {'command':<16} {'wall':>7} {'startup':>7} "
              + " ".join(f"{layer[:9]:>9}" for layer in LAYERS) + f" {'gap':>7}")
        for label, row in accounting.items():
            print(f"  {label:<16} {row['wall_s']:>7.3f} {row['startup_s']:>7.3f} "
                  + " ".join(f"{row['layer_self_s'][layer]:>9.4f}" for layer in LAYERS)
                  + f" {row['gap_s']:>7.3f}")
    for message in ledger.messages:
        print(f"# FAILED {message}")
    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "error_rate": error_rate, "failures": ledger.messages,
        "metrics": {k: {"value": v, "unit": u, "samples": c}
                    for k, (v, u, c) in metrics.items()},
        "diagnostics": {k: {"median": v, "max": mx, "samples": c}
                        for k, (v, mx, c) in diagnostics.items()},
        "command_accounting": accounting,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _c) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
