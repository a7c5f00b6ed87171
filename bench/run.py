"""End-to-end benchmark of the minregion CLI, with an optional traced run.

    python3 bench/run.py --workload scan-csv --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's src directory, not from an installed copy.  With --trace 0 the
benchmark spawns the real CLI (python -m minregion) one child at a time,
cycling through the workload's command list until --seconds have passed at a
cycle boundary, and checks every output against its own reference.  With
--trace 1 it replays the same commands in-process with spans around each
layer (see tracing.py).  The last line of stdout is one JSON object with
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import child
import workloads

SETUP_REPEATS = 7
END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# what one unit of work_per_s is on each workload, under the name users know it by
WORK_NAME = {
    "scan-csv": ("scan.points_per_s", "points/s"),
    "scan-pgm": ("scan.points_per_s", "points/s"),
    "validate": ("validate.trials_per_s", "trials/s"),
    "check": ("check.queries_per_s", "queries/s"),
}


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists and the maximum is
    returned as p100.
    """
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"python {sys.version.split()[0]}, numpy {np.__version__}, nproc {nproc}, cpu {cpu}"


def run_untraced(workload: str, seed: int, seconds: float, root: str, workdir: str):
    """Return (metrics, attempted, failed, notes) for one untraced run."""
    env = child.cli_env(root)
    verifier = workloads.Verifier(workloads.make_configs(seed))
    attempted = failed = 0
    notes = []

    def account(inv, res):
        nonlocal attempted, failed
        attempted += 1
        problem = verifier.verify(inv, res.exit_code, res.stdout, res.stderr)
        if problem:
            failed += 1
            notes.append(problem)

    # set-up: write fresh inputs and finish one untimed warm-up command, several times
    setup_times = []
    for k in range(SETUP_REPEATS):
        inputs = os.path.join(workdir, f"inputs{k}")
        os.mkdir(inputs)
        started = time.perf_counter()
        _, plan, warmup = workloads.write_inputs(workload, seed, inputs)
        res = child.run_child(child.cli_argv(warmup.args), env, inputs)
        setup_times.append(time.perf_counter() - started)
        account(warmup, res)

    walls = [[] for _ in plan]  # wall times per command of the cycle
    peak_rss = 0.0
    started = time.perf_counter()
    cycles = 0
    while True:
        for inv, inv_walls in zip(plan, walls):
            res = child.run_child(child.cli_argv(inv.args), env, inputs)
            account(inv, res)
            inv_walls.append(res.wall_s)
            peak_rss = max(peak_rss, res.peak_rss_mb)
        cycles += 1
        if time.perf_counter() - started >= seconds:
            break

    # per-command medians keep one slow child from moving the figures
    values = {
        "setup_s": statistics.median(setup_times),
        "work_per_s": sum(inv.work for inv in plan) / sum(statistics.median(w) for w in walls),
        "peak_rss_mb": peak_rss,
    }
    all_walls = [w for inv_walls in walls for w in inv_walls]
    alias, alias_unit = WORK_NAME[workload]
    notes.append(f"{cycles} cycle(s) of {len(plan)} commands, {len(all_walls)} timed invocations")
    notes.append(f"{alias} = {values['work_per_s']:.6g} {alias_unit}")
    if workload == "check":
        tail_value, tail_pct = tail(all_walls)
        notes.append(f"check.latency_s.p50 = {statistics.median(all_walls):.6g} s ({len(all_walls)} queries)")
        notes.append(f"check.latency_s.tail = {tail_value:.6g} s (p{tail_pct:.4g} of {len(all_walls)} queries)")
    notes.append(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} invocations)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "minregion", "cli.py")):
        print(f"error: no minregion sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    scratch_root = os.path.join(root, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch_root)
    try:
        if args.trace:
            import tracing

            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            metrics, attempted, failed, notes = tracing.run_traced(
                args.workload, args.seed, args.seconds, root, workdir, out_dir)
        else:
            metrics, attempted, failed, notes = run_untraced(
                args.workload, args.seed, args.seconds, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {environment()}")
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
