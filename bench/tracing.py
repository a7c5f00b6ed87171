"""Traced run: replay a workload's commands in-process, with a span per layer call.

Spans are recorded from the benchmark's side of each call into a layer:
around the public functions it calls directly, and around the two functions
that layers call internally (scanner.build_grid, funcmodel.subdifferential),
which are swapped for recording wrappers while a replay runs.  Spans stay in
memory and are written out when the run ends.

Time metrics are per pass over the workload's command list.  A module's
metric is the self time of its spans: their duration minus the part covered
by child spans.  The oracle stage metrics (sample_unknown, minimize_sum,
minimize_sum_iterative, classify) and validate_necessity are the full
duration of the stage, because the classify stage is one call into
membership.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import child
import reference
import workloads

PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.load_config_s", "s"),
    ("scanner.build_grid_s", "s"),
    ("scanner.scan_region_s", "s"),
    ("scanner.write_mask_csv_s", "s"),
    ("scanner.write_mask_pgm_s", "s"),
    ("scanner.read_mask_csv_s", "s"),
    ("scanner.csv_bytes", "bytes"),
    ("scanner.scan_region_peak_mb", "MB"),
    ("scanner.write_mask_csv_peak_mb", "MB"),
    ("membership.classify_point_s", "s"),
    ("membership.classify_calls", "count"),
    ("membership.interior", "count"),
    ("membership.member", "count"),
    ("membership.non_member", "count"),
    ("funcmodel.subdifferential_s", "s"),
    ("oracle.sample_unknown_s", "s"),
    ("oracle.minimize_sum_s", "s"),
    ("oracle.minimize_sum_iterative_s", "s"),
    ("oracle.classify_s", "s"),
    ("oracle.validate_necessity_s", "s"),
    ("oracle.trials", "count"),
    ("oracle.interior_share", "1"),
    ("oracle.falsifications", "count"),
    ("oracle.convergence_errors", "count"),
    ("trace.overhead_s", "s"),
)
INCLUSIVE = {
    "oracle.sample_unknown", "oracle.minimize_sum", "oracle.minimize_sum_iterative",
    "oracle.classify", "oracle.validate_necessity",
}
IMPORT_REPEATS = 3


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        t._stack.append(len(t.spans))
        t.spans.append([self.name, time.perf_counter(), None, parent, t.invocation])

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[t._stack.pop()][2] = time.perf_counter()


_UNTRACED = contextlib.nullcontext()


class Tracer:
    """In-memory spans: [name, start, end, parent id, invocation id]; id = index."""

    def __init__(self, enabled: bool, patches=()):
        self.enabled = enabled
        self.spans = []
        self.invocation = 0
        self._stack = []
        self._patches = patches  # (module, attribute, span name)

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _UNTRACED

    def layers(self):
        """Context in which layer-internal calls are recorded too."""
        return _Patched(self) if self.enabled else _UNTRACED

    def times(self) -> dict:
        """Total time per span name: self time, or full duration for INCLUSIVE names."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - (0.0 if name in INCLUSIVE else covered[sid])
        return totals

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "invocation"], "spans": self.spans}, fh)


class _Patched:
    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        for module, attr, name in self.tracer._patches:
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, _recording(self.tracer, original, name))

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()


def _recording(tracer, fn, name):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


class _Replayer:
    """Runs the library calls behind each CLI command of a workload."""

    def __init__(self, verifier, cli_reports):
        from minregion import cli, membership, oracle, scanner
        from minregion.errors import ConvergenceError

        self.cli, self.membership, self.oracle, self.scanner = cli, membership, oracle, scanner
        self.ConvergenceError = ConvergenceError
        self.verifier = verifier
        self.cli_reports = cli_reports
        self.patches = ((scanner, "build_grid", "scanner.build_grid"),
                        (membership, "subdifferential", "funcmodel.subdifferential"))

    def run_pass(self, plan, tracer, counts) -> list:
        """Replay every invocation once; return the problems found."""
        problems = []
        for inv in plan:
            tracer.invocation += 1
            with tracer.span("cli.load_config"):
                cfg = self.cli.load_config(inv.args[1])
            problem = getattr(self, "_" + inv.kind)(inv, cfg, tracer, counts)
            if problem:
                problems.append(problem)
        return problems

    def _classify(self, cfg, x, uset, tracer, counts):
        with tracer.span("membership.classify_point"):
            verdict = self.membership.classify_point(cfg.known_function, x, uset, cfg.theta_steps, slack=cfg.slack)
        counts["membership.classify_calls"] += 1
        kind = "interior" if verdict.interior else "member" if verdict.member else "non_member"
        counts["membership." + kind] += 1
        return verdict

    def _check(self, inv, cfg, tracer, counts):
        with tracer.layers():
            verdict = self._classify(cfg, np.array(inv.point), cfg.uncertainty, tracer, counts)
        member, _ = reference.classify(self.verifier.problems[inv.config], [inv.point])
        if verdict.member != bool(member[0]):
            return f"check {inv.config} {inv.point}: member={verdict.member}, reference says {bool(member[0])}"
        return None

    def _scan(self, inv, cfg, tracer, counts):
        sc = self.scanner
        with tracer.layers():
            with tracer.span("scanner.scan_region"):
                mask = sc.scan_region(cfg.known_function, cfg.uncertainty, cfg.grid, cfg.theta_steps, slack=cfg.slack)
            if inv.fmt == "csv":
                with tracer.span("scanner.write_mask_csv"):
                    sc.write_mask_csv(mask, inv.output)
                counts["scanner.csv_bytes"] += os.path.getsize(inv.output)
                with tracer.span("scanner.read_mask_csv"):
                    back = sc.read_mask_csv(inv.output)
                if not np.array_equal(back.membership, mask.membership):
                    return f"scan {inv.config}: read_mask_csv does not return the written mask"
            else:
                with tracer.span("scanner.write_mask_pgm"):
                    sc.write_mask_pgm(mask, inv.output)
        return self.verifier.check_mask(inv.config, np.asarray(mask.membership))

    def _validate(self, inv, cfg, tracer, counts):
        orc = self.oracle
        f = cfg.known_function
        sigma = float(cfg.raw["sigma"])
        uset = self.membership.UncertaintySet(region=cfg.uncertainty.region, sigma=sigma)
        seeds = np.random.SeedSequence(inv.seed).generate_state(inv.trials, dtype=np.uint64)
        got = dict(trials=inv.trials, member=0, inside_set=0, falsifications=0)
        with tracer.layers():
            for s in seeds:
                with tracer.span("oracle.sample_unknown"):
                    u = orc.sample_unknown(uset, sigma, int(s))
                try:
                    if f.kinks:
                        with tracer.span("oracle.minimize_sum_iterative"):
                            x = orc.minimize_sum_iterative(f, u)
                    else:
                        with tracer.span("oracle.minimize_sum"):
                            x = orc.minimize_sum(f, u)
                except self.ConvergenceError:
                    counts["oracle.convergence_errors"] += 1
                    continue
                with tracer.span("oracle.classify"):
                    verdict = self._classify(cfg, x, uset, tracer, counts)
                key = "inside_set" if verdict.interior else "member" if verdict.member else "falsifications"
                got[key] += 1
        # the whole call, with layer-internal calls unrecorded, exposes loop overhead
        try:
            with tracer.span("oracle.validate_necessity"):
                whole = orc.validate_necessity(f, uset, sigma, inv.trials, inv.seed, cfg.theta_steps,
                                               slack=cfg.slack).to_dict()
        except self.ConvergenceError as exc:
            return f"validate {inv.config}: validate_necessity raised ConvergenceError: {exc}"
        counts["oracle.trials"] += inv.trials
        counts["oracle.interior"] += got["inside_set"]
        counts["oracle.falsifications"] += got["falsifications"]
        cli_report = self.cli_reports[inv.config]
        for key, value in got.items():
            if cli_report.get(key) != value or whole.get(key) != value:
                return (f"validate {inv.config}: replay {key}={value}, CLI report {cli_report.get(key)}, "
                        f"validate_necessity {whole.get(key)}")
        return None


def _peak_pass(replayer, plan) -> dict:
    """Peak traced allocation inside scan_region and write_mask_csv, untimed."""
    sc = replayer.scanner
    peaks = defaultdict(float)
    for inv in plan:
        if inv.kind != "scan":
            continue
        cfg = replayer.cli.load_config(inv.args[1])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mask = sc.scan_region(cfg.known_function, cfg.uncertainty, cfg.grid, cfg.theta_steps, slack=cfg.slack)
            peaks["scanner.scan_region_peak_mb"] = max(
                peaks["scanner.scan_region_peak_mb"], (tracemalloc.get_traced_memory()[1] - base) / 2**20)
            if inv.fmt == "csv":
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                sc.write_mask_csv(mask, inv.output)
                peaks["scanner.write_mask_csv_peak_mb"] = max(
                    peaks["scanner.write_mask_csv_peak_mb"], (tracemalloc.get_traced_memory()[1] - base) / 2**20)
        finally:
            tracemalloc.stop()
    return peaks


def run_traced(workload: str, seed: int, seconds: float, root: str, workdir: str, out_dir: str):
    """Return (metrics, attempted, failed, notes) for one traced run."""
    env = child.cli_env(root)
    configs, plan, _ = workloads.write_inputs(workload, seed, workdir)
    verifier = workloads.Verifier(configs)
    notes = []
    attempted = failed = 0

    imports = []
    for _ in range(IMPORT_REPEATS):
        res = child.run_child([sys.executable, "-c", "import minregion.cli"], env, workdir)
        attempted += 1
        if res.exit_code != 0:
            failed += 1
            notes.append(f"import minregion.cli failed: {res.stderr.strip()[-200:]}")
        imports.append(res.wall_s)

    # the CLI's own reports, which the in-process replay must reproduce
    cli_reports = {}
    for inv in plan:
        if inv.kind == "validate":
            res = child.run_child(child.cli_argv(inv.args), env, workdir)
            attempted += 1
            problem = verifier.verify(inv, res.exit_code, res.stdout, res.stderr)
            if problem:
                failed += 1
                notes.append(problem)
            try:
                with open(inv.output, encoding="utf-8") as fh:
                    cli_reports[inv.config] = json.load(fh)
            except (OSError, ValueError):
                cli_reports[inv.config] = {}
        elif inv.kind == "scan":
            verifier.expected_mask(inv.config)

    if os.path.join(root, "src") not in sys.path:
        sys.path.insert(0, os.path.join(root, "src"))
    replayer = _Replayer(verifier, cli_reports)
    tracer = Tracer(True, replayer.patches)
    untraced_walls, traced_walls = [], []
    counts = defaultdict(int)
    started = time.perf_counter()
    while True:
        # alternate untraced and traced passes so the difference is the tracing cost
        t0 = time.perf_counter()
        problems = replayer.run_pass(plan, Tracer(False), defaultdict(int))
        untraced_walls.append(time.perf_counter() - t0)
        counts = defaultdict(int)
        t0 = time.perf_counter()
        problems += replayer.run_pass(plan, tracer, counts)
        traced_walls.append(time.perf_counter() - t0)
        attempted += 2 * len(plan)
        failed += len(problems)
        notes.extend(problems)
        if time.perf_counter() - started >= seconds:
            break
    passes = len(traced_walls)
    peaks = _peak_pass(replayer, plan)
    tracer.write(os.path.join(out_dir, f"trace-{workload}-{seed}.json"))

    totals = tracer.times()
    values = {name: 0.0 for name, _ in PER_LAYER}
    for name, _ in PER_LAYER:
        span = name[:-2]
        if name.endswith("_s") and span in totals:
            values[name] = totals[span] / passes
    values["cli.import_s"] = statistics.median(imports)
    loads = tracer.durations("cli.load_config")
    values["cli.load_config_s"] = statistics.median(loads) if loads else 0.0
    for name in ("scanner.csv_bytes", "membership.classify_calls", "membership.interior", "membership.member",
                 "membership.non_member", "oracle.trials", "oracle.falsifications", "oracle.convergence_errors"):
        values[name] = counts[name]
    values["oracle.interior_share"] = counts["oracle.interior"] / counts["oracle.trials"] if counts["oracle.trials"] else 0.0
    values.update(peaks)
    untraced = statistics.mean(untraced_walls)
    values["trace.overhead_s"] = statistics.mean(traced_walls) - untraced
    notes.append(f"traced {passes} pass(es) of {len(plan)} commands, {len(tracer.spans)} spans; "
                 f"untraced pass {untraced:.4f} s, tracing overhead {values['trace.overhead_s'] / untraced:+.1%}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, attempted, failed, notes
