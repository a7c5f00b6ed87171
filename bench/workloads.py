"""Seeded inputs, the command list of each workload, and output checks.

The seed draws the set centres, the finite point set, the validate seeds and
the check queries; every size is fixed.  Configs are written to a directory
and the program receives only those files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

import reference

WORKLOADS = ("scan-csv", "scan-pgm", "validate", "check")

BOWL_2D = {"Q": [[1.0, 0.0], [0.0, 1.0]], "m": [2.0, 0.0], "weight": 1.0}
BOWL_3D = {"Q": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]], "m": [2.0, 0.0, 0.0], "weight": 1.0}
GRID_2D = {"lower": [-1.0, -2.0], "upper": [3.0, 2.0]}

# (config, trials): the kinked config runs few trials because each costs
# about 0.25 s in the iterative solver
VALIDATE_PLAN = (("ball2", 5000), ("ball3", 4000), ("finite16", 5000), ("kink2", 10))
SCAN_PLAN = {
    "scan-csv": (("ball2", "csv"), ("ball3", "csv")),
    "scan-pgm": (("wide2", "pgm"), ("finite16", "pgm")),
}
CHECK_CONFIGS = ("ball2", "ball3", "finite16", "kink2")
CHECK_PER_VERDICT = 4  # members and non-members drawn per config


def _vec(v) -> list:
    return [float(x) for x in v]


def make_configs(seed: int) -> dict:
    """Problem documents keyed by name; only centres and points depend on the seed."""
    rng = np.random.default_rng(seed)

    def ball(spread, dim, radius):
        return {"type": "ball", "center": _vec(rng.uniform(-spread, spread, dim)), "radius": radius}

    return {
        # the reference problem with a shifted centre
        "ball2": {
            "known_function": {"terms": [BOWL_2D]},
            "uncertainty": ball(0.005, 2, 0.1),
            "sigma": 2.0,
            "grid": dict(GRID_2D, counts=[401, 401]),
        },
        "ball3": {
            "known_function": {"terms": [BOWL_3D]},
            "uncertainty": ball(0.01, 3, 0.3),
            "sigma": 2.0,
            "grid": {"lower": [-1.0, -2.0, -2.0], "upper": [3.0, 2.0, 2.0], "counts": [61, 61, 61]},
        },
        # small sigma and a large ball: most points pass the prefilter
        "wide2": {
            "known_function": {"terms": [BOWL_2D]},
            "uncertainty": ball(0.01, 2, 0.8),
            "sigma": 0.25,
            "grid": dict(GRID_2D, counts=[401, 401]),
        },
        "finite16": {
            "known_function": {"terms": [BOWL_2D]},
            "uncertainty": {"type": "points", "points": [_vec(p) for p in rng.uniform(-0.5, 0.5, (16, 2))]},
            "sigma": 2.0,
            "grid": dict(GRID_2D, counts=[801, 801]),
        },
        "kink2": {
            "known_function": {
                "terms": [BOWL_2D],
                "kinks": [{"point": [0.5, 0.0], "generators": [[5.0, 0.0], [-5.0, 0.0], [0.0, 5.0], [0.0, -5.0]]}],
            },
            "uncertainty": ball(0.005, 2, 0.1),
            "sigma": 2.0,
        },
    }


def interior_point(doc: dict) -> list:
    unc = doc["uncertainty"]
    return list(unc["center"]) if unc["type"] == "ball" else list(unc["points"][0])


def _check_queries(configs: dict, rng) -> list:
    """(config, point) pairs: interior and set points, the kink point, members, non-members."""
    queries = []
    for name in CHECK_CONFIGS:
        doc = configs[name]
        problem = reference.Problem(doc)
        queries.append((name, interior_point(doc)))
        for point, _ in problem.kinks:
            queries.append((name, _vec(point)))
        grid = doc.get("grid", dict(GRID_2D, counts=[2, 2]))
        X = rng.uniform(grid["lower"], grid["upper"], (4000, len(grid["lower"])))
        member, interior = reference.classify(problem, X)
        for wanted in (True, False):
            rows = np.flatnonzero((member == wanted) & ~interior)[:CHECK_PER_VERDICT]
            queries.extend((name, _vec(X[i])) for i in rows)
    return queries


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, units of work, and what its output must be."""

    kind: str  # scan | validate | check
    config: str
    args: tuple
    work: int
    output: str | None = None
    fmt: str | None = None
    trials: int = 0
    seed: int = 0
    point: tuple = ()


def write_inputs(workload: str, seed: int, directory: str) -> tuple:
    """Write the configs into directory; return (configs, invocations, warm-up)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    configs = make_configs(seed)
    rng = np.random.default_rng([seed, 1])
    paths = {}
    for name, doc in configs.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    plan = []
    if workload in SCAN_PLAN:
        for name, fmt in SCAN_PLAN[workload]:
            out = os.path.join(directory, f"{name}.{fmt}")
            plan.append(Invocation(
                "scan", name, ("scan", paths[name], "--format", fmt, "--output", out),
                int(np.prod(configs[name]["grid"]["counts"])), output=out, fmt=fmt,
            ))
    elif workload == "validate":
        for name, trials in VALIDATE_PLAN:
            vseed = int(rng.integers(2**31))
            out = os.path.join(directory, f"{name}.report.json")
            plan.append(Invocation(
                "validate", name,
                ("validate", paths[name], "--trials", str(trials), "--seed", str(vseed), "--report", out),
                trials, output=out, trials=trials, seed=vseed,
            ))
    else:
        for name, point in _check_queries(configs, rng):
            plan.append(_check(name, paths[name], point))
    first = plan[0].config
    warmup = _check(first, paths[first], interior_point(configs[first]))
    return configs, plan, warmup


def _check(name: str, path: str, point) -> Invocation:
    text = ",".join(repr(float(v)) for v in point)
    # "--" keeps argparse from reading a point that starts with "-" as an option
    return Invocation("check", name, ("check", path, "--", text), 1, point=tuple(float(v) for v in point))


class Verifier:
    """Checks each invocation's exit code and output against the reference.

    Scan outputs are decoded once per distinct content; reruns that write the
    same bytes reuse the verdict, since the program promises byte-identical
    output for identical inputs.
    """

    def __init__(self, configs: dict):
        self.problems = {name: reference.Problem(doc) for name, doc in configs.items()}
        self._masks = {}
        self._verified = set()

    def expected_mask(self, config: str) -> np.ndarray:
        if config not in self._masks:
            p = self.problems[config]
            self._masks[config] = reference.classify(p, reference.grid_points(p.grid))[0]
        return self._masks[config]

    def check_mask(self, config: str, mask: np.ndarray) -> str | None:
        expected = self.expected_mask(config)
        if mask.shape != expected.shape:
            return f"{config}: mask has {mask.size} points, expected {expected.size}"
        bad = np.flatnonzero(mask != expected)
        if bad.size:
            return f"{config}: {bad.size} points differ from the reference (first at index {bad[0]})"
        return None

    def verify(self, inv: Invocation, exit_code: int, stdout: str, stderr: str) -> str | None:
        """None when the invocation behaved correctly, else what went wrong."""
        if "Traceback" in stderr:
            return f"{inv.kind} {inv.config}: traceback: {stderr.strip().splitlines()[-1]}"
        if inv.kind == "check":
            member, _ = reference.classify(self.problems[inv.config], [inv.point])
            want = 0 if member[0] else 1
            if exit_code != want:
                return f"check {inv.config} {inv.point}: exit {exit_code}, expected {want}"
            if f"member: {'yes' if want == 0 else 'no'}" not in stdout:
                return f"check {inv.config} {inv.point}: verdict line missing"
            return None
        if exit_code != 0:
            return f"{inv.kind} {inv.config}: exit {exit_code}: {stderr.strip()[-200:]}"
        try:
            with open(inv.output, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"{inv.kind} {inv.config}: output unreadable: {exc}"
        if inv.kind == "validate":
            return self._check_report(inv, data)
        digest = (inv.config, hashlib.sha256(data).digest())
        if digest in self._verified:
            return None
        grid = self.problems[inv.config].grid
        try:
            mask = reference.decode_csv(data, grid) if inv.fmt == "csv" else reference.decode_pgm(data, grid)
        except ValueError as exc:
            return f"scan {inv.config}: bad {inv.fmt}: {exc}"
        problem = self.check_mask(inv.config, mask)
        if problem is None:
            self._verified.add(digest)
        return problem

    @staticmethod
    def _check_report(inv: Invocation, data: bytes) -> str | None:
        try:
            report = json.loads(data)
        except ValueError as exc:
            return f"validate {inv.config}: report is not JSON: {exc}"
        if report.get("falsifications") != 0:
            return f"validate {inv.config}: {report.get('falsifications')} falsifications"
        if report.get("trials") != inv.trials or report.get("seed") != inv.seed:
            return f"validate {inv.config}: report covers trials={report.get('trials')} seed={report.get('seed')}"
        if report.get("member", -1) + report.get("inside_set", -1) != inv.trials:
            return f"validate {inv.config}: member + inside_set != trials"
        return None
