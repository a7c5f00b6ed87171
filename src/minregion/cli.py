"""Command-line interface: check one point, scan a grid, or validate by sampling.

Exit codes: 0 = member / success, 1 = negative result (non-member verdict or
a campaign with falsifications), 2 = usage or configuration error, or a model
that float64 cannot solve (validate names the trial: "minimizer of trial i").
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .errors import ConfigError, NonFiniteError
from .funcmodel import Kink, KnownFunction, QuadraticTerm
from .geometry import Ball, FinitePointSet, GridSpec, WriteOnce
from .membership import DEFAULT_SLACK, UncertaintySet, classify_point, threshold

# scanner and oracle are imported inside the subcommands that run them, so a
# check process, which is mostly interpreter and import time, loads neither.


class ProblemConfig(WriteOnce):
    """Parsed problem definition plus the raw document for report echoes."""

    theta_steps = None  # bench/tracing.py still reads it

    def __init__(self, known_function: KnownFunction, uncertainty: UncertaintySet, grid: GridSpec | None,
                 slack: float, raw: dict):
        self.known_function = known_function
        self.uncertainty = uncertainty
        self.grid = grid
        self.slack = slack
        self.raw = raw


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        _fail(f"{path}.{key}", "missing required field")
    return mapping[key]


def _number(value, path: str, low: float = -sys.float_info.max, strict: bool = False) -> float:
    """A finite JSON number >= low (> low if strict), as a float.

    value is compared unconverted, so NaN, inf and an int past the float
    range all fail here instead of overflowing in float().
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not (low < value if strict else low <= value)
        or not value <= sys.float_info.max
    ):
        bound = "" if low == -sys.float_info.max else f" {'>' if strict else '>='} {low:g}"
        _fail(path, f"expected a finite number{bound}, got {value!r}")
    return float(value)


def _positive_number(value, path: str) -> float:
    return _number(value, path, 0.0, strict=True)


def _as_vector_field(value, path: str, dimension: int | None = None) -> list:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of numbers")
    if dimension is not None and len(value) != dimension:
        _fail(path, f"dimension mismatch: expected {dimension} numbers, got {len(value)}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_matrix_field(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a matrix as a list of rows (or a flat row-major list)")
    if not any(isinstance(v, list) for v in value):
        flat = _as_vector_field(value, path)
        n = int(round(len(flat) ** 0.5))
        if n * n != len(flat):
            _fail(path, f"flat matrix of length {len(flat)} is not square")
        return [flat[i * n : (i + 1) * n] for i in range(n)]
    return [_as_vector_field(row, f"{path}[{i}]", len(value)) for i, row in enumerate(value)]


def _build(path: str, cls, **fields):
    """cls(**fields), with a ValueError from its own checks reported under path."""
    try:
        return cls(**fields)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_known_function(doc: dict) -> KnownFunction:
    spec = _require(doc, "known_function", "$")
    if not isinstance(spec, dict):
        _fail("$.known_function", "expected an object")
    terms_doc = _require(spec, "terms", "$.known_function")
    if not isinstance(terms_doc, list) or not terms_doc:
        _fail("$.known_function.terms", "expected a nonempty list")
    terms = []
    for i, term in enumerate(terms_doc):
        path = f"$.known_function.terms[{i}]"
        if not isinstance(term, dict):
            _fail(path, "expected an object with Q, m, weight")
        built = _build(
            path,
            QuadraticTerm,
            Q=_as_matrix_field(_require(term, "Q", path), f"{path}.Q"),
            m=_as_vector_field(_require(term, "m", path), f"{path}.m"),
            weight=_positive_number(term.get("weight", 1.0), f"{path}.weight"),
        )
        terms.append(built)
    kinks_doc = spec.get("kinks", [])
    if not isinstance(kinks_doc, list):
        _fail("$.known_function.kinks", "expected a list")
    n = terms[0].dimension
    kinks = []
    for i, kink in enumerate(kinks_doc):
        path = f"$.known_function.kinks[{i}]"
        if not isinstance(kink, dict):
            _fail(path, "expected an object with point and generators")
        gens_doc = _require(kink, "generators", path)
        if not isinstance(gens_doc, list) or not gens_doc:
            _fail(f"{path}.generators", "expected a nonempty list of vectors")
        point = _as_vector_field(_require(kink, "point", path), f"{path}.point", n)
        gens = [_as_vector_field(g, f"{path}.generators[{j}]", n) for j, g in enumerate(gens_doc)]
        kinks.append(_build(path, Kink, point=point, generators=gens))
    return _build("$.known_function", KnownFunction, terms=tuple(terms), kinks=tuple(kinks))


def _parse_uncertainty(doc: dict, sigma: float, n: int) -> UncertaintySet:
    spec = _require(doc, "uncertainty", "$")
    if not isinstance(spec, dict):
        _fail("$.uncertainty", "expected an object")
    kind = _require(spec, "type", "$.uncertainty")
    if kind == "ball":
        region = _build(
            "$.uncertainty",
            Ball,
            center=_as_vector_field(_require(spec, "center", "$.uncertainty"), "$.uncertainty.center", n),
            radius=_positive_number(_require(spec, "radius", "$.uncertainty"), "$.uncertainty.radius"),
        )
    elif kind == "points":
        pts = _require(spec, "points", "$.uncertainty")
        if not isinstance(pts, list) or not pts:
            _fail("$.uncertainty.points", "expected a nonempty list of vectors")
        region = _build(
            "$.uncertainty",
            FinitePointSet,
            points=[_as_vector_field(p, f"$.uncertainty.points[{i}]", n) for i, p in enumerate(pts)],
        )
    else:
        _fail("$.uncertainty.type", f"expected 'ball' or 'points', got {kind!r}")
    return _build("$.uncertainty", UncertaintySet, region=region, sigma=sigma)


def _parse_grid(doc: dict, n: int) -> GridSpec | None:
    if "grid" not in doc:
        return None
    spec = doc["grid"]
    if not isinstance(spec, dict):
        _fail("$.grid", "expected an object with lower, upper, counts")
    counts = _require(spec, "counts", "$.grid")
    if not isinstance(counts, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in counts
    ):
        _fail("$.grid.counts", "expected a list of integers")
    return _build(
        "$.grid",
        GridSpec,
        lower=_as_vector_field(_require(spec, "lower", "$.grid"), "$.grid.lower", n),
        upper=_as_vector_field(_require(spec, "upper", "$.grid"), "$.grid.upper", n),
        counts=tuple(counts),
    )


def load_config(path: str) -> ProblemConfig:
    """Parse and validate a problem-definition JSON file; unknown top-level keys are ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    sigma = _positive_number(_require(doc, "sigma", "$"), "$.sigma")
    f = _parse_known_function(doc)
    uset = _parse_uncertainty(doc, sigma, f.dimension)
    grid = _parse_grid(doc, f.dimension)
    slack = _number(doc.get("slack", DEFAULT_SLACK), "$.slack", 0.0)
    return ProblemConfig(known_function=f, uncertainty=uset, grid=grid, slack=slack, raw=doc)


def _parse_point(text: str, dimension: int) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"point {text!r}: expected comma-separated numbers") from None
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"point {text!r}: coordinates must be finite")
    if len(values) != dimension:
        raise ConfigError(
            f"point {text!r} has dimension {len(values)}, problem is {dimension}-D"
        )
    return np.array(values)


def _apply_overrides(config: ProblemConfig, args) -> ProblemConfig:
    slack = args.slack if args.slack is not None else config.slack
    uset = config.uncertainty
    if getattr(args, "sigma_override", None) is not None:
        if not (math.isfinite(args.sigma_override) and args.sigma_override > 0.0):
            raise ConfigError(f"--sigma-override must be a finite number > 0, got {args.sigma_override}")
        uset = UncertaintySet(region=uset.region, sigma=float(args.sigma_override))
    try:
        threshold(uset.sigma, slack)
    except ValueError as exc:
        raise ConfigError(("--" if args.slack is not None else "$.") + str(exc)) from None
    return ProblemConfig(config.known_function, uset, config.grid, float(slack), config.raw)


def _refuse_unscorable_set(uset: UncertaintySet):
    """Name $.uncertainty when n * reach^2 overflows: the kernel squares distances to the set."""
    n, reach = uset.dimension, uset.region.reach
    if not math.isfinite(n * reach * reach):
        raise ConfigError(f"$.uncertainty: {n} * (max |p| + r)^2 overflows, so no point can be scored")


def _format_vector(v) -> str:
    return "[" + ", ".join(repr(float(x)) for x in v) + "]"


def _cmd_check(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    point = _parse_point(args.point, config.uncertainty.dimension)
    try:
        verdict = classify_point(config.known_function, point, config.uncertainty, slack=config.slack)
    except NonFiniteError as exc:
        _refuse_unscorable_set(config.uncertainty)
        raise ConfigError(f"point {args.point!r}: {exc.reason}") from None
    print(f"point: {_format_vector(point)}")
    print(f"member: {'yes' if verdict.member else 'no'}")
    if verdict.interior:
        print("reason: inside the uncertainty set")
    elif verdict.best_score is None:
        print("reason: no generator descends toward the set")
    else:
        limit = threshold(config.uncertainty.sigma, config.slack)
        print(f"best_score: {verdict.best_score!r} (threshold {limit!r})")
        w = verdict.witness
        print(f"witness: x_u={_format_vector(w.x_u)}, g={_format_vector(w.g)}")
    return 0 if verdict.member else 1


def _cmd_scan(args) -> int:
    from .scanner import scan_region, write_mask_csv, write_mask_pgm

    config = _apply_overrides(load_config(args.config), args)
    if config.grid is None:
        raise ConfigError(f"{args.config}: scan requires a 'grid' section")
    if args.format == "pgm" and config.grid.dimension != 2:
        raise ConfigError("PGM output is only defined for 2-D grids")
    started = time.perf_counter()
    try:
        mask = scan_region(config.known_function, config.uncertainty, config.grid, slack=config.slack)
    except NonFiniteError as exc:
        _refuse_unscorable_set(config.uncertainty)
        raise ConfigError(f"{args.config}: {exc.reason}") from None
    except MemoryError:
        count = config.grid.point_count
        raise ConfigError(f"$.grid.counts: {count} grid points do not fit in memory") from None
    elapsed = time.perf_counter() - started
    if args.format == "csv":
        write_mask_csv(mask, args.output)
    else:
        write_mask_pgm(mask, args.output)
    counts = "x".join(str(c) for c in config.grid.counts)
    print(
        f"scanned {counts} grid in {elapsed:.2f}s: "
        f"{mask.member_count} of {mask.grid.point_count} points are candidate minimizers"
    )
    print(f"wrote {args.output}")
    return 0


def _cmd_validate(args) -> int:
    from .oracle import MULTIPLIER_RANGE, validate_necessity

    config = _apply_overrides(load_config(args.config), args)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    # draws use the configured sigma; --sigma-override sets only the classifying one
    sigma, hi = float(config.raw["sigma"]), MULTIPLIER_RANGE[1]
    if not math.isfinite(sigma * hi):
        raise ConfigError(f"$.sigma: the largest draw sigma * {hi!r} overflows for sigma {sigma!r}")
    # a draw's sigma_u * c, on the way to the minimizer, is bounded by sigma * hi * reach
    if not math.isfinite(sigma * hi * config.uncertainty.region.reach):
        raise ConfigError(f"$.uncertainty: sigma * {hi!r} * (max |p| + r) overflows for sigma {sigma!r}")
    try:
        report = validate_necessity(
            config.known_function,
            config.uncertainty,
            sigma,
            args.trials,
            args.seed,
            slack=config.slack,
        )
    except NonFiniteError as exc:
        raise ConfigError(f"{args.config}: minimizer of trial {exc.row}: {exc.reason}") from None
    payload = dict(report.to_dict(), config=config.raw)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.report}")
    else:
        print(text)
    print(
        f"trials={report.trials} member={report.member_count} "
        f"inside_set={report.interior_count} falsifications={report.falsification_count}"
    )
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minregion",
        description=(
            "Decide which points can minimize a partially known strongly convex "
            "objective: a fully known quadratic model plus an unknown term "
            "constrained only by a strong-convexity constant and a set "
            "containing its minimizer."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sigma_override_help):
        p.add_argument("config", help="problem definition JSON file")
        p.add_argument("--slack", type=float, default=None, help="additive slack on the -sigma threshold")
        p.add_argument("--sigma-override", type=float, default=None, help=sigma_override_help)

    p_check = sub.add_parser("check", help="classify one query point (exit 0 member, 1 non-member)")
    common(p_check, "classify with this sigma instead of the configured one")
    p_check.add_argument("point", help="comma-separated coordinates, e.g. '1.0,0.0'")

    p_scan = sub.add_parser("scan", help="scan the configured grid and write a mask")
    common(p_scan, "scan with this sigma instead of the configured one")
    p_scan.add_argument("--output", "-o", required=True, help="output file path")
    p_scan.add_argument("--format", choices=("csv", "pgm"), default="csv", help="mask format (default csv)")

    p_val = sub.add_parser(
        "validate",
        help="sample admissible unknown terms and verify their minimizers classify as members",
    )
    common(
        p_val,
        "classify with this sigma while sampling with the configured one "
        "(inflating it demonstrates falsification)",
    )
    p_val.add_argument("--trials", type=int, default=1000, help="number of sampled trials")
    p_val.add_argument("--seed", type=int, default=0, help="master seed for the campaign (>= 0)")
    p_val.add_argument("--report", default=None, help="write the JSON report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"check": _cmd_check, "scan": _cmd_scan, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
