"""End-to-end tests for the command-line interface."""

import gc
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import minregion
from minregion import oracle
from minregion.__main__ import run
from minregion.cli import load_config, main
from minregion.errors import ConfigError
from minregion.scanner import mask_subset, read_mask_csv


REFERENCE = {
    "known_function": {"terms": [{"Q": [[1.0, 0.0], [0.0, 1.0]], "m": [2.0, 0.0], "weight": 1.0}]},
    "uncertainty": {"type": "ball", "center": [0.0, 0.0], "radius": 0.1},
    "sigma": 2.0,
    "grid": {"lower": [-1.0, -2.0], "upper": [3.0, 2.0], "counts": [41, 41]},
}


def write_config(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_config_reference(tmp_path):
    config = load_config(write_config(tmp_path, REFERENCE))
    assert config.known_function.dimension == 2
    assert config.uncertainty.sigma == 2.0
    assert config.grid.counts == (41, 41)
    assert config.slack == 1e-9
    # a leftover "theta_steps" is ignored like any other unknown top-level key
    legacy = load_config(write_config(tmp_path, dict(REFERENCE, theta_steps=2048), name="legacy.json"))
    assert legacy.theta_steps is None and legacy.slack == 1e-9 and legacy.grid.counts == (41, 41)
    assert legacy.raw == dict(config.raw, theta_steps=2048)


def test_load_config_flat_matrix(tmp_path):
    doc = json.loads(json.dumps(REFERENCE))
    doc["known_function"]["terms"][0]["Q"] = [1.0, 0.0, 0.0, 1.0]
    config = load_config(write_config(tmp_path, doc))
    assert np.array_equal(config.known_function.terms[0].Q, np.eye(2))


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/problem.json")


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "sigma": 2.0,\n}')
    with pytest.raises(ConfigError, match=r":3:"):
        load_config(str(path))


def test_load_config_field_errors(tmp_path):
    bad_radius = json.loads(json.dumps(REFERENCE))
    bad_radius["uncertainty"]["radius"] = -1.0
    with pytest.raises(ConfigError, match=r"uncertainty\.radius"):
        load_config(write_config(tmp_path, bad_radius))
    no_terms = json.loads(json.dumps(REFERENCE))
    no_terms["known_function"]["terms"] = []
    with pytest.raises(ConfigError, match=r"known_function\.terms"):
        load_config(write_config(tmp_path, no_terms))
    bad_sigma = json.loads(json.dumps(REFERENCE))
    bad_sigma["sigma"] = 0.0
    with pytest.raises(ConfigError, match=r"\$\.sigma"):
        load_config(write_config(tmp_path, bad_sigma))
    mixed_dims = json.loads(json.dumps(REFERENCE))
    mixed_dims["uncertainty"]["center"] = [0.0, 0.0, 0.0]
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, mixed_dims))


def test_check_exit_codes(tmp_path, capsys):
    config = write_config(tmp_path, REFERENCE)
    assert main(["check", config, "1.0,0.0"]) == 0
    out = capsys.readouterr().out
    assert "member: yes" in out and "witness" in out
    assert main(["check", config, "1.2,0.0"]) == 1
    assert "member: no" in capsys.readouterr().out
    assert main(["check", config, "0.05,0.0"]) == 0
    assert "inside the uncertainty set" in capsys.readouterr().out


def test_check_usage_errors(tmp_path, capsys):
    config = write_config(tmp_path, REFERENCE)
    assert main(["check", config, "nonsense"]) == 2
    assert main(["check", config, "1.0,0.0,0.0"]) == 2
    assert main(["check", str(tmp_path / "missing.json"), "1.0,0.0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("point", ["nan,0", "inf,0", "0,-inf", "1e400,0"])
def test_check_rejects_non_finite_points(tmp_path, capsys, point):
    config = write_config(tmp_path, REFERENCE)
    assert main(["check", config, point]) == 2
    captured = capsys.readouterr()
    assert f"point {point!r}" in captured.err and "finite" in captured.err
    assert "member:" not in captured.out


def test_overflow_is_a_usage_error(tmp_path, capsys):
    config = write_config(tmp_path, REFERENCE)
    assert main(["check", config, "1e308,1e308"]) == 2
    captured = capsys.readouterr()
    assert "error: point '1e308,1e308': gradient overflows" in captured.err
    assert "member:" not in captured.out
    # 2 * weight * Q and 2 * weight * Q m are finite, so the config loads; the gradient overflows off the ball
    heavy = json.loads(json.dumps(REFERENCE))
    heavy["known_function"]["terms"][0]["weight"] = 4e307
    heavy = write_config(tmp_path, heavy, name="heavy.json")
    assert main(["check", heavy, "--", "-1.0,0.0"]) == 2
    assert "error: point '-1.0,0.0': gradient overflows" in capsys.readouterr().err
    assert main(["check", heavy, "0.05,0.0"]) == 0  # inside the ball: no gradient needed
    capsys.readouterr()
    assert main(["scan", heavy, "-o", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {heavy}: grid point [-1.0, -2.0]: gradient overflows" in err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command", [["check", "--", "1.0,0.0"], ["scan", "-o", "m.csv"], ["validate", "--trials", "3"]])
def test_overflowing_term_weight_is_rejected_on_load(tmp_path, command):
    # 2 * weight * Q overflows: every command names the field and prints nothing else
    doc = json.loads(json.dumps(REFERENCE))
    doc["known_function"]["terms"].append({"Q": [[1.0, 0.0], [0.0, 1.0]], "m": [0.0, 1.0], "weight": 1e308})
    config = write_config(tmp_path, doc)
    proc = subprocess.run(
        [sys.executable, "-m", "minregion", command[0], config, *command[1:]],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(minregion.__file__))),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: $.known_function.terms[1]: 2 * weight * Q overflows for weight 1e+308\n"
    )


HEAVY_TERM = {"Q": [[1.0, 0.0], [0.0, 1.0]], "m": [0.5, 0.0], "weight": 8e307}


@pytest.mark.parametrize("command", [["check", "--", "-1.0,0.0"], ["scan", "-o", "m.csv"], ["validate", "--trials", "3"]])
def test_overflowing_normal_equations_are_rejected_on_load(tmp_path, command):
    # 2 * weight * Q is finite but 2 * weight * Q m is not, or every term is finite but
    # the sum of 2 * weight * Q or of 2 * weight * Q m is not: every command names the term
    # or terms and prints nothing else, where validate used to blame a trial and check and
    # scan a point
    mid_term = {"Q": [[1.0, 0.0], [0.0, 1.0]], "m": [5.0, 0.0], "weight": 1e307}
    cases = (
        ([dict(HEAVY_TERM, m=[2.0, 0.0])], "$.known_function.terms[0]: 2 * weight * Q m overflows for weight 8e+307"),
        ([HEAVY_TERM, HEAVY_TERM], "$.known_function: sum of 2 * weight * Q overflows"),
        ([mid_term, mid_term], "$.known_function: sum of 2 * weight * Q m overflows"),
    )
    for terms, message in cases:
        doc = json.loads(json.dumps(REFERENCE))
        doc["known_function"]["terms"] = terms
        config = write_config(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "minregion", command[0], config, *command[1:]],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(minregion.__file__))),
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"


def test_large_positive_semidefinite_q_loads(tmp_path, capsys):
    # 1e6 (2, 3)(2, 3)^T is exactly positive semidefinite; eigvalsh puts an eigenvalue at
    # -4.7e-10, inside the bound -1e-10 max(1, max |Q|) = -9e-4
    doc = json.loads(json.dumps(REFERENCE))
    doc["known_function"]["terms"][0]["Q"] = [[4e6, 6e6], [6e6, 9e6]]
    config = write_config(tmp_path, doc)
    assert main(["check", config, "1.0,0.0"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "member: yes\n" in captured.out


def test_ball_score_overflow_is_a_usage_error(tmp_path, capsys):
    # the gradient at (1, 0) is (1e160, 0), whose g.g overflows: no score, not a
    # member with score -inf; with weight 1 the same point is a non-member
    doc = {
        "known_function": {"terms": [{"Q": [[1.0, 0.0], [0.0, 1.0]], "m": [0.5, 0.0], "weight": 1e160}]},
        "uncertainty": {"type": "ball", "center": [0.0, 0.0], "radius": 0.1},
        "sigma": 2.0,
        "grid": {"lower": [-1.0, -2.0], "upper": [3.0, 2.0], "counts": [3, 3]},
    }
    config = write_config(tmp_path, doc)
    assert main(["check", config, "1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: point '1,0': score overflows\n" and captured.out == ""
    assert main(["scan", config, "-o", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err == f"error: {config}: grid point [-1.0, -2.0]: score overflows\n"
    assert not (tmp_path / "m.csv").exists()
    doc["known_function"]["terms"][0]["weight"] = 1.0
    assert main(["check", write_config(tmp_path, doc, name="light.json"), "1,0"]) == 1
    assert "member: no\nreason: no generator descends toward the set\n" in capsys.readouterr().out


OVERFLOWING_POINTS = {
    "known_function": {"terms": [{"Q": [[1.0, 0.0], [0.0, 1.0]], "m": [2e200, 0.0]}]},
    "uncertainty": {"type": "points", "points": [[0.0, 0.0]]},
    "sigma": 1.0,
    "grid": {"lower": [-1.0, -1.0], "upper": [1e200, 1.0], "counts": [3, 3]},
}


def test_finite_set_score_overflow_is_a_usage_error(tmp_path, capsys):
    # at (1e200, 0) the score is -2e400 / 1e400 = -2: both sums overflow, so
    # the point is neither dropped as inadmissible nor called a non-member
    config = write_config(tmp_path, OVERFLOWING_POINTS)
    with np.errstate(all="raise"):
        assert main(["check", config, "--", "1e200,0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: point '1e200,0': score overflows\n"
        assert "member:" not in captured.out
        assert main(["check", config, "--", "1e100,0"]) == 0  # the sums fit: a member
        capsys.readouterr()
        assert main(["scan", config, "-o", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == f"error: {config}: grid point [5e+199, -1.0]: score overflows\n"
    assert not (tmp_path / "m.csv").exists()


TWO_KINKS = {
    "known_function": {
        "terms": [{"Q": [[1.0]], "m": [3.0], "weight": 1.0}],
        "kinks": [
            {"point": [1.0], "generators": [[-1.0], [1.0]]},
            {"point": [2.0], "generators": [[-4.0], [4.0]]},
        ],
    },
    "uncertainty": {"type": "ball", "center": [2.1], "radius": 0.1},
    "sigma": 1.0,
}


def test_two_kink_model_validates(tmp_path, capsys):
    # two kinks are solved exactly, like one: the campaign runs to its summary line
    config = write_config(tmp_path, TWO_KINKS)
    assert main(["validate", config, "--trials", "300"]) == 0
    captured = capsys.readouterr()
    assert "trials=300 " in captured.out and "falsifications=0" in captured.out
    assert captured.err == ""


def many_generator_kinks(count):
    """A 3-D bowl with two kinks of count generators each, and a ball around the origin."""
    rng = np.random.default_rng(7)
    kinks = [
        {"point": point, "generators": (2.0 * rng.standard_normal((count, 3))).tolist()}
        for point in ([0.5, 0.0, 0.0], [0.0, 0.5, 0.0])
    ]
    return {
        "known_function": {"terms": [{"Q": np.eye(3).tolist(), "m": [2.0, 0.0, 0.0]}], "kinks": kinks},
        "uncertainty": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 0.3},
        "sigma": 2.0,
    }


@pytest.mark.parametrize("count", [10, 20])
def test_validate_solves_many_generator_kinks(tmp_path, capsys, count):
    # two 20-generator kinks in 3-D would have 6195^2 = 38 378 025 generator subsets to
    # enumerate; the active-set solve visits only the supports on its path
    config = write_config(tmp_path, many_generator_kinks(count))
    assert main(["validate", config, "--trials", "200"]) == 0
    captured = capsys.readouterr()
    assert "trials=200 " in captured.out and "falsifications=0" in captured.out
    assert captured.err == ""


def test_check_witness_line(tmp_path, capsys):
    config = write_config(tmp_path, REFERENCE)
    assert main(["check", config, "1.0,0.0"]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("witness:")]
    # the tangency point (0.1, 0), up to rounding, and nothing after the generator
    assert line.startswith("witness: x_u=[0.1") and line.endswith(", g=[-2.0, 0.0]")


def test_check_sigma_override_flips_verdict(tmp_path):
    config = write_config(tmp_path, REFERENCE)
    assert main(["check", config, "1.2,0.0"]) == 1
    assert main(["check", config, "1.2,0.0", "--sigma-override", "1.0"]) == 0
    assert main(["check", config, "1.2,0.0", "--sigma-override", "-1.0"]) == 2


def test_flag_validation(tmp_path, capsys):
    config = write_config(tmp_path, REFERENCE)
    assert main(["check", config, "1.0,0.0", "--slack", "-0.1"]) == 2
    # a slack at or above the classifying sigma makes -sigma + slack >= 0, which would pass
    # (3, 0), where the gradient points away from the set
    capsys.readouterr()
    assert main(["check", config, "3.0,0.0", "--slack", "3"]) == 2
    assert capsys.readouterr() == ("", "error: --slack must be below the classifying sigma 2.0, got 3.0\n")
    out = str(tmp_path / "m.csv")
    cases = (
        (["check", config, "1.0,0.0", "--slack", "1.5", "--sigma-override", "1.5"], "--slack", 1.5, 1.5),
        (["scan", config, "-o", out, "--slack", "2.0"], "--slack", 2.0, 2.0),
        (["validate", config, "--trials", "3", "--slack", "1", "--sigma-override", "0.5"], "--slack", 0.5, 1.0),
        (["scan", write_config(tmp_path, dict(REFERENCE, slack=0.5), name="slack.json"), "-o", out,
          "--sigma-override", "0.5"], "$.slack", 0.5, 0.5),
    )
    for argv, name, sigma, slack in cases:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {name} must be below the classifying sigma {sigma}, got {slack}\n")
    assert not os.path.exists(out)
    assert main(["check", config, "1.0,0.0", "--slack", "1.9"]) == 0  # below sigma 2: accepted
    capsys.readouterr()
    # --theta-steps is not a flag: argparse rejects it
    with pytest.raises(SystemExit) as exc:
        main(["check", config, "1.0,0.0", "--theta-steps", "2048"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --theta-steps 2048" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag",
    [
        (["check", "{config}", "1.5,0.0"], "--slack"),
        (["check", "{config}", "1.5,0.0"], "--sigma-override"),
        (["scan", "{config}", "-o", "{out}"], "--slack"),
        (["scan", "{config}", "-o", "{out}"], "--sigma-override"),
        (["validate", "{config}", "--trials", "5"], "--slack"),
        (["validate", "{config}", "--trials", "5"], "--sigma-override"),
    ],
)
def test_non_finite_flags_are_usage_errors(tmp_path, capsys, command, flag, value):
    # a NaN slack made every point outside the set a non-member, an infinite one
    # made every point a member, and a NaN sigma override raised a traceback
    out = tmp_path / "mask.csv"
    argv = [a.format(config=write_config(tmp_path, REFERENCE), out=out) for a in command]
    assert main([*argv, f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    expected = ">= 0" if flag == "--slack" else "> 0"
    assert f"error: {flag} must be a finite number {expected}, got {float(value)}" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "keys, value, field",
    [
        (("sigma",), 10**400, "$.sigma"),
        (("sigma",), float("nan"), "$.sigma"),
        (("uncertainty", "center", 1), 10**400, "$.uncertainty.center[1]"),
        (("known_function", "terms", 0, "weight"), 10**400, "$.known_function.terms[0].weight"),
        (("known_function", "terms", 0, "Q"), [1.0, 0.0, 0.0, 10**400], "$.known_function.terms[0].Q[3]"),
    ],
    ids=["sigma", "nan-sigma", "center", "weight", "flat-Q"],
)
def test_config_numbers_must_be_finite(tmp_path, capsys, keys, value, field):
    # exit 1 would read as "non-member", so a number outside the float range, or
    # NaN, is a usage error that names its own field
    doc = json.loads(json.dumps(REFERENCE))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    config = write_config(tmp_path, doc)
    assert main(["check", config, "1.0,0.0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}: expected a finite number") and captured.out == ""


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (("known_function", "kinks"), None, "$.known_function.kinks: expected a list"),
        (("known_function", "kinks"), 5, "$.known_function.kinks: expected a list"),
        (("grid", "counts"), [10**400, 2], "$.grid: the point count exceeds the index range"),
        (("grid", "counts"), [2**40, 2**40], "$.grid: the point count exceeds the index range"),
    ],
    ids=["null-kinks", "int-kinks", "huge-count", "huge-product"],
)
def test_config_shape_errors_are_usage_errors(tmp_path, capsys, keys, value, message):
    # these raised a TypeError or a numpy allocation error (exit 1, read as "non-member")
    doc = json.loads(json.dumps(REFERENCE))
    doc[keys[0]][keys[1]] = value
    config = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(config)
    assert main(["check", config, "1.0,0.0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.out == ""


_REMOVED = object()
_TERM = ("known_function", "terms", 0)


def _edited(keys, value):
    """REFERENCE with the field at keys set to value, or removed when value is _REMOVED."""

    def edit(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        if value is _REMOVED:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        return doc

    return edit


@pytest.mark.parametrize(
    "edit, argv, message",
    [
        (_edited(("sigma",), _REMOVED), (), "$.sigma: missing required field"),
        (_edited(("uncertainty", "center"), 5), (), "$.uncertainty.center: expected a nonempty list of numbers"),
        (_edited((*_TERM, "Q"), 5), (),
         "$.known_function.terms[0].Q: expected a matrix as a list of rows (or a flat row-major list)"),
        (_edited((*_TERM, "Q"), [1.0, 0.0, 0.0]), (), "$.known_function.terms[0].Q: flat matrix of length 3 is not square"),
        (_edited((*_TERM, "Q"), [[1.0, 0.0], [0.0]]), (),
         "$.known_function.terms[0].Q[1]: dimension mismatch: expected 2 numbers, got 1"),
        (_edited((*_TERM, "Q"), [[1.0, 1.0], [0.0, 1.0]]), (),
         "$.known_function.terms[0]: Q must be symmetric to within 1e-12 max(1, max |Q|)"),
        (_edited((*_TERM, "Q"), [[1.0, 0.0], [0.0, -1.0]]), (),
         "$.known_function.terms[0]: Q must be positive semidefinite (eigenvalues >= -1e-10 max(1, max |Q|))"),
        (_edited(("known_function",), []), (), "$.known_function: expected an object"),
        (_edited(("known_function", "terms"), [5]), (), "$.known_function.terms[0]: expected an object with Q, m, weight"),
        (_edited(("known_function", "kinks"), [5]), (),
         "$.known_function.kinks[0]: expected an object with point and generators"),
        (_edited(("known_function", "kinks"), [{"point": [0.5, 0.0], "generators": []}]), (),
         "$.known_function.kinks[0].generators: expected a nonempty list of vectors"),
        (_edited(("known_function", "kinks"), [{"point": [0.5, 0.0, 0.0], "generators": [[1.0, 0.0]]}]), (),
         "$.known_function.kinks[0].point: dimension mismatch: expected 2 numbers, got 3"),
        (_edited(("known_function", "kinks"), [{"point": [0.5, 0.0], "generators": [[1.0, 0.0], [1.0, 0.0, 0.0]]}]), (),
         "$.known_function.kinks[0].generators[1]: dimension mismatch: expected 2 numbers, got 3"),
        (_edited(("uncertainty",), 5), (), "$.uncertainty: expected an object"),
        (_edited(("uncertainty",), {"type": "points", "points": []}), (),
         "$.uncertainty.points: expected a nonempty list of vectors"),
        (_edited(("uncertainty",), {"type": "points", "points": [[0.0, 0.0], [1.0]]}), (),
         "$.uncertainty.points[1]: dimension mismatch: expected 2 numbers, got 1"),
        (_edited(("uncertainty", "center"), [0.0, 0.0, 0.0]), (),
         "$.uncertainty.center: dimension mismatch: expected 2 numbers, got 3"),
        (_edited(("uncertainty", "type"), "hull"), (), "$.uncertainty.type: expected 'ball' or 'points', got 'hull'"),
        (_edited(("grid",), 5), (), "$.grid: expected an object with lower, upper, counts"),
        (_edited(("grid", "counts"), [1.5, 2]), (), "$.grid.counts: expected a list of integers"),
        (_edited(("grid", "counts"), [1, 5]), (), "$.grid: grid needs at least 2 samples per axis"),
        (_edited(("grid", "lower"), [3.0, -2.0]), (), "$.grid: grid needs lower < upper on every axis"),
        (_edited(("grid", "lower"), [-1.0, -2.0, 0.0]), (), "$.grid.lower: dimension mismatch: expected 2 numbers, got 3"),
        (lambda doc: [doc], (), "{config}: top level must be an object"),
        (lambda doc: doc, ("scan", "-o", "{tmp}/missing/m.csv"),
         "[Errno 2] No such file or directory: '{tmp}/missing/m.csv'"),
    ],
    ids=[
        "missing-sigma", "center-not-a-list", "Q-not-a-list", "flat-Q-not-square", "ragged-Q", "Q-not-symmetric",
        "Q-not-psd", "known-function-not-an-object", "term-not-an-object", "kink-not-an-object", "no-generators",
        "3d-kink-point", "3d-kink-generator", "uncertainty-not-an-object", "no-points", "ragged-points", "3d-center", "unknown-set-type",
        "grid-not-an-object", "float-counts", "one-count", "lower-above-upper", "3d-grid", "top-level-list",
        "scan-into-missing-directory",
    ],
)
def test_config_and_output_errors_exit_2_with_one_line(tmp_path, capsys, edit, argv, message):
    # every malformed config, and an output path that cannot be opened, exits 2 with
    # exactly one stderr line naming the field (or file) and prints nothing else
    config = write_config(tmp_path, edit(json.loads(json.dumps(REFERENCE))))
    command, *rest = argv or ("check", "1.0,0.0")
    if command == "check":
        rest = ["--", *rest]
    assert main([command, config, *(a.format(tmp=tmp_path) for a in rest)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(config=config, tmp=tmp_path)}\n"
    assert captured.out == ""


def ill_conditioned_model(weight, kinked):
    """The rank-deficient bowl weight * (x1 + x2)^2, optionally with kink2's +-3e1/+-3e2 at (0.5, 0)."""
    kinks = [{"point": [0.5, 0.0], "generators": [[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [0.0, -3.0]]}]
    return {
        "known_function": {
            "terms": [{"Q": [[1.0, 1.0], [1.0, 1.0]], "m": [0.0, 0.0], "weight": weight}],
            "kinks": kinks if kinked else [],
        },
        "uncertainty": {"type": "ball", "center": [0.5, -0.3], "radius": 0.1},
        "sigma": 2.0,
    }


@pytest.mark.parametrize("kinked", [False, True], ids=["smooth", "kinked"])
@pytest.mark.parametrize("weight", [1e6, 1e14])
def test_large_weight_on_a_rank_deficient_term_validates(tmp_path, capsys, weight, kinked):
    # these used to stop on "normal equations solved poorly": the residual test was
    # scaled by |rhs|, not by the backward error |A| |W| of the solve
    config = write_config(tmp_path, ill_conditioned_model(weight, kinked))
    trials = 2000 if kinked else 5000
    assert main(["validate", config, "--trials", str(trials), "--seed", "1", "--report", str(tmp_path / "r.json")]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith(f"trials={trials} member={trials} inside_set=0 falsifications=0\n")
    assert captured.err == ""


@pytest.mark.parametrize("kinked", [False, True], ids=["smooth", "kinked"])
def test_singular_normal_equations_name_the_trial(tmp_path, capsys, kinked):
    # sum 2wQ has eigenvalues 0 and 4w, and its eigenvectors mix both coordinates, so sigma_u
    # <= 6 is below the rounding eps (|V|^T |P| 1)_0 = 4 sqrt(2) eps w from w = 1e16 on: every
    # trial's system is singular in floats, exit 2 naming trial 0, not a report of false
    # falsifications or a traceback
    for weight in (1e16, 1e17):
        config = write_config(tmp_path, ill_conditioned_model(weight, kinked))
        assert main(["validate", config, "--trials", "2000", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}: minimizer of trial 0: normal equations are singular\n"


def test_scan_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from minregion import scanner

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(scanner, "scan_region", exhausted)
    out = tmp_path / "m.csv"
    assert main(["scan", write_config(tmp_path, REFERENCE), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: $.grid.counts: 1681 grid points do not fit in memory\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("slack", [float("nan"), float("inf"), 10**400])
def test_config_slack_must_be_finite(tmp_path, capsys, slack):
    doc = json.loads(json.dumps(REFERENCE))
    doc["slack"] = slack
    config = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=r"\$\.slack: expected a finite number >= 0"):
        load_config(config)
    assert main(["check", config, "1.5,0.0"]) == 2
    assert "error: $.slack: expected a finite number >= 0" in capsys.readouterr().err


def test_benchmark_tracer_call_forms(tmp_path):
    # bench/tracing.py replays the CLI in-process with exactly these calls, and
    # swaps scanner.build_grid and membership.subdifferential for recording wrappers
    from minregion import membership, scanner

    assert callable(scanner.build_grid) and callable(membership.subdifferential)
    cfg = load_config(write_config(tmp_path, REFERENCE))
    assert cfg.theta_steps is None
    f, sigma = cfg.known_function, float(cfg.raw["sigma"])
    uset = membership.UncertaintySet(region=cfg.uncertainty.region, sigma=sigma)
    verdict = membership.classify_point(f, np.array([1.0, 0.0]), uset, cfg.theta_steps, slack=cfg.slack)
    assert verdict.member and not verdict.interior
    mask = scanner.scan_region(f, cfg.uncertainty, cfg.grid, cfg.theta_steps, slack=cfg.slack)
    scanner.write_mask_pgm(mask, str(tmp_path / "mask.pgm"))
    scanner.write_mask_csv(mask, str(tmp_path / "mask.csv"))
    assert np.array_equal(scanner.read_mask_csv(str(tmp_path / "mask.csv")).membership, mask.membership)
    report = oracle.validate_necessity(f, uset, sigma, 50, 3, cfg.theta_steps, slack=cfg.slack).to_dict()
    got = dict(member=0, inside_set=0, falsifications=0)
    for s in np.random.SeedSequence(3).generate_state(50, dtype=np.uint64):
        u = oracle.sample_unknown(uset, sigma, int(s))
        x = oracle.minimize_sum_iterative(f, u)
        assert np.array_equal(x, oracle.minimize_sum(f, u))
        v = membership.classify_point(f, x, uset, cfg.theta_steps, slack=cfg.slack)
        got["inside_set" if v.interior else "member" if v.member else "falsifications"] += 1
    assert {key: report[key] for key in got} == got


def test_validate_negative_seed_is_a_usage_error(tmp_path, capsys):
    # exit 1 means falsifications were found, so a bad seed must not exit 1
    config = write_config(tmp_path, REFERENCE)
    assert main(["validate", config, "--trials", "5", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -1\n" and captured.out == ""
    assert main(["validate", config, "--trials", "5", "--seed", "0"]) == 0


def test_validate_rejects_a_sigma_whose_draws_overflow(tmp_path, capsys):
    # sigma * 3.0 overflows: validate names $.sigma without a warning, where it used to
    # warn twice and blame trial 2; check never scales sigma and still answers
    doc = dict(REFERENCE, sigma=1e308)
    config = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["validate", config, "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: $.sigma: the largest draw sigma * 3.0 overflows for sigma 1e+308\n"
    assert captured.out == ""
    assert main(["check", config, "1,0"]) == 1
    assert "member: no\n" in capsys.readouterr().out


# both region types name their reach max |p| + r: a ball's one point is its centre, a finite set's r is 0
HUGE_SETS = pytest.mark.parametrize(
    "uncertainty",
    [
        {"type": "ball", "center": [1e308, 0.0], "radius": 1e308},
        {"type": "points", "points": [[0.0, 0.0], [0.0, -1e308]]},
    ],
    ids=["ball", "points"],
)


@HUGE_SETS
def test_validate_rejects_a_set_whose_draws_overflow(tmp_path, capsys, uncertainty):
    # sigma * 3.0 times the set's reach overflows: validate names $.uncertainty, where the
    # ball used to be reported as "minimizer of trial 0: coordinates are not finite"
    config = write_config(tmp_path, dict(REFERENCE, uncertainty=uncertainty))
    assert main(["validate", config, "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: $.uncertainty: sigma * 3.0 * (max |p| + r) overflows for sigma 2.0\n"
    assert captured.out == ""


@HUGE_SETS
def test_check_and_scan_name_a_set_that_cannot_be_scored(tmp_path, capsys, uncertainty):
    # n * reach^2 overflows, so the kernel's squared distances to the set do: the set is
    # named, where check blamed the query point and scan the first grid point
    config = write_config(tmp_path, dict(REFERENCE, uncertainty=uncertainty))
    expected = "error: $.uncertainty: 2 * (max |p| + r)^2 overflows, so no point can be scored\n"
    assert main(["check", config, "1,0"]) == 2
    assert capsys.readouterr() == ("", expected)
    assert main(["scan", config, "-o", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr() == ("", expected)
    assert not (tmp_path / "m.csv").exists()


def test_a_huge_query_point_is_still_named(tmp_path, capsys):
    # the reference set scores every finite distance, so an overflow is the point's
    config = write_config(tmp_path, REFERENCE)
    assert main(["check", config, "--", "1e200,0"]) == 2
    assert capsys.readouterr() == ("", "error: point '1e200,0': score overflows\n")


def test_bench_and_reference_configs_still_validate(tmp_path, capsys, monkeypatch):
    # the reach check must refuse none of the benchmark's configs nor configs/reference.json
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "bench"))
    import workloads

    configs = [os.path.join(root, "configs", "reference.json")]
    for seed in (1, 2, 3):
        for name, doc in workloads.make_configs(seed).items():
            configs.append(write_config(tmp_path, doc, name=f"{name}-{seed}.json"))
    for config in configs:
        assert main(["validate", config, "--trials", "3", "--seed", "1"]) == 0, config
        assert capsys.readouterr().err == ""


def test_scan_csv_output(tmp_path, capsys):
    config = write_config(tmp_path, REFERENCE)
    out = tmp_path / "mask.csv"
    assert main(["scan", config, "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "41x41" in stdout and "candidate minimizers" in stdout
    mask = read_mask_csv(str(out))
    assert mask.grid.counts == (41, 41)
    assert mask.member_count > 0


def test_scan_requires_grid(tmp_path):
    doc = json.loads(json.dumps(REFERENCE))
    del doc["grid"]
    config = write_config(tmp_path, doc)
    assert main(["scan", config, "-o", str(tmp_path / "m.csv")]) == 2


def test_scan_byte_identical_reruns(tmp_path):
    config = write_config(tmp_path, REFERENCE)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", config, "-o", str(a)]) == 0
    assert main(["scan", config, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_pgm_output(tmp_path):
    config = write_config(tmp_path, REFERENCE)
    out = tmp_path / "mask.pgm"
    assert main(["scan", config, "-o", str(out), "--format", "pgm"]) == 0
    data = out.read_bytes()
    assert data.startswith(b"P5\n41 41\n255\n")
    assert len(data) == len(b"P5\n41 41\n255\n") + 41 * 41
    assert set(data[len(b"P5\n41 41\n255\n"):]) <= {0, 255}


def test_scan_pgm_rejects_non_2d(tmp_path):
    doc = {
        "known_function": {"terms": [{"Q": np.eye(3).tolist(), "m": [1.0, 0.0, 0.0]}]},
        "uncertainty": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 0.2},
        "sigma": 1.0,
        "grid": {"lower": [-1.0] * 3, "upper": [1.0] * 3, "counts": [5, 5, 5]},
    }
    config = write_config(tmp_path, doc)
    assert main(["scan", config, "-o", str(tmp_path / "m.pgm"), "--format", "pgm"]) == 2
    assert main(["scan", config, "-o", str(tmp_path / "m.csv")]) == 0


def test_scan_finite_set_config(tmp_path):
    doc = json.loads(json.dumps(REFERENCE))
    doc["uncertainty"] = {"type": "points", "points": [[0.0, 0.0], [0.5, 0.0]]}
    config = write_config(tmp_path, doc)
    out = tmp_path / "mask.csv"
    assert main(["scan", config, "-o", str(out)]) == 0
    assert read_mask_csv(str(out)).point_count == 2


def test_validate_exit_codes(tmp_path, capsys):
    config = write_config(tmp_path, REFERENCE)
    assert main(["validate", config, "--trials", "50", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "falsifications=0" in out
    assert main(["validate", config, "--trials", "50", "--seed", "3", "--sigma-override", "50.0"]) == 1
    assert main(["validate", config, "--trials", "0"]) == 2


def test_validate_report_deterministic(tmp_path):
    config = write_config(tmp_path, REFERENCE)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["validate", config, "--trials", "40", "--seed", "5", "--report", str(a)]) == 0
    assert main(["validate", config, "--trials", "40", "--seed", "5", "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["trials"] == 40 and doc["falsifications"] == 0
    assert doc["config"]["sigma"] == 2.0


def test_cli_mask_nesting_across_parameters(tmp_path):
    base = json.loads(json.dumps(REFERENCE))
    paths = {}
    for sigma in (0.25, 2.0, 5.0):
        doc = json.loads(json.dumps(base))
        doc["sigma"] = sigma
        config = write_config(tmp_path, doc, name=f"s{sigma}.json")
        out = tmp_path / f"mask_s{sigma}.csv"
        assert main(["scan", config, "-o", str(out)]) == 0
        paths[sigma] = read_mask_csv(str(out))
    assert mask_subset(paths[5.0], paths[2.0])
    assert mask_subset(paths[2.0], paths[0.25])


def run_child(argv, cwd=None):
    # the child imports the package under test, installed or not
    package_root = os.path.dirname(os.path.dirname(minregion.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_module_entry_point(tmp_path):
    config = write_config(tmp_path, REFERENCE)
    proc = run_child(["-m", "minregion", "check", config, "1.0,0.0"])
    assert proc.returncode == 0
    assert "member: yes" in proc.stdout


@pytest.mark.parametrize(
    "args, code",
    [
        (["check", "{config}", "1.0,0.0"], 0),
        (["check", "{config}", "1.2,0.0"], 1),
        (["check", "{config}", "nan,0"], 2),
        (["check", "{config}"], 2),  # argparse usage error
        (["scan", "{config}", "-o", "mask.pgm", "--format", "pgm"], 0),
        (["validate", "{config}", "--trials", "30", "--sigma-override", "50.0"], 1),
        (["scan", "{config}", "-o", "mask.csv"], 0),
        (["validate", "{config}", "--trials", "30", "--report", "report.json"], 0),
    ],
)
def test_module_entry_point_matches_main(tmp_path, capsys, monkeypatch, args, code):
    # python -m minregion goes through run(); it must exit, print and write files exactly as main() does
    config = write_config(tmp_path, REFERENCE)
    argv = [a.format(config=config) for a in args]
    monkeypatch.chdir(tmp_path)
    try:
        in_process = main(argv)
    except SystemExit as exc:
        in_process = exc.code
    captured = capsys.readouterr()
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir() if str(p) != config}
    for name in written:
        (tmp_path / name).unlink()
    proc = run_child(["-m", "minregion", *argv], cwd=tmp_path)
    assert in_process == proc.returncode == code
    elapsed = re.compile(r" in \d+\.\d\ds:")  # scan reports its own wall time
    assert elapsed.sub("", proc.stdout) == elapsed.sub("", captured.out)
    assert proc.stderr == captured.err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if str(p) != config} == written


@pytest.mark.parametrize(
    "args, absent",
    [
        (["check", "{config}", "1.0,0.0"], ["minregion.scanner", "minregion.oracle", "numpy.random"]),
        (["scan", "{config}", "-o", "mask.csv"], ["minregion.oracle"]),
        (["validate", "{config}", "--trials", "5"], ["minregion.scanner", "numpy.random"]),
    ],
)
def test_subcommands_import_only_what_they_run(tmp_path, args, absent):
    argv = [a.format(config=write_config(tmp_path, REFERENCE)) for a in args]
    script = (
        "import json, sys\n"
        "from minregion.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = run_child(["-c", script], cwd=tmp_path)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert "minregion.membership" in modules
    assert [name for name in absent if name in modules] == []


def test_run_freezes_the_import_heap(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, REFERENCE)
    monkeypatch.setattr(sys, "argv", ["minregion", "check", config, "1.0,0.0"])
    try:
        assert run() == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert "member: yes" in capsys.readouterr().out


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as readme:
    README_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", readme.read(), re.M | re.S)


def test_readme_check_transcripts_are_the_output(capsys, monkeypatch):
    # each "$ minregion check ..." line of the README is followed by the exact stdout or stderr
    monkeypatch.chdir(ROOT)
    runs = []
    for _, body in README_BLOCKS:
        for transcript in re.split(r"^\$ ", body, flags=re.M)[1:]:
            command, *lines = transcript.splitlines()
            if not command.startswith("minregion check "):
                continue
            argv = command.split()[1:]
            runs.append((argv[-1], main(argv)))
            captured = capsys.readouterr()
            assert captured.out + captured.err == "".join(line + "\n" for line in lines)
    assert runs == [("1.0,0.0", 0), ("3.0,0.0", 1), ("1e308,1e308", 2)]


def test_readme_library_usage_prints_what_it_says(capsys):
    code = next(body for lang, body in README_BLOCKS if lang == "python")
    expected = [line.partition("# ")[2] for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["True -2.2222222222222223", "10460", "True 0"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
