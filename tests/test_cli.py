"""End-to-end CLI behaviour: artifacts, determinism and exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rabictl
from rabictl import calibrate, model
from rabictl.cli import (
    _HANDLERS, OUTDIR_ENV, _config_schema, _OrNull, build_parser, main, resolve_config,
)
from rabictl.errors import ConfigError, IntegrationBlowupError
from rabictl.model import StateVec
from rabictl.params import PARAM_NAMES, TABLE2_ESTIMATED


def run(tmp_path, label, *args):
    """Invoke the CLI with its own output root; return (exit code, artifact dir)."""
    outdir = tmp_path / label
    outdir.mkdir()
    code = main(["--outdir", str(outdir), *args])
    made = sorted(outdir.iterdir())
    return code, (made[0] if made else None)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_simulate_dfe_constant_columns(tmp_path):
    zeros = json.dumps({"E_F": 0, "I_F": 0, "E_D": 0, "I_D": 0, "M": 0})
    code, out = run(
        tmp_path, "a", "--set", f"initial_state={zeros}",
        "--set", "grid.tf=5", "--set", "grid.n_steps=100", "simulate",
    )
    assert code == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert header[0] == "t"
    for j in range(1, 13):
        col = [float(r[j]) for r in rows]
        assert max(col) - min(col) < 1e-9
    assert (out / "config.json").exists()


def test_simulate_seeded_epidemic_reaches_humans(tmp_path):
    code, out = run(tmp_path, "a", "--set", "grid.tf=10", "--set", "grid.n_steps=500", "simulate")
    assert code == 0
    header, rows = read_csv(out / "trajectory.csv")
    i_h = header.index("I_H")
    assert float(rows[0][i_h]) == 0.0
    assert float(rows[-1][i_h]) > 1.0


def test_simulate_deterministic_artifacts(tmp_path):
    args = ("--set", "grid.tf=2", "--set", "grid.n_steps=100", "simulate")
    _, out1 = run(tmp_path, "a", *args)
    _, out2 = run(tmp_path, "b", *args)
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "config.json").read_bytes() == (out2 / "config.json").read_bytes()


def test_reff_point_mode_prints_breakdown(tmp_path, capsys):
    code, out = run(tmp_path, "a", "reff")
    assert code == 0
    got = capsys.readouterr().out
    for name in ("R21", "R23", "R31", "R33", "a3", "Re"):
        assert f"{name} = " in got
    report = json.loads((out / "reff.json").read_text())
    assert report["Re"] == pytest.approx(2.2821456547, rel=1e-9)


def test_reff_degenerate_grid_matches_point(tmp_path):
    axis = json.dumps({"name": "u2", "lo": 0.4, "hi": 0.4, "n": 1})
    axis2 = json.dumps({"name": "u4", "lo": 0.1, "hi": 0.1, "n": 1})
    code, out = run(tmp_path, "a", "--set", f"reff.axis1={axis}", "--set", f"reff.axis2={axis2}", "reff")
    assert code == 0
    header, rows = read_csv(out / "reff_grid.csv")
    assert header == ["axis1", "axis2", "Re"]
    assert len(rows) == 1

    code2, out2 = run(tmp_path, "b", "--set", 'controls={"u2": 0.4, "u4": 0.1}', "reff")
    point = json.loads((out2 / "reff.json").read_text())["Re"]
    assert float(rows[0][2]) == point


def test_reff_grid_monotone(tmp_path):
    axis1 = json.dumps({"name": "u2", "lo": 0.0, "hi": 1.0, "n": 5})
    axis2 = json.dumps({"name": "u4", "lo": 0.0, "hi": 1.0, "n": 5})
    code, out = run(tmp_path, "a", "--set", f"reff.axis1={axis1}", "--set", f"reff.axis2={axis2}", "reff")
    assert code == 0
    _, rows = read_csv(out / "reff_grid.csv")
    values = {}
    for a, b, re_val in rows:
        values[(float(a), float(b))] = float(re_val)
    u = [0.0, 0.25, 0.5, 0.75, 1.0]
    for i in range(4):
        for j in range(5):
            assert values[(u[i + 1], u[j])] <= values[(u[i], u[j])] + 1e-14
            assert values[(u[j], u[i + 1])] <= values[(u[j], u[i])] + 1e-14


@pytest.mark.parametrize("axis1, message", [
    ({"name": "bogus", "lo": 0, "hi": 1, "n": 3}, "unknown axis name 'bogus'"),
    ({"name": "u1", "lo": 0, "hi": 1, "n": 0}, "at most 1000, got 0"),
    ({"name": "u1", "lo": 0, "hi": 2, "n": 3}, "control u1 must lie in [0, 1], got 2.0"),
    (None, "reff.axis1 is not set"),
    ({"name": "psi1", "lo": -1e-5, "hi": 1e-4, "n": 5},
     "parameter 'psi1' must be strictly positive and finite, got -1e-05"),
    ({"name": "mu1", "lo": 0.01, "hi": 3000, "n": 4}, "recruitment theta1 must exceed mortality mu1"),
], ids=["unknown-name", "no-points", "control-above-one", "lone-axis2", "parameter-below-zero",
        "mortality-above-recruitment"])
def test_reff_config_error_leaves_no_run_directory(tmp_path, capsys, axis1, message):
    axis2 = json.dumps({"name": "u2", "lo": 0, "hi": 1, "n": 3})
    code, out = run(tmp_path, "a", "--set", f"reff.axis1={json.dumps(axis1)}",
                    "--set", f"reff.axis2={axis2}", "reff")
    assert code == 2
    assert out is None
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert message in err


def test_reff_parameter_axis_grid(tmp_path):
    axis1 = json.dumps({"name": "psi1", "lo": 4e-5, "hi": 1.6e-4, "n": 3})
    axis2 = json.dumps({"name": "psi2", "lo": 4e-5, "hi": 1.6e-4, "n": 3})
    code, out = run(tmp_path, "a", "--set", f"reff.axis1={axis1}", "--set", f"reff.axis2={axis2}",
                    "--set", "parameters.tau1=0.0005", "reff")
    assert code == 0
    # a partial parameters block overrides its keys and keeps every other preset value
    base = json.loads((out / "reff_grid.meta.json").read_text())["base_parameters"]
    assert base == {**TABLE2_ESTIMATED.as_dict(), "tau1": 0.0005}
    _, rows = read_csv(out / "reff_grid.csv")
    values = [float(r[2]) for r in rows]  # row-major over a 3x3 grid
    for i in range(3):
        row = values[3 * i: 3 * i + 3]
        assert row == sorted(row)  # non-decreasing along psi2
    for j in range(3):
        col = values[j::3]
        assert col == sorted(col)  # non-decreasing along psi1


def test_optimize_strategy_c_only_treatment(tmp_path):
    code, out = run(
        tmp_path, "a", "--set", "grid.n_steps=400", "optimize", "--strategy", "C",
    )
    assert code == 0
    header, rows = read_csv(out / "controls.csv")
    assert header == ["t", "u1", "u2", "u3", "u4"]
    for r in rows:
        assert float(r[1]) == 0.0 and float(r[2]) == 0.0 and float(r[3]) == 0.0
    assert max(float(r[4]) for r in rows) > 0.5
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["mask"] == [False, False, False, True]
    assert (out / "states.csv").exists() and (out / "adjoints.csv").exists()


def test_optimize_zero_mask_equals_simulate(tmp_path):
    args = ("--set", "grid.tf=5", "--set", "grid.n_steps=200")
    code1, out1 = run(tmp_path, "a", *args, "optimize", "--mask", "0000")
    code2, out2 = run(tmp_path, "b", *args, "simulate")
    assert code1 == 0 and code2 == 0
    assert (out1 / "states.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_optimize_rejects_bad_strategy(tmp_path):
    code, _ = run(tmp_path, "a", "optimize", "--strategy", "Z")
    assert code == 2
    code, _ = run(tmp_path, "b", "optimize", "--mask", "10")
    assert code == 2


def test_optimize_rejects_strategy_with_mask(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--outdir", str(tmp_path), "optimize", "--strategy", "A", "--mask", "0000"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_prcc_seeded_runs_identical(tmp_path):
    args = (
        "--set", "sensitivity.N=40",
        "--set", "sensitivity.grid.tf=5", "--set", "sensitivity.grid.n_steps=100",
        "--set", "sensitivity.sample_times=[5.0]",
        "--set", 'sensitivity.outputs=["I_H"]',
        "prcc",
    )
    # --jobs is still accepted and changes nothing
    code1, out1 = run(tmp_path, "a", "--jobs", "1", *args)
    code2, out2 = run(tmp_path, "b", "--jobs", "3", *args)
    assert code1 == 0 and code2 == 0
    assert (out1 / "prcc_I_H.csv").read_bytes() == (out2 / "prcc_I_H.csv").read_bytes()
    header = (out1 / "prcc_I_H.csv").read_text().splitlines()[0]
    assert header == "time,param,prcc"


def test_prcc_sample_size_validation(tmp_path, capsys):
    code, out = run(tmp_path, "a", "--set", "sensitivity.N=20", "prcc")
    assert code == 2
    assert out is None
    assert "PRCC needs N > P + 2 samples, got N=20, P=33" in capsys.readouterr().err


def test_fit_missing_data_file_is_io_error(tmp_path, capsys):
    code, _ = run(tmp_path, "a", "fit", "--data", str(tmp_path / "nope.csv"))
    assert code == 4
    assert "io error" in capsys.readouterr().err


def test_fit_round_trip_and_config_echo(tmp_path, p_est):
    from rabictl.calibrate import predict_incidence
    from rabictl.model import seeded_state

    y0 = seeded_state(p_est, 20.0, 50.0)
    years = tuple(range(1990, 2006))
    pred = predict_incidence(p_est, y0, years)
    data_path = tmp_path / "synthetic.csv"
    with open(data_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "cases"])
        for y, c in zip(years, pred):
            writer.writerow([y, repr(float(max(0.0, c)))])

    code, out = run(
        tmp_path, "a",
        "--set", 'fit.free=["theta1"]',
        "--set", f'fit.x0={{"theta1": {p_est.theta1 * 1.5}}}',
        "--set", "fit.max_evals=250",
        "fit", "--data", str(data_path),
    )
    assert code == 0
    fit_report = json.loads((out / "fit.json").read_text())
    assert abs(fit_report["estimates"]["theta1"] - p_est.theta1) / p_est.theta1 < 0.05
    assert fit_report["config"]["fit"]["free"] == ["theta1"]  # resolved config echoed
    header, rows = read_csv(out / "fit.csv")
    assert header == ["year", "observed", "predicted"]
    assert len(rows) == len(years)


def test_bad_parameter_override_is_config_error(tmp_path, capsys):
    code, _ = run(tmp_path, "a", "--set", "parameters.theta9=5", "simulate")
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_file_and_set_precedence(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"grid": {"tf": 5.0, "n_steps": 100}}))
    outdir = tmp_path / "x"
    outdir.mkdir()
    code = main(["--config", str(config), "--outdir", str(outdir),
                 "--set", "grid.n_steps=50", "simulate"])
    assert code == 0
    out = sorted(outdir.iterdir())[0]
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["grid"]["tf"] == 5.0
    assert echoed["grid"]["n_steps"] == 50


def test_malformed_config_file_is_config_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"grid": {"tf": 5.0,')
    code = main(["--config", str(config), "--outdir", str(tmp_path), "simulate"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", ["initial_state.E_H=nan", "parameters.tau1=Infinity"])
def test_non_finite_input_is_config_error(tmp_path, capsys, assignment):
    code, out = run(tmp_path, "a", "--set", assignment, "--set", "grid.n_steps=10", "simulate")
    assert code == 2
    assert out is None
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("assignment, command", [
    ("grid.n_steps=abc", "simulate"),
    ("grid={}", "simulate"),
    ("grid.n_steps=1e300", "simulate"),
    ("sweep.omega=abc", "optimize"),
    ("sensitivity.N=abc", "prcc"),
    ("sensitivity.grid={}", "prcc"),
    ("sensitivity.seed_exposed=-5", "prcc"),
    ("sensitivity.M0=NaN", "prcc"),
    ("sensitivity.outputs=[]", "prcc"),
    ("sensitivity.sample_times=[]", "prcc"),
    ("fit.dt=0", "fit"),
    ("fit.dt=NaN", "fit"),
    ("fit.max_evals=-1", "fit"),
    ("fit.dt=1e-300", "fit"),
    ("sweep.tol=Infinity", "optimize"),
    ("sweep.tol=1e300", "optimize"),
    ('sweep={"omega":0.3}', "optimize"),
    ("sweep=null", "optimize"),
    ('sensitivity.distribution="weibull"', "prcc"),
    ("fit.data=1e300", "fit"),
    ("fit.tol=Infinity", "fit"),
    ("grid.nsteps=50", "simulate"),
    ("gird.n_steps=50", "simulate"),
    ("sweep.tolerance=1e-3", "optimize"),
    ("fit.maxevals=5", "fit"),
    ("sensitivity.grid.nsteps=20", "prcc"),
    ("grid.n_steps=100.7", "simulate"),
    ("grid.n_steps=true", "simulate"),
    ("sensitivity.N=60.9", "prcc"),
    ("sensitivity.seed=-0.5", "prcc"),
    ("sweep.max_iter=1.5", "optimize"),
    ("fit.max_evals=3.9", "fit"),
])
def test_bad_config_value_is_config_error(tmp_path, capsys, assignment, command):
    code, out = run(tmp_path, "a", "--set", "sensitivity.N=40", "--set", assignment, command)
    assert code == 2
    assert out is None
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--set", "grid.nsteps=50", "simulate"), "unknown config key 'grid.nsteps'"),
    (("--set", "gird.n_steps=50", "simulate"), "unknown config key 'gird'"),
    (("--set", "grid.n_steps=100.7", "simulate"), "grid.n_steps must be an integer, got 100.7"),
    (("--set", "grid.n_steps=true", "simulate"), "grid.n_steps must be an integer, got True"),
    (("--set", "sensitivity.grid.n_steps=2.5", "prcc"),
     "sensitivity.grid.n_steps must be an integer, got 2.5"),
    (("--set", 'reff.axis1={"name":"u1","lo":0,"hi":1,"n":2.9}',
      "--set", 'reff.axis2={"name":"u2","lo":0,"hi":1,"n":2}', "reff"),
     "reff.axis1.n must be an integer, got 2.9"),
    # a reff axis holds only name, lo, hi and n; initial_state only state names, whatever runs
    (("--set", 'reff.axis1={"name":"u1","lo":0,"hi":1,"n":3,"steps":50}',
      "--set", 'reff.axis2={"name":"u2","lo":0,"hi":1,"n":2}', "reff"),
     "unknown config key 'reff.axis1.steps'"),
    (("--set", "initial_state.SH=5", "reff"), "unknown config key 'initial_state.SH'"),
    (("--set", "initial_state.SH=5", "--set", "fit.max_evals=5", "fit"),
     "unknown config key 'initial_state.SH'"),
    (("--set", "initial_state.SH=5", "simulate"), "unknown config key 'initial_state.SH'"),
    # a block replaced whole must give every key
    (("--set", 'grid={"t0":0}', "reff"), "grid.tf must be set"),
    # an integer too large for a double is out of range, and its digits are cut short
    (("--set", f"grid.tf={10 ** 400}", "simulate"),
     "grid.tf must be a finite number, got 10000000000000000000...00000000000000000000 "
     "(401 characters)"),
    # simulate's controls are checked once, by the constant control path it integrates
    (("--set", "controls.u2=1.5", "simulate"), "control u2 must lie in [0, 1], got 1.5"),
    (("--set", "controls.u2=-0.1", "simulate"), "control u2 must lie in [0, 1], got -0.1"),
    (("--set", 'controls={"u1":2,"u2":3}', "simulate"), "control u1 must lie in [0, 1], got 2.0"),
], ids=["unknown-key", "unknown-block", "fraction", "bool", "nested-grid", "reff-axis",
        "reff-axis-key", "state-key-reff", "state-key-fit", "state-key-simulate", "missing-key",
        "huge-integer", "control-above-one-simulate", "control-below-zero-simulate",
        "controls-block-simulate"])
def test_config_error_names_the_key(tmp_path, capsys, argv, message):
    code, out = run(tmp_path, "a", *argv)
    assert code == 2
    assert out is None
    err = capsys.readouterr().err
    assert f"configuration error: {message}" in err
    assert len(err) < 120


def schema_leaves(shape, path=()):
    """(dotted path, leaf shape, whether the leaf may be null) for every leaf of ``shape``."""
    inner = shape.shape if isinstance(shape, _OrNull) else shape
    if isinstance(inner, dict):
        for name, sub in inner.items():
            yield from schema_leaves(sub, (*path, name))
    else:
        yield path, inner, isinstance(shape, _OrNull)


def valid_value(shape):
    if isinstance(shape, _OrNull):
        return None
    if type(shape) is dict:  # a block read key by key: every key
        return {name: valid_value(sub) for name, sub in shape.items()}
    if isinstance(shape, dict):  # an override map
        return {}
    return {float: 1.0, int: 1, str: "x", list: [], tuple: [1.0, 2.0]}[type(shape)]


def with_leaf(shape, path, value):
    """A valid value of ``shape`` that holds ``value`` at ``path``."""
    if not path:
        return value
    inner = shape.shape if isinstance(shape, _OrNull) else shape
    return {**valid_value(inner), path[0]: with_leaf(inner[path[0]], path[1:], value)}


def test_every_schema_key_rejects_a_value_of_the_wrong_kind(tmp_path, capsys):
    schema = _config_schema()
    leaves = list(schema_leaves(schema))
    keys = {".".join(path) for path, _, _ in leaves}
    assert {"parameters.tau1", "initial_state.S_H", "controls.u4", "weights.A1", "reff.axis2.n",
            "sensitivity.grid.n_steps", "fit.x0.theta1", "fit.bounds.theta1", "output_dir"} <= keys
    outdir = tmp_path / "out"
    outdir.mkdir()
    for path, shape, nullable in leaves:
        key = ".".join(path)
        # a list is of the wrong kind for a list only through its item
        wrong = [v for v in (True, "text", [True], {"key": 1.0}, 2.5)
                 if type(v) is not type(shape) or type(v) is list]
        for value in wrong + ([] if nullable else [None]):
            block = json.dumps(with_leaf(schema[path[0]], path[1:], value))
            code = main(["--outdir", str(outdir), "--set", f"{path[0]}={block}", "reff"])
            err = capsys.readouterr().err
            assert code == 2, (key, value)
            assert list(outdir.iterdir()) == [], (key, value)
            assert "Traceback" not in err
            assert any(line.startswith("configuration error:") and key in line
                       for line in err.splitlines()), (key, value, err)


@pytest.mark.parametrize("block", ["parameters", "controls", "weights"])
def test_null_override_map_overrides_nothing(tmp_path, block):
    code, out = run(tmp_path, "a", "--set", f"{block}=null", "reff")
    assert code == 0
    assert json.loads((out / "reff.json").read_text())["Re"] == pytest.approx(2.2821456547, rel=1e-9)


@pytest.mark.parametrize("assignment, command, message", [
    ("weights.A1=true", "optimize", "weights.A1 must be a number, got True"),
    ('controls.u1="0.5"', "reff", "controls.u1 must be a number, got '0.5'"),
    ("initial_state.S_H=true", "simulate", "initial_state.S_H must be a number, got True"),
    ('fit.tol="1e-3"', "fit", "fit.tol must be a number, got '1e-3'"),
    ("parameters.tau1=false", "simulate", "parameters.tau1 must be a number, got False"),
    ("grid.tf=true", "simulate", "grid.tf must be a number, got True"),
    ('sweep.omega="0.5"', "optimize", "sweep.omega must be a number, got '0.5'"),
    ('sensitivity.sample_times=[2, "4"]', "prcc",
     "sensitivity.sample_times must be a number, got '4'"),
    ('fit.x0={"theta1":true,"tau1":0.0004,"beta1":0.17}', "fit",
     "fit.x0.theta1 must be a number, got True"),
    ('reff.axis1={"name":"u1","lo":false,"hi":1,"n":2}', "reff",
     "reff.axis1.lo must be a number, got False"),
], ids=["weight-bool", "control-string", "state-bool", "fit-tol-string", "parameter-bool",
        "grid-bool", "sweep-string", "sample-time-string", "fit-x0-bool", "reff-axis-bool"])
def test_non_number_float_value_is_config_error(tmp_path, capsys, assignment, command, message):
    # a bool or a JSON string used to pass float() and be echoed in config.json as given
    code, out = run(tmp_path, "a", "--set", assignment,
                    "--set", 'reff.axis2={"name":"u2","lo":0,"hi":1,"n":2}', command)
    assert code == 2
    assert out is None
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_unknown_config_file_key_is_config_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"sweep": {"tolerance": 1e-3}}))
    code, out = run(tmp_path, "a", "--config", str(config), "reff")
    assert code == 2
    assert out is None
    assert "unknown config key 'sweep.tolerance'" in capsys.readouterr().err


def test_integral_float_config_value_is_accepted(tmp_path):
    code, out = run(tmp_path, "a", "--set", "grid.n_steps=20.0", "simulate")
    assert code == 0
    assert len(read_csv(out / "trajectory.csv")[1]) == 21


@pytest.mark.parametrize("text", [
    "year,cases\n1990,5\n1991,abc\n",
    "year,cases\n1990,5\n1991\n",
    "",
    "year,cases\n1990,5\n1991,nan\n",
], ids=["non-number", "short-row", "empty-file", "nan-count"])
def test_bad_data_file_is_config_error(tmp_path, capsys, text):
    data = tmp_path / "cases.csv"
    data.write_text(text)
    code, out = run(tmp_path, "a", "fit", "--data", str(data))
    assert code == 2
    assert out is None
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("assignment, name", [
    ("weights.K1=nan", "K1"), ("weights.K6=Infinity", "K6"), ("weights.A3=Infinity", "A3"),
])
def test_non_finite_weight_is_config_error(tmp_path, capsys, assignment, name):
    code, out = run(tmp_path, "a", "--set", assignment, "--set", "grid.n_steps=100", "optimize")
    assert code == 2
    assert out is None
    err = capsys.readouterr().err
    assert "configuration error" in err and name in err


FUZZ_KEYS = (
    *(f"weights.{k}" for k in ("K1", "K2", "K3", "K4", "K5", "K6", "A1", "A2", "A3", "A4")),
    "sweep.omega", "sweep.tol", "sweep.max_iter",
    *(f"controls.u{i}" for i in range(1, 5)),
    "grid.n_steps",
)
FUZZ_VALUES = (math.nan, math.inf, -1, 0, 1e300, "abc", [], {}, True, "1")
NON_FINITE = re.compile("nan|inf", re.IGNORECASE)


def reject_constant(token):
    raise AssertionError(f"non-finite number {token} in a JSON artifact")


def check_run(code, made, codes):
    """``code`` is one of ``codes``, a success left one run directory in ``made`` and a failure
    none, and no CSV or JSON artifact holds a non-finite number."""
    assert code in codes
    assert len(made) == (1 if code == 0 else 0)
    for artifact in made[0].iterdir() if made else []:
        if artifact.suffix == ".json":  # a key such as seed_infected would match NON_FINITE
            json.loads(artifact.read_text(), parse_constant=reject_constant)
        else:
            assert not NON_FINITE.search(artifact.read_text()), artifact.name


def fuzz_run(tmp_path_factory, *argv, codes=(0, 2, 3)):
    """Run the CLI once under its own --outdir, check the run as ``check_run`` does, and
    check that a failed run printed nothing on stdout."""
    outdir = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(["--outdir", str(outdir), *argv])
    check_run(code, list(outdir.iterdir()), codes)
    assert code == 0 or stdout.getvalue() == ""


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES))
@example(key="grid.n_steps", value=math.inf)  # int(inf) raised OverflowError past main
@example(key="grid.n_steps", value=1e300)  # a 1e300-step grid was built node by node
@example(key="sweep.max_iter", value=-1)  # ran no sweep iteration and exited 0
def test_set_fuzz_ends_in_documented_exit_code(tmp_path_factory, key, value):
    fuzz_run(tmp_path_factory, "--set", "grid.n_steps=20", "--set", f"{key}={json.dumps(value)}",
             "optimize")


PRCC_FUZZ_KEYS = tuple(f"sensitivity.{k}" for k in (
    "N", "seed", "rel_range", "distribution", "preset", "seed_exposed", "seed_infected", "M0",
    "outputs", "sample_times", "grid", "grid.t0", "grid.tf", "grid.n_steps"))


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(PRCC_FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES))
@example(key="sensitivity.N", value=1e300)  # LHS of 10^300 rows raised ValueError past main
@example(key="sensitivity.seed", value=-1)  # default_rng(-1) raised ValueError past main
@example(key="sensitivity.rel_range", value=math.inf)  # infinite bounds sampled NaN with a warning
def test_prcc_set_fuzz_ends_in_documented_exit_code(tmp_path_factory, key, value):
    fuzz_run(tmp_path_factory, "--set", "sensitivity.N=40", "--set", "sensitivity.grid.n_steps=20",
             "--set", f"{key}={json.dumps(value)}", "prcc")


FIT_FUZZ_KEYS = tuple(f"fit.{k}" for k in (
    "data", "free", "bounds", "x0", "dt", "max_evals", "tol", "seed_exposed", "seed_infected"))


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(FIT_FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES))
@example(key="fit.data", value=1e300)  # open(1e300) raised TypeError past main
@example(key="fit.data", value=0)  # open(0) read the process's standard input
def test_fit_set_fuzz_ends_in_documented_exit_code(tmp_path_factory, key, value):
    # a string fit.data names a file that does not exist: exit 4
    fuzz_run(tmp_path_factory, "--set", "fit.max_evals=5", "--set", "fit.dt=0.05",
             "--set", f"{key}={json.dumps(value)}", "fit", codes=(0, 2, 3, 4))


REFF_FUZZ_KEYS = tuple(f"reff.{axis}{field}" for axis in ("axis1", "axis2")
                       for field in ("", ".name", ".lo", ".hi", ".n"))


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(REFF_FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES))
# Do not run this test on a version without the 1000-point axis limit: there n=1e300
# builds a 10^300-point axis, which exhausts memory.
@example(key="reff.axis1.n", value=1e300)
def test_reff_set_fuzz_ends_in_documented_exit_code(tmp_path_factory, key, value):
    fuzz_run(tmp_path_factory, "--set", 'reff.axis1={"name":"u2","lo":0,"hi":1,"n":3}',
             "--set", 'reff.axis2={"name":"psi1","lo":1e-5,"hi":2e-4,"n":3}',
             "--set", f"{key}={json.dumps(value)}", "reff")


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(("preset", *PARAM_NAMES)), value=st.sampled_from(FUZZ_VALUES),
       command=st.sampled_from(("simulate", "reff")))
@example(key="psi2", value=1e300, command="reff")  # wrote Re = Infinity to reff.json
def test_parameters_set_fuzz_ends_in_documented_exit_code(tmp_path_factory, key, value, command):
    fuzz_run(tmp_path_factory, "--set", "grid.n_steps=20",
             "--set", f"parameters.{key}={json.dumps(value)}", command)


STATE_FUZZ_KEYS = ("initial_state", *(f"initial_state.{k}" for k in StateVec._fields))


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(STATE_FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES),
       command=st.sampled_from(("simulate", "optimize")))
@example(key="initial_state.S_H", value=1e300, command="optimize")  # (M+C)**2 raised OverflowError
def test_initial_state_set_fuzz_ends_in_documented_exit_code(tmp_path_factory, key, value, command):
    # the march's clamp and finiteness checks see these states first
    fuzz_run(tmp_path_factory, "--set", "grid.n_steps=20", "--set", f"{key}={json.dumps(value)}",
             command)


@pytest.mark.parametrize("value", FUZZ_VALUES)
@pytest.mark.parametrize("block, command", [
    ("grid", "optimize"), ("sweep", "optimize"), ("sensitivity", "prcc"), ("fit", "fit"),
])
def test_whole_block_set_fuzz_ends_in_documented_exit_code(tmp_path_factory, block, command, value):
    fuzz_run(tmp_path_factory, "--set", f"{block}={json.dumps(value)}", command)


@pytest.mark.parametrize("value", FUZZ_VALUES)
def test_output_dir_set_fuzz_ends_in_documented_exit_code(tmp_path, monkeypatch, value):
    # no --outdir: the run directory goes under output_dir, relative to the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    code = main(["--set", f"output_dir={json.dumps(value)}", "reff"])
    check_run(code, list(tmp_path.glob("*/reff-*")), codes=(0, 2))
    if code != 0:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["5", "[1]"])
@pytest.mark.parametrize("with_outdir", [False, True], ids=["no-outdir", "outdir"])
def test_non_string_output_dir_is_config_error(tmp_path, monkeypatch, capsys, value, with_outdir):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    outdir = ["--outdir", str(tmp_path / "out")] if with_outdir else []
    code = main([*outdir, "--set", f"output_dir={value}", "reff"])
    assert code == 2
    assert list(tmp_path.iterdir()) == []  # neither ./runs nor the --outdir root
    assert "output_dir must be a directory path or null" in capsys.readouterr().err


@pytest.mark.parametrize("argv, source", [
    (("--set", "foo=NaN", "reff"), "--set foo"),
    (("--set", 'fit.free=["theta1"]', "--set", 'fit.x0={"theta1":1000,"tau1":NaN}',
      "--set", "fit.max_evals=5", "fit"), "--set fit.x0"),
    (("--set", "controls.u1=-Infinity", "reff"), "--set controls.u1"),
    (("--set", "grid.tf=1e999", "simulate"), "--set grid.tf"),  # overflows to inf as it parses
    # more digits than int() reads raised ValueError past main
    (("--set", f"grid.tf={'9' * 5000}", "simulate"), "--set grid.tf"),
], ids=["unknown-key-nan", "fit-x0-nan", "minus-infinity", "overflow", "integer-past-digit-limit"])
def test_non_finite_set_value_is_config_error(tmp_path, capsys, argv, source):
    code, out = run(tmp_path, "a", *argv)
    assert code == 2
    assert out is None
    assert f"configuration error: {source} holds the non-finite number" in capsys.readouterr().err


def test_non_finite_config_file_number_is_config_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"foo": NaN}')
    code, out = run(tmp_path, "a", "--config", str(config), "reff")
    assert code == 2
    assert out is None
    assert f"config file {config} holds the non-finite number NaN" in capsys.readouterr().err


def test_set_value_that_only_starts_like_nan_stays_a_string(tmp_path, monkeypatch, capsys):
    # "NaN.csv" is not JSON, so it is the file name it reads as: a missing file, exit 4
    monkeypatch.chdir(tmp_path)
    code, out = run(tmp_path, "a", "--set", "fit.data=NaN.csv", "fit")
    assert code == 4
    assert out is None
    assert "NaN.csv" in capsys.readouterr().err


# The artifacts table of README.md: each command's files besides config.json, and the
# summary line that ends stdout ({run} stands for the run directory).
PROTOCOL_RUNS = {
    "simulate": (("--set", "grid.n_steps=20", "simulate"), {"trajectory.csv"},
                 r"wrote {run}/trajectory\.csv \(21 nodes, 0 clamped\)"),
    "reff-point": (("reff",), {"reff.json"},
                   r"R21 = \S+\nR23 = \S+\nR31 = \S+\nR33 = \S+\na3 = \S+\nRe = 2\.28214565471"),
    "reff-grid": (("--set", 'reff.axis1={"name":"u2","lo":0,"hi":1,"n":3}',
                   "--set", 'reff.axis2={"name":"u4","lo":0,"hi":1,"n":2}', "reff"),
                  {"reff_grid.csv", "reff_grid.meta.json"},
                  r"wrote {run}/reff_grid\.csv \(3x2 points\)"),
    "optimize": (("--set", "grid.n_steps=20", "optimize"),
                 {"states.csv", "adjoints.csv", "controls.csv", "summary.json"},
                 r"J = \S+ after \d+ iterations \(converged=True\); wrote {run}"),
    "prcc": (("--set", "sensitivity.N=40", "--set", "sensitivity.grid.n_steps=20", "prcc"),
             {"prcc_I_H.csv", "prcc_I_F.csv", "prcc_I_D.csv", "prcc_M.csv", "prcc.meta.json"},
             r"wrote prcc_I_H\.csv, prcc_I_F\.csv, prcc_I_D\.csv, prcc_M\.csv in {run} "
             r"\(N=40, 0 rows dropped\)"),
    "fit": (("--set", "fit.max_evals=5", "--set", "fit.dt=0.05", "fit"), {"fit.json", "fit.csv"},
            r"mse = \S+ after 5 evaluations, at bound: none; wrote {run}"),
}


@pytest.mark.parametrize("label", PROTOCOL_RUNS)
def test_run_protocol(tmp_path, capsys, label):
    argv, artifacts, summary = PROTOCOL_RUNS[label]
    code = main(["--outdir", str(tmp_path), *argv])
    assert code == 0
    (out,) = tmp_path.iterdir()  # exactly one run directory
    assert {f.name for f in out.iterdir()} == artifacts | {"config.json"}
    stdout = capsys.readouterr().out
    assert re.fullmatch(summary.replace("{run}", re.escape(str(out))) + "\n", stdout), stdout


@pytest.mark.parametrize("label", PROTOCOL_RUNS)
def test_handlers_write_nothing(tmp_path, monkeypatch, label):
    # a handler only solves and returns its artifacts: main alone makes the run directory
    argv, artifacts, summary = PROTOCOL_RUNS[label]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "env"))
    args = build_parser().parse_args(["--outdir", str(tmp_path / "cli"),
                                      "--set", f"output_dir={tmp_path / 'config'}", *argv])
    config, echo = resolve_config(args.config, args.set)
    run_dir = tmp_path / "run"
    said, made = _HANDLERS[args.command](args, config, echo, run_dir)
    assert list(tmp_path.iterdir()) == []
    assert set(made) == artifacts
    assert re.fullmatch(summary.replace("{run}", re.escape(str(run_dir))), said), said


def test_failed_write_prints_no_summary(tmp_path, capsys):
    # the output root is a file, so the run directory cannot be made: exit 4
    root = tmp_path / "file"
    root.write_text("")
    assert main(["--outdir", str(root / "runs"), "reff"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "io error" in captured.err


@pytest.mark.parametrize("kind, content, argv", [
    ("config", b"\xff\xfe{}", ("--config", "{path}", "reff")),
    ("data", b"year,cases\n1990,5\n1991,\xff\n", ("fit", "--data", "{path}")),
])
def test_non_utf8_file_is_config_error(tmp_path, capsys, kind, content, argv):
    path = tmp_path / "input"
    path.write_bytes(content)
    code, out = run(tmp_path, "a", *(str(path) if a == "{path}" else a for a in argv))
    assert code == 2
    assert out is None
    assert f"{kind} file {path} is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--set", 'fit.free=["theta1","theta1"]', "--set", "fit.max_evals=5", "fit"),
     "free parameter 'theta1' is named twice"),
    (("--set", 'sensitivity.outputs=["I_H","I_H"]', "prcc"), "output 'I_H' is named twice"),
    (("--set", "sensitivity.sample_times=[2.001,2.002]", "--set", "sensitivity.grid.n_steps=50",
      "prcc"), "sample times 2.001 and 2.002 both fall on the grid node t=2.0"),
    (("--set", 'reff.axis1={"name":"u2","lo":0,"hi":1,"n":3}',
      "--set", 'reff.axis2={"name":"u2","lo":0,"hi":1,"n":2}', "reff"), "both axes name 'u2'"),
], ids=["fit-free", "prcc-outputs", "prcc-sample-times", "reff-axes"])
def test_duplicate_name_is_config_error(tmp_path, capsys, argv, message):
    code, out = run(tmp_path, "a", "--set", "sensitivity.N=40", *argv)
    assert code == 2
    assert out is None
    assert message in capsys.readouterr().err


# Run CLI steps in a fresh interpreter and report which scipy modules got loaded.
IMPORT_PROBE = """
import json, sys
from rabictl.cli import main
codes = [main(["--outdir", sys.argv[1], *step]) for step in json.loads(sys.argv[2])]
loaded = [m for m in ("scipy", "scipy.optimize", "scipy.stats") if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def scipy_loaded_after(tmp_path, *steps):
    """Exit codes of ``steps`` and the scipy modules loaded once they ran."""
    path = [str(Path(rabictl.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path), json.dumps(steps)],
                          capture_output=True, text=True, env=env, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["codes"], report["loaded"]


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    assert scipy_loaded_after(tmp_path) == ([], [])


def test_scipy_free_subcommands_leave_scipy_unloaded(tmp_path):
    codes, loaded = scipy_loaded_after(
        tmp_path,
        ["--set", "grid.n_steps=50", "simulate"],
        ["reff"],
        ["--set", 'reff.axis1={"name":"u2","lo":0,"hi":1,"n":4}',
         "--set", 'reff.axis2={"name":"u4","lo":0,"hi":1,"n":3}', "reff"],
        ["--set", "grid.n_steps=20", "optimize"],
        ["--set", "sensitivity.N=40", "prcc"],
    )
    assert codes == [0] * 5
    assert loaded == []


def test_fit_loads_scipy_optimize_only(tmp_path):
    codes, loaded = scipy_loaded_after(tmp_path, ["--set", "fit.max_evals=10", "fit"])
    assert codes == [0]
    assert "scipy.optimize" in loaded and "scipy.stats" not in loaded


def test_unconverged_sweep_warns(tmp_path, capsys):
    code, out = run(tmp_path, "a", "--set", "sweep.max_iter=2", "--set", "grid.n_steps=200",
                    "optimize")
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["converged"] is False
    err = capsys.readouterr().err
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "max_iter=2" in warnings[0] and "tol=0.0001" in warnings[0]


def test_unconverged_fit_warns(tmp_path, capsys):
    code, out = run(tmp_path, "a", "--set", "fit.max_evals=5", "--set", "fit.dt=0.05", "fit")
    assert code == 0
    assert json.loads((out / "fit.json").read_text())["converged"] is False
    err = capsys.readouterr().err
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "max_evals=5" in warnings[0] and "tol=1e-06" in warnings[0]


def test_default_fit_on_bundled_series(tmp_path):
    # pinned against the logit Nelder-Mead this fit replaced: 84283.74759242976 in 186 evaluations
    code, out = run(tmp_path, "a", "fit")
    assert code == 0
    report = json.loads((out / "fit.json").read_text())
    assert report["converged"] is True
    assert report["at_bound"] == ["beta1", "theta1"]
    assert report["mse"] == pytest.approx(84283.74759242976, rel=1e-6)
    assert report["evals"] <= 60


def test_budget_stop_reports_no_bound(tmp_path, capsys):
    """The default fit converges in 14 marches with beta1 and theta1 at their bounds; stopped
    by its budget one march earlier, it reports no active bound."""
    code, out = run(tmp_path, "a", "--set", "fit.max_evals=13", "fit")
    assert code == 0
    report = json.loads((out / "fit.json").read_text())
    assert (report["evals"], report["converged"], report["at_bound"]) == (13, False, [])
    assert "after 13 evaluations, at bound: none;" in capsys.readouterr().out


def test_budget_is_kept_where_scipy_moves_the_start(tmp_path):
    """scipy moves a start within 1e-10 of a bound inside the box and evaluates it there: that
    second march would pass a budget of one."""
    code, out = run(tmp_path, "a", "--set", 'fit.free=["theta1"]',
                    "--set", 'fit.x0={"theta1":500.00000001}',
                    "--set", 'fit.bounds={"theta1":[500,4000]}',
                    "--set", "fit.max_evals=1", "--set", "fit.dt=0.05", "fit")
    assert code == 0
    report = json.loads((out / "fit.json").read_text())
    assert (report["evals"], report["converged"]) == (1, False)


def test_fit_linear_algebra_failure_is_numeric_error(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(calibrate.optimize, "least_squares", failing)
    code, out = run(tmp_path, "a", "--set", "fit.dt=0.05", "fit")
    assert code == 3
    assert out is None
    assert "numeric failure: the fit's linear algebra failed near [" in capsys.readouterr().err


def artifact_bytes(out):
    """Every artifact of a run but config.json, with the config echo dropped from JSON ones."""
    got = {}
    for f in sorted(out.iterdir()):
        if f.suffix == ".json":
            payload = json.loads(f.read_text())
            payload.pop("config", None)
            got[f.name] = payload
        else:
            got[f.name] = f.read_bytes()
    del got["config.json"]
    return got


PRCC_SMALL = ("--set", "sensitivity.N=40", "--set", "sensitivity.grid.tf=5",
              "--set", "sensitivity.grid.n_steps=100", "--set", "sensitivity.sample_times=[2.5,5]")


def test_prcc_initial_state_goes_on_top_of_the_study_seeding(tmp_path):
    """M = 0.1 is the study's own M0, so setting it changes nothing; it used to replace the
    study's seeding (5, 10) by the default scenario's (20, 50)."""
    code, plain = run(tmp_path, "a", *PRCC_SMALL, "prcc")
    assert code == 0
    code, same = run(tmp_path, "b", *PRCC_SMALL, "--set", "initial_state.M=0.1", "prcc")
    assert code == 0
    assert artifact_bytes(same) == artifact_bytes(plain)
    code, other = run(tmp_path, "c", *PRCC_SMALL, "--set", "initial_state.I_D=20", "prcc")
    assert code == 0
    assert artifact_bytes(other) != artifact_bytes(plain)


def test_fit_reads_initial_state_on_top_of_its_seeding(tmp_path):
    """The fit starts from its own seeding with M = 0, so M = 0 changes nothing, while another
    I_D changes the fit; initial_state used to be ignored by the fit."""
    reports = {}
    for label, extra in (("plain", ()), ("M", ("initial_state.M=0",)),
                         ("I_D", ("initial_state.I_D=60",))):
        code, out = run(tmp_path, label, "--set", "fit.dt=0.05",
                        *(a for v in extra for a in ("--set", v)), "fit")
        assert code == 0
        reports[label] = artifact_bytes(out)
    assert reports["M"] == reports["plain"]
    assert reports["I_D"]["fit.json"]["mse"] != reports["plain"]["fit.json"]["mse"]


def test_fit_with_non_finite_start_is_numeric_error(tmp_path, capsys):
    # a valid but huge transmission rate blows up the Euler march at the start point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "a", "--set", "parameters.tau1=1e300", "fit")
    assert code == 3
    assert out is None
    assert "numeric failure: the fit's residuals are not finite at the start point" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("argv, message", [
    # 28 years in round(28/0.03) = 933 steps end at 27.99, so 2018 is off the grid
    (("fit.dt=0.03",), "time 28.0 outside grid span [0.0, 27.99]"),
    (("fit.seed_exposed=-1",), "state component E_F is negative or not finite: -1.0"),
    (('fit.x0={"theta1":0.01,"tau1":0.0004,"beta1":0.17}',),
     "recruitment theta1 must exceed mortality mu1"),
], ids=["year-off-grid", "negative-seeding", "x0-below-mortality"])
def test_fit_start_point_config_error_is_not_numeric(tmp_path, capsys, argv, message):
    """An error that does not depend on the free parameters exits 2 before the fit starts,
    not 3 as residuals that are not finite at the start point."""
    code, out = run(tmp_path, "a", *(a for v in argv for a in ("--set", v)), "fit")
    assert code == 2
    assert out is None
    assert message in capsys.readouterr().err


def test_fit_step_that_misses_the_observation_years_is_config_error(tmp_path, capsys):
    # 28 years in 800 steps of 0.035 end on 2018, but 1991 would be read at 1.015
    code, out = run(tmp_path, "a", "--set", "fit.dt=0.035", "fit")
    assert code == 2
    assert out is None
    assert "1991 lies 0.015 y off the nearest Euler node; fit.dt = 0.035" in capsys.readouterr().err


def test_fit_header_only_data_file_is_config_error(tmp_path, capsys):
    data = tmp_path / "header_only.csv"
    data.write_text("year,cases\n")
    code, out = run(tmp_path, "a", "fit", "--data", str(data))
    assert code == 2
    assert out is None
    assert "need at least two distinct observation years" in capsys.readouterr().err


def test_tiny_control_weight_optimizes_without_warnings(tmp_path):
    # A1 = 1e-320 is finite and positive: its stationary point overflows to +-inf and clips
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "a", "--set", "weights.A1=1e-320", "--set", "grid.n_steps=200",
                        "optimize")
    assert code == 0
    _, rows = read_csv(out / "controls.csv")
    assert all(0.0 <= float(v) <= 1.0 for r in rows for v in r[1:])


def test_fit_with_overflowing_residuals_is_numeric_error_without_warnings(tmp_path, capsys):
    # theta1 = 1e305 keeps every prediction finite, but the sum of squared residuals overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "a", "--set", "parameters.theta1=1e305", "fit")
    assert code == 3
    assert out is None
    assert "numeric failure" in capsys.readouterr().err


def test_fit_overflowing_sum_of_squares_names_it(tmp_path, capsys):
    code, _ = run(tmp_path, "a", "--set", "parameters.theta1=1e305", "fit")
    assert code == 3
    assert "numeric failure: the fit's sum of squared residuals overflows at the start point" in (
        capsys.readouterr().err)


def _raises(exc):
    def jacobian(*args):
        raise exc
    return jacobian


@pytest.mark.parametrize("argv, fault", [
    # 1e-4 of a tau1 of 1e-320 rounds to 0: the difference for tau1 is 0/0
    (('fit.x0={"theta1":1993.38,"tau1":1e-320,"beta1":0.165}',), None),
    ((), _raises(ConfigError("a derivative the model does not define"))),
    ((), _raises(IntegrationBlowupError("a derivative that blew up"))),
    ((), lambda y, u, p: [1e300 * a for a in model.jacobian(y, u, p)]),  # the sensitivities overflow
], ids=["subnormal-start", "config-error", "numeric-error", "overflow"])
def test_fit_jacobian_failure_is_numeric_error(tmp_path, capsys, monkeypatch, argv, fault):
    if fault:
        monkeypatch.setattr(calibrate, "jacobian", fault)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "a", "--set", "fit.dt=0.05",
                        *(a for v in argv for a in ("--set", v)), "fit")
    assert code == 3
    assert out is None
    assert "numeric failure: the fit's Jacobian is not finite near [" in capsys.readouterr().err


def test_fit_jacobian_is_one_sided_where_theta_meets_mu(tmp_path):
    """theta1 = 0.014418 lies within 1e-4 of mu1 = 0.014417 and the bounds reach below it: the
    lower difference end breaks theta1 > mu1, falls back to x, and the fit goes on."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "a", "--set", "fit.dt=0.05", "--set", 'fit.free=["theta1"]',
                        "--set", 'fit.x0={"theta1":0.014418}',
                        "--set", 'fit.bounds={"theta1":[0.001,4000]}', "fit")
    assert code == 0
    report = json.loads((out / "fit.json").read_text())
    assert (report["converged"], report["evals"], report["at_bound"]) == (True, 20, [])
    assert report["mse"] == pytest.approx(1284260.53847493, rel=1e-9)
    assert 0.014417 < report["estimates"]["theta1"] < 0.014418


@pytest.mark.parametrize("argv, message", [
    (('fit.free=[]',), "a fit needs at least one free parameter"),
    (('fit.free=["theta1"]', 'fit.bounds={"theta1":[500,4000],"tau1":[0,1]}'),
     "fit.bounds names 'tau1', which is not a free parameter"),
    # fit.x0 and fit.bounds are override maps over the parameter names
    (('fit.free=["theta1"]', 'fit.bounds={"theta1":[500,4000],"beta9":[0,1]}'),
     "unknown config key 'fit.bounds.beta9'"),
    (('fit.x0={"theta1":1500,"tau1":0.0004,"beta1":0.17,"theta9":5}',),
     "unknown config key 'fit.x0.theta9'"),
    (('fit.free=["theta1"]', 'fit.x0={"theta1":1500,"tau1":5}'),
     "fit.x0 names 'tau1', which is not a free parameter"),
    # the default bounds are derived from x0, which used to raise KeyError('tau1')
    (('fit.x0={"theta1":2000}',), "missing start value for free parameter 'tau1'"),
    (('fit.free=["theta1","theta9"]',), "unknown free parameter 'theta9'"),
    # each entry was unpacked as (lo, hi), which raised a ValueError naming no key
    (('fit.bounds={"theta1":[500]}',), "fit.bounds.theta1 must be a [lo, hi] pair, got [500]"),
    (('fit.bounds={"theta1":5}',), "fit.bounds.theta1 must be a [lo, hi] pair, got 5"),
    # a string was split into the free names 't', 'h', ...; a list had no .items()
    (('fit.free="theta1"',), "fit.free must be a list, got 'theta1'"),
    (("fit.bounds=[1,2]",), "fit.bounds must be an object or null, got [1, 2]"),
    (("fit.x0=[1,2]",), "fit.x0 must be an object or null, got [1, 2]"),
    # the default bounds [x0/4, 4*x0] of a negative start value have lo > hi
    (('fit.x0={"theta1":-5,"tau1":0.0004,"beta1":0.17}',),
     "fit.x0.theta1 must be positive to derive its bounds, got -5.0"),
], ids=["empty-free", "bounds-outside-free", "bounds-not-a-parameter", "x0-not-a-parameter",
        "x0-outside-free", "partial-x0", "unknown-free",
        "one-bound", "bound-not-a-pair", "free-not-a-list", "bounds-not-an-object",
        "x0-not-an-object", "non-positive-x0"])
def test_fit_free_parameter_mismatch_is_config_error(tmp_path, capsys, argv, message):
    code, out = run(tmp_path, "a", *(a for v in argv for a in ("--set", v)),
                    "--set", "fit.max_evals=5", "fit")
    assert code == 2
    assert out is None
    assert message in capsys.readouterr().err


def test_non_finite_state_is_numeric_error(tmp_path, capsys):
    code, out = run(tmp_path, "a", "--set", "parameters.tau1=1e300",
                    "--set", "grid.n_steps=100", "simulate")
    assert code == 3
    assert out is None
    assert "not finite" in capsys.readouterr().err


def test_non_finite_adjoint_is_numeric_error(tmp_path, capsys):
    code, out = run(tmp_path, "a", "--set", "weights.K1=1.7e308",
                    "--set", "grid.n_steps=20", "optimize")
    assert code == 3
    assert out is None
    assert "adjoint is not finite" in capsys.readouterr().err


def test_overflow_in_adjoint_coefficients_is_numeric_error(tmp_path, capsys):
    # (M + C)**2 overflows, and C / inf would pass for a finite 0
    code, out = run(tmp_path, "a", "--set", "initial_state.S_H=1e300",
                    "--set", "grid.n_steps=20", "optimize")
    assert code == 3
    assert out is None
    assert "adjoint is not finite" in capsys.readouterr().err


# sha256 of every artifact of a few small seeded runs. A change that keeps the
# numbers keeps these digests. simulate and reff use Python floats and numpy
# elementwise operations only, so their bytes do not depend on the BLAS build.
# optimize (a matrix product per adjoint step), fit (Euler march, scipy least
# squares on the sensitivity Jacobian, a matrix product per Euler step) and prcc
# (batched RK4, a LAPACK inverse) were recorded with numpy 2.4 and scipy 1.17 on
# x86-64 OpenBLAS; another BLAS build may move their last bits.
GOLDEN_RUNS = {
    "simulate": (
        ("--set", 'controls={"u1":0.2,"u2":0.3,"u3":0.1,"u4":0.4}',
         "--set", "grid.tf=5", "--set", "grid.n_steps=100", "simulate"),
        {
            "config.json": "21a003e88abefcc84d18bb6b309ffdded68ffe51d7df2ffde2c64867337b92b9",
            "trajectory.csv": "c1b693b5e6c63f6dd28b6cf1c2f79807f1ce2c09e3f014d449bab43e9f7711e4",
        },
    ),
    "optimize": (
        ("--set", "grid.n_steps=200", "optimize", "--strategy", "A"),
        {
            "adjoints.csv": "bfd7d60828ee474c2e1a5b5d70ebb7df2a3df370197dac029dc1f4a8d0569c91",
            "config.json": "d8a4df1e66d5a3a00cb7d7d8d0856894096cf206339009c7df183ab57a655d67",
            "controls.csv": "0a0d1c7300202812a4a0ae8f783b9bb2c0d2de6c1a0b6f4058a30b257691ba6e",
            "states.csv": "b2afafed216d6898ed1cfe0cf1cc617e40e89d6ba70fb076216edfc756b0f7b2",
            "summary.json": "4410b42fcd4bb7de450864303b5a2a470674afe7864695996bbf03ffbce5851a",
        },
    ),
    "reff_point": (
        ("reff",),
        {
            "config.json": "e18a67b57bef9536d0bf9dd84983eece95fb8dd3d4f5cf659285ca25620b10aa",
            "reff.json": "32c5c14e77db2f212d22d393855a8931b965c2ac17f2f3b77dc14a2d429b947c",
        },
    ),
    "reff_grid": (
        ("--set", 'reff.axis1={"name":"u2","lo":0,"hi":1,"n":4}',
         "--set", 'reff.axis2={"name":"psi1","lo":1e-5,"hi":2e-4,"n":3}', "reff"),
        {
            "config.json": "6e1e7f05064b90d599851c5b3d26b902fda0f91a83c9a54bc35aa281fc864bff",
            "reff_grid.csv": "68b0dadb3de818141e814f1eb908769830c0152772f1d7fa12bb88e271f9804a",
            "reff_grid.meta.json": "60dbfde501420d7c428e617c3631e15f0275c4ec179f1c547bb92edb3fa25862",
        },
    ),
    "fit": (
        ("--set", "fit.max_evals=40", "--set", "fit.dt=0.05", "fit"),
        {
            "config.json": "22a164d41421281f1af7ae901e583c2a5f1e6c39f9b727fb75148447e4f1e55a",
            "fit.csv": "a9ef13dbf9ba8d3f26fc1c3c65573666a38dc85cd2e1cfd32cab7cfd1504212b",
            "fit.json": "d5ae5a160162a289c08d95b03953a897b531d205f07b57693ee11283d3091e1b",
        },
    ),
    "prcc": (
        ("--set", "sensitivity.N=60", "--set", "sensitivity.grid.n_steps=100", "prcc"),
        {
            "config.json": "45acc317b00cc45740699e18af1f822cc8df9c07f8c1474ce3c6e2959793fb2e",
            "prcc.meta.json": "b7f880a99b89dfa88cfe32278a8f8bb97235d04ab0c37ba55a64906aee28ac6c",
            "prcc_I_D.csv": "190b7ef685486c9835871ecded5d5a37f3e682d05f38db0cb8069a8c59dbf209",
            "prcc_I_F.csv": "f40fab91a9f7065fabfaa7ee317115c0e05b6a75ed6fa4e44f4ff179b5dbc70c",
            "prcc_I_H.csv": "4a06fbbcc6c6769d60744ef75cb20e34c509796021772dad34e243755e33f387",
            "prcc_M.csv": "673266cf5ea3014f34e8781eaad14695f113dfde5424e4011d9a91109dbd126f",
        },
    ),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_RUNS))
def test_golden_artifact_digests(tmp_path, label):
    args, digests = GOLDEN_RUNS[label]
    code, out = run(tmp_path, label, *args)
    assert code == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == digests
