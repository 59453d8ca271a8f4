"""End-to-end CLI behaviour: artifacts, determinism and exit codes."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rabictl
from rabictl.cli import OUTDIR_ENV, main
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


@pytest.mark.parametrize("axis1", [
    {"name": "bogus", "lo": 0, "hi": 1, "n": 3},
    {"name": "u1", "lo": 0, "hi": 1, "n": 0},
    {"name": "u1", "lo": 0, "hi": 2, "n": 3},
    None,
], ids=["unknown-name", "no-points", "control-above-one", "lone-axis2"])
def test_reff_config_error_leaves_no_run_directory(tmp_path, capsys, axis1):
    axis2 = json.dumps({"name": "u2", "lo": 0, "hi": 1, "n": 3})
    code, out = run(tmp_path, "a", "--set", f"reff.axis1={json.dumps(axis1)}",
                    "--set", f"reff.axis2={axis2}", "reff")
    assert code == 2
    assert out is None
    err = capsys.readouterr().err
    assert "configuration error" in err
    if axis1 is None:
        assert "reff.axis1 is not set" in err


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


def test_prcc_sample_size_validation(tmp_path):
    code, _ = run(tmp_path, "a", "--set", "sensitivity.N=20", "prcc")
    assert code == 2


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
])
def test_bad_config_value_is_config_error(tmp_path, capsys, assignment, command):
    code, out = run(tmp_path, "a", "--set", "sensitivity.N=40", "--set", assignment, command)
    assert code == 2
    assert out is None
    assert "configuration error" in capsys.readouterr().err


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
FUZZ_VALUES = (math.nan, math.inf, -1, 0, 1e300, "abc", [], {})
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
    """Run the CLI once under its own --outdir and check the run as ``check_run`` does."""
    outdir = tmp_path_factory.mktemp("fuzz")
    code = main(["--outdir", str(outdir), *argv])
    check_run(code, list(outdir.iterdir()), codes)


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
], ids=["unknown-key-nan", "fit-x0-nan", "minus-infinity", "overflow"])
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


# sha256 of every artifact of a few small seeded runs. A change that keeps the
# numbers keeps these digests. simulate, optimize and reff use Python floats and
# numpy elementwise operations only, so their bytes do not depend on the BLAS
# build. fit (Euler march, scipy Nelder-Mead) and prcc (batched RK4, a LAPACK
# inverse) were recorded with numpy 2.4 and scipy 1.17 on x86-64 OpenBLAS; another
# BLAS build may move their last bits.
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
            "adjoints.csv": "8572915a42b3e675a9dca0da2aecf3f6eeff69440d5adc9f779d68073a1513b7",
            "config.json": "d8a4df1e66d5a3a00cb7d7d8d0856894096cf206339009c7df183ab57a655d67",
            "controls.csv": "695eacecc7e0d27e03d1efb4c9eb1e45c4efe705097aa9c3b61653f87b8a21b7",
            "states.csv": "7fcfd691429fc6713f5efed3ed737ecd794e601371a3a479af877c71892fc732",
            "summary.json": "c0857b95fcb7a9dacb8558d943f7c8445d6471be459c5a3527fcbdf465dcf6a6",
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
            "fit.csv": "8b53b833815d169d502cc7c134f73b3d57b0ce052e647146a6ac45613c91a130",
            "fit.json": "034821a96821436acea479932681403af8421dc7988eef221495877b6031fa20",
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
