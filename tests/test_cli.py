"""End-to-end CLI behaviour: artifacts, determinism and exit codes."""

import csv
import hashlib
import json

import pytest

from rabictl.cli import main


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


def test_reff_parameter_axis_grid(tmp_path):
    axis1 = json.dumps({"name": "psi1", "lo": 4e-5, "hi": 1.6e-4, "n": 3})
    axis2 = json.dumps({"name": "psi2", "lo": 4e-5, "hi": 1.6e-4, "n": 3})
    code, out = run(tmp_path, "a", "--set", f"reff.axis1={axis1}", "--set", f"reff.axis2={axis2}", "reff")
    assert code == 0
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
        "--jobs", "1",
        "--set", "sensitivity.N=40",
        "--set", "sensitivity.grid.tf=5", "--set", "sensitivity.grid.n_steps=100",
        "--set", "sensitivity.sample_times=[5.0]",
        "--set", 'sensitivity.outputs=["I_H"]',
        "prcc",
    )
    code1, out1 = run(tmp_path, "a", *args)
    code2, out2 = run(tmp_path, "b", *args)
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


def test_non_finite_state_is_numeric_error(tmp_path, capsys):
    code, out = run(tmp_path, "a", "--set", "parameters.tau1=1e300",
                    "--set", "grid.n_steps=100", "simulate")
    assert code == 3
    assert out is None
    assert "not finite" in capsys.readouterr().err


# sha256 of every artifact of a few small seeded runs. These runs are pure
# Python, so their bytes do not depend on the platform; prcc and fit go
# through numpy/BLAS and are left out. A change that keeps the numbers keeps
# these digests.
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
}


@pytest.mark.parametrize("label", sorted(GOLDEN_RUNS))
def test_golden_artifact_digests(tmp_path, label):
    args, digests = GOLDEN_RUNS[label]
    code, out = run(tmp_path, label, *args)
    assert code == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == digests
