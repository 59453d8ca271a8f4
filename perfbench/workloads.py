"""Workload inputs and output checks for the rabictl benchmark.

A workload is a short list of CLI steps that run one after another, each in a
fresh process. Everything a step receives is derived from the workload seed:
``--set`` values on the command line and, for ``fit``, a generated data file.
After a step has run, ``check_step`` parses its artifacts, rejects any
non-finite value or wrong shape, cross-checks the headline value against the
artifacts it came from, and returns the headline values that
``compare_reference`` holds against the per-seed references.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep", "ensemble", "fit", "quick")

STATE_FIELDS = ("S_H", "E_H", "I_H", "R_H", "S_F", "E_F", "I_F",
                "S_D", "E_D", "I_D", "R_D", "M")
CONTROLS = ("u1", "u2", "u3", "u4")
REFF_FIELDS = ("R21", "R23", "R31", "R33", "a3", "Re")
STUDY_OUTPUTS = ("I_H", "I_F", "I_D", "M")
STUDY_TIMES = (2.0, 4.0, 6.0, 8.0, 10.0)
STUDY_PARAMS = 33  # the default study samples every model parameter
FIT_FREE = ("theta1", "tau1", "beta1")
# Values of the free parameters in the "estimated" preset, pinned here so that
# the generated series do not follow later edits of the preset.
FIT_TRUTH = {"theta1": 1993.382113, "tau1": 0.000405, "beta1": 0.165581}
FIT_FIRST_YEAR = 1990
FIT_YEARS = 29

# Problem sizes. "full" is what the benchmark measures; "tiny" only keeps the
# benchmark's self-tests fast and has no recorded references.
SIZES = {
    "full": {"sweep_steps": 1000, "study_N": 100, "study_steps": 500,
             "fit_dt": 0.02, "sim_steps": 2000, "grid_n": 60},
    "tiny": {"sweep_steps": 200, "study_N": 40, "study_steps": 200,
             "fit_dt": 0.05, "sim_steps": 200, "grid_n": 10},
}

# The benchmark's inputs are generated from the seed modulo REFERENCE_SEEDS,
# and references.json holds the headline values of every one of these inputs
# at full size, so whatever seed a run is given, its outputs are checked
# against a recorded reference.
REFERENCE_SEEDS = 32

# The CLI default fit.tol (1e-12, an absolute spread of mse values of order
# 1e4) sits below double-precision rounding, so on most generated series the
# simplex stalls at max_evals unconverged. 1e-6 converges on every seed.
# Drop the override once the default is fixed, and record the references anew.
FIT_TOL = 1e-6

# Reference tolerances. An objective (J, mse) may fall a little -- a better
# optimum -- but must not rise beyond rounding level: a solver that stops early
# shows up as a higher objective.
OBJECTIVE_RISE = 1e-5
OBJECTIVE_FALL = 1e-3
REL_TOL = 1e-6
ABS_TOL = 1e-6


class CheckError(Exception):
    """An artifact is missing, malformed, non-finite or off its reference."""


@dataclass(frozen=True)
class Step:
    """One CLI invocation; ``argv`` excludes ``--outdir``."""

    name: str
    check: str
    argv: tuple[str, ...]
    expect: dict


RunCli = Callable[[list[str], Path], int]


def _set(key: str, value) -> list[str]:
    return ["--set", f"{key}={json.dumps(value)}"]


def build(workload: str, seed: int, size: str, workdir: Path, run_cli: RunCli) -> list[Step]:
    """Steps of one pass of ``workload``; ``run_cli`` serves input generation."""
    dims = SIZES[size]
    rng = random.Random(f"{workload}-{seed}")
    if workload == "sweep":
        # Jitter the infected seeding of the default scenario by +-20%.
        seeding = {"E_F": 20.0, "I_F": 50.0, "E_D": 20.0, "I_D": 50.0, "M": 0.1}
        argv = _set("grid.n_steps", dims["sweep_steps"])
        for key, value in seeding.items():
            argv += _set(f"initial_state.{key}", value * rng.uniform(0.8, 1.2))
        argv += ["optimize", "--strategy", "A"]
        return [Step("optimize", "optimize", tuple(argv),
                     {"nodes": dims["sweep_steps"] + 1})]
    if workload == "ensemble":
        argv = ["--jobs", "1"]
        argv += _set("sensitivity.seed", seed)
        argv += _set("sensitivity.N", dims["study_N"])
        argv += _set("sensitivity.grid.n_steps", dims["study_steps"])
        argv += ["prcc"]
        return [Step("prcc", "prcc", tuple(argv), {"N": dims["study_N"], "seed": seed})]
    if workload == "fit":
        data = _generate_fit_data(rng, dims, workdir, run_cli)
        argv = _set("fit.tol", FIT_TOL) + _set("fit.dt", dims["fit_dt"])
        argv += ["fit", "--data", str(data)]
        return [Step("fit", "fit", tuple(argv), {"data": str(data)})]
    if workload == "quick":
        controls = {u: round(rng.uniform(0.0, 0.5), 4) for u in CONTROLS}
        pair = rng.sample(CONTROLS, 2)
        base = []
        for u, value in controls.items():
            base += _set(f"controls.{u}", value)
        n = dims["grid_n"]
        grid = []
        for axis, u in zip(("axis1", "axis2"), pair):
            grid += _set(f"reff.{axis}", {"name": u, "lo": 0.0, "hi": 1.0, "n": n})
        sim = _set("grid.n_steps", dims["sim_steps"]) + base + ["simulate"]
        return [
            Step("simulate", "simulate", tuple(sim), {"nodes": dims["sim_steps"] + 1}),
            Step("reff", "reff_point", tuple(base + ["reff"]), {}),
            Step("reff_grid", "reff_grid", tuple(base + grid + ["reff"]), {"n": n}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _generate_fit_data(rng: random.Random, dims: dict, workdir: Path, run_cli: RunCli) -> Path:
    """A 29-year ``year,cases`` series simulated from the estimated preset.

    The three free parameters are drawn within +-20% of their preset values
    and 5% multiplicative noise is added; the series comes from ``rabictl
    simulate`` in the fit's initial state (M = 0).
    """
    per_year = round(1.0 / dims["fit_dt"])
    span = FIT_YEARS - 1
    argv = _set("grid", {"t0": 0.0, "tf": float(span), "n_steps": span * per_year})
    argv += _set("initial_state.M", 0.0)
    for name, preset in FIT_TRUTH.items():
        argv += _set(f"parameters.{name}", preset * rng.uniform(0.8, 1.2))
    outdir = workdir / "fit-data"
    outdir.mkdir()
    if run_cli(argv + ["simulate"], outdir) != 0:
        raise CheckError("simulate failed while generating fit data")
    rows = _read_table(_artifact_dir(outdir, "simulate") / "trajectory.csv", ("t",) + STATE_FIELDS)
    if len(rows) != span * per_year + 1:
        raise CheckError("generated trajectory has the wrong length")
    i_h = STATE_FIELDS.index("I_H") + 1
    path = workdir / "incidence.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "cases"])
        for k in range(FIT_YEARS):
            cases = max(0.0, rows[k * per_year][i_h] * (1.0 + 0.05 * rng.gauss(0.0, 1.0)))
            writer.writerow([FIT_FIRST_YEAR + k, repr(cases)])
    return path


# --- checks -------------------------------------------------------------------


def _artifact_dir(outdir: Path, command: str) -> Path:
    found = [d for d in outdir.iterdir() if d.is_dir() and d.name.startswith(command + "-")]
    if len(found) != 1:
        raise CheckError(f"expected one {command}-* directory in {outdir}, found {len(found)}")
    return found[0]


def _finite(value: float, where: str) -> float:
    if not math.isfinite(value):
        raise CheckError(f"non-finite value {value!r} in {where}")
    return value


def _read_table(path: Path, header: tuple[str, ...], text_cols: tuple[int, ...] = ()) -> list[list]:
    """Rows of a CSV with the given header; non-text cells must be finite floats."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"cannot read {path.name}: {exc}") from exc
    if not rows or tuple(rows[0]) != header:
        raise CheckError(f"{path.name}: header {rows[:1]} is not {list(header)}")
    out = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CheckError(f"{path.name}:{line}: {len(row)} cells, expected {len(header)}")
        try:
            out.append([cell if i in text_cols else _finite(float(cell), f"{path.name}:{line}")
                        for i, cell in enumerate(row)])
        except ValueError as exc:
            raise CheckError(f"{path.name}:{line}: {exc}") from exc
    return out


def _read_json(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot parse {path.name}: {exc}") from exc
    _all_finite(payload, path.name)
    return payload


def _all_finite(node, where: str) -> None:
    if isinstance(node, dict):
        for value in node.values():
            _all_finite(value, where)
    elif isinstance(node, list):
        for value in node:
            _all_finite(value, where)
    elif isinstance(node, float):
        _finite(node, where)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _states(path: Path, nodes: int) -> list[list[float]]:
    rows = _read_table(path, ("t",) + STATE_FIELDS)
    if len(rows) != nodes:
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {nodes}")
    if min(min(r[1:]) for r in rows) < -1e-9:
        raise CheckError(f"{path.name}: negative state")
    return rows


def _check_optimize(d: Path, expect: dict) -> dict:
    nodes = expect["nodes"]
    states = _states(d / "states.csv", nodes)
    adjoints = _read_table(d / "adjoints.csv", ("t",) + tuple(f"lam{i}" for i in range(1, 13)))
    controls = _read_table(d / "controls.csv", ("t",) + CONTROLS)
    if len(adjoints) != nodes or len(controls) != nodes:
        raise CheckError("adjoints/controls do not cover the grid")
    if any(not 0.0 <= v <= 1.0 for row in controls for v in row[1:]):
        raise CheckError("controls.csv: control outside [0, 1]")
    summary = _read_json(d / "summary.json")
    if summary.get("converged") is not True:
        raise CheckError("sweep did not converge")
    history = summary["J_history"]
    if len(history) != summary["iterations"] + 1:
        raise CheckError("summary.json: J_history does not match iterations")
    J = history[-1]
    # The objective recomputed from the written states and controls.
    w = _read_json(d / "config.json")["weights"]
    h = (states[-1][0] - states[0][0]) / (nodes - 1)
    cost = []
    for y, u in zip(states, controls):
        s = dict(zip(STATE_FIELDS, y[1:]))
        cost.append(
            w["K1"] * s["M"] + w["K2"] * s["E_H"] + w["K3"] * s["I_H"] + w["K4"] * s["E_D"]
            + w["K5"] * s["I_D"] - w["K6"] * s["S_D"]
            + 0.5 * sum(w[f"A{i}"] * u[i] ** 2 for i in range(1, 5))
        )
    J_check = h * (0.5 * (cost[0] + cost[-1]) + sum(cost[1:-1]))
    if not _close(J, J_check, 1e-9):
        raise CheckError(f"J = {J!r} but the artifacts give {J_check!r}")
    return {"J": J}


def _check_prcc(d: Path, expect: dict) -> dict:
    meta = _read_json(d / "prcc.meta.json")
    if meta.get("N") != expect["N"] or meta.get("seed") != expect["seed"]:
        raise CheckError(f"prcc.meta.json: N/seed {meta.get('N')}/{meta.get('seed')} "
                         f"differ from the request {expect['N']}/{expect['seed']}")
    if not 0 <= meta["dropped_rows"] <= 0.05 * expect["N"]:
        raise CheckError(f"prcc.meta.json: {meta['dropped_rows']} rows dropped")
    headline = {}
    for output in STUDY_OUTPUTS:
        rows = _read_table(d / f"prcc_{output}.csv", ("time", "param", "prcc"), text_cols=(1,))
        if len(rows) != len(STUDY_TIMES) * STUDY_PARAMS:
            raise CheckError(f"prcc_{output}.csv: {len(rows)} rows")
        for ti, t in enumerate(STUDY_TIMES):
            block = rows[ti * STUDY_PARAMS:(ti + 1) * STUDY_PARAMS]
            if any(r[0] != t for r in block):
                raise CheckError(f"prcc_{output}.csv: rows out of time order")
            coeffs = [r[2] for r in block]
            if any(abs(c) > 1.0 + 1e-12 for c in coeffs):
                raise CheckError(f"prcc_{output}.csv: coefficient outside [-1, 1]")
            headline[f"{output}@{t:g}.sum"] = math.fsum(coeffs)
            headline[f"{output}@{t:g}.sumsq"] = math.fsum(c * c for c in coeffs)
    return headline


def _check_fit(d: Path, expect: dict) -> dict:
    result = _read_json(d / "fit.json")
    if result.get("converged") is not True:
        raise CheckError("fit did not converge")
    if sorted(result["estimates"]) != sorted(FIT_FREE):
        raise CheckError(f"fit.json: estimates for {sorted(result['estimates'])}")
    if any(v <= 0.0 for v in result["estimates"].values()):
        raise CheckError("fit.json: non-positive estimate")
    observed = [r[1] for r in _read_table(Path(expect["data"]), ("year", "cases"))]
    rows = _read_table(d / "fit.csv", ("year", "observed", "predicted"))
    if [r[1] for r in rows] != observed:
        raise CheckError("fit.csv: observed column differs from the input data")
    mse = math.fsum((r[1] - r[2]) ** 2 for r in rows) / len(rows)
    if not _close(result["mse"], mse, 1e-9):
        raise CheckError(f"mse = {result['mse']!r} but fit.csv gives {mse!r}")
    return {"mse": result["mse"]}


def _check_simulate(d: Path, expect: dict) -> dict:
    last = _states(d / "trajectory.csv", expect["nodes"])[-1]
    return {f"final.{name}": v for name, v in zip(STATE_FIELDS, last[1:])}


def _check_reff_point(d: Path, expect: dict) -> dict:
    r = _read_json(d / "reff.json")
    if sorted(r) != sorted(REFF_FIELDS):
        raise CheckError(f"reff.json: keys {sorted(r)}")
    disc = (r["R21"] - r["R33"]) ** 2 + 4.0 * r["R31"] * r["R23"]
    Re = 0.5 * (r["R33"] + r["R21"] + math.sqrt(disc))
    if not _close(r["Re"], Re, 1e-9):
        raise CheckError(f"Re = {r['Re']!r} disagrees with its pieces ({Re!r})")
    return {"Re": r["Re"]}


def _check_reff_grid(d: Path, expect: dict) -> dict:
    n = expect["n"]
    rows = _read_table(d / "reff_grid.csv", ("axis1", "axis2", "Re"))
    _read_json(d / "reff_grid.meta.json")
    if len(rows) != n * n:
        raise CheckError(f"reff_grid.csv: {len(rows)} rows, expected {n * n}")
    values = [r[2] for r in rows]
    if min(values) < 0.0:
        raise CheckError("reff_grid.csv: negative Re")
    return {"sum": math.fsum(values), "min": min(values), "max": max(values)}


# check kind -> (subcommand naming the artifact directory, checker)
_CHECKS = {
    "optimize": ("optimize", _check_optimize),
    "prcc": ("prcc", _check_prcc),
    "fit": ("fit", _check_fit),
    "simulate": ("simulate", _check_simulate),
    "reff_point": ("reff", _check_reff_point),
    "reff_grid": ("reff", _check_reff_grid),
}


def check_step(step: Step, outdir: Path) -> dict[str, float]:
    """Validate one step's artifacts; returns its headline values, name-prefixed."""
    command, checker = _CHECKS[step.check]
    values = checker(_artifact_dir(outdir, command), step.expect)
    return {f"{step.name}.{k}": v for k, v in values.items()}


def compare_reference(headline: dict[str, float], reference: dict[str, float]) -> list[str]:
    """Problems found holding headline values against a recorded reference."""
    problems = []
    if sorted(headline) != sorted(reference):
        return [f"headline keys {sorted(headline)} differ from the reference"]
    for key, ref in reference.items():
        value = headline[key]
        if key.endswith((".J", ".mse")):
            ok = ref - OBJECTIVE_FALL * abs(ref) <= value <= ref + OBJECTIVE_RISE * abs(ref)
        elif key.startswith("prcc."):
            ok = abs(value - ref) <= ABS_TOL
        else:
            ok = _close(value, ref, REL_TOL)
        if not ok:
            problems.append(f"{key} = {value!r}, reference {ref!r}")
    return problems
