"""Command-line entry point emitting CSV/JSON artifacts.

Subcommands: simulate, reff, optimize, prcc, fit. Configuration comes from
an optional JSON file plus ``--set key=value`` overrides (dotted keys reach
nested blocks); every run writes the fully resolved configuration next to
its artifacts so outputs are reproducible byte for byte.

``resolve_config`` checks the whole resolved configuration once, whichever
subcommand runs, against one schema: the defaults, plus the shape of each
block whose default is null. Each key must hold the kind of its default, and
an error names the dotted key (``grid.n_steps must be an integer, got 2.5``).
The handlers read the checked values in plain form; the artifacts echo the
configuration as given.

``main`` runs every subcommand the same way: it resolves the configuration
and names the run directory, ``<root>/<command>-<start stamp>``; the handler
solves and returns its summary line and its artifacts, an ordered map from
file name to a JSON payload or a CSV ``(header, rows)`` table, and touches no
file. Only then does ``main`` create the run directory, write each artifact
and ``config.json`` there through ``integrate.write_csv``/``write_json``, and
print the summary. A failed run leaves no run directory and nothing on stdout.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 IO error.

``calibrate`` (scipy.optimize) is imported inside the ``fit`` handler, so the other subcommands
start without scipy. ``sensitivity`` is imported inside ``prcc``'s: it loads no scipy until a
``normal`` range is sampled, but its import takes about 4 ms (``-X importtime``) the others skip.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys
from datetime import datetime
from pathlib import Path
from typing import Any, NamedTuple

from . import optctl, repro
from .errors import ConfigError, NumericError, shorten
from .integrate import ControlPath, TimeGrid, node_rows, rk4_forward, write_csv, write_json
from .model import DEFAULT_SEEDING, ControlConst, StateVec, seeded_state
from .params import PARAM_NAMES, PRESETS, ParamSet

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

OUTDIR_ENV = "RABICTL_OUTDIR"


def _default_config() -> dict[str, Any]:
    return {
        "parameters": {"preset": "estimated"},
        "initial_state": None,  # None: the subcommand's own scenario, from the parameters
        "grid": {"t0": 0.0, "tf": 20.0, "n_steps": 2000},
        "controls": ControlConst()._asdict(),
        "weights": dataclasses.asdict(optctl.Weights()),
        "sweep": {"omega": 0.5, "tol": 1e-4, "max_iter": 200},
        "reff": {"axis1": None, "axis2": None},
        "sensitivity": {
            "N": 1000,
            "seed": 7,
            "rel_range": 0.25,
            "distribution": "uniform",
            # baseline-centred ranges; light seeding keeps the outputs parameter-driven
            "preset": "baseline",
            "seed_exposed": 5.0,
            "seed_infected": 10.0,
            "M0": 0.1,
            "outputs": ["I_H", "I_F", "I_D", "M"],
            "sample_times": [2.0, 4.0, 6.0, 8.0, 10.0],
            "grid": {"t0": 0.0, "tf": 10.0, "n_steps": 500},
        },
        "fit": {
            "data": None,
            "free": ["theta1", "tau1", "beta1"],
            "bounds": None,  # None: [x0/4, 4*x0] per free parameter
            "x0": None,  # None: current parameter values
            "dt": 0.01,
            "max_evals": 2000,
            "tol": 1e-6,
            "seed_exposed": 20.0,
            "seed_infected": 50.0,
        },
        "output_dir": None,
    }


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _load_json(text: str, source: str) -> Any:
    """Parse JSON text from ``source``; a NaN or infinite number in it is a ConfigError."""
    non_finite = []

    def number(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            non_finite.append(token)
        return value

    # an integer of more digits than int() reads (4300) is far too large for a double too
    loaded = json.loads(text, parse_float=number, parse_constant=number,
                        parse_int=lambda token: int(token) if len(token) <= 4300 else number(token))
    if non_finite:  # checked only once the whole text parsed: "NaN.csv" stays a string
        raise ConfigError(f"{source} holds the non-finite number {shorten(non_finite[0])}")
    return loaded


def _apply_set(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {shorten(repr(assignment))}")
    key, raw = assignment.split("=", 1)
    try:
        value = _load_json(raw, f"--set {shorten(key)}")
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


class _Overrides(dict):
    """The shape of an override map: it may hold any of these keys, and null holds none."""


class _OrNull(NamedTuple):
    """The shape of a key whose default is null: null, or a value of ``shape``, called ``what``."""

    shape: Any
    what: str = "an object"


def _config_schema() -> dict[str, Any]:
    """The shape of the config: the defaults, with each override map and null default marked.

    A float accepts a number (never a bool), an int an integral count, a str a string, a list
    a list of what its first item accepts and a tuple a [lo, hi] pair of numbers.
    """
    schema = _default_config()
    axis = {"name": "", "lo": 0.0, "hi": 0.0, "n": 0}
    schema["parameters"] = _Overrides(schema["parameters"], **dict.fromkeys(PARAM_NAMES, 0.0))
    schema["initial_state"] = _OrNull(_Overrides(dict.fromkeys(StateVec._fields, 0.0)))
    schema["controls"] = _Overrides(schema["controls"])
    schema["weights"] = _Overrides(schema["weights"])
    schema["reff"] = {"axis1": _OrNull(axis), "axis2": _OrNull(axis)}
    schema["fit"].update(data=_OrNull("", "a file path"),
                         x0=_Overrides(dict.fromkeys(PARAM_NAMES, 0.0)),
                         bounds=_Overrides(dict.fromkeys(PARAM_NAMES, (0.0, 0.0))))
    schema["output_dir"] = _OrNull("", "a directory path")
    return schema


_KINDS = {float: "a number", int: "an integer", str: "a string", list: "a list",
          tuple: "a [lo, hi] pair", dict: "an object", _Overrides: "an object or null"}


def _checked(value: Any, shape: Any, key: str, what: str = "") -> Any:
    """``value``, found at the dotted ``key``, checked against ``shape`` and made plain.

    A number becomes a float, a count an int, a pair a tuple and an override map given
    as null an empty dict. A value of the wrong kind is a ConfigError saying what ``key``
    must be (``what``, when given); so is a key ``shape`` does not hold, and a key missing
    from a block that was replaced whole.
    """
    kind = type(shape)
    if kind is _OrNull:
        return None if value is None else _checked(value, shape.shape, key, f"{shape.what} or null")
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is int and type(value) in (int, float) and value % 1 == 0:
        return int(value)
    if kind is str and type(value) is str:
        return value
    if kind is list and type(value) is list:
        return [_checked(item, shape[0], key) for item in value]
    if kind is tuple and type(value) is list and len(value) == len(shape):
        return tuple(_checked(item, s, key) for item, s in zip(value, shape))
    if kind is _Overrides and value is None:
        return {}
    if kind in (dict, _Overrides) and type(value) is dict:
        prefix = key and key + "."
        for name in value:
            if name not in shape:
                raise ConfigError(f"unknown config key {shorten(repr(prefix + name))}")
        if kind is _Overrides:
            shape = {name: shape[name] for name in value}
        for name in shape:
            if name not in value:
                raise ConfigError(f"{prefix + name} must be set")
        return {name: _checked(value[name], s, prefix + name) for name, s in shape.items()}
    what = "a finite number" if kind is float and type(value) is int else what  # past a double
    raise ConfigError(f"{shorten(key)} must be {what or _KINDS[kind]}, got {shorten(repr(value))}")


def resolve_config(path: str | None, sets: list[str]) -> tuple[dict[str, Any], dict[str, Any]]:
    """Defaults, then the config file, then --set overrides.

    Returns the config checked against ``_config_schema`` in plain form, which the handlers
    read, and the resolved config as given, which the artifacts echo.
    """
    config = _default_config()
    if path is not None:
        file_path = Path(path)
        try:
            loaded = _load_json(file_path.read_text(encoding="utf-8"), f"config file {path}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a JSON object")
        config = _deep_merge(config, loaded)
    for assignment in sets or []:
        _apply_set(config, assignment)
    return _checked(config, _config_schema(), ""), config


def _build_params(config: dict, preset: str | None = None) -> ParamSet:
    """The parameters block over its preset, or over ``preset`` when given."""
    overrides = dict(config["parameters"])
    preset_name = overrides.pop("preset", "estimated")
    if preset is not None:
        preset_name = preset
    if preset_name not in PRESETS:
        raise ConfigError(f"unknown parameter preset {shorten(repr(preset_name))}")
    return PRESETS[preset_name].replace(**overrides)


def _build_state(config: dict, p: ParamSet, seeding: tuple = DEFAULT_SEEDING) -> StateVec:
    """The subcommand's scenario ``seeded_state(p, *seeding)``; initial_state keys go on top."""
    return seeded_state(p, *seeding)._replace(**config["initial_state"] or {}).validate()


# --- subcommands ----------------------------------------------------------------
# Each handler reads the checked config, echoes ``given``, the config as resolved, and
# names ``run``, the run directory not yet made, in its summary; it writes no file.

Artifacts = dict[str, Any]  # file name -> JSON payload dict, or CSV (header, lazy rows)


def cmd_simulate(args: argparse.Namespace, config: dict, given: dict,
                 run: Path) -> tuple[str, Artifacts]:
    p = _build_params(config)
    y0 = _build_state(config, p)
    grid = TimeGrid(**config["grid"])
    traj = rk4_forward(p, ControlPath.constant(grid, ControlConst(**config["controls"])), y0, grid)
    return (f"wrote {run / 'trajectory.csv'} ({grid.n_nodes} nodes, {traj.clamped} clamped)",
            {"trajectory.csv": (("t",) + StateVec._fields, node_rows(grid, traj.states))})


def cmd_reff(args: argparse.Namespace, config: dict, given: dict,
             run: Path) -> tuple[str, Artifacts]:
    p = _build_params(config)
    u = ControlConst(**config["controls"]).validate()
    axes = config["reff"]["axis1"], config["reff"]["axis2"]
    if any(axes) and not all(axes):
        missing = "reff.axis2" if axes[0] else "reff.axis1"
        raise ConfigError(f"a reff grid needs both axes, but {missing} is not set")
    if all(axes):  # two (name, lo, hi, n) axes: a grid; neither: a point
        grid = repro.re_grid(p, *(tuple(axis.values()) for axis in axes), u)
        # long format, one (axis1, axis2, Re) row per point, and its axes and base point
        return (f"wrote {run / 'reff_grid.csv'} "
                f"({len(grid.axis1_values)}x{len(grid.axis2_values)} points)"), {
            "reff_grid.csv": (("axis1", "axis2", "Re"), (
                [repr(v1), repr(v2), repr(float(grid.values[i, j]))]
                for i, v1 in enumerate(grid.axis1_values)
                for j, v2 in enumerate(grid.axis2_values))),
            "reff_grid.meta.json": {
                "axis1": {"name": grid.axis1_name, "values": list(grid.axis1_values)},
                "axis2": {"name": grid.axis2_name, "values": list(grid.axis2_values)},
                "base_controls": u._asdict(),
                "base_parameters": p.as_dict(),
            },
        }
    breakdown = dataclasses.asdict(repro.effective_r(p, u))
    return ("\n".join(f"{name} = {value:.12g}" for name, value in breakdown.items()),
            {"reff.json": breakdown})


def _mask_from_args(args: argparse.Namespace) -> optctl.Mask:
    if args.mask is not None:
        bits = args.mask.strip()
        if len(bits) != 4 or any(b not in "01" for b in bits):
            raise ConfigError(f"--mask expects four 0/1 digits, got {shorten(repr(args.mask))}")
        return tuple(b == "1" for b in bits)  # type: ignore[return-value]
    strategy = (args.strategy or "A").upper()
    if strategy not in optctl.STRATEGY_MASKS:
        raise ConfigError(f"unknown strategy {shorten(repr(args.strategy))}; expected A, B, C or D")
    return optctl.STRATEGY_MASKS[strategy]


def cmd_optimize(args: argparse.Namespace, config: dict, given: dict,
                 run: Path) -> tuple[str, Artifacts]:
    p = _build_params(config)
    y0 = _build_state(config, p)
    grid = TimeGrid(**config["grid"])
    w = optctl.Weights(**config["weights"])
    sweep = config["sweep"]
    mask = _mask_from_args(args)
    result = optctl.forward_backward_sweep(p, w, y0, grid, mask, **sweep)
    if not result.converged:
        print(f"warning: sweep stopped at max_iter={sweep['max_iter']} before the control update "
              f"fell below tol={sweep['tol']:g}", file=sys.stderr)
    return (f"J = {result.J_history[-1]:.6g} after {result.iterations} iterations "
            f"(converged={result.converged}); wrote {run}"), {
        "states.csv": (("t",) + StateVec._fields, node_rows(grid, result.states.states)),
        "adjoints.csv": (("t", *(f"lam{i}" for i in range(1, 13))),
                         node_rows(grid, result.adjoints.tolist())),
        "controls.csv": (("t",) + ControlConst._fields,
                         node_rows(grid, result.controls.values.tolist())),
        "summary.json": {
            "J_history": list(result.J_history),
            "iterations": result.iterations,
            "converged": result.converged,
            "mask": list(result.mask),
            "config": given,
        },
    }


def cmd_prcc(args: argparse.Namespace, config: dict, given: dict,
             run: Path) -> tuple[str, Artifacts]:
    from . import sensitivity

    block = config["sensitivity"]
    # the study centres its ranges on its own preset; explicit parameter
    # overrides from the parameters block still apply on top
    p = _build_params(config, preset=block["preset"])
    y0 = _build_state(config, p, (block["seed_exposed"], block["seed_infected"], block["M0"]))
    distribution = block["distribution"]
    if distribution == "normal":
        ranges = sensitivity.normal_ranges()
    elif distribution == "uniform":
        ranges = sensitivity.uniform_ranges(p, rel=block["rel_range"])
    else:
        raise ConfigError(f"unknown sensitivity distribution {shorten(repr(distribution))}; "
                          "expected 'uniform' or 'normal'")
    grid = TimeGrid(**block["grid"])
    study = sensitivity.prcc_study(ranges, block["N"], block["seed"], p, y0, grid,
                                   block["sample_times"], tuple(block["outputs"]))
    # long format, a (time, param, prcc) row per coefficient of each output
    artifacts: Artifacts = {f"prcc_{output}.csv": (("time", "param", "prcc"), [
        [repr(t), name, repr(float(c))]
        for t, row in zip(study.times, coefficients) for name, c in zip(study.param_names, row)])
        for output, coefficients in zip(study.outputs, study.coefficients)}
    names = ", ".join(artifacts)
    artifacts["prcc.meta.json"] = {"N": study.N, "seed": study.seed,
                                   "dropped_rows": study.dropped_rows,
                                   "outputs": list(study.outputs), "config": given}
    return (f"wrote {names} in {run} (N={block['N']}, "
            f"{study.dropped_rows} rows dropped)"), artifacts


def cmd_fit(args: argparse.Namespace, config: dict, given: dict,
            run: Path) -> tuple[str, Artifacts]:
    from . import calibrate

    p = _build_params(config)
    block = config["fit"]
    free = tuple(block["free"])
    x0 = block["x0"] or {name: getattr(p, name) for name in free if name in PARAM_NAMES}
    bounds = block["bounds"]
    if not bounds:  # [x0/4, 4*x0]; a free parameter without a start value gets none, FitConfig names it
        bounds = {name: (x0[name] / 4.0, x0[name] * 4.0) for name in free if name in x0}
        for name, (lo, _) in bounds.items():
            if not lo > 0.0:
                raise ConfigError(f"fit.x0.{shorten(name)} must be positive to derive its bounds, "
                                  f"got {x0[name]!r}")
    cfg = calibrate.FitConfig(free=free, bounds=bounds, x0=x0, max_evals=block["max_evals"],
                              tol=block["tol"], dt=block["dt"])
    y0 = _build_state(config, p, (block["seed_exposed"], block["seed_infected"], 0.0))
    data_path = args.data or block["data"]  # None: the bundled series; a missing file exits 4
    data = (calibrate.tanzania_series() if data_path is None
            else calibrate.IncidenceSeries.from_csv(data_path))
    result = calibrate.fit(data, cfg, p, y0)
    if not result.converged:
        print(f"warning: fit stopped after {result.evals} evaluations (max_evals={cfg.max_evals}) "
              f"before a step lowered the mse by less than tol={cfg.tol:g}", file=sys.stderr)
    # fit.json: every field of the result but ``predicted``, which fit.csv holds, and the config
    payload = {**dataclasses.asdict(result), "config": given}
    del payload["predicted"]
    return (f"mse = {result.mse:.6g} after {result.evals} evaluations, at bound: "
            f"{', '.join(result.at_bound) or 'none'}; wrote {run}"), {
        "fit.json": payload,
        "fit.csv": (("year", "observed", "predicted"), (
            [year, repr(float(obs)), repr(float(pred))]
            for year, obs, pred in zip(data.years, data.cases, result.predicted))),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabictl",
        description="Rabies transmission model: simulation, R_e analysis, "
                    "optimal control, sensitivity and calibration.",
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (dotted path, JSON value)")
    parser.add_argument("--outdir",
                        help=f"output root (default: output_dir, then ${OUTDIR_ENV}, then ./runs)")
    parser.add_argument("--jobs", type=int, help="ignored; studies run in one process")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="forward simulation under constant controls")
    sub.add_parser("reff", help="effective reproduction number (point or grid)")
    opt = sub.add_parser("optimize", help="forward-backward sweep for a strategy")
    controls = opt.add_mutually_exclusive_group()
    controls.add_argument("--strategy", help="A (all), B (u3,u4), C (u4) or D (u1,u2)")
    controls.add_argument("--mask", help="custom 4-digit control mask, e.g. 1010")
    sub.add_parser("prcc", help="LHS + PRCC global sensitivity study")
    fit_p = sub.add_parser("fit", help="calibrate parameters to incidence data")
    fit_p.add_argument("--data", help="CSV file with header year,cases")
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "reff": cmd_reff,
    "optimize": cmd_optimize,
    "prcc": cmd_prcc,
    "fit": cmd_fit,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, given = resolve_config(args.config, args.set)
        root = args.outdir or config["output_dir"] or os.environ.get(OUTDIR_ENV) or "runs"
        run = Path(root) / f"{args.command}-{datetime.now().strftime('%Y%m%d-%H%M%S-%f')}"
        summary, artifacts = _HANDLERS[args.command](args, config, given, run)
        run.mkdir(parents=True)
        for name, artifact in {**artifacts, "config.json": given}.items():
            if isinstance(artifact, tuple):
                write_csv(run / name, *artifact)
            else:
                write_json(run / name, artifact)
        print(summary)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
