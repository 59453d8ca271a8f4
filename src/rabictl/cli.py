"""Command-line entry point emitting CSV/JSON artifacts.

Subcommands: simulate, reff, optimize, prcc, fit. Configuration comes from
an optional JSON file plus ``--set key=value`` overrides (dotted keys reach
nested blocks); every run writes the fully resolved configuration next to
its artifacts so outputs are reproducible byte for byte.

``main`` runs every subcommand the same way: it resolves the configuration,
calls the handler, which solves and only then creates the run directory and
writes its artifacts, then writes ``config.json`` and prints the handler's
summary. A failed run leaves no run directory and nothing on stdout.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 IO error.

``calibrate`` (scipy.optimize) and ``sensitivity`` are imported inside the
``fit`` and ``prcc`` handlers, so the other subcommands start without scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import math
import os
import sys
from datetime import datetime
from pathlib import Path
from typing import Any

from . import optctl, repro
from .errors import ConfigError, NumericError
from .integrate import ControlPath, TimeGrid, rk4_forward, write_json, write_trajectory_csv
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
        "initial_state": None,  # None: default scenario derived from parameters
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

    loaded = json.loads(text, parse_float=number, parse_constant=number)
    if non_finite:  # checked only once the whole text parsed: "NaN.csv" stays a string
        raise ConfigError(f"{source} holds the non-finite number {non_finite[0]}")
    return loaded


def _apply_set(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = _load_json(raw, f"--set {key}")
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


def _config_schema() -> dict[str, Any]:
    """The defaults, each block whose default is null replaced by the keys it accepts when set."""
    schema = _default_config()
    axis = dict.fromkeys(("name", "lo", "hi", "n"))
    schema["initial_state"] = dict.fromkeys(StateVec._fields)
    schema["reff"] = {"axis1": axis, "axis2": axis}
    return schema


def _check_keys(config: dict, default: dict, prefix: str = "") -> None:
    """Reject a key the schema does not hold; ``ParamSet.replace`` checks the parameter names."""
    for key, value in config.items():
        if key not in default:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        if isinstance(default[key], dict) and isinstance(value, dict) and key != "parameters":
            _check_keys(value, default[key], f"{prefix}{key}.")


def resolve_config(path: str | None, sets: list[str]) -> dict[str, Any]:
    """Defaults, then the config file, then --set overrides."""
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
    _check_keys(config, _config_schema())
    root = config["output_dir"]
    if not isinstance(root, (str, type(None))):
        raise ConfigError(f"output_dir must be a directory path or null, got {root!r}")
    return config


@contextlib.contextmanager
def _config_values():
    """Turn a bad or missing config value read in the block into a ConfigError; wrap no solver."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"missing or malformed config value ({exc!r})") from exc


def _integer(block: dict, name: str) -> int:
    """The entry of ``block`` that the dotted key ``name`` ends in, as an int.

    A bool, a non-number or a fractional number is a ConfigError naming ``name``.
    """
    value = block[name.rsplit(".", 1)[-1]]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _float(value: Any, name: str) -> float:
    """``value``, the entry at the dotted key ``name``, as a float.

    A bool or a non-number, such as the JSON string "0.5", is a ConfigError naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _build_params(config: dict, preset: str | None = None) -> ParamSet:
    """The parameters block over its preset, or over ``preset`` when given."""
    block = dict(config.get("parameters") or {})
    preset_name = block.pop("preset", "estimated")
    if preset is not None:
        preset_name = preset
    if preset_name not in PRESETS:
        raise ConfigError(f"unknown parameter preset {preset_name!r}")
    return PRESETS[preset_name].replace(
        **{k: _float(v, f"parameters.{k}") for k, v in block.items()})


def _build_state(config: dict, p: ParamSet) -> StateVec:
    block = config.get("initial_state") or {}
    base = seeded_state(p, *DEFAULT_SEEDING)._asdict()
    base.update({k: _float(v, f"initial_state.{k}") for k, v in block.items()})
    return StateVec(**base).validate()


def _build_grid(block: dict, name: str) -> TimeGrid:
    return TimeGrid(_float(block["t0"], f"{name}.t0"), _float(block["tf"], f"{name}.tf"),
                    _integer(block, f"{name}.n_steps"))


def _build_controls(config: dict) -> ControlConst:
    block = config.get("controls") or {}
    unknown = set(block) - {"u1", "u2", "u3", "u4"}
    if unknown:
        raise ConfigError(f"unknown control name(s): {sorted(unknown)}")
    return ControlConst(**{k: _float(v, f"controls.{k}") for k, v in block.items()}).validate()


def _make_outdir(config: dict, cli_outdir: str | None, command: str) -> Path:
    root = cli_outdir or config.get("output_dir") or os.environ.get(OUTDIR_ENV) or "runs"
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    out = Path(root) / f"{command}-{stamp}"
    out.mkdir(parents=True, exist_ok=False)
    return out


def _write_sidecar(outdir: Path, config: dict) -> None:
    write_json(outdir / "config.json", config)


# --- subcommands ----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace, config: dict) -> tuple[Path, str]:
    with _config_values():
        p = _build_params(config)
        y0 = _build_state(config, p)
        grid = _build_grid(config["grid"], "grid")
        u = _build_controls(config)
    traj = rk4_forward(p, ControlPath.constant(grid, u), y0, grid)
    outdir = _make_outdir(config, args.outdir, "simulate")
    write_trajectory_csv(traj, outdir / "trajectory.csv")
    return outdir, f"wrote {outdir / 'trajectory.csv'} ({grid.n_nodes} nodes, {traj.clamped} clamped)"


def cmd_reff(args: argparse.Namespace, config: dict) -> tuple[Path, str]:
    with _config_values():
        p = _build_params(config)
        u = _build_controls(config)
        axes = config["reff"]["axis1"], config["reff"]["axis2"]
        if any(axes) and not all(axes):
            missing = "reff.axis2" if axes[0] else "reff.axis1"
            raise ConfigError(f"a reff grid needs both axes, but {missing} is not set")
        if all(axes):  # two (name, lo, hi, n) axes: a grid; neither: a point
            axes = [(str(a["name"]), _float(a["lo"], f"reff.axis{i}.lo"),
                     _float(a["hi"], f"reff.axis{i}.hi"), _integer(a, f"reff.axis{i}.n"))
                    for i, a in enumerate(axes, 1)]
    if all(axes):
        grid = repro.re_grid(p, *axes, u)
        outdir = _make_outdir(config, args.outdir, "reff")
        repro.write_re_grid_csv(grid, outdir / "reff_grid.csv", outdir / "reff_grid.meta.json")
        return outdir, (f"wrote {outdir / 'reff_grid.csv'} "
                        f"({len(grid.axis1_values)}x{len(grid.axis2_values)} points)")
    breakdown = dataclasses.asdict(repro.effective_r(p, u))
    outdir = _make_outdir(config, args.outdir, "reff")
    write_json(outdir / "reff.json", breakdown)
    return outdir, "\n".join(f"{name} = {value:.12g}" for name, value in breakdown.items())


def _mask_from_args(args: argparse.Namespace) -> optctl.Mask:
    if args.mask is not None:
        bits = args.mask.strip()
        if len(bits) != 4 or any(b not in "01" for b in bits):
            raise ConfigError(f"--mask expects four 0/1 digits, got {args.mask!r}")
        return tuple(b == "1" for b in bits)  # type: ignore[return-value]
    strategy = (args.strategy or "A").upper()
    if strategy not in optctl.STRATEGY_MASKS:
        raise ConfigError(f"unknown strategy {args.strategy!r}; expected A, B, C or D")
    return optctl.STRATEGY_MASKS[strategy]


def cmd_optimize(args: argparse.Namespace, config: dict) -> tuple[Path, str]:
    with _config_values():
        p = _build_params(config)
        y0 = _build_state(config, p)
        grid = _build_grid(config["grid"], "grid")
        w = optctl.Weights(**{k: _float(v, f"weights.{k}")
                              for k, v in (config.get("weights") or {}).items()})
        block = config["sweep"]
        omega, tol = _float(block["omega"], "sweep.omega"), _float(block["tol"], "sweep.tol")
        max_iter = _integer(block, "sweep.max_iter")
    mask = _mask_from_args(args)
    result = optctl.forward_backward_sweep(
        p, w, y0, grid, mask, omega=omega, tol=tol, max_iter=max_iter
    )
    outdir = _make_outdir(config, args.outdir, "optimize")
    write_trajectory_csv(result.states, outdir / "states.csv")
    optctl.write_adjoints_csv(grid, result.adjoints, outdir / "adjoints.csv")
    optctl.write_controls_csv(result.controls, outdir / "controls.csv")
    optctl.write_sweep_summary_json(result, outdir / "summary.json", config)
    if not result.converged:
        print(f"warning: sweep stopped at max_iter={max_iter} before the control update "
              f"fell below tol={tol:g}", file=sys.stderr)
    return outdir, (f"J = {result.J_history[-1]:.6g} after {result.iterations} iterations "
                    f"(converged={result.converged}); wrote {outdir}")


def cmd_prcc(args: argparse.Namespace, config: dict) -> tuple[Path, str]:
    from . import sensitivity

    with _config_values():
        block = config["sensitivity"]
        # the study centres its ranges on its own preset; explicit parameter
        # overrides from the parameters block still apply on top
        p = _build_params(config, preset=block["preset"])
        if config.get("initial_state") is not None:
            y0 = _build_state(config, p)
        else:
            y0 = seeded_state(p, exposed=_float(block["seed_exposed"], "sensitivity.seed_exposed"),
                              infected=_float(block["seed_infected"], "sensitivity.seed_infected"),
                              M0=_float(block["M0"], "sensitivity.M0"))
        N = _integer(block, "sensitivity.N")
        seed = _integer(block, "sensitivity.seed")
        distribution = block["distribution"]
        if distribution == "normal":
            ranges = sensitivity.normal_ranges()
        elif distribution == "uniform":
            ranges = sensitivity.uniform_ranges(p, rel=_float(block["rel_range"],
                                                              "sensitivity.rel_range"))
        else:
            raise ConfigError(f"unknown sensitivity distribution {distribution!r}; "
                              "expected 'uniform' or 'normal'")
        grid = _build_grid(block["grid"], "sensitivity.grid")
        sample_times = [_float(t, "sensitivity.sample_times") for t in block["sample_times"]]
        outputs = tuple(block["outputs"])
    results = sensitivity.prcc_study(ranges, N, seed, p, y0, grid, sample_times, outputs)
    outdir = _make_outdir(config, args.outdir, "prcc")
    written = sensitivity.write_prcc_study(results, outdir, config)
    names = ", ".join(p.name for p in written)
    return outdir, f"wrote {names} in {outdir} (N={N}, {results[0].dropped_rows} rows dropped)"


def cmd_fit(args: argparse.Namespace, config: dict) -> tuple[Path, str]:
    from . import calibrate

    with _config_values():
        p = _build_params(config)
        block = config["fit"]
        data_path = args.data or block["data"]
        if not isinstance(data_path, (str, type(None))):
            raise ConfigError(f"fit.data must be a file path or null, got {data_path!r}")
        free = tuple(block["free"])
        if block["x0"]:
            x0 = {name: _float(v, f"fit.x0.{name}") for name, v in block["x0"].items()}
        else:
            x0 = {name: getattr(p, name) for name in free if name in PARAM_NAMES}
        if block["bounds"]:
            for name, pair in block["bounds"].items():
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ConfigError(f"fit.bounds.{name} must be a [lo, hi] pair, got {pair!r}")
            bounds = {name: (_float(lo, f"fit.bounds.{name}"), _float(hi, f"fit.bounds.{name}"))
                      for name, (lo, hi) in block["bounds"].items()}
        else:  # a free parameter without a start value gets no bounds; FitConfig names it
            bounds = {name: (x0[name] / 4.0, x0[name] * 4.0) for name in free if name in x0}
        cfg = calibrate.FitConfig(
            free=free, bounds=bounds, x0=x0,
            max_evals=_integer(block, "fit.max_evals"), tol=_float(block["tol"], "fit.tol"),
            dt=_float(block["dt"], "fit.dt"),
        )
        y0 = seeded_state(p, exposed=_float(block["seed_exposed"], "fit.seed_exposed"),
                          infected=_float(block["seed_infected"], "fit.seed_infected"))
    if data_path is None:
        data = calibrate.tanzania_series()
    else:
        data = calibrate.IncidenceSeries.from_csv(data_path)  # OSError -> exit 4
    result = calibrate.fit(data, cfg, p, y0)
    outdir = _make_outdir(config, args.outdir, "fit")
    calibrate.write_fit_json(result, outdir / "fit.json", config)
    calibrate.write_fit_csv(data, result, outdir / "fit.csv")
    if not result.converged:
        print(f"warning: fit stopped after {result.evals} evaluations (max_evals={cfg.max_evals}) "
              f"before the simplex spread fell below tol={cfg.tol:g}", file=sys.stderr)
    return outdir, (f"mse = {result.mse:.6g} after {result.evals} evaluations, at bound: "
                    f"{', '.join(result.at_bound) or 'none'}; wrote {outdir}")


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
    opt.add_argument("--strategy", help="A (all), B (u3,u4), C (u4) or D (u1,u2)")
    opt.add_argument("--mask", help="custom 4-digit control mask, e.g. 1010")
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
        config = resolve_config(args.config, args.set)
        outdir, summary = _HANDLERS[args.command](args, config)
        _write_sidecar(outdir, config)
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
