"""Command-line entry point emitting CSV/JSON artifacts.

Subcommands: simulate, reff, optimize, prcc, fit. Configuration comes from
an optional JSON file plus ``--set key=value`` overrides (dotted keys reach
nested blocks); every run writes the fully resolved configuration next to
its artifacts so outputs are reproducible byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 IO error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys
from datetime import datetime
from pathlib import Path
from typing import Any

from . import calibrate, optctl, repro, sensitivity
from .errors import ConfigError, NumericError
from .integrate import ControlPath, TimeGrid, rk4_forward, write_trajectory_csv
from .model import DEFAULT_SEEDING, ControlConst, StateVec, seeded_state
from .params import PRESETS, ParamSet
from .sensitivity import uniform_ranges

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
        "controls": {"u1": 0.0, "u2": 0.0, "u3": 0.0, "u4": 0.0},
        "weights": {
            "K1": 1.0, "K2": 1.0, "K3": 1.0, "K4": 1.0, "K5": 1.0, "K6": 0.01,
            "A1": 50.0, "A2": 50.0, "A3": 50.0, "A4": 50.0,
        },
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


def _apply_set(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
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


def resolve_config(path: str | None, sets: list[str]) -> dict[str, Any]:
    """Defaults, then the config file, then --set overrides."""
    config = _default_config()
    if path is not None:
        file_path = Path(path)
        try:
            loaded = json.loads(file_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a JSON object")
        config = _deep_merge(config, loaded)
    for assignment in sets or []:
        _apply_set(config, assignment)
    return config


def _build_params(config: dict, preset: str | None = None) -> ParamSet:
    """The parameters block over its preset, or over ``preset`` when given."""
    block = dict(config.get("parameters") or {})
    preset_name = block.pop("preset", "estimated")
    if preset is not None:
        preset_name = preset
    if preset_name not in PRESETS:
        raise ConfigError(f"unknown parameter preset {preset_name!r}")
    return ParamSet.from_mapping(block, base=PRESETS[preset_name])


def _build_state(config: dict, p: ParamSet) -> StateVec:
    block = config.get("initial_state") or {}
    base = seeded_state(p, *DEFAULT_SEEDING)._asdict()
    unknown = set(block) - set(base)
    if unknown:
        raise ConfigError(f"unknown initial-state field(s): {sorted(unknown)}")
    base.update({k: float(v) for k, v in block.items()})
    return StateVec(**base).validate()


def _build_grid(block: dict) -> TimeGrid:
    return TimeGrid(float(block["t0"]), float(block["tf"]), int(block["n_steps"]))


def _build_controls(config: dict) -> ControlConst:
    block = config.get("controls") or {}
    unknown = set(block) - {"u1", "u2", "u3", "u4"}
    if unknown:
        raise ConfigError(f"unknown control name(s): {sorted(unknown)}")
    return ControlConst(**{k: float(v) for k, v in block.items()}).validate()


def _build_weights(config: dict) -> optctl.Weights:
    return optctl.Weights(**{k: float(v) for k, v in (config.get("weights") or {}).items()})


def _make_outdir(config: dict, cli_outdir: str | None, command: str) -> Path:
    root = cli_outdir or config.get("output_dir") or os.environ.get(OUTDIR_ENV) or "runs"
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    out = Path(root) / f"{command}-{stamp}"
    out.mkdir(parents=True, exist_ok=False)
    return out


def _write_sidecar(outdir: Path, config: dict) -> None:
    (outdir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


# --- subcommands ----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = resolve_config(args.config, args.set)
    p = _build_params(config)
    y0 = _build_state(config, p)
    grid = _build_grid(config["grid"])
    u = _build_controls(config)
    traj = rk4_forward(p, ControlPath.constant(grid, u), y0, grid)
    outdir = _make_outdir(config, args.outdir, "simulate")
    write_trajectory_csv(traj, outdir / "trajectory.csv")
    _write_sidecar(outdir, config)
    print(f"wrote {outdir / 'trajectory.csv'} ({grid.n_nodes} nodes, {traj.clamped} clamped)")
    return EXIT_OK


def _axis_from_block(block: dict) -> tuple[str, float, float, int]:
    try:
        return (str(block["name"]), float(block["lo"]), float(block["hi"]), int(block["n"]))
    except KeyError as exc:
        raise ConfigError(f"grid axis needs name/lo/hi/n, missing {exc}") from exc


def cmd_reff(args: argparse.Namespace) -> int:
    config = resolve_config(args.config, args.set)
    p = _build_params(config)
    u = _build_controls(config)
    block = config.get("reff") or {}
    outdir = _make_outdir(config, args.outdir, "reff")
    if block.get("axis1") and block.get("axis2"):
        grid = repro.re_grid(p, _axis_from_block(block["axis1"]), _axis_from_block(block["axis2"]), u)
        repro.write_re_grid_csv(grid, outdir / "reff_grid.csv", outdir / "reff_grid.meta.json")
        print(f"wrote {outdir / 'reff_grid.csv'} "
              f"({len(grid.axis1_values)}x{len(grid.axis2_values)} points)")
    else:
        breakdown = dataclasses.asdict(repro.effective_r(p, u))
        for name, value in breakdown.items():
            print(f"{name} = {value:.12g}")
        (outdir / "reff.json").write_text(json.dumps(breakdown, indent=2, sort_keys=True) + "\n")
    _write_sidecar(outdir, config)
    return EXIT_OK


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


def cmd_optimize(args: argparse.Namespace) -> int:
    config = resolve_config(args.config, args.set)
    p = _build_params(config)
    y0 = _build_state(config, p)
    grid = _build_grid(config["grid"])
    w = _build_weights(config)
    mask = _mask_from_args(args)
    sweep_cfg = config.get("sweep") or {}
    result = optctl.forward_backward_sweep(
        p, w, y0, grid, mask,
        omega=float(sweep_cfg.get("omega", 0.5)),
        tol=float(sweep_cfg.get("tol", 1e-4)),
        max_iter=int(sweep_cfg.get("max_iter", 200)),
    )
    outdir = _make_outdir(config, args.outdir, "optimize")
    write_trajectory_csv(result.states, outdir / "states.csv")
    optctl.write_adjoints_csv(grid, result.adjoints, outdir / "adjoints.csv")
    optctl.write_controls_csv(result.controls, outdir / "controls.csv")
    optctl.write_sweep_summary_json(result, outdir / "summary.json", config_echo=config)
    _write_sidecar(outdir, config)
    print(
        f"J = {result.J_history[-1]:.6g} after {result.iterations} iterations "
        f"(converged={result.converged}); wrote {outdir}"
    )
    return EXIT_OK


def cmd_prcc(args: argparse.Namespace) -> int:
    config = resolve_config(args.config, args.set)
    block = config["sensitivity"]
    # the study centres its ranges on its own preset; explicit parameter
    # overrides from the parameters block still apply on top
    p = _build_params(config, preset=block.get("preset", "baseline"))
    if config.get("initial_state") is not None:
        y0 = _build_state(config, p)
    else:
        y0 = seeded_state(
            p,
            exposed=float(block.get("seed_exposed", 5.0)),
            infected=float(block.get("seed_infected", 10.0)),
            M0=float(block.get("M0", 0.1)),
        )
    N = int(block["N"])
    seed = int(block["seed"])
    if block.get("distribution", "uniform") == "normal":
        ranges = sensitivity.normal_ranges()
    else:
        ranges = uniform_ranges(p, rel=float(block.get("rel_range", 0.25)))
    if N <= len(ranges) + 2:
        raise ConfigError(
            f"sensitivity N must exceed P + 2 = {len(ranges) + 2}, got {N}"
        )
    grid = _build_grid(block["grid"])
    results = sensitivity.prcc_study(
        ranges, N, seed, p, y0, grid,
        sample_times=[float(t) for t in block["sample_times"]],
        outputs=tuple(block["outputs"]),
        jobs=args.jobs,
    )
    outdir = _make_outdir(config, args.outdir, "prcc")
    written = sensitivity.write_prcc_study(results, outdir, config_echo=config)
    _write_sidecar(outdir, config)
    names = ", ".join(p.name for p in written)
    print(f"wrote {names} in {outdir} (N={N}, {results[0].dropped_rows} rows dropped)")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    config = resolve_config(args.config, args.set)
    p = _build_params(config)
    block = config["fit"]
    data_path = args.data or block.get("data")
    if data_path is None:
        data = calibrate.tanzania_series()
    else:
        data = calibrate.IncidenceSeries.from_csv(data_path)  # OSError -> exit 4

    free = tuple(block["free"])
    x0 = dict(block["x0"]) if block.get("x0") else {name: getattr(p, name) for name in free}
    bounds_block = block.get("bounds")
    if bounds_block:
        bounds = {name: (float(lo), float(hi)) for name, (lo, hi) in bounds_block.items()}
    else:
        bounds = {name: (x0[name] / 4.0, x0[name] * 4.0) for name in free}
    cfg = calibrate.FitConfig(
        free=free, bounds=bounds, x0=x0,
        max_evals=int(block.get("max_evals", 2000)),
        tol=float(block.get("tol", 1e-6)),
        dt=float(block.get("dt", 0.01)),
    )
    y0 = seeded_state(
        p, exposed=float(block.get("seed_exposed", 20.0)),
        infected=float(block.get("seed_infected", 50.0)),
    )
    result = calibrate.fit(data, cfg, p, y0)
    outdir = _make_outdir(config, args.outdir, "fit")
    calibrate.write_fit_json(result, outdir / "fit.json", config_echo=config)
    calibrate.write_fit_csv(data, result, outdir / "fit.csv")
    _write_sidecar(outdir, config)
    print(f"mse = {result.mse:.6g} after {result.evals} evaluations; wrote {outdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabictl",
        description="Rabies transmission model: simulation, R_e analysis, "
                    "optimal control, sensitivity and calibration.",
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (dotted path, JSON value)")
    parser.add_argument("--outdir", help=f"output root (default: ${OUTDIR_ENV} or ./runs)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes for parallel studies")
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
        return _HANDLERS[args.command](args)
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
