"""Least-squares calibration of model parameters to yearly incidence data.

Prediction mirrors the discretized update used for fitting: the full system
is advanced by forward Euler (not RK4) and infected-human counts are read
off at the observation years. scipy's Nelder-Mead minimizes the mean squared
error in a logit-transformed space, which keeps every iterate within the
bounds; a saturated logit rounds an estimate onto its bound.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from .errors import ConfigError, NumericError
from .integrate import TimeGrid, euler_forward, write_csv, write_json
from .model import StateVec
from .params import PARAM_NAMES, ParamSet

__all__ = [
    "IncidenceSeries",
    "FitConfig",
    "FitResult",
    "predict_incidence",
    "mse",
    "nelder_mead",
    "fit",
    "tanzania_series",
]


@dataclass(frozen=True)
class IncidenceSeries:
    """Yearly case counts."""

    years: tuple[int, ...]
    cases: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.years) != len(self.cases):
            raise ConfigError("years and cases must have equal length")
        for value in (*self.years, *self.cases):
            if not math.isfinite(value):
                raise ConfigError(f"years and case counts must be finite, got {value!r}")
        if any(b <= a for a, b in zip(self.years, self.years[1:])):
            raise ConfigError("years must be strictly increasing")
        if any(c < 0 for c in self.cases):
            raise ConfigError("case counts must be non-negative")

    @classmethod
    def from_csv(cls, path: str | Path) -> "IncidenceSeries":
        with open(path, newline="") as fh:
            reader = csv.reader(row for row in fh if not row.startswith("#"))
            header = next(reader, [])
            if [h.strip() for h in header] != ["year", "cases"]:
                raise ConfigError(f"expected header 'year,cases', got {header}")
            years, cases = [], []
            for row in reader:
                try:
                    year, count = row
                    years.append(int(year))
                    cases.append(float(count))
                except ValueError as exc:
                    raise ConfigError(f"bad row {row} in {path}: expected 'year,cases'") from exc
        return cls(tuple(years), tuple(cases))


def _check_euler_step(dt: float) -> None:
    if not 0.0 < dt <= 0.05:
        raise ConfigError(f"Euler step dt must lie in (0, 0.05] year, got {dt}")


@dataclass(frozen=True)
class FitConfig:
    """Free parameters, their bounds/start values and the stopping rule."""

    free: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    x0: dict[str, float]
    max_evals: int = 2000
    tol: float = 1e-12
    dt: float = 0.01

    def __post_init__(self) -> None:
        _check_euler_step(self.dt)
        if self.max_evals < 1:
            raise ConfigError(f"max_evals must be at least 1, got {self.max_evals}")
        if not 0.0 <= self.tol < math.inf:
            raise ConfigError(f"tol must be finite and non-negative, got {self.tol}")
        for name in self.free:
            if name not in PARAM_NAMES:
                raise ConfigError(f"unknown free parameter {name!r}")
            if name not in self.bounds:
                raise ConfigError(f"missing bounds for free parameter {name!r}")
            if name not in self.x0:
                raise ConfigError(f"missing start value for free parameter {name!r}")
            lo, hi = self.bounds[name]
            if not lo < hi:
                raise ConfigError(f"bounds for {name} need lo < hi")
            if not lo < self.x0[name] < hi:
                raise ConfigError(f"start value for {name} must lie strictly inside bounds")


@dataclass(frozen=True)
class FitResult:
    estimates: dict[str, float]
    mse: float
    evals: int
    converged: bool
    predicted: tuple[float, ...]
    at_bound: tuple[str, ...]  # sorted free names whose estimate sits on a bound


def _euler_grid(years: Sequence[int], dt: float) -> TimeGrid:
    _check_euler_step(dt)
    span = float(years[-1] - years[0])
    if span <= 0:
        raise ConfigError("need at least two distinct observation years")
    n_steps = round(span / dt)
    return TimeGrid(0.0, n_steps * dt, n_steps)


def predict_incidence(
    p: ParamSet, y0: StateVec, years: Sequence[int], dt: float = 0.01
) -> np.ndarray:
    """Forward-Euler I_H predictions at each observation year.

    The whole control-free system is discretized at step ``dt`` starting at
    the first observation year.
    """
    grid = _euler_grid(years, dt)
    traj = euler_forward(p, y0, grid)
    idx = [grid.node_at(float(year - years[0])) for year in years]
    return np.array([traj.states[k].I_H for k in idx])


def mse(observed: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean squared error between two equally long series."""
    if len(observed) != len(predicted):
        raise ConfigError(
            f"length mismatch: {len(observed)} observed vs {len(predicted)} predicted"
        )
    n = len(observed)
    return sum((o - p) ** 2 for o, p in zip(observed, predicted)) / n


# --- bounded Nelder-Mead -------------------------------------------------------


def _to_unconstrained(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    frac = (x - lo) / (hi - lo)
    return np.log(frac / (1.0 - frac))


def _from_unconstrained(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo + (hi - lo) / (1.0 + np.exp(-z))


def nelder_mead(
    f: Callable[[np.ndarray], float], cfg: FitConfig
) -> tuple[np.ndarray, float, int, bool]:
    """Bounded simplex minimization of ``f`` over the free-parameter vector.

    Runs scipy's Nelder-Mead in a logit-transformed unconstrained space, so
    estimates stay within the bounds, on one only where the logit saturates.
    The initial simplex perturbs each transformed coordinate z by 5%, or by
    0.00025 where |z| < 0.005. Stops when the function-value spread over the
    simplex is at most ``cfg.tol`` or the evaluation budget is exhausted.

    Returns (best x, best f, evaluations, converged).
    """
    lo = np.array([cfg.bounds[name][0] for name in cfg.free])
    hi = np.array([cfg.bounds[name][1] for name in cfg.free])
    x0 = np.array([cfg.x0[name] for name in cfg.free])
    n = len(cfg.free)

    if n == 0:
        value = f(x0)
        if not math.isfinite(value):
            raise NumericError("objective is not finite at the start point")
        return x0, value, 1, True

    evals, finite = 0, False

    def objective(z: np.ndarray) -> float:
        nonlocal evals, finite
        evals += 1
        value = f(_from_unconstrained(z, lo, hi))
        if math.isfinite(value):
            finite = True
            return value
        # scipy evaluates the n+1 initial vertices first
        if evals > n and not finite:
            raise NumericError("objective is not finite at any initial simplex vertex")
        return math.inf

    z0 = _to_unconstrained(x0, lo, hi)
    simplex = np.vstack([z0, z0 + np.diag(np.where(np.abs(z0) < 0.005, 0.00025, 0.05 * z0))])
    res = optimize.minimize(objective, z0, method="Nelder-Mead", options={
        "initial_simplex": simplex, "maxfev": cfg.max_evals, "maxiter": cfg.max_evals,
        "fatol": cfg.tol, "xatol": math.inf,
    })
    return _from_unconstrained(res.x, lo, hi), float(res.fun), evals, res.status == 0


def fit(
    data: IncidenceSeries, cfg: FitConfig, p_base: ParamSet, y0: StateVec
) -> FitResult:
    """Fit the free parameters of ``cfg`` to an incidence series."""

    def objective(x: np.ndarray) -> float:
        try:
            p = p_base.replace(**dict(zip(cfg.free, (float(v) for v in x))))
        except ConfigError:
            return math.inf
        try:
            return mse(data.cases, predict_incidence(p, y0, data.years, dt=cfg.dt))
        except NumericError:
            return math.inf

    _euler_grid(data.years, cfg.dt)  # only errors that depend on x may make the objective inf
    best_x, best_f, evals, converged = nelder_mead(objective, cfg)
    estimates = dict(zip(cfg.free, (float(v) for v in best_x)))
    at_bound = tuple(sorted(
        name for name, x in estimates.items()
        if min(abs(x - b) for b in cfg.bounds[name]) <= 1e-9 * np.ptp(cfg.bounds[name])))
    p_best = p_base.replace(**estimates)
    predicted = predict_incidence(p_best, y0, data.years, dt=cfg.dt)
    return FitResult(
        estimates=estimates,
        mse=float(mse(data.cases, predicted)),
        evals=evals,
        converged=converged,
        predicted=tuple(float(v) for v in predicted),
        at_bound=at_bound,
    )


def tanzania_series() -> IncidenceSeries:
    """Bundled approximate digitization of the 1990-2018 Tanzania series.

    The underlying report exists only as a figure; these values are a rough
    visual read-off intended for demonstrations, not quantitative claims.
    """
    ref = resources.files("rabictl.data").joinpath("tanzania_incidence.csv")
    with resources.as_file(ref) as path:
        return IncidenceSeries.from_csv(path)


def write_fit_json(result: FitResult, path: str | Path, config_echo: dict) -> None:
    payload = {
        "estimates": result.estimates,
        "mse": result.mse,
        "evals": result.evals,
        "converged": result.converged,
        "at_bound": list(result.at_bound),
        "config": config_echo,
    }
    write_json(path, payload)


def write_fit_csv(data: IncidenceSeries, result: FitResult, path: str | Path) -> None:
    write_csv(path, ("year", "observed", "predicted"), (
        [year, repr(float(obs)), repr(float(pred))]
        for year, obs, pred in zip(data.years, data.cases, result.predicted)))
