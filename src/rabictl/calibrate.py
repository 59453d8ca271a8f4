"""Least-squares calibration of model parameters to yearly incidence data.

Prediction mirrors the discretized update used for fitting: the full system
is advanced by forward Euler (not RK4) and infected-human counts are read
off at the observation years. A bounded Nelder-Mead simplex minimizes the
mean squared error; bounds are enforced exactly through a logit transform,
so every iterate stays interior.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .integrate import TimeGrid, euler_forward
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
        if any(b <= a for a, b in zip(self.years, self.years[1:])):
            raise ConfigError("years must be strictly increasing")
        if any(c < 0 for c in self.cases):
            raise ConfigError("case counts must be non-negative")

    @classmethod
    def from_csv(cls, path: str | Path) -> "IncidenceSeries":
        with open(path, newline="") as fh:
            reader = csv.reader(row for row in fh if not row.startswith("#"))
            header = next(reader)
            if [h.strip() for h in header] != ["year", "cases"]:
                raise ConfigError(f"expected header 'year,cases', got {header}")
            years, cases = [], []
            for row in reader:
                years.append(int(row[0]))
                cases.append(float(row[1]))
        return cls(tuple(years), tuple(cases))


@dataclass(frozen=True)
class FitConfig:
    """Free parameters, their bounds/start values and simplex settings."""

    free: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    x0: dict[str, float]
    reflection: float = 1.0
    expansion: float = 2.0
    contraction: float = 0.5
    shrink: float = 0.5
    max_evals: int = 2000
    tol: float = 1e-12
    dt: float = 0.01

    def __post_init__(self) -> None:
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
        if not self.reflection > 0:
            raise ConfigError("reflection coefficient must be positive")
        if not self.expansion > 1:
            raise ConfigError("expansion coefficient must exceed 1")
        if not 0 < self.contraction < 1:
            raise ConfigError("contraction coefficient must lie in (0, 1)")
        if not 0 < self.shrink < 1:
            raise ConfigError("shrink coefficient must lie in (0, 1)")


@dataclass(frozen=True)
class FitResult:
    estimates: dict[str, float]
    mse: float
    evals: int
    converged: bool
    predicted: tuple[float, ...]


def predict_incidence(
    p: ParamSet, y0: StateVec, years: Sequence[int], dt: float = 0.01
) -> np.ndarray:
    """Forward-Euler I_H predictions at each observation year.

    The whole control-free system is discretized at step ``dt`` starting at
    the first observation year.
    """
    if dt > 0.05:
        raise ConfigError(f"Euler step dt must be <= 0.05 year, got {dt}")
    span = float(years[-1] - years[0])
    if span <= 0:
        raise ConfigError("need at least two distinct observation years")
    n_steps = round(span / dt)
    grid = TimeGrid(0.0, n_steps * dt, n_steps)
    traj = euler_forward(p, y0, grid)
    idx = [grid.node_at(float(year - years[0])) for year in years]
    out = np.array([traj.states[k].I_H for k in idx])
    if not np.all(np.isfinite(out)):
        raise NumericError("incidence prediction blew up; reduce dt")
    return out


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

    Works in a logit-transformed unconstrained space, so returned estimates
    satisfy the bounds strictly. The initial simplex perturbs each transformed
    coordinate by 5% (0.00025 absolute for zero coordinates). Stops when the
    function-value spread over the simplex drops below ``cfg.tol`` or the
    evaluation budget is exhausted.

    Returns (best x, best f, evaluations, converged).
    """
    lo = np.array([cfg.bounds[name][0] for name in cfg.free])
    hi = np.array([cfg.bounds[name][1] for name in cfg.free])
    x0 = np.array([cfg.x0[name] for name in cfg.free])
    n = len(cfg.free)

    evals = 0

    def objective(z: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        value = f(_from_unconstrained(z, lo, hi))
        return value if math.isfinite(value) else math.inf

    if n == 0:
        value = f(x0)
        if not math.isfinite(value):
            raise NumericError("objective is not finite at the start point")
        return x0, value, 1, True

    z0 = _to_unconstrained(x0, lo, hi)
    simplex = [z0]
    for i in range(n):
        step = 0.05 * z0[i] if z0[i] != 0.0 else 0.00025
        vertex = z0.copy()
        vertex[i] += step
        simplex.append(vertex)
    values = [objective(z) for z in simplex]
    if all(math.isinf(v) for v in values):
        raise NumericError("objective is not finite at any initial simplex vertex")

    converged = False
    while evals < cfg.max_evals:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        spread = values[-1] - values[0]
        if spread < cfg.tol:
            converged = True
            break

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + cfg.reflection * (centroid - worst)
        f_r = objective(reflected)
        if f_r < values[0]:
            expanded = centroid + cfg.expansion * (reflected - centroid)
            f_e = objective(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < values[-1]:
                contracted = centroid + cfg.contraction * (reflected - centroid)
            else:
                contracted = centroid + cfg.contraction * (worst - centroid)
            f_c = objective(contracted)
            if f_c < min(f_r, values[-1]):
                simplex[-1], values[-1] = contracted, f_c
            else:
                best = simplex[0]
                for i in range(1, n + 1):
                    simplex[i] = best + cfg.shrink * (simplex[i] - best)
                    values[i] = objective(simplex[i])

    order = np.argsort(values, kind="stable")
    best_z = simplex[order[0]]
    return _from_unconstrained(best_z, lo, hi), values[order[0]], evals, converged


def fit(
    data: IncidenceSeries, cfg: FitConfig, p_base: ParamSet, y0: StateVec
) -> FitResult:
    """Fit the free parameters of ``cfg`` to an incidence series."""

    def objective(x: np.ndarray) -> float:
        try:
            p = p_base.replace(**dict(zip(cfg.free, (float(v) for v in x))))
            predicted = predict_incidence(p, y0, data.years, dt=cfg.dt)
        except (ConfigError, NumericError):
            return math.inf
        return mse(data.cases, predicted)

    best_x, best_f, evals, converged = nelder_mead(objective, cfg)
    estimates = dict(zip(cfg.free, (float(v) for v in best_x)))
    p_best = p_base.replace(**estimates)
    predicted = predict_incidence(p_best, y0, data.years, dt=cfg.dt)
    return FitResult(
        estimates=estimates,
        mse=float(mse(data.cases, predicted)),
        evals=evals,
        converged=converged,
        predicted=tuple(float(v) for v in predicted),
    )


def tanzania_series() -> IncidenceSeries:
    """Bundled approximate digitization of the 1990-2018 Tanzania series.

    The underlying report exists only as a figure; these values are a rough
    visual read-off intended for demonstrations, not quantitative claims.
    """
    ref = resources.files("rabictl.data").joinpath("tanzania_incidence.csv")
    with resources.as_file(ref) as path:
        return IncidenceSeries.from_csv(path)


def write_fit_json(result: FitResult, path: str | Path, config_echo: dict | None = None) -> None:
    payload = {
        "estimates": result.estimates,
        "mse": result.mse,
        "evals": result.evals,
        "converged": result.converged,
    }
    if config_echo is not None:
        payload["config"] = config_echo
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_fit_csv(data: IncidenceSeries, result: FitResult, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "observed", "predicted"])
        for year, obs, pred in zip(data.years, data.cases, result.predicted):
            writer.writerow([year, repr(float(obs)), repr(float(pred))])
