"""Least-squares calibration of model parameters to yearly incidence data.

Prediction mirrors the discretized update used for fitting: the full system
is advanced by forward Euler (not RK4) and infected-human counts are read
off at the observation years. scipy's trust-region reflective least squares
(Branch, Coleman & Li 1999) fits the residuals of those counts within native
bounds; ``fit.tol`` bounds the fall of the mean squared error per accepted step,
and a fit its evaluation budget stops names no active bound. Its Jacobian is that
of the unclamped Euler update, from the update's forward sensitivities
(Dickinson & Gelinas 1976), on the states of the march just made.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
from scipy import optimize

from .errors import ConfigError, NumericError, shorten
from .integrate import TimeGrid, euler_forward
from .model import StateVec, ZERO_CONTROL, jacobian, rhs
from .params import PARAM_NAMES, ParamSet

__all__ = ["IncidenceSeries", "FitConfig", "FitResult", "predict_incidence", "mse",
           "least_squares_fit", "fit", "tanzania_series"]


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
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:  # utf-8-sig drops a BOM
                lines = [row for row in fh if not row.startswith("#")]
        except UnicodeDecodeError as exc:
            raise ConfigError(f"data file {path} is not UTF-8 text: {exc}") from exc
        reader = filter(None, csv.reader(lines))  # a blank line is no row
        header = next(reader, [])
        if [h.strip() for h in header] != ["year", "cases"]:
            raise ConfigError(f"expected header 'year,cases', got {shorten(str(header))}")
        years, cases = [], []
        for row in reader:
            try:
                year, count = row
                years.append(int(year))
                cases.append(float(count))
            except ValueError as exc:
                raise ConfigError(
                    f"bad row {shorten(str(row))} in {path}: expected 'year,cases'") from exc
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
    tol: float = 1e-6
    dt: float = 0.01

    def __post_init__(self) -> None:
        _check_euler_step(self.dt)
        if self.max_evals < 1:
            raise ConfigError(f"max_evals must be at least 1, got {shorten(repr(self.max_evals))}")
        if not 0.0 <= self.tol < math.inf:
            raise ConfigError(f"tol must be finite and non-negative, got {self.tol}")
        if not self.free:
            raise ConfigError("a fit needs at least one free parameter")
        for key, entries in (("x0", self.x0), ("bounds", self.bounds)):
            for name in entries:
                if name not in self.free:
                    raise ConfigError(
                        f"fit.{key} names {shorten(repr(name))}, which is not a free parameter")
        for i, name in enumerate(self.free):
            if name not in PARAM_NAMES:
                raise ConfigError(f"unknown free parameter {shorten(repr(name))}")
            if name in self.free[:i]:
                raise ConfigError(f"free parameter {name!r} is named twice")
            if name not in self.x0:
                raise ConfigError(f"missing start value for free parameter {name!r}")
            if name not in self.bounds:
                raise ConfigError(f"missing bounds for free parameter {name!r}")
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
    at_bound: tuple[str, ...]  # sorted free names whose bound is active at the end


def _observation_nodes(years: Sequence[int], dt: float) -> tuple[TimeGrid, list[int]]:
    """The Euler grid from the first observation year to the last, and the node of each year."""
    _check_euler_step(dt)
    span = float(years[-1] - years[0]) if years else 0.0
    if span <= 0:
        raise ConfigError("need at least two distinct observation years")
    n_steps = round(span / dt)
    grid = TimeGrid(0.0, n_steps * dt, n_steps)
    offsets = [float(year - years[0]) for year in years]
    nodes = [grid.node_at(t) for t in offsets]  # first: a year past the grid's end names the span
    for year, t, k in zip(years, offsets, nodes):
        if abs(t / grid.h - k) > 1e-6:  # a node is k steps in, to rounding
            raise ConfigError(f"observation year {year} lies {abs(t - k * grid.h):.3g} y off the "
                              f"nearest Euler node; fit.dt = {dt} must divide a year")
    return grid, nodes


def predict_incidence(p: ParamSet, y0: StateVec, years: Sequence[int],
                      dt: float = 0.01) -> np.ndarray:
    """Forward-Euler I_H predictions at each observation year: the whole control-free system
    is discretized at step ``dt``, starting at the first observation year."""
    grid, idx = _observation_nodes(years, dt)
    return euler_forward(p, y0, grid).values[idx, 2]  # column 2 is I_H


def mse(observed: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean squared error between two equally long series."""
    if len(observed) != len(predicted):
        raise ConfigError(f"length mismatch: {len(observed)} observed vs {len(predicted)} predicted")
    return sum((o - p) ** 2 for o, p in zip(observed, predicted)) / len(observed)


# --- bounded least squares ----------------------------------------------------


class _BudgetUsed(Exception):
    """A residual call past ``FitConfig.max_evals``."""


def least_squares_fit(predict: Callable[[np.ndarray], Sequence[float]], observed: Sequence[float],
                      cfg: FitConfig, jac: Callable[[np.ndarray], Any]) -> FitResult:
    """Fit ``predict(x)`` to ``observed`` over the free-parameter vector x of ``cfg``.

    One scipy ``least_squares`` call (trust-region reflective, native bounds, Jacobian scaling)
    on the residuals (predict(x) - observed)/sqrt(n), so the mse is twice its cost. It stops
    once a step lowers the cost by less than ftol = tol/mse(x0) times it: the mse by less than
    ``cfg.tol``. ``jac(x)``, the derivative of ``predict``, is called only at the x of the
    latest ``predict`` call that returned, so it may reuse its work: scipy asks where it has
    just evaluated, and elsewhere ``predict`` runs first. ``evals`` counts ``predict`` calls;
    past ``cfg.max_evals`` the fit returns the best point it evaluated, unconverged and with
    no ``at_bound``, which only a converged fit reports. A ConfigError or NumericError from
    ``predict`` makes its residuals inf: a trial step there shrinks the trust region; at the
    start, or from ``jac``, it is a NumericError.
    """
    observed = np.asarray(observed, dtype=float)
    root_n = math.sqrt(len(observed))
    lo, hi, x0 = np.array([(*cfg.bounds[name], cfg.x0[name]) for name in cfg.free], dtype=float).T
    evals, best = 0, (math.inf, x0, None)  # lowest sum of squared residuals, its x, predict(x)
    last = None, None  # the x of the latest ``predict`` call that returned, and its residuals

    def residuals(x: np.ndarray) -> np.ndarray:
        nonlocal evals, best, last
        if np.array_equal(x, last[0]):
            return last[1]  # as scipy's first call, at a copy of the start evaluated below
        if evals == cfg.max_evals:
            raise _BudgetUsed
        evals += 1
        try:
            predicted = np.asarray(predict(x), dtype=float)
        except (ConfigError, NumericError):
            return np.full(len(observed), math.inf)
        r = (predicted - observed) / root_n
        last = x.copy(), r
        with np.errstate(over="ignore"):  # an inf sum of squares is no best point
            rr = r @ r
        if rr < best[0]:  # False for a NaN
            best = rr, x.copy(), predicted
        return r

    def scaled_jac(x: np.ndarray) -> np.ndarray:  # the residuals' Jacobian
        residuals(x)  # a march only where scipy has not just evaluated
        try:
            d = np.asarray(jac(x), dtype=float) / root_n if np.array_equal(x, last[0]) else None
        except (ConfigError, NumericError):
            d = None
        if d is None or not np.isfinite(d).all():
            raise NumericError(f"the fit's Jacobian is not finite near {best[1].tolist()}")
        return d

    r0 = residuals(x0)
    if not np.isfinite(r0).all():
        raise NumericError("the fit's residuals are not finite at the start point")
    if not math.isfinite(best[0]):
        raise NumericError("the fit's sum of squared residuals overflows at the start point")
    ftol = cfg.tol / best[0] if best[0] else 1.0  # a start with no residual stops at once
    try:
        with np.errstate(all="ignore"):  # a non-finite Jacobian fails below, not with a warning
            res = optimize.least_squares(  # scipy warns of an ftol below rounding
                residuals, x0, jac=scaled_jac, bounds=(lo, hi), method="trf",
                x_scale="jac", ftol=max(ftol, np.finfo(float).eps), max_nfev=cfg.max_evals)
    except _BudgetUsed:  # no last iterate: unconverged
        res = optimize.OptimizeResult(status=0)
    except ValueError as exc:  # np.linalg.LinAlgError: scipy's SVD of the Jacobian failed
        raise NumericError(f"the fit's linear algebra failed near {best[1].tolist()}") from exc
    _, x, predicted = best
    active = res.active_mask if res.status > 0 else ()  # a budget stop's bounds say nothing
    return FitResult(estimates=dict(zip(cfg.free, x.tolist())), mse=float(mse(observed, predicted)),
                     evals=evals, converged=res.status > 0, predicted=tuple(predicted.tolist()),
                     at_bound=tuple(sorted(n for n, a in zip(cfg.free, active) if a)))


def _incidence_jacobian(p: ParamSet, values: np.ndarray, grid: TimeGrid, nodes: Sequence[int],
                        cfg: FitConfig) -> np.ndarray:
    """d I_H / d x at ``nodes`` of the Euler march ``values`` (n_nodes, 12) of ``p``, unclamped.

    The sensitivities S = dy/dx of y' = y + h f(y, x) follow S' = (I + h J) S + h F from S = 0,
    with J = df/dy (``model.jacobian``) and F = df/dx at the step's start node: per free
    parameter one difference of ``rhs`` on all nodes between x -/+ 1e-4 x, kept inside the
    bounds; an end that breaks a parameter rule (theta > mu) falls back to x, so that difference
    is one-sided. It is exact where ``rhs`` is affine in x, and within about 1e-8 in C and the rho.
    """
    h, n, k = grid.h, grid.n_steps, len(cfg.free)
    starts, q = values[:-1], np.empty((n, 12, k))  # each step's start node, and h F there
    for j, name in enumerate(cfg.free):
        x, (lo, hi) = getattr(p, name), cfg.bounds[name]
        ends = []
        for v in (max(lo, x - 1e-4 * x), min(hi, x + 1e-4 * x)):
            try:
                ends.append((v, p.replace(**{name: v})))
            except ConfigError:
                ends.append((x, p))
        (a, pa), (b, pb) = ends
        fa, fb = (rhs(0.0, starts.T, ZERO_CONTROL, end) for end in (pa, pb))
        q[:, :, j] = np.subtract(fb, fa).T * h / (b - a)
    z = np.tile(np.eye(12 + k, k, -12), (n + 1, 1, 1))  # (S, I_k) at every node, S = 0 at 0
    for i in range(0, n, 128):  # 128 steps at a time keep the (128, 12, 12) maps small
        maps, inc = jacobian(StateVec._make(starts[i:i + 128].T), ZERO_CONTROL, p)
        maps += inc
        maps *= h
        maps[:, range(12), range(12)] += 1.0  # the identity plus h (T + I)
        steps = np.concatenate((maps, q[i:i + 128]), axis=2)  # [I + h J, h F], one per step
        for step, now, after in zip(steps, z[i:], z[i + 1:, :12]):
            np.dot(step, now, out=after)  # S' = (I + h J) S + h F
    return z[nodes, 2]


def fit(data: IncidenceSeries, cfg: FitConfig, p_base: ParamSet, y0: StateVec) -> FitResult:
    """Fit the free parameters of ``cfg`` to an incidence series (see ``least_squares_fit``).
    An evaluation is one Euler march; the Jacobian there reuses its states and makes none."""
    y0.validate()  # checked here, so only errors that depend on x make a residual non-finite
    p_base.replace(**cfg.x0)
    grid, nodes = _observation_nodes(data.years, cfg.dt)
    march = None  # the ParamSet and (n_nodes, 12) states of the latest prediction

    def predict(x: np.ndarray) -> np.ndarray:
        nonlocal march
        p = p_base.replace(**dict(zip(cfg.free, x.tolist())))
        march = p, euler_forward(p, y0, grid).values
        return march[1][nodes, 2]

    return least_squares_fit(predict, data.cases, cfg,
                             lambda x: _incidence_jacobian(*march, grid, nodes, cfg))


def tanzania_series() -> IncidenceSeries:
    """Bundled approximate digitization of the 1990-2018 Tanzania series.

    The underlying report exists only as a figure; these values are a rough
    visual read-off intended for demonstrations, not quantitative claims.
    """
    ref = resources.files("rabictl.data").joinpath("tanzania_incidence.csv")
    with resources.as_file(ref) as path:
        return IncidenceSeries.from_csv(path)

