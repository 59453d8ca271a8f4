"""Fixed-step RK4 integration on a shared uniform grid.

The forward pass advances the state system; the backward pass integrates an
adjoint system from the terminal node down to t0, reusing the stored state
trajectory. Both live on one grid so the optimal-control sweep can alternate
between them without interpolation machinery beyond node averaging.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .errors import ConfigError, IntegrationBlowupError
from .model import ControlConst, StateVec, ZERO_CONTROL, rhs
from .params import ParamSet

__all__ = [
    "TimeGrid",
    "Trajectory",
    "ControlPath",
    "rk4_forward",
    "rk4_backward",
    "euler_forward",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

# Undershoot handling: RK4 does not preserve positivity exactly. Components in
# (-CLAMP_TOL, -KEEP_TOL] are clamped to zero and counted; anything below
# -CLAMP_TOL aborts the integration.
KEEP_TOL = 1e-9
CLAMP_TOL = 1e-6

TRAJECTORY_HEADER = ("t",) + StateVec._fields


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with n_steps+1 nodes on [t0, tf]."""

    t0: float
    tf: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.tf > self.t0:
            raise ConfigError(f"grid needs tf > t0, got [{self.t0}, {self.tf}]")
        if self.n_steps < 1:
            raise ConfigError(f"grid needs n_steps >= 1, got {self.n_steps}")

    @property
    def h(self) -> float:
        return (self.tf - self.t0) / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    def times(self) -> list[float]:
        h = self.h
        return [self.t0 + i * h for i in range(self.n_steps + 1)]

    def node_at(self, t: float) -> int:
        """Index of the grid node nearest to t; t must lie on the grid span."""
        if t < self.t0 - 1e-12 or t > self.tf + 1e-12:
            raise ConfigError(f"time {t} outside grid span [{self.t0}, {self.tf}]")
        return min(self.n_steps, max(0, round((t - self.t0) / self.h)))


@dataclass(frozen=True)
class Trajectory:
    """States at every node of a grid, plus undershoot-clamp accounting."""

    grid: TimeGrid
    states: tuple[StateVec, ...]
    clamped: int = 0

    def __post_init__(self) -> None:
        if len(self.states) != self.grid.n_nodes:
            raise ConfigError(
                f"trajectory has {len(self.states)} states for {self.grid.n_nodes} nodes"
            )

    def at(self, t: float) -> StateVec:
        return self.states[self.grid.node_at(t)]


@dataclass(frozen=True)
class ControlPath:
    """Per-node control values plus the mask of controls in active use.

    Masked-off controls are forced to zero at construction so the invariant
    holds by construction everywhere downstream.
    """

    grid: TimeGrid
    values: tuple[ControlConst, ...]
    mask: tuple[bool, bool, bool, bool] = (True, True, True, True)

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.n_nodes:
            raise ConfigError(
                f"control path has {len(self.values)} nodes for {self.grid.n_nodes}"
            )
        masked = tuple(self._apply_mask(u) for u in self.values)
        for u in masked:
            u.validate()
        object.__setattr__(self, "values", masked)

    def _apply_mask(self, u: ControlConst) -> ControlConst:
        return ControlConst(*(v if on else 0.0 for v, on in zip(u, self.mask)))

    @classmethod
    def constant(
        cls,
        grid: TimeGrid,
        u: ControlConst = ZERO_CONTROL,
        mask: tuple[bool, bool, bool, bool] = (True, True, True, True),
    ) -> "ControlPath":
        return cls(grid, (u,) * grid.n_nodes, mask)

    def with_values(self, values: Sequence[ControlConst]) -> "ControlPath":
        return ControlPath(self.grid, tuple(values), self.mask)


def _require_same_grid(a: TimeGrid, b: TimeGrid, what: str) -> None:
    if a != b:
        raise ConfigError(f"{what} must share the integration grid, got {a} vs {b}")


def _mid_control(ua: ControlConst, ub: ControlConst) -> ControlConst:
    return ControlConst(*(0.5 * (x + y) for x, y in zip(ua, ub)))


def _clamp_state(y: StateVec, t: float) -> tuple[StateVec, int]:
    """Clamp small negative undershoots; abort on significant ones."""
    worst = min(y)
    if worst >= -KEEP_TOL:
        return y, 0
    if worst < -CLAMP_TOL:
        name = y._fields[y.index(worst)]
        raise IntegrationBlowupError(
            f"state component {name} = {worst:.3e} at t = {t:.6g}; "
            "reduce the step size (increase n_steps)"
        )
    clamped = 0
    out = list(y)
    for i, v in enumerate(out):
        if v < -KEEP_TOL:
            out[i] = 0.0
            clamped += 1
    return StateVec(*out), clamped


def _finite_trajectory(grid: TimeGrid, states: list[StateVec], clamped: int) -> Trajectory:
    """Wrap integrated states; a NaN or inf persists to the last node, so only it is checked."""
    if not all(map(math.isfinite, states[-1])):
        raise IntegrationBlowupError(
            f"state is not finite at t = {grid.tf:.6g}; "
            "check the parameters or reduce the step size (increase n_steps)"
        )
    return Trajectory(grid, tuple(states), clamped)


def rk4_forward(
    p: ParamSet, u_path: ControlPath, y0: StateVec, grid: TimeGrid
) -> Trajectory:
    """Classical RK4 over the grid; half-step controls average adjacent nodes."""
    _require_same_grid(u_path.grid, grid, "control path")
    y0.validate()
    h = grid.h
    half = 0.5 * h
    sixth = h / 6.0
    times = grid.times()
    u = u_path.values

    states = [y0]
    y = y0
    clamped_total = 0
    for i in range(grid.n_steps):
        t = times[i]
        ua, ub = u[i], u[i + 1]
        um = _mid_control(ua, ub)
        k1 = rhs(t, y, ua, p)
        k2 = rhs(t + half, StateVec(*(a + half * b for a, b in zip(y, k1))), um, p)
        k3 = rhs(t + half, StateVec(*(a + half * b for a, b in zip(y, k2))), um, p)
        k4 = rhs(t + h, StateVec(*(a + h * b for a, b in zip(y, k3))), ub, p)
        y = StateVec(
            *(a + sixth * (b + 2.0 * c + 2.0 * d + e)
              for a, b, c, d, e in zip(y, k1, k2, k3, k4))
        )
        y, n_clamped = _clamp_state(y, times[i + 1])
        clamped_total += n_clamped
        states.append(y)
    return _finite_trajectory(grid, states, clamped_total)


AdjointRhs = Callable[[float, tuple, StateVec, ControlConst], tuple]


def rk4_backward(
    adjoint_rhs: AdjointRhs,
    state_traj: Trajectory,
    u_path: ControlPath,
    terminal: tuple,
) -> tuple[tuple, ...]:
    """Integrate an adjoint system from tf down to t0 with classical RK4.

    ``adjoint_rhs(t, lam, y, u)`` returns d(lam)/dt. State and control values
    at half-steps are linear interpolants (averages) of the adjacent nodes.
    Returns one adjoint tuple per grid node, last node equal to ``terminal``.
    """
    grid = state_traj.grid
    _require_same_grid(u_path.grid, grid, "control path")
    h = grid.h
    half = 0.5 * h
    sixth = h / 6.0
    times = grid.times()
    ys = state_traj.states
    us = u_path.values

    out: list[tuple] = [tuple(terminal)]
    lam = tuple(terminal)
    for i in range(grid.n_steps, 0, -1):
        t = times[i]
        ya, yb = ys[i], ys[i - 1]
        ua, ub = us[i], us[i - 1]
        ym = StateVec(*(0.5 * (a + b) for a, b in zip(ya, yb)))
        um = _mid_control(ua, ub)
        k1 = adjoint_rhs(t, lam, ya, ua)
        k2 = adjoint_rhs(t - half, tuple(a - half * b for a, b in zip(lam, k1)), ym, um)
        k3 = adjoint_rhs(t - half, tuple(a - half * b for a, b in zip(lam, k2)), ym, um)
        k4 = adjoint_rhs(t - h, tuple(a - h * b for a, b in zip(lam, k3)), yb, ub)
        lam = tuple(
            a - sixth * (b + 2.0 * c + 2.0 * d + e)
            for a, b, c, d, e in zip(lam, k1, k2, k3, k4)
        )
        out.append(lam)
    out.reverse()
    return tuple(out)


def euler_forward(
    p: ParamSet, y0: StateVec, grid: TimeGrid, u: ControlConst = ZERO_CONTROL
) -> Trajectory:
    """Forward-Euler companion integrator (used by the calibration module)."""
    y0.validate()
    h = grid.h
    times = grid.times()
    states = [y0]
    y = y0
    clamped_total = 0
    for i in range(grid.n_steps):
        k = rhs(times[i], y, u, p)
        y = StateVec(*(a + h * b for a, b in zip(y, k)))
        y, n_clamped = _clamp_state(y, times[i + 1])
        clamped_total += n_clamped
        states.append(y)
    return _finite_trajectory(grid, states, clamped_total)


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Serialize a trajectory to CSV in full double precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_HEADER)
        for t, y in zip(traj.grid.times(), traj.states):
            writer.writerow([repr(t)] + [repr(v) for v in y])


def read_trajectory_csv(path: str | Path) -> tuple[list[float], list[StateVec]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != TRAJECTORY_HEADER:
            raise ConfigError(f"unexpected trajectory header: {header}")
        times: list[float] = []
        states: list[StateVec] = []
        for row in reader:
            times.append(float(row[0]))
            states.append(StateVec(*(float(v) for v in row[1:])))
    return times, states
