"""Fixed-step RK4 integration on a shared uniform grid.

``rk4_step`` is the one place the RK4 formula is written. The forward pass
steps the state system with the controls as its frozen input, through the
march (``_march``) it shares with forward Euler; the backward pass steps an
adjoint system from tf down to t0 with a step of -h, its input being the
stored state and control. Both share one grid and interpolate by node
averages only. A control path holds one (n_nodes, 4) array.

Every artifact of the package is written here: CSV by ``write_csv``, JSON by ``write_json``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, IntegrationBlowupError
from .model import ControlConst, StateVec, ZERO_CONTROL, rhs
from .params import ParamSet

__all__ = [
    "TimeGrid",
    "Trajectory",
    "ControlPath",
    "rk4_step",
    "rk4_forward",
    "rk4_backward",
    "euler_forward",
    "write_csv",
    "write_json",
    "write_node_csv",
    "write_trajectory_csv",
]

# Undershoot handling: RK4 does not preserve positivity exactly. Components in
# (-CLAMP_TOL, -KEEP_TOL] are clamped to zero and counted; anything below
# -CLAMP_TOL aborts the integration.
KEEP_TOL = 1e-9
CLAMP_TOL = 1e-6

# Largest grid accepted: a trajectory holds every node as Python floats, so a
# million steps already costs about half a gigabyte.
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with n_steps+1 nodes on [t0, tf]."""

    t0: float
    tf: float
    n_steps: int

    def __post_init__(self) -> None:
        if not -math.inf < self.t0 < self.tf < math.inf:
            raise ConfigError(f"grid needs finite t0 < tf, got [{self.t0}, {self.tf}]")
        if not 1 <= self.n_steps <= MAX_STEPS:
            raise ConfigError(f"grid needs 1 <= n_steps <= {MAX_STEPS}, got {self.n_steps}")

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

    @cached_property
    def values(self) -> np.ndarray:
        """The states as one read-only (n_nodes, 12) array, built on first use and then shared."""
        values = np.array(self.states)
        values.flags.writeable = False
        return values


@dataclass(frozen=True)
class ControlPath:
    """Per-node controls as a read-only (n_nodes, 4) array, plus the active-control mask.

    Masked-off controls are forced to zero at construction so the invariant
    holds by construction everywhere downstream.
    """

    grid: TimeGrid
    values: np.ndarray
    mask: tuple[bool, bool, bool, bool] = (True, True, True, True)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if len(values) != self.grid.n_nodes:
            raise ConfigError(f"control path has {len(values)} nodes for {self.grid.n_nodes}")
        values = np.where(self.mask, values, 0.0)
        outside = np.argwhere(~((values >= 0.0) & (values <= 1.0)))
        if len(outside):
            i, j = outside[0]
            raise ConfigError(
                f"control {ControlConst._fields[j]} must lie in [0, 1], got {values[i, j]}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(
        cls,
        grid: TimeGrid,
        u: ControlConst = ZERO_CONTROL,
        mask: tuple[bool, bool, bool, bool] = (True, True, True, True),
    ) -> "ControlPath":
        return cls(grid, np.tile(u, (grid.n_nodes, 1)), mask)

    @cached_property
    def consts(self) -> tuple[list[ControlConst], list[ControlConst]]:
        """Controls of Python floats at the nodes and at the step midpoints, built on first use."""
        u = self.values
        return list(map(ControlConst._make, u.tolist())), _midpoints(u, ControlConst)


def _require_same_grid(a: TimeGrid, b: TimeGrid, what: str) -> None:
    if a != b:
        raise ConfigError(f"{what} must share the integration grid, got {a} vs {b}")


def _midpoints(values: np.ndarray, vec: type) -> list:
    """One ``vec`` of Python floats per step midpoint: the average of the step's two nodes."""
    return list(map(vec._make, (0.5 * (values[1:] + values[:-1])).tolist()))


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
    return StateVec._make(0.0 if v < -KEEP_TOL else v for v in y), sum(v < -KEEP_TOL for v in y)


def _require_finite(values: tuple, what: str, t: float) -> None:
    """A NaN or inf persists to the end of a march, so only its last node is checked."""
    if not all(map(math.isfinite, values)):
        raise IntegrationBlowupError(
            f"{what} is not finite at t = {t:.6g}; "
            "check the parameters or reduce the step size (increase n_steps)"
        )


def _march(step: Callable, y0: StateVec, grid: TimeGrid) -> Trajectory:
    """States at every node; ``step(i, t, y)`` advances node i, at time t, before the clamp."""
    y0.validate()
    times = grid.times()
    states = [y0]
    y = y0
    clamped_total = 0
    for i in range(grid.n_steps):
        y = step(i, times[i], y)
        if min(y) < -KEEP_TOL:  # rare: an undershoot to clamp, or one to abort on
            y, n_clamped = _clamp_state(y, times[i + 1])
            clamped_total += n_clamped
        states.append(y)
    _require_finite(y, "state", grid.tf)
    return Trajectory(grid, tuple(states), clamped_total)


def rk4_step(f: Callable, y: tuple, t: float, h: float, za, zm, zb, *args) -> tuple:
    """One classical RK4 step of y' = f(t, y, z, *args) from t to t + h; h < 0 steps back.

    z is frozen at ``za``, ``zm`` and ``zb`` at t, t + h/2 and t + h. ``y`` is a
    NamedTuple of floats or of (N,) arrays, one call stepping N rows; the result has its type.
    """
    make = y._make
    half = 0.5 * h
    t_half = t + half
    k1 = f(t, y, za, *args)
    k2 = f(t_half, make([a + half * b for a, b in zip(y, k1)]), zm, *args)
    k3 = f(t_half, make([a + half * b for a, b in zip(y, k2)]), zm, *args)
    k4 = f(t + h, make([a + h * b for a, b in zip(y, k3)]), zb, *args)
    sixth = h / 6.0
    return make(
        [a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
    )


def rk4_forward(
    p: ParamSet, u_path: ControlPath, y0: StateVec, grid: TimeGrid
) -> Trajectory:
    """Classical RK4 over the grid; half-step controls average adjacent nodes."""
    _require_same_grid(u_path.grid, grid, "control path")
    h = grid.h
    u, um = u_path.consts
    return _march(lambda i, t, y: rk4_step(rhs, y, t, h, u[i], um[i], u[i + 1], p), y0, grid)


def rk4_backward(
    adjoint_rhs: Callable, state_traj: Trajectory, u_path: ControlPath, terminal: tuple
) -> tuple[tuple, ...]:
    """Integrate an adjoint system from tf down to t0 with classical RK4.

    ``adjoint_rhs(t, lam, (y, u))`` returns d(lam)/dt; its third argument is the
    pair of state and control, whose half-step values average the adjacent nodes.
    ``terminal`` is a NamedTuple; returns one of its type per node, the last equal to it.

    Raises:
        IntegrationBlowupError: if the adjoint at t0 is not finite or a step overflows.
    """
    grid = state_traj.grid
    _require_same_grid(u_path.grid, grid, "control path")
    minus_h, times = -grid.h, grid.times()
    us, um = u_path.consts
    nodes = list(zip(state_traj.states, us))  # the (state, control) input at each node
    mids = list(zip(_midpoints(state_traj.values, StateVec), um))  # and at each step midpoint

    out = [terminal]
    lam = terminal
    try:
        for i in range(grid.n_steps, 0, -1):
            lam = rk4_step(adjoint_rhs, lam, times[i], minus_h, nodes[i], mids[i - 1], nodes[i - 1])
            out.append(lam)
    except OverflowError:  # x ** 2 on a float raises where x * x gives inf, which persists to t0
        lam = (math.inf,)
    _require_finite(lam, "adjoint", grid.t0)
    out.reverse()
    return tuple(out)


def euler_forward(p: ParamSet, y0: StateVec, grid: TimeGrid) -> Trajectory:
    """Uncontrolled forward Euler over the grid: the discretised update the calibration fits."""
    h = grid.h

    def step(i: int, t: float, y: StateVec) -> StateVec:
        return tuple.__new__(StateVec, [a + h * b for a, b in zip(y, rhs(t, y, ZERO_CONTROL, p))])
    return _march(step, y0, grid)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV artifact: the header row, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload: Any) -> None:
    """A JSON artifact: indented, keys sorted, newline-terminated."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_node_csv(path: str | Path, header: Sequence[str], grid: TimeGrid, rows: Iterable) -> None:
    """One CSV row per grid node, its time first, in full double precision."""
    write_csv(path, header, ([repr(t), *map(repr, row)] for t, row in zip(grid.times(), rows)))


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    write_node_csv(path, ("t",) + StateVec._fields, traj.grid, traj.states)
