"""Fixed-step RK4 integration of autonomous fields y' = f(y, z, p) on a shared uniform grid.

The RK4 formula is written in two forms with one operand order: ``rk4_step`` steps a plain
ndarray, each stage one array operation, and ``_rk4_state_step`` a StateVec of floats, field by
field, each stage state a tuple literal and the result one NamedTuple; ``_euler_step`` is the
field-by-field Euler step. ``tests/test_kernels.py`` holds each equal, bit for bit, to its plain
reference step. One march (``_march``), RK4 or Euler, steps a trajectory's StateVec of floats,
kept at every node, or a PRCC batch's (12, N) ndarray (``rk4_batch``), kept at the study's
sample nodes, under one clamp rule (``_clamp_state``). The adjoint is affine in lam, so the
backward pass, from tf down to t0 with a step of -h, is a linear recurrence of RK4 propagators
applied by one matrix-vector product per step. Once per solve, the adjoint
(``optctl.adjoint_parts``) is evaluated on every node and step midpoint as a constant (13, 13)
part and the few flows that vary (14 for the model, writing 28 entries); per block of BLOCK
steps, those entries are written into one reused generator buffer and the block's propagators
built from it. Both passes share one grid and interpolate by node averages only. A trajectory
holds its states as one read-only (n_nodes, 12) array, built once from the march's StateVecs, and
a control path one (n_nodes, 4) array and no mask: the sweep keeps a strategy's masked controls at
+0.0 itself. Both check and freeze their array by one rule (``_node_table``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ConfigError, IntegrationBlowupError, echo, is_count, is_finite
from .model import ControlConst, StateVec, ZERO_CONTROL, rhs
from .params import ParamSet, rates_of

__all__ = [
    "TimeGrid",
    "Trajectory",
    "ControlPath",
    "rk4_step",
    "rk4_forward",
    "rk4_backward",
    "rk4_batch",
    "euler_forward",
]

# Undershoot handling: RK4 does not preserve positivity exactly. Components in
# [-CLAMP_TOL, -KEEP_TOL) are clamped to zero and counted; one below -CLAMP_TOL
# fails its row (see ``_clamp_state``).
KEEP_TOL = 1e-9
CLAMP_TOL = 1e-6

# Largest grid accepted: a march keeps every node as Python floats until its
# trajectory's array is built, so a million steps already costs about half a gigabyte.
MAX_STEPS = 1_000_000

# Steps whose adjoint propagators are built in one numpy pass: enough to spread
# numpy's per-call cost, few enough that the (2*BLOCK+1, 13, 13) generator buffer and
# the (BLOCK, 13, 13) stages stay small. The system's flows, evaluated once per solve
# at two points a step, cost two doubles a step per varying flow (224 bytes a step for
# the model's 14), plus 256 bytes a step for the 16 state and control inputs at those
# points while the system is evaluated.
BLOCK = 48


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with n_steps+1 nodes on [t0, tf]."""

    t0: float
    tf: float
    n_steps: int

    def __post_init__(self) -> None:
        if not is_count(self.n_steps, 1, MAX_STEPS):
            raise ConfigError(
                f"grid needs 1 <= n_steps <= {MAX_STEPS}, got {echo(self.n_steps)}")
        object.__setattr__(self, "n_steps", int(self.n_steps))  # a numpy count steps as an int
        # nodes t0 + i*h round by under 2 ulps of the largest |t|: a step of 4 eps of it parts them
        if not (is_finite(self.t0) and is_finite(self.tf)
                and 2.0**-50 * max(abs(self.t0), abs(self.tf)) < self.h < math.inf):
            raise ConfigError(f"grid needs finite t0 < tf and a finite step (tf - t0)/n_steps "
                              f"that separates the nodes, got [{echo(self.t0)}, {echo(self.tf)}] "
                              f"in {self.n_steps} steps")

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
        if not (is_finite(t) and self.t0 - 1e-12 <= t <= self.tf + 1e-12):
            raise ConfigError(f"time {echo(t)} outside grid span [{self.t0}, {self.tf}]")
        return min(self.n_steps, max(0, round((t - self.t0) / self.h)))


def _node_table(grid: TimeGrid, values: Any, k: int, what: str) -> np.ndarray:
    """``values`` as a read-only (n_nodes, k) float copy: one row per node of ``grid``."""
    try:  # as floats, a str would read as a number and None as NaN: only numbers are read
        given, n = np.asarray(values), grid.n_nodes
    except ValueError:  # ragged rows: a cell holds a sequence, refused as a None cell is
        given = np.array(None)
    if given.dtype.kind not in "biuf" and not all(map(is_finite, given.flat)):
        raise ConfigError(f"{what} holds a cell that is not a finite number")
    values = np.array(given, dtype=float, ndmin=1)
    if values.shape != (n, k):
        raise ConfigError(f"{what} has {len(values)} nodes for {n}: its shape is "
                          f"{values.shape}, not ({n}, {k})")
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class Trajectory:
    """States at every node of a grid, one read-only (n_nodes, 12) array, and the clamp count."""

    grid: TimeGrid
    values: np.ndarray
    clamped: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _node_table(self.grid, self.values, 12, "trajectory"))


@dataclass(frozen=True)
class ControlPath:
    """Per-node controls as a read-only (n_nodes, 4) array, each in [0, 1]."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _node_table(self.grid, self.values, 4, "control path"))
        ControlConst._make(self.values.T).validate()  # node by node, as the march reads them

    @classmethod
    def constant(cls, grid: TimeGrid, u: ControlConst = ZERO_CONTROL) -> "ControlPath":
        return cls(grid, np.tile(u, (grid.n_nodes, 1)))


def _require_same_grid(a: TimeGrid, b: TimeGrid, what: str) -> None:
    if a != b:
        raise ConfigError(f"{what} must share the integration grid, got {a} vs {b}")


def _midpoints(values: np.ndarray) -> np.ndarray:
    """One row per step: the average of the step's two nodes."""
    return 0.5 * (values[1:] + values[:-1])


def _clamp_state(y: StateVec | np.ndarray, t: float) -> tuple[StateVec | np.ndarray, Any]:
    """Zero the components in [-CLAMP_TOL, -KEEP_TOL) of a StateVec of floats, or of each row
    of a (12, N) ndarray batch, into a copy, and count them per row: an int, or an (N,) array.
    Below -CLAMP_TOL a StateVec raises, while a batch row turns NaN and counts 0."""
    batch = type(y) is np.ndarray
    if not batch and (worst := min(y)) < -CLAMP_TOL:
        raise IntegrationBlowupError(f"state component {y._fields[y.index(worst)]} = {worst:.3e} "
                                     f"at t = {t:.6g}; reduce the step size (increase n_steps)")
    Y = np.array(y if batch else [y], dtype=float).reshape(12, -1)  # (12, rows)
    low, gone = Y < -KEEP_TOL, (Y < -CLAMP_TOL).any(axis=0)
    Y[low] = 0.0
    Y[:, gone] = np.nan
    counts = np.where(gone, 0, low.sum(axis=0))
    return (Y, counts) if batch else (type(y)._make(Y[:, 0].tolist()), int(counts[0]))


def _not_finite(what: str, t: float) -> IntegrationBlowupError:
    return IntegrationBlowupError(f"{what} is not finite at t = {t:.6g}; "
                                  "check the parameters or reduce the step size (increase n_steps)")


def _require_finite(values: Sequence[float] | np.ndarray, what: str, t: float) -> None:
    """A NaN or inf persists to the end of a march, so only its last node is checked."""
    if not np.isfinite(values).all():
        raise _not_finite(what, t)


def _march(step: Callable, f: Callable, y: StateVec | np.ndarray, grid: TimeGrid, p, za, zm, zb,
           nodes: Sequence[int]) -> tuple[list, StateVec | np.ndarray, Any]:
    """Step ``y``, a StateVec of floats or a (12, N) ndarray batch, by ``step(f, y, h, za, zm,
    zb, p)``, as ``rk4_step``, its controls drawn in turn from ``za``, ``zm`` and ``zb``; the
    node times only date a clamp's error. Returns the states at ``nodes``, in their order, the
    last state and the clamp count, an int or (N,) array; a batch finds its undershoots with
    np.fmin, which skips NaN rows."""
    lowest = min if type(y) is not np.ndarray else lambda s: np.fmin.reduce(s, axis=None)
    times, h, wanted = grid.times(), grid.h, set(nodes)
    kept, clamped = {0: y}, 0
    for i, a, m, b in zip(range(1, grid.n_nodes), za, zm, zb):
        y = step(f, y, h, a, m, b, p)
        if lowest(y) < -KEEP_TOL:  # rare: an undershoot to clamp, or one to fail on
            y, n_clamped = _clamp_state(y, times[i])
            clamped += n_clamped
        if i in wanted:
            kept[i] = y
    return [kept[i] for i in nodes], y, clamped


def _trajectory(step: Callable, y0: StateVec, grid: TimeGrid, p, za, zm, zb) -> Trajectory:
    """Every node of a StateVec march through the global rhs (a tracer may wrap it), as an array."""
    states, y, clamped = _march(step, rhs, y0.validate(), grid, p, za, zm, zb, range(grid.n_nodes))
    _require_finite(y, "state", grid.tf)
    values = np.fromiter(chain.from_iterable(states), float).reshape(-1, 12)
    return Trajectory(grid, values, clamped)


def rk4_step(f: Callable, y: np.ndarray, h: float, za, zm, zb, p) -> np.ndarray:
    """One classical RK4 step of the autonomous y' = f(y, z, p) over a step h; h < 0 steps back.

    z is frozen at ``za``, ``zm`` and ``zb`` at the step's start, middle and end. ``y`` and each
    stage state is an ndarray, and each value of ``f`` is read as one (``np.asarray``), as
    ``rhs``'s StateVec of (N,) rows, so that each stage is one array operation.
    """
    half = 0.5 * h
    k1 = np.asarray(f(y, za, p))  # one fixed argument p: ``*args`` would pack a tuple per call
    k2 = np.asarray(f(y + half * k1, zm, p))
    k3 = np.asarray(f(y + half * k2, zm, p))
    k4 = np.asarray(f(y + h * k3, zb, p))
    sixth = h / 6.0
    return y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_state_step(f: Callable, y: StateVec, h: float, za, zm, zb, p) -> StateVec:
    """``rk4_step`` on a StateVec of floats, field by field, with its operand order: each stage
    state and the result is one tuple literal, the result a NamedTuple built without _make."""
    y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12 = y
    half = 0.5 * h
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12 = f(y, za, p)
    b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12 = f((
        y1 + half * a1, y2 + half * a2, y3 + half * a3, y4 + half * a4, y5 + half * a5,
        y6 + half * a6, y7 + half * a7, y8 + half * a8, y9 + half * a9, y10 + half * a10,
        y11 + half * a11, y12 + half * a12), zm, p)
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = f((
        y1 + half * b1, y2 + half * b2, y3 + half * b3, y4 + half * b4, y5 + half * b5,
        y6 + half * b6, y7 + half * b7, y8 + half * b8, y9 + half * b9, y10 + half * b10,
        y11 + half * b11, y12 + half * b12), zm, p)
    d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12 = f((
        y1 + h * c1, y2 + h * c2, y3 + h * c3, y4 + h * c4, y5 + h * c5, y6 + h * c6,
        y7 + h * c7, y8 + h * c8, y9 + h * c9, y10 + h * c10, y11 + h * c11, y12 + h * c12), zb, p)
    sixth = h / 6.0
    return tuple.__new__(type(y), (
        y1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1), y2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
        y3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3), y4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
        y5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5), y6 + sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6),
        y7 + sixth * (a7 + 2.0 * b7 + 2.0 * c7 + d7), y8 + sixth * (a8 + 2.0 * b8 + 2.0 * c8 + d8),
        y9 + sixth * (a9 + 2.0 * b9 + 2.0 * c9 + d9),
        y10 + sixth * (a10 + 2.0 * b10 + 2.0 * c10 + d10),
        y11 + sixth * (a11 + 2.0 * b11 + 2.0 * c11 + d11),
        y12 + sixth * (a12 + 2.0 * b12 + 2.0 * c12 + d12)))


def _euler_step(f: Callable, y: StateVec, h: float, za, zm, zb, p) -> StateVec:
    """One forward Euler step of y' = f(y, za, p), field by field, in ``rk4_step``'s form."""
    y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12 = y
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12 = f(y, za, p)
    return tuple.__new__(type(y), (
        y1 + h * a1, y2 + h * a2, y3 + h * a3, y4 + h * a4, y5 + h * a5, y6 + h * a6,
        y7 + h * a7, y8 + h * a8, y9 + h * a9, y10 + h * a10, y11 + h * a11, y12 + h * a12))


def rk4_forward(p: ParamSet, u_path: ControlPath, y0: StateVec) -> Trajectory:
    """Classical RK4 over the control path's grid; half-step controls average adjacent nodes."""
    u, grid = u_path.values.tolist(), u_path.grid  # u: rows of floats u1..u4, as stages read them
    return _trajectory(_rk4_state_step, y0, grid, p, u, _midpoints(u_path.values).tolist(), u[1:])


def rk4_batch(p, Y0: np.ndarray, grid: TimeGrid, nodes: Sequence[int]) -> tuple:
    """Uncontrolled RK4 of a (12, N) batch, a column per row of the (N,) parameter arrays in the
    namespace ``p``, which gets their ``rates``: the (len(nodes), 12, N) states at ``nodes``, the
    (N,) clamp counts, and the mask of rows fallen below -CLAMP_TOL (made NaN) or not finite."""
    zero = repeat(ZERO_CONTROL)
    with np.errstate(all="ignore"):  # a sum of rates, or a failed row's march, may overflow
        p.rates = rates_of(p)  # once per batch, not in each call of the global rhs
        kept, last, clamped = _march(rk4_step, rhs, Y0, grid, p, zero, zero, zero, nodes)
    return np.array(kept), clamped + np.zeros(Y0.shape[1], int), ~np.isfinite(last).all(axis=0)


def _linear(z: np.ndarray, a: np.ndarray, _: None) -> np.ndarray:
    return a @ z


def rk4_backward(
    system: Callable, state_traj: Trajectory, u_path: ControlPath, terminal: Sequence[float]
) -> np.ndarray:
    """Integrate an affine adjoint system lam' = G lam + g from tf down to t0 with classical RK4.

    ``system(y, u)`` maps a StateVec and a ControlConst of (m,) arrays to ``(a, flows)``:
    at point p the generator [[G, g], [0, 0]] of z = (lam, 1) is the (13, 13) array ``a``
    with d[p] added at [j, src] and taken from [j, dst] for each (src, dst, j, d) of ``flows``
    (the tuples of ``model._varying_flows``), that is lam_j' += d (lam_src - lam_dst), with
    src, dst, j < 12 and each d an (m,) array. ``system`` is called once, on every node and
    step midpoint (the average of the step's two nodes). Each step is the affine map
    lam_{i-1} = P_i lam_i + q_i; ``rk4_step`` on a (BLOCK, 13, 13) stack of identities builds
    BLOCK steps' propagators [[P, q], [0, 1]] at a time, in one reused buffer of generators.
    Returns the (n_nodes, 12) adjoint, its last row equal to ``terminal``.

    Raises:
        IntegrationBlowupError: if evaluating the system or building a propagator overflows
            (dated tf, or the block's first node), or a propagator or the adjoint at t0 is not
            finite.
    """
    grid = state_traj.grid
    _require_same_grid(u_path.grid, grid, "control path")
    n, minus_h, times = grid.n_steps, -grid.h, grid.times()

    def interleaved(values: np.ndarray) -> np.ndarray:
        """Row 2k is node k and row 2k+1 the midpoint of step k: a block's rows are contiguous."""
        out = np.empty((2 * n + 1, values.shape[1]))
        out[::2], out[1::2] = values, _midpoints(values)
        return out.T

    # an overflow may vanish into a finite number, as C / (M + C)**2 does into 0
    with np.errstate(over="raise", invalid="raise"):
        try:
            a, flows = system(StateVec._make(interleaved(state_traj.values)),
                              ControlConst._make(interleaved(u_path.values)))
        except FloatingPointError as exc:
            raise _not_finite("adjoint", grid.tf) from exc
    generators = np.empty((2 * BLOCK + 1, 13, 13))
    generators[...] = a  # flows overwrite only their own cells, block after block
    identity = np.tile(np.eye(13), (BLOCK, 1, 1))
    lam = np.empty((grid.n_nodes, 12))
    lam[n] = row = np.array(terminal, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or inf in lam persists to t0
        for end in range(n, 0, -BLOCK):
            start = max(end - BLOCK, 0)
            steps = end - start
            block = generators[:2 * steps + 1]
            try:
                with np.errstate(over="raise", invalid="raise"):
                    for src, dst, j, d in flows:
                        rows = d[2 * start:2 * end + 1]
                        np.add(a[j, src], rows, out=block[:, j, src])
                        np.subtract(a[j, dst], rows, out=block[:, j, dst])
                    phi = rk4_step(_linear, identity[:steps], minus_h,
                                   block[2::2], block[1::2], block[:-1:2], None)
            except FloatingPointError as exc:
                raise _not_finite("adjoint", times[start]) from exc
            _require_finite(phi, "adjoint", times[start])  # a threaded BLAS raises on its threads
            for out, P, q in zip(lam[start:end][::-1], phi[::-1, :12, :12], phi[::-1, :12, 12]):
                np.matmul(P, row, out=out)  # one (12, 12) block P and (12,) block q per step
                out += q
                row = out
    _require_finite(lam[0], "adjoint", grid.t0)
    return lam


def euler_forward(p: ParamSet, y0: StateVec, grid: TimeGrid) -> Trajectory:
    """Uncontrolled forward Euler over the grid: the discretised update the calibration fits."""
    zero = repeat(ZERO_CONTROL)
    return _trajectory(_euler_step, y0, grid, p, zero, zero, zero)

