"""Optimal control: objective, Hamiltonian, adjoint and the sweep.

The four controls are characterized pointwise from the state/adjoint pair
and improved by a relaxed forward-backward sweep: integrate the states
forward, the adjoints backward from a zero terminal condition, evaluate the
characterizations, then blend them into the previous controls with a convex
combination until the update stalls below tolerance. The controls are an
(n_nodes, 4) array; characterization, update and objective run on all nodes.
The adjoint has one evaluator, the flow form (``adjoint_parts``). An adjoint
is any sequence of 12 values lam1..lam12, floats or (N,) arrays.

State equations enter the Hamiltonian in the susceptible-inclusive
convention (each infection pressure multiplies its susceptible pool), which
is the convention the state system and the control characterizations share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, SweepDivergenceError, echo, is_count, is_finite
from .integrate import (
    ControlPath, TimeGrid, Trajectory, _require_same_grid, rk4_backward, rk4_forward,
)
from .model import (
    ZERO_CONTROL, ControlConst, StateVec, _transitions, _varying_flows, force_terms, rhs,
)
from .params import ParamSet

__all__ = [
    "Weights",
    "SweepResult",
    "Mask",
    "STRATEGY_MASKS",
    "objective",
    "hamiltonian",
    "adjoint_parts",
    "characterize_controls",
    "forward_backward_sweep",
]

Mask = tuple[bool, bool, bool, bool]

# Strategy A: everything; B: education + treatment; C: treatment only;
# D: health promotion + dog vaccination.
STRATEGY_MASKS: dict[str, Mask] = {
    "A": (True, True, True, True),
    "B": (False, False, True, True),
    "C": (False, False, False, True),
    "D": (True, True, False, False),
}


@dataclass(frozen=True)
class Weights:
    """Objective weights: state weights K1..K6 and control cost weights A1..A4.

    K6 enters the running cost negatively (susceptible domestic dogs are a
    benefit). Defaults keep the controls interior over part of the horizon.
    """

    K1: float = 1.0
    K2: float = 1.0
    K3: float = 1.0
    K4: float = 1.0
    K5: float = 1.0
    K6: float = 0.01
    A1: float = 50.0
    A2: float = 50.0
    A3: float = 50.0
    A4: float = 50.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if name.startswith("A") and not (is_finite(value) and value > 0.0):
                raise ConfigError(f"control cost weight {name} must be finite and positive, "
                                  f"got {echo(value)}")
            if not (is_finite(value) and value >= 0.0):  # so a state weight K1..K6
                raise ConfigError(f"state weight {name} must be finite and non-negative, "
                                  f"got {echo(value)}")


@dataclass(frozen=True)
class SweepResult:
    """Converged (or truncated) output of the forward-backward sweep: ``adjoints`` is the read-only
    (n_nodes, 12) array lam1..lam12, and the controls ``mask`` turns off are +0.0 at every node."""

    controls: ControlPath
    states: Trajectory
    adjoints: np.ndarray
    mask: Mask
    J_history: tuple[float, ...]
    iterations: int
    converged: bool


def running_cost(y: StateVec, u: ControlConst, w: Weights) -> float:
    """The integrand of J; fields may be floats or (N,) arrays.

    Squares are products, exact for floats and arrays alike (``x**2`` on a
    float calls libm ``pow``, which can be one ulp off).
    """
    return (
        w.K1 * y.M
        + w.K2 * y.E_H
        + w.K3 * y.I_H
        + w.K4 * y.E_D
        + w.K5 * y.I_D
        - w.K6 * y.S_D
        + 0.5 * (w.A1 * (u.u1 * u.u1) + w.A2 * (u.u2 * u.u2)
                 + w.A3 * (u.u3 * u.u3) + w.A4 * (u.u4 * u.u4))
    )


def objective(states: Trajectory, u_path: ControlPath, w: Weights) -> float:
    """Trapezoidal quadrature of the running cost over the horizon."""
    _require_same_grid(u_path.grid, states.grid, "control path")
    values = running_cost(
        StateVec._make(states.values.T), ControlConst._make(u_path.values.T), w
    ).tolist()
    h = states.grid.h
    # sum() adds left to right; np.sum's pairwise order would move the last bits of J.
    return h * (0.5 * (values[0] + values[-1]) + sum(values[1:-1]))


def hamiltonian(y: StateVec, lam: Sequence, u: ControlConst, w: Weights, p: ParamSet) -> float:
    """Running cost plus the adjoint-weighted state derivatives."""
    dy = rhs(y, u, p)
    return running_cost(y, u, w) + sum(l * d for l, d in zip(lam, dy))


def _cost_gradient(w: Weights) -> np.ndarray:
    """g = -dL/dy, the same at every point: minus ``running_cost`` at the unit states."""
    return 0.0 - running_cost(StateVec._make(np.eye(12)), ZERO_CONTROL, w)


def adjoint_parts(
    y: StateVec, u: ControlConst, w: Weights, p: ParamSet
) -> tuple[np.ndarray, list[tuple[int, int, int, np.ndarray]]]:
    """The adjoint lam' = -dH/dy = G lam + g as ``rk4_backward`` reads it: a constant part and
    the flows that vary.

    The constant part is the (13, 13) generator [[G, g], [0, 0]] without the varying entries:
    G = 0.0 - T^T from the cached ``model._transitions`` and g = -dL/dy. Each of the model's 14
    varying flows (src, dst, j, d) adds d (lam_src - lam_dst) to lam_j'. Written in, they give
    G = -(df/dy)^T of ``model.jacobian`` to the bit: 0.0 - (t + e) and (0.0 - t) - e round
    alike, signed zeros included, and so do t - d and t + (-d).
    """
    a = np.zeros((13, 13))
    np.subtract(0.0, _transitions(p.rates).T, out=a[:12, :12])
    a[:12, 12] = _cost_gradient(w)
    return a, _varying_flows(y, u, p.rates)


def _check_mask(mask: Mask) -> None:
    if not isinstance(mask, tuple) or len(mask) != 4 or any(type(on) is not bool for on in mask):
        raise ConfigError(f"mask must be a tuple of four bools, got {echo(mask)}")


def characterize_controls(
    y: StateVec, lam: Sequence, w: Weights, p: ParamSet, mask: Mask = STRATEGY_MASKS["A"]
) -> ControlConst:
    """Pointwise controls that minimise H: each the stationary point dH/du_i = 0, clipped to [0,1].

    The sweep minimises J. While 1-u1-u3 and 1-u1-u2 stay positive, H is a separable convex
    quadratic in u, so each clipped stationary point minimises H pointwise. Fields of ``y``
    and the 12 values of ``lam`` are floats or (N,) arrays: one call characterizes N nodes.
    ``mask`` is a tuple of four bools, else ConfigError; a masked-off control is the float 0.0.
    The pressures are read at zero control, where each factor a is 1.0 and chi1, chi3 equal the
    uncontrolled f1, f3 to the bit.
    """
    _check_mask(mask)
    ft = force_terms(y, ZERO_CONTROL, p)
    human_term = ft.chi1 * y.S_H
    domestic_term = ft.chi3 * y.S_D
    dl_h = lam[1] - lam[0]
    dl_d = lam[8] - lam[7]
    with np.errstate(over="ignore"):  # a tiny weight A_i sends u_i to +-inf, which clips to 0 or 1
        unclamped = (
            (dl_h * human_term + dl_d * domestic_term) / w.A1,
            dl_d * domestic_term / w.A2,
            dl_h * human_term / w.A3,
            (y.E_H * (lam[1] - lam[3]) + y.E_D * (lam[8] - lam[10])) / w.A4,
        )
    return ControlConst(*(np.clip(u, 0.0, 1.0) if on else 0.0 for u, on in zip(unclamped, mask)))


def forward_backward_sweep(
    p: ParamSet,
    w: Weights,
    y0: StateVec,
    grid: TimeGrid,
    mask: Mask = STRATEGY_MASKS["A"],
    omega: float = 0.5,
    tol: float = 1e-4,
    max_iter: int = 200,
) -> SweepResult:
    """Relaxed forward-backward sweep until the control update stalls.

    Each iteration integrates the states forward under the current controls, the adjoints
    backward from the zero terminal condition, evaluates the pointwise characterizations, and
    blends: u <- (1-omega) u + omega u*. Stops when the sup-norm control update drops below
    ``tol``, which must lie in (0, omega): the update is at most omega. ``mask`` is a tuple of
    four bools, one per control. The returned states/adjoints are recomputed under the final
    controls so the triple is self-consistent.

    Raises:
        SweepDivergenceError: if the objective runs away from its best value.
    """
    if not (is_finite(omega) and 0.0 < omega <= 1.0):
        raise ConfigError(f"relaxation omega must lie in (0, 1], got {echo(omega)}")
    if not (is_finite(tol) and 0.0 < tol < omega):
        raise ConfigError(f"tolerance must be finite and in (0, omega={omega}), got {echo(tol)}")
    if not is_count(max_iter, 1):
        raise ConfigError(f"max_iter must be at least 1, got {echo(max_iter)}")
    _check_mask(mask)

    def solve(u_path: ControlPath) -> tuple[Trajectory, np.ndarray]:
        states = rk4_forward(p, u_path, y0)
        return states, rk4_backward(
            lambda y, u: adjoint_parts(y, u, w, p), states, u_path, (0.0,) * 12
        )

    u_path = ControlPath.constant(grid)  # characterize_controls keeps masked controls +0.0
    J_history: list[float] = []
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        states, adjoints = solve(u_path)
        J = objective(states, u_path, w)
        J_history.append(J)
        J_min = min(J_history)
        if J - J_min > 10.0 * max(1.0, abs(J_min)):
            raise SweepDivergenceError(
                f"objective diverged after {iterations} iterations "
                f"(J = {J:.6g} vs best {J_min:.6g}); try a smaller omega"
            )

        y, lam = StateVec._make(states.values.T), adjoints.T
        u_star = np.column_stack(np.broadcast_arrays(*characterize_controls(y, lam, w, p, mask)))
        u_old = u_path.values
        u_new = (1.0 - omega) * u_old + omega * u_star
        delta = np.abs(u_new - u_old).max()
        u_path = ControlPath(grid, u_new)
        if delta < tol:
            converged = True
            break

    states, adjoints = solve(u_path)
    J_history.append(objective(states, u_path, w))
    adjoints.flags.writeable = False
    return SweepResult(
        controls=u_path,
        states=states,
        adjoints=adjoints,
        mask=mask,
        J_history=tuple(J_history),
        iterations=iterations,
        converged=converged,
    )

