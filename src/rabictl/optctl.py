"""Optimal control: objective, Hamiltonian, adjoint system and the sweep.

The four controls are characterized pointwise from the state/adjoint pair
and improved by a relaxed forward-backward sweep: integrate the states
forward, the adjoints backward from a zero terminal condition, evaluate the
characterizations, then blend them into the previous controls with a convex
combination until the update stalls below tolerance. The controls are an
(n_nodes, 4) array; characterization, update and objective run on all nodes.

State equations enter the Hamiltonian in the susceptible-inclusive
convention (each infection pressure multiplies its susceptible pool), which
is the convention the state system and the control characterizations share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, SweepDivergenceError
from .integrate import (
    ControlPath, TimeGrid, Trajectory, rk4_backward, rk4_forward, write_json, write_node_csv,
)
from .model import ZERO_CONTROL, ControlConst, StateVec, force_terms, rhs
from .params import ParamSet

__all__ = [
    "Weights",
    "AdjointVec",
    "SweepResult",
    "Mask",
    "STRATEGY_MASKS",
    "objective",
    "hamiltonian",
    "adjoint_rhs",
    "characterize_controls",
    "forward_backward_sweep",
    "write_controls_csv",
    "write_adjoints_csv",
]

Mask = tuple[bool, bool, bool, bool]

ALL_ON: Mask = (True, True, True, True)

# Strategy A: everything; B: education + treatment; C: treatment only;
# D: health promotion + dog vaccination.
STRATEGY_MASKS: dict[str, Mask] = {
    "A": (True, True, True, True),
    "B": (False, False, True, True),
    "C": (False, False, False, True),
    "D": (True, True, False, False),
}


class AdjointVec(NamedTuple):
    """Adjoint variables ordered like the state vector."""

    lam1: float
    lam2: float
    lam3: float
    lam4: float
    lam5: float
    lam6: float
    lam7: float
    lam8: float
    lam9: float
    lam10: float
    lam11: float
    lam12: float


ZERO_ADJOINT = AdjointVec(*(0.0,) * 12)


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
        for name in ("K1", "K2", "K3", "K4", "K5", "K6"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"state weight {name} must be finite and non-negative, "
                                  f"got {getattr(self, name)!r}")
        for name in ("A1", "A2", "A3", "A4"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"control cost weight {name} must be finite and positive, "
                                  f"got {getattr(self, name)!r}")


@dataclass(frozen=True)
class SweepResult:
    """Converged (or truncated) output of the forward-backward sweep."""

    controls: ControlPath
    states: Trajectory
    adjoints: tuple[AdjointVec, ...]
    J_history: tuple[float, ...]
    iterations: int
    converged: bool


def _fields(rows: Sequence[tuple] | np.ndarray, vec: type[NamedTuple]):
    """Per-node rows as one ``vec`` whose fields are (n_nodes,) arrays."""
    return vec._make(np.asarray(rows).T)


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
    if states.grid != u_path.grid:
        raise ConfigError("states and controls must share a grid")
    values = running_cost(
        _fields(states.values, StateVec), _fields(u_path.values, ControlConst), w
    ).tolist()
    h = states.grid.h
    # sum() adds left to right; np.sum's pairwise order would move the last bits of J.
    return h * (0.5 * (values[0] + values[-1]) + sum(values[1:-1]))


def hamiltonian(y: StateVec, lam: AdjointVec, u: ControlConst, w: Weights, p: ParamSet) -> float:
    """Running cost plus the adjoint-weighted state derivatives."""
    dy = rhs(0.0, y, u, p)
    return running_cost(y, u, w) + sum(l * d for l, d in zip(lam, dy))


def adjoint_rhs(
    y: StateVec, lam: AdjointVec, u: ControlConst, w: Weights, p: ParamSet
) -> AdjointVec:
    """Adjoint derivatives lam' = -dH/dy, derived analytically.

    The saturation term differentiates to C/(M+C)^2; the clamped control
    factors are constants with respect to the state.
    """
    S_H, S_F, S_D, M = y[0], y[4], y[7], y[11]
    f1, f2, f3, a1, a2, _ = force_terms(y, u, p)
    C = p.C
    dlam_dM = C / (M + C) ** 2
    u4 = u[3]
    mu1, mu2, mu3 = p.mu1, p.mu2, p.mu3
    beta1, beta2, beta3 = p.beta1, p.beta2, p.beta3
    gamma, gamma1, gamma2, gamma3 = p.gamma, p.gamma1, p.gamma2, p.gamma3

    l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11, l12 = lam
    # Differences every infection term starts with, in the same association.
    h12 = (l1 - l2) * a1
    h56 = l5 - l6
    h89 = (l8 - l9) * a2

    d1 = h12 * f1 + l1 * mu1
    d2 = -w.K2 + l2 * (mu1 + beta1 + beta2 + u4) - l3 * beta1 - l4 * (beta2 + u4)
    d3 = -w.K3 + l3 * (p.sigma1 + mu1) - l12 * p.nu1
    d4 = -l1 * beta3 + l4 * (beta3 + mu1)
    d5 = h56 * f2 + l5 * mu2
    d6 = l6 * (mu2 + gamma) - l7 * gamma
    d7 = (
        h12 * p.tau1 * S_H
        + h56 * p.kappa1 * S_F
        + h89 * p.psi1 * S_D / (1.0 + p.rho1)
        + l7 * (mu2 + p.sigma2)
        - l12 * p.nu2
    )
    d8 = w.K6 + h89 * f3 + l8 * mu3
    d9 = (
        -w.K4
        + l9 * (mu3 + gamma1 + gamma2 + u4)
        - l10 * gamma1
        - l11 * (gamma2 + u4)
    )
    d10 = (
        -w.K5
        + h12 * p.tau2 * S_H
        + h56 * p.kappa2 * S_F
        + h89 * p.psi2 * S_D / (1.0 + p.rho2)
        + l10 * (mu3 + p.sigma3)
        - l12 * p.nu3
    )
    d11 = -l8 * gamma3 + l11 * (mu3 + gamma3)
    d12 = (
        -w.K1
        + dlam_dM
        * (
            h12 * p.tau3 * S_H
            + h56 * p.kappa3 * S_F
            + h89 * p.psi3 * S_D / (1.0 + p.rho3)
        )
        + l12 * p.mu4
    )
    return tuple.__new__(AdjointVec, (d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12))


def characterize_controls(
    y: StateVec, lam: AdjointVec, w: Weights, p: ParamSet, mask: Mask = ALL_ON
) -> ControlConst:
    """Pointwise optimal controls from the maximality condition, clamped to [0,1].

    Fields of ``y`` and ``lam`` may be floats or (N,) arrays: one call
    characterizes N nodes. A masked-off control is the float 0.0.
    """
    ft = force_terms(y, ZERO_CONTROL, p)
    human_term = ft.f1 * y.S_H
    domestic_term = ft.f3 * y.S_D
    dl_h = lam.lam2 - lam.lam1
    dl_d = lam.lam9 - lam.lam8
    unclamped = (
        (dl_h * human_term + dl_d * domestic_term) / w.A1,
        dl_d * domestic_term / w.A2,
        dl_h * human_term / w.A3,
        (y.E_H * (lam.lam2 - lam.lam4) + y.E_D * (lam.lam9 - lam.lam11)) / w.A4,
    )
    return ControlConst(*(np.clip(u, 0.0, 1.0) if on else 0.0 for u, on in zip(unclamped, mask)))


def forward_backward_sweep(
    p: ParamSet,
    w: Weights,
    y0: StateVec,
    grid: TimeGrid,
    mask: Mask = ALL_ON,
    omega: float = 0.5,
    tol: float = 1e-4,
    max_iter: int = 200,
) -> SweepResult:
    """Relaxed forward-backward sweep until the control update stalls.

    Each iteration integrates the states forward under the current controls,
    the adjoints backward from the zero terminal condition, evaluates the
    pointwise characterizations, and blends: u <- (1-omega) u + omega u*.
    Stops when the sup-norm control update drops below ``tol``, which must lie
    in (0, omega): the update is at most omega. The returned
    states/adjoints are recomputed under the final controls so the triple is
    self-consistent.

    Raises:
        SweepDivergenceError: if the objective runs away from its best value.
    """
    if not 0.0 < omega <= 1.0:
        raise ConfigError(f"relaxation omega must lie in (0, 1], got {omega}")
    if not 0.0 < tol < omega:
        raise ConfigError(f"tolerance must be finite, positive and below omega={omega}, got {tol}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be at least 1, got {max_iter}")

    def solve(u_path: ControlPath) -> tuple[Trajectory, tuple[AdjointVec, ...]]:
        states = rk4_forward(p, u_path, y0, grid)
        return states, rk4_backward(
            lambda t, lam, yu: adjoint_rhs(yu[0], lam, yu[1], w, p), states, u_path, ZERO_ADJOINT
        )

    u_path = ControlPath.constant(grid, mask=mask)
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

        y, lam = _fields(states.values, StateVec), _fields(adjoints, AdjointVec)
        u_star = np.column_stack(np.broadcast_arrays(*characterize_controls(y, lam, w, p, mask)))
        u_old = u_path.values
        u_new = (1.0 - omega) * u_old + omega * u_star
        delta = np.abs(u_new - u_old).max()
        u_path = ControlPath(grid, u_new, mask)
        if delta < tol:
            converged = True
            break

    states, adjoints = solve(u_path)
    J_history.append(objective(states, u_path, w))
    return SweepResult(
        controls=u_path,
        states=states,
        adjoints=adjoints,
        J_history=tuple(J_history),
        iterations=iterations,
        converged=converged,
    )


def write_controls_csv(u_path: ControlPath, path: str | Path) -> None:
    write_node_csv(path, ("t",) + ControlConst._fields, u_path.grid, u_path.values.tolist())


def write_adjoints_csv(grid: TimeGrid, adjoints: Sequence[AdjointVec], path: str | Path) -> None:
    write_node_csv(path, ("t",) + AdjointVec._fields, grid, adjoints)


def write_sweep_summary_json(result: SweepResult, path: str | Path, config_echo: dict) -> None:
    payload = {
        "J_history": list(result.J_history),
        "iterations": result.iterations,
        "converged": result.converged,
        "mask": list(result.controls.mask),
        "config": config_echo,
    }
    write_json(path, payload)
