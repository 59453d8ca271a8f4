"""Disease-free equilibrium, reproduction number and endemic equilibrium.

The effective reproduction number is available on two independent routes:
a closed form built from the intermediate quantities R21, R23, R31, R33 and
a3, and the spectral radius of the next-generation matrix F V^-1 assembled
at the disease-free equilibrium. The two agree to rounding error; the
spectral route is the oracle for the closed form.

Both routes track the direct transmission loops only: the environmental
response M/(M+C) linearizes to 1/C at M = 0, which would dominate the
matrix whenever C is small, so the environmental column of F is excluded
by default. ``include_environment=True`` switches the matrix route to the
full linearization as a diagnostic; the closed form never includes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NoEndemicEquilibriumError, NumericError
from .integrate import write_csv, write_json
from .model import (
    DEFAULT_SEEDING, ZERO_CONTROL, ControlConst, StateVec, force_terms, rhs, seeded_state,
)
from .params import PARAM_NAMES, ParamSet

__all__ = [
    "INFECTED_ORDER",
    "NgmPair",
    "ReBreakdown",
    "ReGrid",
    "effective_r",
    "ngm",
    "spectral_r",
    "endemic_eq",
    "dfe_stability",
    "re_grid",
    "write_re_grid_csv",
]

INFECTED_ORDER = ("E_H", "I_H", "E_F", "I_F", "E_D", "I_D", "M")


@dataclass(frozen=True)
class NgmPair:
    """New-infection and transition Jacobians at the disease-free equilibrium.

    7x7 in the infected-compartment order ``INFECTED_ORDER``. V is an
    M-matrix (positive diagonal, non-positive off-diagonal) and invertible.
    """

    F: np.ndarray
    V: np.ndarray
    order: tuple[str, ...] = INFECTED_ORDER


@dataclass(frozen=True)
class ReBreakdown:
    """Effective reproduction number with its intermediate quantities."""

    R21: float
    R23: float
    R31: float
    R33: float
    a3: float
    Re: float


def effective_r(p: ParamSet, u: ControlConst = ZERO_CONTROL) -> ReBreakdown:
    """Closed-form effective reproduction number under constant controls.

    The domestic control factor (1-u1-u2) is clamped at zero, matching the
    transmission terms of the state system.
    """
    u.validate()
    a3 = p.gamma1 / ((p.mu3 + p.gamma1 + p.gamma2 + u.u4) * (p.sigma3 + p.mu3))
    R21 = p.kappa1 * p.theta2 * p.gamma / (p.mu2 * (p.mu2 + p.gamma) * (p.sigma2 + p.mu2))
    R23 = p.kappa2 * p.theta2 * a3 / p.mu2
    w = max(0.0, 1.0 - u.u1 - u.u2)
    R31 = (
        w * p.psi1 * p.theta3 * p.gamma
        / ((1.0 + p.rho1) * p.mu3 * (p.mu2 + p.gamma) * (p.sigma2 + p.mu2))
    )
    R33 = w * p.psi2 * p.theta3 * a3 / ((1.0 + p.rho2) * p.mu3)
    disc = R21 * R21 - 2.0 * R33 * R21 + 4.0 * R31 * R23 + R33 * R33
    if disc < 0.0:
        # (R21-R33)^2 + 4*R31*R23 with non-negative inputs; cannot happen.
        raise NumericError(f"negative discriminant {disc} in closed-form Re")
    Re = 0.5 * (R33 + R21 + math.sqrt(disc))
    if not math.isfinite(Re):
        raise NumericError(f"closed-form Re is not finite ({Re}); check the parameters")
    return ReBreakdown(R21=R21, R23=R23, R31=R31, R33=R33, a3=a3, Re=Re)


def ngm(
    p: ParamSet, u: ControlConst = ZERO_CONTROL, include_environment: bool = False
) -> NgmPair:
    """Assemble the next-generation matrices at the disease-free equilibrium."""
    u.validate()
    S_H0 = p.theta1 / p.mu1
    S_F0 = p.theta2 / p.mu2
    S_D0 = p.theta3 / p.mu3
    a1 = max(0.0, 1.0 - u.u1 - u.u3)
    a2 = max(0.0, 1.0 - u.u1 - u.u2)

    F = np.zeros((7, 7))
    # columns: E_H, I_H, E_F, I_F, E_D, I_D, M
    F[0, 3] = a1 * p.tau1 * S_H0
    F[0, 5] = a1 * p.tau2 * S_H0
    F[2, 3] = p.kappa1 * S_F0
    F[2, 5] = p.kappa2 * S_F0
    F[4, 3] = a2 * p.psi1 * S_D0 / (1.0 + p.rho1)
    F[4, 5] = a2 * p.psi2 * S_D0 / (1.0 + p.rho2)
    if include_environment:
        # d/dM of lamM at M=0 is 1/C
        F[0, 6] = a1 * p.tau3 * S_H0 / p.C
        F[2, 6] = p.kappa3 * S_F0 / p.C
        F[4, 6] = a2 * p.psi3 * S_D0 / ((1.0 + p.rho3) * p.C)

    V = np.zeros((7, 7))
    V[0, 0] = p.mu1 + p.beta1 + p.beta2 + u.u4
    V[1, 0] = -p.beta1
    V[1, 1] = p.sigma1 + p.mu1
    V[2, 2] = p.mu2 + p.gamma
    V[3, 2] = -p.gamma
    V[3, 3] = p.mu2 + p.sigma2
    V[4, 4] = p.mu3 + p.gamma1 + p.gamma2 + u.u4
    V[5, 4] = -p.gamma1
    V[5, 5] = p.mu3 + p.sigma3
    V[6, 1] = -p.nu1
    V[6, 3] = -p.nu2
    V[6, 5] = -p.nu3
    V[6, 6] = p.mu4
    return NgmPair(F=F, V=V)


def spectral_r(
    p: ParamSet, u: ControlConst = ZERO_CONTROL, include_environment: bool = False
) -> float:
    """Spectral radius of F V^-1 (matrix oracle for ``effective_r``)."""
    pair = ngm(p, u, include_environment=include_environment)
    try:
        K = pair.F @ np.linalg.inv(pair.V)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(f"transition matrix V is singular: {exc}") from exc
    return float(max(abs(np.linalg.eigvals(K))))


def dfe_stability(p: ParamSet, u: ControlConst = ZERO_CONTROL) -> float:
    """Largest real part of the Jacobian eigenvalues at the DFE.

    The Jacobian is formed by central differences with a relative step of
    1e-6, so it reflects the full model including the environmental pathway.
    """
    y0 = seeded_state(p)
    n = len(y0)
    J = np.zeros((n, n))
    for j in range(n):
        step = 1e-6 * max(1.0, abs(y0[j]))
        up = list(y0)
        dn = list(y0)
        up[j] += step
        dn[j] -= step
        f_up = rhs(0.0, StateVec(*up), u, p)
        f_dn = rhs(0.0, StateVec(*dn), u, p)
        J[:, j] = [(a - b) / (2.0 * step) for a, b in zip(f_up, f_dn)]
    return float(max(np.linalg.eigvals(J).real))


# --- endemic equilibrium -----------------------------------------------------


def _state_from_forces(chi: tuple[float, float, float], u: ControlConst, p: ParamSet) -> StateVec:
    """Reconstruct the full state whose compartment balances match the forces."""
    chi1, chi2, chi3 = chi
    d_EH = p.mu1 + p.beta1 + p.beta2 + u.u4
    d_ED = p.mu3 + p.gamma1 + p.gamma2 + u.u4

    # S_H and R_H couple through the waning term; solve the 2x2 linearly.
    recyc_H = p.beta3 * (p.beta2 + u.u4) / ((p.beta3 + p.mu1) * d_EH)
    S_H = p.theta1 / (p.mu1 + chi1 * (1.0 - recyc_H))
    E_H = chi1 * S_H / d_EH
    I_H = p.beta1 * E_H / (p.sigma1 + p.mu1)
    R_H = (p.beta2 + u.u4) * E_H / (p.beta3 + p.mu1)

    S_F = p.theta2 / (p.mu2 + chi2)
    E_F = chi2 * S_F / (p.mu2 + p.gamma)
    I_F = p.gamma * E_F / (p.mu2 + p.sigma2)

    recyc_D = p.gamma3 * (p.gamma2 + u.u4) / ((p.mu3 + p.gamma3) * d_ED)
    S_D = p.theta3 / (p.mu3 + chi3 * (1.0 - recyc_D))
    E_D = chi3 * S_D / d_ED
    I_D = p.gamma1 * E_D / (p.mu3 + p.sigma3)
    R_D = (p.gamma2 + u.u4) * E_D / (p.mu3 + p.gamma3)

    M = (p.nu1 * I_H + p.nu2 * I_F + p.nu3 * I_D) / p.mu4
    return StateVec(S_H, E_H, I_H, R_H, S_F, E_F, I_F, S_D, E_D, I_D, R_D, M)


def endemic_eq(p: ParamSet, u: ControlConst = ZERO_CONTROL) -> StateVec:
    """Endemic (persistent) equilibrium via damped fixed-point iteration.

    Iterates on the three per-capita infection pressures, reconstructing the
    compartments from the balance relations at each pass, with damping 1/2
    and at most 10000 passes. Starts from the pressures of the default
    seeded state, which lie in the endemic basin.

    Raises:
        NoEndemicEquilibriumError: if Re < 1 for (p, u).
        NumericError: on non-convergence or a residual above tolerance.
    """
    breakdown = effective_r(p, u)
    if breakdown.Re < 1.0:
        raise NoEndemicEquilibriumError(
            f"no endemic equilibrium: Re = {breakdown.Re:.6g} < 1"
        )
    ft = force_terms(seeded_state(p, *DEFAULT_SEEDING), u, p)
    chi = (ft.chi1, ft.chi2, ft.chi3)

    for _ in range(10_000):
        y = _state_from_forces(chi, u, p)
        ft = force_terms(y, u, p)
        new = tuple(c + 0.5 * (cn - c) for c, cn in zip(chi, (ft.chi1, ft.chi2, ft.chi3)))
        delta = max(abs(a - b) for a, b in zip(new, chi))
        scale = max(max(abs(c) for c in new), 1e-300)
        chi = new
        if delta <= 1e-15 * scale:
            break
    else:
        raise NumericError("endemic fixed point did not converge in 10000 iterations")

    y = _state_from_forces(chi, u, p)
    if min(y) <= 0.0:
        raise NumericError("endemic iteration collapsed onto a boundary state")
    residual = max(abs(v) for v in rhs(0.0, y, u, p))
    tol = 1e-8 * max(abs(v) for v in y)
    if residual > tol:
        raise NumericError(
            f"endemic equilibrium residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    return y


# --- parameter grids ----------------------------------------------------------

_CONTROL_NAMES = ("u1", "u2", "u3", "u4")


@dataclass(frozen=True)
class ReGrid:
    """Re evaluated over a Cartesian grid of two control/parameter axes."""

    axis1_name: str
    axis1_values: tuple[float, ...]
    axis2_name: str
    axis2_values: tuple[float, ...]
    values: np.ndarray  # shape (len(axis1), len(axis2)), row-major
    base_u: ControlConst
    base_params: ParamSet


def _axis_values(lo: float, hi: float, n: int) -> tuple[float, ...]:
    if not 1 <= n <= 1000:  # the grid is built point by point: 10^6 points take seconds
        raise ConfigError(f"axis needs at least one point and at most 1000, got {n}")
    if n == 1:
        return (lo,)
    step = (hi - lo) / (n - 1)
    return tuple(lo + i * step for i in range(n))


def _apply_axis(
    name: str, value: float, p: ParamSet, u: ControlConst
) -> tuple[ParamSet, ControlConst]:
    if name in _CONTROL_NAMES:
        return p, ControlConst(*(value if f == name else v for f, v in zip(u._fields, u)))
    if name in PARAM_NAMES:
        return p.replace(**{name: value}), u
    raise ConfigError(f"unknown axis name {name!r}: expected u1..u4 or a parameter name")


def re_grid(
    p: ParamSet,
    axis1: tuple[str, float, float, int],
    axis2: tuple[str, float, float, int],
    base_u: ControlConst = ZERO_CONTROL,
) -> ReGrid:
    """Evaluate the closed-form Re over a Cartesian axis1 x axis2 grid."""
    name1, lo1, hi1, n1 = axis1
    name2, lo2, hi2, n2 = axis2
    vals1 = _axis_values(lo1, hi1, int(n1))
    vals2 = _axis_values(lo2, hi2, int(n2))
    _apply_axis(name1, vals1[0], p, base_u)  # validate axis names up front
    _apply_axis(name2, vals2[0], p, base_u)

    out = np.empty((len(vals1), len(vals2)))
    for i, v1 in enumerate(vals1):
        p1, u1 = _apply_axis(name1, v1, p, base_u)
        for j, v2 in enumerate(vals2):
            p2, u2 = _apply_axis(name2, v2, p1, u1)
            out[i, j] = effective_r(p2, u2).Re
    return ReGrid(
        axis1_name=name1,
        axis1_values=vals1,
        axis2_name=name2,
        axis2_values=vals2,
        values=out,
        base_u=base_u,
        base_params=p,
    )


def write_re_grid_csv(grid: ReGrid, path: str | Path, sidecar: str | Path) -> None:
    """Write the grid as long-format CSV plus a JSON sidecar of its axes and base point."""
    write_csv(path, ("axis1", "axis2", "Re"), (
        [repr(v1), repr(v2), repr(float(grid.values[i, j]))]
        for i, v1 in enumerate(grid.axis1_values) for j, v2 in enumerate(grid.axis2_values)))
    meta = {
        "axis1": {"name": grid.axis1_name, "values": list(grid.axis1_values)},
        "axis2": {"name": grid.axis2_name, "values": list(grid.axis2_values)},
        "base_controls": grid.base_u._asdict(),
        "base_parameters": grid.base_params.as_dict(),
    }
    write_json(sidecar, meta)
