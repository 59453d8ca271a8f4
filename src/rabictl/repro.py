"""Disease-free equilibrium, reproduction number and endemic equilibrium.

The effective reproduction number is available on two independent routes:
a closed form built from the intermediate quantities R21, R23, R31, R33 and
a3, and the spectral radius of the next-generation matrix F V^-1, whose F
and V are blocks of ``model.jacobian`` at the disease-free equilibrium. The
two agree to rounding error; the spectral route is the oracle for the closed
form. The DFE stability indicator and the endemic balance read the same
Jacobian.

Both routes track the direct transmission loops only: the environmental
response M/(M+C) linearizes to 1/C at M = 0, which would dominate the
matrix whenever C is small, so the environmental column of F is excluded
by default. ``include_environment=True`` switches the matrix route to the
full linearization as a diagnostic; the closed form never includes it. Its
fields may be floats or arrays, so ``re_grid`` evaluates a grid in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, NoEndemicEquilibriumError, NumericError, shorten
from .model import (
    DEFAULT_SEEDING, ZERO_CONTROL, ControlConst, StateVec, force_terms, jacobian, rhs,
    seeded_state,
)
from .params import PARAM_NAMES, ParamSet, rates_of, valid

__all__ = [
    "INFECTED_ORDER",
    "ReBreakdown",
    "ReGrid",
    "effective_r",
    "ngm",
    "spectral_r",
    "endemic_eq",
    "dfe_stability",
    "re_grid",
]

INFECTED_ORDER = ("E_H", "I_H", "E_F", "I_F", "E_D", "I_D", "M")
_INFECTED = [StateVec._fields.index(name) for name in INFECTED_ORDER]
_SUSCEPTIBLE = [0, 4, 7]  # S_H, S_F, S_D; the E class of each follows it


@dataclass(frozen=True)
class ReBreakdown:
    """Effective reproduction number with its intermediate quantities; arrays for array inputs."""

    R21: float
    R23: float
    R31: float
    R33: float
    a3: float
    Re: float


def effective_r(p: ParamSet, u: ControlConst = ZERO_CONTROL) -> ReBreakdown:
    """Closed-form effective reproduction number under constant controls.

    The fields of ``p`` and ``u`` may be floats or arrays that broadcast
    together, giving arrays of the broadcast shape, and floats give floats. The
    domestic control factor (1-u1-u2) is clamped at zero, matching the state system.
    """
    u.validate()
    with np.errstate(all="ignore"):  # overflow, or NaN from a negative discriminant, fails below
        (_, _, _, k_EF, k_IF, k_ED, k_ID, _, d1, d2, _, _, theta2, theta3, _, _, _, kappa1, kappa2,
         _, psi1, psi2, _, _, _, _, _, _, _, gamma, gamma1, _, _, _, mu2, mu3, *_) = p.rates
        # np.divide: a divisor that underflows to 0.0 gives inf on floats too, as on arrays
        a3 = np.divide(gamma1, (k_ED + u.u4) * k_ID)
        R21 = np.divide(kappa1 * theta2 * gamma, mu2 * k_EF * k_IF)
        R23 = kappa2 * theta2 * a3 / mu2
        w = np.maximum(0.0, 1.0 - u.u1 - u.u2)
        R31 = w * psi1 * theta3 * gamma / (d1 * mu3 * k_EF * k_IF)
        R33 = w * psi2 * theta3 * a3 / (d2 * mu3)
        disc = R21 * R21 - 2.0 * R33 * R21 + 4.0 * R31 * R23 + R33 * R33
        Re = 0.5 * (R33 + R21 + np.sqrt(disc))
    bad = np.asarray(Re)[~np.isfinite(Re)]
    if bad.size:
        raise NumericError(f"closed-form Re is not finite ({bad[0]}); check the parameters")
    fields = R21, R23, R31, R33, a3, Re
    return ReBreakdown(*(map(float, fields) if np.ndim(Re) == 0 else fields))


def ngm(
    p: ParamSet, u: ControlConst = ZERO_CONTROL, include_environment: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The next-generation matrices (F, V) at the disease-free equilibrium: 7x7 blocks of
    ``model.jacobian`` in the infected-compartment order ``INFECTED_ORDER``.

    F is the infected block of the incidence derivative I, its environmental column zeroed
    unless ``include_environment``; V is minus the infected block of the transitions T, an
    invertible M-matrix (positive diagonal, non-positive off-diagonal).
    """
    u.validate()
    T, I = _dfe_jacobian(p, u)
    block = np.ix_(_INFECTED, _INFECTED)
    F = I[block]
    if not include_environment:
        F[:, -1] = 0.0
    return F, 0.0 - T[block]


def _dfe_jacobian(p: ParamSet, u: ControlConst) -> tuple[np.ndarray, np.ndarray]:
    """``model.jacobian`` (T, I) at the DFE; NumericError if it cannot be built or is not finite."""
    try:
        with np.errstate(all="ignore"):  # an overflow leaves a non-finite entry: checked below
            T, I = jacobian(seeded_state(p), u, p)
        if np.isfinite((T, I)).all():
            return T, I
    except ZeroDivisionError:  # C * C underflows to 0 in the environmental response's slope
        pass
    raise NumericError("disease-free Jacobian is not finite; check the parameters")


def spectral_r(
    p: ParamSet, u: ControlConst = ZERO_CONTROL, include_environment: bool = False
) -> float:
    """Spectral radius of F V^-1 (matrix oracle for ``effective_r``)."""
    F, V = ngm(p, u, include_environment=include_environment)
    try:
        with np.errstate(all="ignore"):  # a V near singular overflows its inverse: checked below
            K = F @ np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(f"transition matrix V is singular: {exc}") from exc
    if not np.isfinite(K).all():
        raise NumericError("next-generation matrix F V^-1 is not finite; check the parameters")
    return float(max(abs(np.linalg.eigvals(K))))


def dfe_stability(p: ParamSet, u: ControlConst = ZERO_CONTROL) -> float:
    """Largest real part of the eigenvalues of the full ``model.jacobian`` at the DFE."""
    T, I = _dfe_jacobian(p, u)
    return float(max(np.linalg.eigvals(T + I).real))


# --- endemic equilibrium -----------------------------------------------------


def _state_from_forces(chi: tuple[float, float, float], T: np.ndarray, p: ParamSet) -> StateVec:
    """The state where ``rhs`` vanishes with the pressures frozen at ``chi``: (T + K) y = -theta.

    T is the transitions of ``model.jacobian``; K moves chi*S from each S class to the next E.
    """
    A = T.copy()
    for s, c in zip(_SUSCEPTIBLE, chi):
        A[s, s] -= c
        A[s + 1, s] += c
    minus_theta = np.zeros(12)
    minus_theta[_SUSCEPTIBLE] = -p.theta1, -p.theta2, -p.theta3
    return StateVec._make(np.linalg.solve(A, minus_theta).tolist())


def endemic_eq(p: ParamSet, u: ControlConst = ZERO_CONTROL) -> StateVec:
    """Endemic (persistent) equilibrium via damped fixed-point iteration.

    Iterates on the three per-capita infection pressures, solving for the
    compartments that balance them at each pass, with damping 1/2
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
    T, _ = _dfe_jacobian(p, u)
    ft = force_terms(seeded_state(p, *DEFAULT_SEEDING), u, p)
    chi = (ft.chi1, ft.chi2, ft.chi3)

    for _ in range(10_000):
        y = _state_from_forces(chi, T, p)
        ft = force_terms(y, u, p)
        new = tuple(c + 0.5 * (cn - c) for c, cn in zip(chi, (ft.chi1, ft.chi2, ft.chi3)))
        delta = max(abs(a - b) for a, b in zip(new, chi))
        scale = max(max(abs(c) for c in new), 1e-300)
        chi = new
        if delta <= 1e-15 * scale:
            break
    else:
        raise NumericError("endemic fixed point did not converge in 10000 iterations")

    y = _state_from_forces(chi, T, p)
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


@dataclass(frozen=True)
class ReGrid:
    """Re evaluated over a Cartesian grid of two control/parameter axes."""

    axis1_name: str
    axis1_values: tuple[float, ...]
    axis2_name: str
    axis2_values: tuple[float, ...]
    values: np.ndarray  # shape (len(axis1), len(axis2)), row-major


def _axis_values(lo: float, hi: float, n: int) -> tuple[float, ...]:
    if not 1 <= n <= 1000:  # every point is one CSV row: 10^6 rows take seconds to write
        raise ConfigError(f"axis needs at least one point and at most 1000, got {shorten(repr(n))}")
    if n == 1:
        return (lo,)
    step = (hi - lo) / (n - 1)
    return tuple(lo + i * step for i in range(n))


def re_grid(
    p: ParamSet,
    axis1: tuple[str, float, float, int],
    axis2: tuple[str, float, float, int],
    base_u: ControlConst = ZERO_CONTROL,
) -> ReGrid:
    """The closed-form Re over a Cartesian axis1 x axis2 grid, in one ``effective_r`` call on arrays."""
    name1, lo1, hi1, n1 = axis1
    name2, lo2, hi2, n2 = axis2
    if name1 == name2:
        raise ConfigError(f"both axes name {shorten(repr(name1))}; a grid needs two different axes")
    vals1 = _axis_values(lo1, hi1, int(n1))
    vals2 = _axis_values(lo2, hi2, int(n2))
    fields = {**p.as_dict(), **base_u._asdict()}
    for name in (name1, name2):
        if name not in fields:
            raise ConfigError(
                f"unknown axis name {shorten(repr(name))}: expected u1..u4 or a parameter name")
    fields[name1], fields[name2] = np.array(vals1)[:, None], np.array(vals2)
    q = SimpleNamespace(**fields)
    kept = np.broadcast_to(valid(q), (len(vals1), len(vals2)))
    if not kept.all():  # the ParamSet of the first point that breaks a rule raises its error
        i, j = np.unravel_index(np.argmin(kept), kept.shape)
        p.replace(**{n: v for n, v in ((name1, vals1[i]), (name2, vals2[j])) if n in PARAM_NAMES})
    with np.errstate(over="ignore"):  # two valid fields may sum past the largest float
        q.rates = rates_of(q)  # once for the grid, as effective_r reads only these
    Re = effective_r(q, ControlConst(*(fields[name] for name in ControlConst._fields))).Re
    return ReGrid(axis1_name=name1, axis1_values=vals1, axis2_name=name2, axis2_values=vals2,
                  values=np.broadcast_to(Re, kept.shape).copy())

