"""State space, infection pressures and the right-hand side of the ODE system.

Twelve compartments: four human classes (S_H, E_H, I_H, R_H), three
free-range-dog classes (S_F, E_F, I_F), four domestic-dog classes
(S_D, E_D, I_D, R_D) and the environmental virus concentration M.

Controls: u1 health promotion, u2 domestic-dog vaccination, u3 public
education, u4 post-exposure treatment of exposed humans and domestic dogs.

``rhs``, ``force_terms`` and ``jacobian`` read every parameter with one unpack
of the tuple ``p.rates`` (``params.rates_of``): the outflow rates, the
deterrence divisors and the raw fields. The derivative entries that vary with
the state and the controls are written once, as flows in ``_varying_flows``,
which ``jacobian`` and the sweep's adjoint both read.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace
from typing import Any, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .params import ParamSet

__all__ = [
    "StateVec",
    "ControlConst",
    "ForceTerms",
    "ZERO_CONTROL",
    "DEFAULT_SEEDING",
    "seeded_state",
    "force_terms",
    "rhs",
    "jacobian",
]


class StateVec(NamedTuple):
    """One snapshot of the twelve compartments (counts; M in PFU/mL)."""

    S_H: float
    E_H: float
    I_H: float
    R_H: float
    S_F: float
    E_F: float
    I_F: float
    S_D: float
    E_D: float
    I_D: float
    R_D: float
    M: float

    def validate(self) -> "StateVec":
        for name, value in zip(self._fields, self):
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"state component {name} is negative or not finite: {value}")
        return self


class ControlConst(NamedTuple):
    """Constant control intensities, each in [0, 1]; arrays of them for an R_e grid."""

    u1: float = 0.0
    u2: float = 0.0
    u3: float = 0.0
    u4: float = 0.0

    def validate(self) -> "ControlConst":
        for name, value in zip(self._fields, self):
            outside = np.asarray(value)[np.clip(value, 0.0, 1.0) != value]  # NaN != NaN: outside
            if outside.size:
                raise ConfigError(f"control {name} must lie in [0, 1], got {outside[0]}")
        return self


ZERO_CONTROL = ControlConst()


class ForceTerms(NamedTuple):
    """Uncontrolled infection pressures and the clamped control factors.

    f1, f2, f3 act on humans, free-range dogs and domestic dogs; a1 scales f1
    and a2 scales f3. lamM is the environmental response M/(M+C). The state
    system, the adjoint and the control characterization read these fields;
    chi1..chi3 are the controlled pressures.
    """

    f1: float
    f2: float
    f3: float
    a1: float
    a2: float
    lamM: float

    @property
    def chi1(self) -> float:
        return self.a1 * self.f1

    @property
    def chi2(self) -> float:
        return self.f2

    @property
    def chi3(self) -> float:
        return self.a2 * self.f3


# Seeding (exposed, infected, M0) of the default scenario.
DEFAULT_SEEDING = (20.0, 50.0, 0.1)


def seeded_state(
    p: ParamSet, exposed: float = 0.0, infected: float = 0.0, M0: float = 0.0
) -> StateVec:
    """Susceptibles at demographic balance plus seeded infection.

    ``exposed`` and ``infected`` seed both dog classes and ``M0`` the
    environment; zero seeding is the disease-free equilibrium.
    """
    return StateVec(
        S_H=p.theta1 / p.mu1, E_H=0.0, I_H=0.0, R_H=0.0,
        S_F=p.theta2 / p.mu2, E_F=exposed, I_F=infected,
        S_D=p.theta3 / p.mu3, E_D=exposed, I_D=infected, R_D=0.0, M=M0,
    )


def force_terms(y: StateVec, u: ControlConst, p: ParamSet) -> ForceTerms:
    """The infection pressures and control factors at a state, from ``_forces``."""
    return tuple.__new__(ForceTerms, _forces(y.I_F, y.I_D, y.M, u, p.rates))


def _forces(I_F: float, I_D: float, M: float, u: Sequence, rates: tuple) -> tuple:
    """``force_terms`` as a plain tuple, which ``rhs`` unpacks faster; ``u`` is any sequence.

    The control factors (1-u1-u3) and (1-u1-u2) are clamped at zero: each control is bounded by
    1 but their sums are not, and a negative pressure has no meaning. Integrator stages may dip
    just below zero; the saturation term M/(M+C) is evaluated unchecked.
    """
    (_, _, _, _, _, _, _, _, d1, d2, d3, _, _, _, tau1, tau2, tau3, kappa1, kappa2, kappa3,
     psi1, psi2, psi3, _, _, _, _, _, _, _, _, _, _, _, _, _, _, _, _, _, _, _, _, C) = rates
    u1 = u[0]
    lamM = M / (M + C)
    a1 = 1.0 - (u1 + u[2])
    a1 = 0.5 * (a1 + abs(a1))  # max(a1, 0) exactly, for floats and (N,) arrays alike
    a2 = 1.0 - (u1 + u[1])
    a2 = 0.5 * (a2 + abs(a2))
    f1 = tau1 * I_F + tau2 * I_D + tau3 * lamM
    f2 = kappa1 * I_F + kappa2 * I_D + kappa3 * lamM
    f3 = psi1 * I_F / d1 + psi2 * I_D / d2 + psi3 * lamM / d3
    return f1, f2, f3, a1, a2, lamM


def rhs(t: float, y: StateVec, u: ControlConst, p: ParamSet) -> StateVec:
    """Time derivatives of all twelve compartments.

    The system is autonomous; ``t`` is accepted for integrator compatibility.
    ``y`` and ``u`` may be any sequences of their fields, such as an RK4 stage's
    tuple. Every parameter comes from the one tuple ``p.rates`` (``params.rates_of``).
    """
    S_H, E_H, I_H, R_H, S_F, E_F, I_F, S_D, E_D, I_D, R_D, M = y
    (k_EH, k_IH, k_RH, k_EF, k_IF, k_ED, k_ID, k_RD, _, _, _, theta1, theta2, theta3,
     _, _, _, _, _, _, _, _, _, _, _, _, beta1, beta2, beta3, gamma, gamma1, gamma2, gamma3,
     mu1, mu2, mu3, mu4, _, _, _, nu1, nu2, nu3, _) = rates = p.rates
    f1, chi2, f3, a1, a2, _ = _forces(I_F, I_D, M, u, rates)
    u4 = u[3]
    # Incidence in each host: each enters two equations as the same product.
    inc_H = a1 * f1 * S_H
    inc_F = chi2 * S_F
    inc_D = a2 * f3 * S_D

    dS_H = theta1 + beta3 * R_H - mu1 * S_H - inc_H
    dE_H = inc_H - (k_EH + u4) * E_H
    dI_H = beta1 * E_H - k_IH * I_H
    dR_H = (beta2 + u4) * E_H - k_RH * R_H

    dS_F = theta2 - inc_F - mu2 * S_F
    dE_F = inc_F - k_EF * E_F
    dI_F = gamma * E_F - k_IF * I_F

    dS_D = theta3 - mu3 * S_D - inc_D + gamma3 * R_D
    dE_D = inc_D - (k_ED + u4) * E_D
    dI_D = gamma1 * E_D - k_ID * I_D
    dR_D = (gamma2 + u4) * E_D - k_RD * R_D

    dM = nu1 * I_H + nu2 * I_F + nu3 * I_D - mu4 * M

    return tuple.__new__(
        StateVec, (dS_H, dE_H, dI_H, dR_H, dS_F, dE_F, dI_F, dS_D, dE_D, dI_D, dR_D, dM)
    )


@functools.lru_cache(maxsize=16)
def _transitions(rates: tuple) -> np.ndarray:
    """T at u = 0, read-only: column j is ``rhs`` at the unit state e_j with no recruitment.

    No unit state holds both an S class and the I_F, I_D or M that its pressure reads,
    so every incidence product a*f*S is zero there and ``rhs`` keeps only the linear flows.
    """
    no_recruitment = SimpleNamespace(rates=rates[:11] + (0.0, 0.0, 0.0) + rates[14:])
    T = np.array(rhs(0.0, np.eye(12), ZERO_CONTROL, no_recruitment))
    T.flags.writeable = False
    return T


def _varying_flows(y: StateVec, u: ControlConst, rates: tuple) -> list[tuple[int, int, int, Any]]:
    """The entries of d rhs/dy that vary with ``y`` and ``u``, as 14 flows (src, dst, j, d):
    each takes d from d rhs_src/dy_j and adds it to d rhs_dst/dy_j, on top of
    ``_transitions(rates)``. Together they write 28 entries, each (i, j) once.

    The first two are the treatment u4 that moves E_H and E_D to R_H and R_D; the other 12 are
    the derivatives of the three incidence products a*f*S (the clamped control factors are
    constants). Each d is a float or an (n,) array.
    """
    (_, _, _, _, _, _, _, _, d1, d2, d3, _, _, _, tau1, tau2, tau3, kappa1, kappa2, kappa3,
     psi1, psi2, psi3, *_, C) = rates
    f1, f2, f3, a1, a2, _ = _forces(y.I_F, y.I_D, y.M, u, rates)
    flows = [(1, 3, 1, u[3]), (8, 10, 8, u[3])]
    # Incidence a*f*S moves a host from S (row s) to E (row s + 1); f reads
    # I_F (column 6), I_D (column 9) and M (column 11), the last through M/(M+C).
    M_C = y.M + C
    dlamM = C / (M_C * M_C)
    for s, a, f, S, (dI_F, dI_D, dlam) in (
        (0, a1, f1, y.S_H, (tau1, tau2, tau3)),
        (4, 1.0, f2, y.S_F, (kappa1, kappa2, kappa3)),
        (7, a2, f3, y.S_D, (psi1 / d1, psi2 / d2, psi3 / d3)),
    ):
        for j, d in ((s, a * f), (6, a * dI_F * S), (9, a * dI_D * S), (11, a * dlam * dlamM * S)):
            flows.append((s, s + 1, j, d))
    return flows


def jacobian(y: StateVec, u: ControlConst, p: ParamSet) -> tuple[np.ndarray, np.ndarray]:
    """The derivative of ``rhs``: d rhs / d y = T + I.

    T holds the linear flows, which do not depend on the state: ``rhs`` itself at unit
    states (``_transitions``, cached per ``p.rates``), plus the treatment u4. I holds the
    derivatives of the three incidence products. Both read ``_varying_flows``. Fields of
    ``y`` and ``u`` are floats or (n,) arrays; T and I are new arrays of shape (12, 12) or
    (n, 12, 12).
    """
    flows = _varying_flows(y, u, p.rates)
    lead = np.broadcast(*y, *u).shape
    T = np.empty(lead + (12, 12))
    T[...] = _transitions(p.rates)  # a new array each call: calibrate adds I into it
    for src, dst, j, d in flows[:2]:
        T[..., src, j] -= d
        T[..., dst, j] += d
    I = np.zeros(lead + (12, 12))
    for src, dst, j, d in flows[2:]:
        I[..., src, j] = -d
        I[..., dst, j] = d
    return T, I
