"""State space, infection pressures and the right-hand side of the ODE system.

Twelve compartments: four human classes (S_H, E_H, I_H, R_H), three
free-range-dog classes (S_F, E_F, I_F), four domestic-dog classes
(S_D, E_D, I_D, R_D) and the environmental virus concentration M.

Controls: u1 health promotion, u2 domestic-dog vaccination, u3 public
education, u4 post-exposure treatment of exposed humans and domestic dogs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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

    def validate(self, tol: float = 0.0) -> "StateVec":
        for name, value in zip(self._fields, self):
            if not -tol <= value < math.inf:
                raise ConfigError(f"state component {name} is negative or not finite: {value}")
        return self


class ControlConst(NamedTuple):
    """Constant control intensities, each in [0, 1]."""

    u1: float = 0.0
    u2: float = 0.0
    u3: float = 0.0
    u4: float = 0.0

    def validate(self) -> "ControlConst":
        for name, value in zip(self._fields, self):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"control {name} must lie in [0, 1], got {value}")
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
    """Evaluate the infection pressures and control factors at a state.

    The control factors (1-u1-u3) and (1-u1-u2) are clamped at zero: each
    control is bounded by 1 but their sums are not, and a negative pressure
    has no meaning. Tolerates the tiny negative excursions integrator stages
    produce (the saturation term is evaluated unchecked).
    """
    lamM = y.M / (y.M + p.C)
    a1 = 1.0 - (u.u1 + u.u3)
    if a1 < 0.0:
        a1 = 0.0
    a2 = 1.0 - (u.u1 + u.u2)
    if a2 < 0.0:
        a2 = 0.0
    f1 = p.tau1 * y.I_F + p.tau2 * y.I_D + p.tau3 * lamM
    f2 = p.kappa1 * y.I_F + p.kappa2 * y.I_D + p.kappa3 * lamM
    f3 = (
        p.psi1 * y.I_F / (1.0 + p.rho1)
        + p.psi2 * y.I_D / (1.0 + p.rho2)
        + p.psi3 * lamM / (1.0 + p.rho3)
    )
    return ForceTerms(f1, f2, f3, a1, a2, lamM)


def rhs(t: float, y: StateVec, u: ControlConst, p: ParamSet) -> StateVec:
    """Time derivatives of all twelve compartments.

    The system is autonomous; ``t`` is accepted for integrator compatibility.
    """
    f1, chi2, f3, a1, a2, _ = force_terms(y, u, p)
    chi1 = a1 * f1
    chi3 = a2 * f3

    dS_H = p.theta1 + p.beta3 * y.R_H - p.mu1 * y.S_H - chi1 * y.S_H
    dE_H = chi1 * y.S_H - (p.mu1 + p.beta1 + p.beta2 + u.u4) * y.E_H
    dI_H = p.beta1 * y.E_H - (p.sigma1 + p.mu1) * y.I_H
    dR_H = (p.beta2 + u.u4) * y.E_H - (p.beta3 + p.mu1) * y.R_H

    dS_F = p.theta2 - chi2 * y.S_F - p.mu2 * y.S_F
    dE_F = chi2 * y.S_F - (p.mu2 + p.gamma) * y.E_F
    dI_F = p.gamma * y.E_F - (p.mu2 + p.sigma2) * y.I_F

    dS_D = p.theta3 - p.mu3 * y.S_D - chi3 * y.S_D + p.gamma3 * y.R_D
    dE_D = chi3 * y.S_D - (p.mu3 + p.gamma1 + p.gamma2 + u.u4) * y.E_D
    dI_D = p.gamma1 * y.E_D - (p.mu3 + p.sigma3) * y.I_D
    dR_D = (p.gamma2 + u.u4) * y.E_D - (p.mu3 + p.gamma3) * y.R_D

    dM = p.nu1 * y.I_H + p.nu2 * y.I_F + p.nu3 * y.I_D - p.mu4 * y.M

    return StateVec(dS_H, dE_H, dI_H, dR_H, dS_F, dE_F, dI_F, dS_D, dE_D, dI_D, dR_D, dM)
