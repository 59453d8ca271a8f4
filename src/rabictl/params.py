"""Model parameterization: rate constants and presets.

All rates are per year; population recruitment is individuals per year and
the half-saturation constant ``C`` is in PFU/mL.

``rates_of`` gathers every value the model reads into one tuple, which the
kernels unpack once per call; they read no other parameter. A ``ParamSet`` builds it
once, as ``rates``, and a PRCC study or an R_e grid once for its arrays.
A ``ParamSet`` holds Python floats, as a numpy scalar slows every scalar ``rhs``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass
from typing import Any

from .errors import ConfigError, shorten

__all__ = ["ParamSet", "TABLE2_ESTIMATED", "TABLE2_BASELINE", "PARAM_NAMES", "rates_of", "rules", "valid"]


@dataclass(frozen=True)
class ParamSet:
    """The full set of rate constants of the transmission model.

    Naming groups:
      theta1..theta3   recruitment (humans, free-range dogs, domestic dogs)
      tau1..tau3       human transmission from I_F, I_D and the environment
      kappa1..kappa3   free-range-dog transmission
      psi1..psi3       domestic-dog transmission
      rho1..rho3       deterrence factors (enter as divisors 1 + rho)
      beta1..beta3     human progression / baseline recovery / immunity waning
      gamma..gamma3    dog progression / recovery / waning analogues
      mu1..mu4         natural mortality (three populations) and virus decay
      sigma1..sigma3   disease-induced mortality
      nu1..nu3         virus shedding into the environment
      C                half-saturation of the environmental response

    ``rates`` holds ``rates_of(self)``, built with the instance; ``replace``
    builds a new instance, so its rates are never stale.
    """

    theta1: float
    theta2: float
    theta3: float
    tau1: float
    tau2: float
    tau3: float
    kappa1: float
    kappa2: float
    kappa3: float
    psi1: float
    psi2: float
    psi3: float
    rho1: float
    rho2: float
    rho3: float
    beta1: float
    beta2: float
    beta3: float
    gamma: float
    gamma1: float
    gamma2: float
    gamma3: float
    mu1: float
    mu2: float
    mu3: float
    mu4: float
    sigma1: float
    sigma2: float
    sigma3: float
    nu1: float
    nu2: float
    nu3: float
    C: float

    def __post_init__(self) -> None:
        if not {float}.issuperset(map(type, vars(self).values())):  # else every field is a float
            for name, value in zip(PARAM_NAMES, _PARAMS(self)):
                try:  # float() would read a string, a bool or a one-value array too
                    if isinstance(value, (str, bytes, bool)) or getattr(value, "ndim", 0):
                        raise TypeError
                    object.__setattr__(self, name, float(value))
                except (TypeError, ValueError):
                    raise ConfigError(f"parameter {name!r} must be a number, "
                                      f"got {shorten(repr(value))}") from None
        kept = rules(self)
        if not all(kept):
            k = kept.index(False)
            if k < len(PARAM_NAMES):
                name = PARAM_NAMES[k]
                raise ConfigError(f"parameter {name!r} must be strictly positive and finite, "
                                  f"got {getattr(self, name)}")
            j = k - len(PARAM_NAMES) + 1
            raise ConfigError(f"recruitment theta{j} must exceed mortality mu{j}")
        object.__setattr__(self, "rates", rates_of(self))

    def replace(self, **overrides: float) -> "ParamSet":
        unknown = overrides.keys() - _PARAMS_SET
        if unknown:
            raise ConfigError(f"unknown parameter name(s): {sorted(unknown)}")
        fields = self.rates[-len(PARAM_NAMES):]  # the fields end the tuple; slicing beats _PARAMS
        return ParamSet(**dict(zip(PARAM_NAMES, fields), **overrides))

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


PARAM_NAMES: tuple[str, ...] = tuple(f.name for f in dataclasses.fields(ParamSet))
_PARAMS = operator.attrgetter(*PARAM_NAMES)
_PARAMS_SET = frozenset(PARAM_NAMES)


def rules(p: Any) -> list:
    """Whether ``p`` keeps each rule, a bool or a mask: each field positive and finite, then theta > mu."""
    inf = math.inf  # plain operators, not numpy calls, keep a float ParamSet's check fast
    return [(v > 0.0) & (v < inf) for v in _PARAMS(p)] + [
        p.theta1 > p.mu1, p.theta2 > p.mu2, p.theta3 > p.mu3]


def valid(p: Any) -> Any:
    """Where ``p`` keeps every rule: a bool for float fields, a mask for array fields."""
    return functools.reduce(operator.and_, rules(p))


def rates_of(p: Any) -> tuple:
    """Every value the model reads, in one flat tuple, for floats or (N,) arrays alike.

    In order: the outflow rates of E_H, I_H, R_H, E_F, I_F, E_D, I_D and R_D (u4
    is added to those of E_H and E_D on each call), the deterrence divisors
    1 + rho1, 1 + rho2 and 1 + rho3, then the fields in ``PARAM_NAMES`` order.
    Python adds left to right, so a caller that adds u4 afterwards,
    ``(mu1 + beta1 + beta2) + u4``, gets the same double as ``mu1 + beta1 + beta2 + u4``.
    """
    mu1, mu2, mu3 = p.mu1, p.mu2, p.mu3
    return (
        mu1 + p.beta1 + p.beta2, p.sigma1 + mu1, p.beta3 + mu1,
        mu2 + p.gamma, mu2 + p.sigma2,
        mu3 + p.gamma1 + p.gamma2, mu3 + p.sigma3, mu3 + p.gamma3,
        1.0 + p.rho1, 1.0 + p.rho2, 1.0 + p.rho3,
    ) + _PARAMS(p)


# Fitted values (the default parameterization).
TABLE2_ESTIMATED = ParamSet(
    theta1=1993.382113,
    theta2=1004.12044,
    theta3=1203.844461,
    tau1=0.000405,
    tau2=0.000604,
    tau3=0.000303,
    kappa1=0.000020,
    kappa2=0.000081,
    kappa3=0.000040,
    psi1=0.000077,
    psi2=0.000066,
    psi3=0.000030,
    rho1=9.920733,
    rho2=8.116421,
    rho3=14.917005,
    beta1=0.165581,
    beta2=0.540487,
    beta3=0.999301,
    gamma=0.166374,
    gamma1=0.172489,
    gamma2=0.090308,
    gamma3=0.050128,
    mu1=0.014417,
    mu2=0.066268,
    mu3=0.080129,
    mu4=0.080625,
    sigma1=1.006332,
    sigma2=0.089556,
    sigma3=0.091393,
    nu1=0.001958,
    nu2=0.008971,
    nu3=0.005735,
    C=0.003011,
)

# Baseline values. Where only a plausible range is known the lower endpoint
# is used, matching where the fitted values sit.
TABLE2_BASELINE = ParamSet(
    theta1=2000.0,
    theta2=1000.0,
    theta3=1200.0,
    tau1=0.0004,
    tau2=0.0004,
    tau3=0.0003,
    kappa1=0.00006,
    kappa2=0.00005,
    kappa3=0.00001,
    psi1=0.0004,
    psi2=0.0004,
    psi3=0.0003,
    rho1=10.0,
    rho2=8.0,
    rho3=15.0,
    beta1=1.0 / 6.0,
    beta2=0.54,
    beta3=1.0,
    gamma=1.0 / 6.0,
    gamma1=1.0 / 6.0,
    gamma2=0.09,
    gamma3=0.05,
    mu1=0.0142,
    mu2=0.067,
    mu3=0.067,
    mu4=0.08,
    sigma1=1.0,
    sigma2=0.09,
    sigma3=0.08,
    nu1=0.001,
    nu2=0.006,
    nu3=0.001,
    C=0.003,
)

PRESETS = {"estimated": TABLE2_ESTIMATED, "baseline": TABLE2_BASELINE}
