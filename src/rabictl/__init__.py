"""Rabies transmission dynamics toolkit.

Forward simulation of a twelve-compartment human/dog/environment ODE model,
reproduction-number analysis, Pontryagin-style optimal control via the
forward-backward sweep, LHS/PRCC global sensitivity analysis and
least-squares parameter calibration.
"""

from .model import ControlConst, ForceTerms, StateVec, force_terms, rhs
from .params import TABLE2_BASELINE, TABLE2_ESTIMATED, ParamSet

__version__ = "0.1.0"

__all__ = [
    "ParamSet",
    "TABLE2_ESTIMATED",
    "TABLE2_BASELINE",
    "StateVec",
    "ControlConst",
    "ForceTerms",
    "force_terms",
    "rhs",
    "__version__",
]
