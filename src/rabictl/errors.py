"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
numerical failures exit 3, IO problems (plain OSError) exit 4.
"""

import numbers
import sys


def shorten(text: str) -> str:
    """``text`` for an error message, its middle cut out past 40 characters."""
    return text if len(text) <= 40 else f"{text[:20]}...{text[-20:]} ({len(text)} characters)"


def echo(value: object) -> str:
    """``value``'s repr for an error message, shortened; it never raises, as repr can."""
    try:
        return shorten(repr(value))
    except ValueError:  # an int of more digits than sys.get_int_max_str_digits()
        return f"an integer of {value.bit_length()} bits"  # type: ignore[attr-defined]


def is_finite(value: object) -> bool:
    """Whether ``value`` is a real number a double holds, as a finite number must be: not NaN
    or inf, and no int past the largest double, which ``0 <= value < inf`` lets through."""
    return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max


def is_count(value: object, lo: int, hi: float = float("inf")) -> bool:
    """Whether ``value`` is an int or numpy integer, not a bool, in [lo, hi], as a count must be."""
    return isinstance(value, numbers.Integral) and type(value) is not bool and lo <= value <= hi


class RabictlError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RabictlError):
    """Invalid configuration, input contract violation or bad argument."""


class DegenerateInputError(ConfigError):
    """Input data is collinear/constant and the requested statistic is undefined."""


class NumericError(RabictlError):
    """A numerical procedure failed to produce a usable result."""


class IntegrationBlowupError(NumericError):
    """A state component went significantly negative or non-finite during integration."""


class NoEndemicEquilibriumError(NumericError):
    """Endemic equilibrium requested in the sub-threshold regime (Re < 1)."""


class SweepDivergenceError(NumericError):
    """The forward-backward sweep diverged instead of settling."""


class StudyError(NumericError):
    """Too many sample rows of a sensitivity study failed to simulate."""
