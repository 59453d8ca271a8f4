"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
numerical failures exit 3, IO problems (plain OSError) exit 4.
"""


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
