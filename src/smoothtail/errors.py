"""Exception types shared across the package.

The CLI maps these onto exit codes; library users catch them directly.
"""


class SmoothtailError(Exception):
    """Base class for all package errors."""


class SpecError(SmoothtailError, ValueError):
    """A model specification violates its invariants (schema-level problem)."""


class ClassViolationError(SmoothtailError):
    """A sampled matrix contradicts the declared geometric class."""


class SingularActionError(SmoothtailError):
    """|m x| fell below the underflow threshold in the projective action."""


class AssemblyError(SmoothtailError):
    """Transfer-operator assembly failed (e.g. too many rejected draws)."""


class ConvergenceError(SmoothtailError):
    """Power iteration did not converge (includes period-2 oscillation)."""


class EigenDiagnosticError(SmoothtailError):
    """Eigen-solver failure that must not be conflated with a boolean verdict."""


class NoRootError(SmoothtailError):
    """m(s) never crosses 1: m at its minimizer is >= 1."""


class NoSecondRootError(SmoothtailError):
    """m is monotone on the bracket; the minimizer sits on the boundary."""

    def __init__(self, message, m_at_s_max=None):
        super().__init__(message)
        self.m_at_s_max = m_at_s_max


class DegeneratePoolError(SmoothtailError):
    """The fixed-point pool collapsed to a point mass."""


class WindowError(SmoothtailError):
    """Requested tail window is not resolvable from the pool."""

    def __init__(self, message, max_usable_t=None):
        super().__init__(message)
        self.max_usable_t = max_usable_t


class CoverageError(SmoothtailError):
    """Retained cones do not cover the sphere grid."""


class NondegeneracyError(SmoothtailError):
    """Cone construction found no positive exceedance mass."""


class ConfigError(SmoothtailError, ValueError):
    """Malformed run configuration (CLI exit code 2)."""
