"""Exception types shared across the package.

Each class carries the exit code the CLI returns for it and the label the
CLI prints before its message; library users catch them directly.
"""


class SmoothtailError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    label = "error"


class SpecError(SmoothtailError, ValueError):
    """A model specification violates its invariants (schema-level problem)."""

    exit_code = 2
    label = "config error"


class SingularActionError(SmoothtailError):
    """|m x| fell below the underflow threshold in the projective action."""


class AssemblyError(SmoothtailError):
    """Transfer-operator assembly failed (e.g. too many rejected draws)."""

    exit_code = 4
    label = "spectral failure"


class ConvergenceError(SmoothtailError):
    """Power iteration did not converge (includes period-2 oscillation)."""

    exit_code = 4
    label = "spectral failure"


class EigenDiagnosticError(SmoothtailError):
    """Eigen-solver failure that must not be conflated with a boolean verdict."""


class NoRootError(SmoothtailError):
    """m(s) never crosses 1: m at its minimizer is >= 1."""

    exit_code = 5
    label = "root finding"


class NoSecondRootError(SmoothtailError):
    """m is monotone on the bracket; the minimizer sits on the boundary."""

    exit_code = 5
    label = "root finding"


class DegeneratePoolError(SmoothtailError):
    """The fixed-point pool collapsed to a point mass."""

    exit_code = 6
    label = "degenerate pool"


class WindowError(SmoothtailError):
    """Requested tail window is not resolvable from the pool."""

    exit_code = 7
    label = "tail window"


class CoverageError(SmoothtailError):
    """The cap centers cannot cover the sphere grid."""

    exit_code = 6
    label = "degenerate cone family"


class NondegeneracyError(SmoothtailError):
    """Cone construction found no positive exceedance mass."""

    exit_code = 6
    label = "degenerate cone family"


class ConfigError(SmoothtailError, ValueError):
    """Malformed run configuration."""

    exit_code = 2
    label = "config error"
