"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 3,
loss of metric positivity exits 2, and violated invariants/tolerances exit 4.
"""


class ConfigError(ValueError):
    """Malformed or out-of-range run configuration."""


class PositivityLostError(RuntimeError):
    """The (1,1) part of the evolving structure stopped being a metric.

    Raised when a candidate metric fails Sylvester's criterion (some leading
    principal minor is not > 0 at some point), has no finite inverse (a
    subnormal determinant or smallest eigenvalue), holds a non-finite entry
    or has a determinant that overflows.  Carries the time, the margin (the
    candidate's smallest eigenvalue, nan for the last two), plus any
    diagnostics collected so far.
    """

    def __init__(self, message, t=None, margin=None, records=None):
        super().__init__(message)
        self.t = t
        self.margin = margin
        self.records = records if records is not None else []


class ConstraintViolationError(RuntimeError):
    """A monitored structural residual exceeded its abort threshold."""

    def __init__(self, message, t=None, residual=None, records=None):
        super().__init__(message)
        self.t = t
        self.residual = residual
        self.records = records if records is not None else []
