"""Exception types shared across the toolkit."""


class NcsPassiveError(Exception):
    """Base class for all toolkit errors."""


class InvalidMatrix(NcsPassiveError):
    """A matrix argument is malformed (non-finite, wrong rank, not square, ...)."""


class DimensionMismatch(NcsPassiveError):
    """Matrix dimensions are inconsistent with each other or with the model."""


class UnboundVariable(NcsPassiveError):
    """An affine expression was assembled with a variable missing from the assignment."""


class AssumptionViolated(NcsPassiveError):
    """The feedthrough positivity requirement D11 + D11' > 0 does not hold."""


class SingularTransform(NcsPassiveError):
    """Gain recovery failed because the transform matrix is singular within tolerance."""


class VerificationFailed(NcsPassiveError):
    """An assignment did not pass ``lmi.verify`` where a certificate was to be built from it."""


class FitUnavailable(NcsPassiveError):
    """A decay fit was requested on a degenerate (all-zero) trajectory."""


class ConfigError(NcsPassiveError):
    """A scenario config file is malformed; message carries the offending location."""
