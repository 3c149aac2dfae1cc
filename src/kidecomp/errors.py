"""Exception types raised across the package."""


class KidecompError(Exception):
    """Base class for all package errors."""


class NotHermitian(KidecompError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSD(KidecompError):
    """Input matrix has an eigenvalue below the negative tolerance window."""


class ConvergenceFailure(KidecompError):
    """An eigen/singular value factorization failed to converge."""


class DimensionOverflow(KidecompError):
    """Algebra closure exceeded dim^2 basis elements (tolerance runaway)."""


class DegenerateSample(KidecompError):
    """Random probes failed to separate spectra after the retry budget."""


class FormViolation(KidecompError):
    """A compressed state failed the (state on J) x (identity on K) form test."""


class ParseError(KidecompError):
    """Malformed input file; message carries the offending locus."""


class ValidationError(KidecompError):
    """Parsed object violates a structural invariant."""


class EmptyTypicalSet(KidecompError):
    """No eigenvalue sequence satisfies the typicality window."""


class ConfigTooLarge(KidecompError):
    """Requested simulation or commutant solve exceeds the desk-scale guard."""


class RejectionExhausted(KidecompError):
    """Rejection sampling gave up; the requested plant is likely infeasible."""
