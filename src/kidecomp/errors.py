"""Exception types raised across the package."""


class KidecompError(Exception):
    """Base class for all package errors."""


class NotHermitian(KidecompError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSD(KidecompError):
    """Input matrix has an eigenvalue below the negative tolerance window."""


class ConvergenceFailure(KidecompError):
    """An eigen/singular value factorization failed to converge."""


class DegenerateSample(KidecompError):
    """Random probes failed to separate spectra after the retry budget."""


class FormViolation(KidecompError):
    """`ki_decompose`'s own block form fails to rebuild a state: its worst reconstruction
    residual exceeds the guard's tolerance."""


class ParseError(KidecompError):
    """Malformed input file; message carries the offending locus."""


class ValidationError(KidecompError):
    """Parsed object violates a structural invariant."""


class ConfigTooLarge(KidecompError):
    """A request passes a desk-scale guard, checked before the work is allocated: the
    protocols' qubit count or mixed failure subspace, a commutant stack, a planted
    ensemble's draws, or one verify channel's working set (the last three against
    `algebra.MAX_STACK_BYTES`)."""


class RejectionExhausted(KidecompError):
    """Rejection sampling gave up; the requested plant is likely infeasible."""
