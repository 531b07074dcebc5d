"""Exception hierarchy for gaussgap.

Every error raised on a user-facing code path derives from GaussGapError so
callers (and the CLI) can distinguish model problems from genuine bugs.
"""

import numpy as np


class GaussGapError(Exception):
    """Base class for all gaussgap errors."""

    #: short machine-readable code used in CLI reports
    code = "Error"
    #: position of the failing entry when a check on a stack of models
    #: failed (see raise_first), else None
    index = None


def raise_first(bad, error, message, *values):
    """Raise error(message) for the first true entry of the boolean array
    bad, if any; message is formatted with the entries of values (arrays of
    bad's shape) at that position.  When bad has a leading stack axis the
    error carries the entry's flat position as ``index``."""
    stacked = np.ndim(bad) > 0
    if not (stacked or bad):
        return
    hits = np.flatnonzero(bad)
    if hits.size:
        i = int(hits[0])
        exc = error(message.format(*(np.ravel(v)[i] for v in values)))
        if stacked:
            exc.index = i
        raise exc


class DimensionMismatch(GaussGapError):
    code = "DimensionMismatch"


class NotHermitian(GaussGapError):
    code = "NotHermitian"


class NotSymmetric(GaussGapError):
    code = "NotSymmetric"


class DependentKraus(GaussGapError):
    """The noise coefficient matrices admit a common kernel, so the jump
    operators are linearly dependent."""

    code = "DependentKraus"


class Unstable(GaussGapError):
    """The drift has an eigenvalue with non-negative real part; no invariant
    Gaussian state exists."""

    code = "Unstable"


class SingularLyapunov(GaussGapError):
    code = "SingularLyapunov"


class NotPositiveDefinite(GaussGapError):
    code = "NotPositiveDefinite"


class NotFaithful(GaussGapError):
    """The invariant Gaussian state is not faithful (some symplectic
    eigenvalue is <= 1)."""

    code = "NotFaithful"


class NoFaithfulState(GaussGapError):
    code = "NoFaithfulState"


class NotRealCoefficients(GaussGapError):
    code = "NotRealCoefficients"


class NonCommutingHamiltonian(GaussGapError):
    code = "NonCommutingHamiltonian"


class DegenerateDiffusion(GaussGapError):
    code = "DegenerateDiffusion"


class DimensionTooLarge(GaussGapError):
    code = "DimensionTooLarge"


class OutsideEnvelope(GaussGapError):
    code = "OutsideEnvelope"


class RangeExceeded(GaussGapError):
    """A quadratic form left the floating-point envelope (exp would
    overflow)."""

    code = "RangeExceeded"


class ConsistencyError(GaussGapError):
    """Two independent internal computations disagreed beyond tolerance.

    This signals a numerical breakdown or a bug, never bad user input.
    """

    code = "ConsistencyError"


class ParseError(GaussGapError):
    code = "ParseError"


class ShapeError(GaussGapError):
    code = "ShapeError"


class NonDiagonalDensityWarning(UserWarning):
    """Density handed to the split-trace oracle is not number-basis diagonal;
    the result is computed anyway but lies outside the validated envelope."""
