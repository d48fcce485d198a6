"""Semantic exception hierarchy; public functions never raise bare ValueError."""


class TangleboundError(Exception):
    """Base error for the package."""


class BadStateFormat(TangleboundError, ValueError):
    """State/density JSON or array has the wrong shape or length."""


class ZeroState(TangleboundError):
    """Amplitude vector has (numerically) zero norm."""


class NotNormalized(TangleboundError):
    """Operation requires a unit-norm state."""


class BadQubitIndex(TangleboundError, ValueError):
    """Qubit index outside 1..n."""


class BadQubitLabel(TangleboundError, ValueError):
    """Unknown traced-qubit label or qubit triple (the focus qubit A1 cannot be traced)."""


class BadPermutation(TangleboundError, ValueError):
    """Permutation argument is not a bijection of {1, 2, 3, 4}."""


class NotUnitary(TangleboundError):
    """Matrix fails the unitarity check."""


class NonFinite(TangleboundError, ValueError):
    """NaN or Inf in a numeric argument."""


class NotDensityMatrix(TangleboundError):
    """Matrix is not Hermitian / trace-one / positive semidefinite within tolerance."""


class RankTooHigh(TangleboundError):
    """Density matrix has rank above 2 where a rank-2 workflow is required."""


class ZeroPolynomial(TangleboundError):
    """All polynomial coefficients vanish; every point is a root."""


class DidNotConverge(TangleboundError):
    """Root refinement failed to meet the residual contract."""


class DegenerateProbability(TangleboundError):
    """A branch probability is numerically zero; the reduced state is pure."""


class BadComplexLiteral(TangleboundError, ValueError):
    """Text is not a complex number written as re+imi."""


class BadArity(TangleboundError, ValueError):
    """Class parameters missing or superfluous for the requested family."""


class BranchMismatch(TangleboundError, ValueError):
    """Mixing weight is inconsistent with the requested threshold branch."""


class OutOfRange(TangleboundError, ValueError):
    """Numeric parameter outside its admissible interval."""


class NotPrinted(TangleboundError, KeyError):
    """No literature comparison value exists for this class/triple/source combination."""
