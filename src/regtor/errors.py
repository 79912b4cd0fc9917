"""Exception hierarchy.

Validation errors mean the input violates a precondition and the call can
never succeed; numerical errors mean iteration or rank decisions failed at
the requested precision and a retry at higher precision may succeed.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NotSquarefree(ValidationError):
    """Defining polynomial shares a factor with its derivative."""


class NotAUnit(ValidationError):
    """Element is not a unit of the order (integrality or norm test failed)."""


class NotPositiveDefinite(ValidationError):
    """Gram matrix is not Hermitian positive definite."""


class SingularPresentation(ValidationError):
    """Presentation matrix has determinant of norm zero."""


class ThetaOutOfRange(ValidationError):
    """Polylogarithm argument angle is outside the supported open interval."""


class TrivialHolonomyAtJZero(ValidationError):
    """Degree-0 trivial-holonomy coefficient requested; the defining series diverges."""


class NumericalError(ArithmeticError):
    """Computation failed to resolve at the working precision."""


class NoConvergence(NumericalError):
    """Iteration did not meet its residual bound within the iteration cap."""


class RankAmbiguous(NumericalError):
    """An eigenvalue sits too close to the rank cutoff, or the eigenvalues
    below it disagree with the exact kernel dimension."""
