"""Exception types shared across the package.

Every rejected input raises DomainError (a ValueError) or a subclass; the
CLI reports only these in one line, so any other exception keeps its
traceback.  The subclasses tell "wrong kind of input" from "out of range".
"""


class DomainError(ValueError):
    """An argument outside the domain of the operation."""


class SingularCurveError(DomainError):
    """The pair (a, b) has vanishing discriminant where a curve is required."""


class NotMinimalError(DomainError):
    """The Weierstrass pair is not minimal at the prime in question."""


class NotPrimeError(DomainError):
    """A prime was required."""


class PrimeTooSmallError(DomainError):
    """The prime is below the supported range (typically ell in {2, 3})."""


class PrimeTooLargeError(DomainError):
    """The prime exceeds the supported range."""


class NotMultiplicativeError(DomainError):
    """Split/nonsplit is only defined for multiplicative reduction."""


class BadReductionError(DomainError):
    """Good reduction at p was required but p divides the discriminant."""


class SmallBadPrimeError(DomainError):
    """2 or 3 divides the discriminant; local data at 2 and 3 is out of scope."""


class ExcludedPrimeError(DomainError):
    """The prime is excluded from the index set of this sum or product."""


class TruncationError(DomainError):
    """The truncation point is too small for a meaningful tail bound."""
