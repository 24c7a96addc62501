"""Exception types shared across the package.

Domain rejections that callers are expected to branch on (an input polynomial
failing the Salem test, a sextic with no quartic preimage) are returned as
result objects, not raised.  Exceptions here mean the *call itself* was
malformed: wrong degree, non-monic divisor, parameters outside a family's
domain, and so on.
"""


class SalemToriError(Exception):
    """Base class for all package errors."""


class NotMonicError(SalemToriError):
    pass


class DegreeTooLargeError(SalemToriError):
    pass


class OddDegreeError(SalemToriError):
    pass


class NotReciprocalError(SalemToriError):
    pass


class WrongDegreeError(SalemToriError):
    pass


class NotSquarefreeError(SalemToriError):
    pass


class RealRootsError(SalemToriError):
    """A pairing step needed non-real roots but found real ones."""


class NotUnitError(SalemToriError):
    """Constant term was required to be +1 or -1."""


class NotHyperbolicError(SalemToriError):
    pass


class ZeroEntropyError(SalemToriError):
    pass


class NotApplicableError(SalemToriError):
    """The requested check is undefined for this model."""


class BadParametersError(SalemToriError):
    """Family parameters outside the documented domain."""


class NotSalemInputError(SalemToriError):
    """A pipeline stage required a certified Salem polynomial."""


class ParseError(SalemToriError):
    """Malformed polynomial text.  Carries the offending position."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class CertificationError(SalemToriError):
    """A certification invariant failed, e.g. bisection endpoints that do not
    bracket a root.  Raised rather than asserted, so it holds under python -O."""
