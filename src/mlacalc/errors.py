"""Exception hierarchy.

Three families map straight onto process exit codes: InputError (2),
MathViolation (1), ResourceError (3).  Every error carries a ``payload``
dict of JSON-friendly witness data so failures can be replayed.
"""

from __future__ import annotations

from typing import Any


class MlaError(Exception):
    def __init__(self, message: str, **payload: Any) -> None:
        super().__init__(message)
        self.payload = payload

    def as_dict(self) -> dict[str, Any]:
        return {"error": type(self).__name__, "message": str(self), **self.payload}


class InputError(MlaError):
    """Malformed or ill-typed input: bad shapes, unknown names, bad selections."""


class SelectionMismatch(InputError):
    """A selected statement needs a richer instance kind than was supplied."""


class WitnessRequired(InputError):
    """A bare element was passed where an element plus witness word is required."""


class NotInIdeal(InputError):
    """The supplied element lies outside the relevant ideal."""


class NotInTerm(InputError):
    """The supplied element or witness does not belong to the requested series term."""


class PreconditionFailed(InputError):
    """An operation's stated precondition does not hold for the supplied instance."""


class ResourceError(MlaError):
    """A configured cap (order, cosets, rounds, time) was hit."""


class CosetCapExceeded(ResourceError):
    pass


class StarInconsistent(ResourceError):
    """Star extension still violates the axioms after the round cap."""


class BudgetExceeded(ResourceError):
    pass


class MathViolation(MlaError):
    """A mathematical property failed on the instance; payload holds the witness."""


class NotClosed(MathViolation):
    pass


class NoIdentity(MathViolation):
    pass


class NoInverse(MathViolation):
    pass


class NotAssociative(MathViolation):
    pass


class NotNormal(MathViolation):
    pass


class AxiomViolation(MathViolation):
    """One of the five defining star axioms failed; payload: axiom, witness."""


class IdentityViolation(MathViolation):
    """A derived identity failed; payload: which, witness."""


class ActionViolation(MathViolation):
    """An action axiom failed; payload: condition, witness."""


class NotAutomorphism(MathViolation):
    pass


class CompatibilityViolation(MathViolation):
    """A compatibility condition failed; payload: condition, side, witness."""


class IdealityFailure(MathViolation):
    pass


class QuotientStarIllDefined(MathViolation):
    pass


class InducedActionIllDefined(MathViolation):
    pass


class BoundViolation(MathViolation):
    """A proved inequality failed numerically; payload: which, values."""


class Inapplicable(MlaError):
    """Statement hypotheses do not hold for this instance (not a failure)."""
