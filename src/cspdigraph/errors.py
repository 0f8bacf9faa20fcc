"""Exception types shared across the package.

Two broad families matter for the CLI exit codes: input problems
(ParseError and friends, exit 2) and semantic precondition violations
(PreconditionError subclasses, exit 3).
"""


class CspError(Exception):
    """Base class for all package errors."""


class ParseError(CspError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PreconditionError(CspError):
    """An operation was called on input that violates its contract."""


class NonemptyRelationRequired(PreconditionError):
    pass


class SignatureMismatch(PreconditionError):
    pass


class ArityMismatch(PreconditionError):
    pass


class Unbalanced(PreconditionError):
    """A component admits no level function.

    ``witness`` is a closed walk (vertex name list) with nonzero net
    orientation.
    """

    def __init__(self, message: str, witness: list[str]):
        super().__init__(message)
        self.witness = witness


class UnbalancedInput(PreconditionError):
    pass


class TrivialTemplate(PreconditionError):
    pass


class NonlinearIdentity(PreconditionError):
    pass


class ShapeViolation(PreconditionError):
    pass


class ZigzagWitnessFails(PreconditionError):
    pass


class NotAPolymorphism(PreconditionError):
    pass


class NotEndomorphism(PreconditionError):
    pass


class InternalInvariantViolation(CspError):
    """A structural guarantee failed; indicates a bug, not bad input."""
