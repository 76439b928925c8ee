"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so new error types should subclass
one of the three families below rather than Exception directly:
ParseError (exit 1), ValidationError (exit 2), EvalDomainError (exit 3).
"""


class SprayDiracError(Exception):
    """Base class for everything raised on purpose by this package."""


class ParseError(SprayDiracError):
    """Bad input text (expression DSL or problem file)."""

    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        self.position = position
        self.line = line
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif position is not None:
            loc = f" (at offset {position})"
        super().__init__(message + loc)


class ValidationError(SprayDiracError):
    """Structurally valid input that violates a declared contract."""


class AnnihilatorMismatchError(ValidationError):
    """A supplied covector fails to annihilate the distribution it was declared for."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class DistributionMembershipError(ValidationError):
    """A field that must lie inside a distribution does not."""


class RankDeficientError(ValidationError):
    """A pointwise rank requirement is not met."""


class EvalDomainError(SprayDiracError):
    """Numeric evaluation left the domain (division by zero, log of a
    nonpositive number, fractional power of a negative base, overflow)."""


class UnboundParameterError(EvalDomainError):
    """Evaluation reached a parameter with no bound value, or a compile for
    the integrator reached an opaque function without a body."""


class SingularLocusError(EvalDomainError):
    """A requested point sits on (or too close to) a declared singular locus."""
