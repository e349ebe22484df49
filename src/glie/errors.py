"""Exception hierarchy shared by all glie modules.

Zero inversion raises the builtin ZeroDivisionError; everything else that a
caller can provoke gets a named class below so CLI exit codes and tests can
dispatch on the failure kind.
"""


class GlieError(Exception):
    """Base class for all glie-specific failures."""


class AmbientMismatch(GlieError):
    """Operands live in different ambient spaces / parent algebras."""


class SpecError(GlieError):
    """An algebra specification violates a structural axiom."""


class ParityError(GlieError):
    """A substitution maps a variable to an image of the wrong parity."""


class MissingAssignment(GlieError):
    """Expression evaluation hit a variable without an assigned value."""


class ExpansionTooLarge(GlieError):
    """Symbolic expansion would exceed the configured degree caps."""


class BudgetExceeded(GlieError):
    """An exhaustive enumeration would exceed the evaluation budget."""


class UnsupportedField(GlieError):
    """The requested field is outside the supported range (p > 3, small q)."""


class TheoremViolation(GlieError):
    """A machine check contradicted a proved statement; must never fire."""


class NotALieElement(GlieError):
    """An associative polynomial is not in the span of Lie monomials."""
