"""Shared exception types.

Plain ValueError/ZeroDivisionError are used where Python already has the
right builtin; the classes here exist so callers can distinguish contract
violations that carry meaning (a base point of a rational map is not the
same failure as a malformed input).
"""


class FieldMismatchError(ValueError):
    """Operands live over different base fields."""


class AlgebraMismatchError(ValueError):
    """Operands belong to different algebras (composition or Jordan)."""


class BasePointError(ValueError):
    """A rational map was evaluated on its indeterminacy locus."""


class NegativeCoefficientError(ArithmeticError):
    """A Tate-profile subtraction went negative; signals an inconsistency."""


class SamplingError(RuntimeError):
    """Seeded sampling found fewer distinct points than were asked for."""
