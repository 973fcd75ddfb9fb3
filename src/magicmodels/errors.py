"""Exception types raised by the library.

Every structural failure gets its own class so callers can distinguish bad
input (subclasses of ModelInputError) from internal consistency violations
(Inconsistent, which always indicates a bug or numerical breakdown).
"""
from __future__ import annotations

__all__ = [
    "MagicModelsError",
    "ModelInputError",
    "BadSetting",
    "BadArgument",
    "CapExceeded",
    "BudgetExceeded",
    "DegreeMismatch",
    "NotSubgroup",
    "NotNormal",
    "NotWellDefined",
    "NotBijective",
    "DivisionByZero",
    "ShapeMismatch",
    "ModeMismatch",
    "Inconsistent",
    "NotFiniteOrder",
    "NotUnitary",
    "NotInGroup",
    "FreePartPresent",
    "NotQuasiTransitive",
    "InvalidFamily",
    "InvalidAutomorphism",
    "NotRepresentation",
]


class MagicModelsError(Exception):
    """Base class for all library errors."""


class ModelInputError(MagicModelsError):
    """Base class for errors caused by invalid input data."""


class BadSetting(ModelInputError, ValueError):
    """A run setting (mode, tolerance, word length, cap or seed) is out of
    range."""


class BadArgument(ModelInputError, ValueError):
    """An argument of a library call is out of range or malformed: a matrix
    power, an order, a block size, a factor, a permutation, a table or a
    count that does not fit the data."""


class CapExceeded(ModelInputError):
    """A group has more elements than the configured cap."""


class BudgetExceeded(ModelInputError):
    """A check would take more steps than its work budget allows; the
    budget is checked before the work starts."""


class DegreeMismatch(ModelInputError):
    """Permutations or groups act on different numbers of points."""


class NotSubgroup(ModelInputError):
    """Claimed subgroup contains elements outside the ambient group."""


class NotNormal(ModelInputError):
    """Subgroup is not closed under conjugation by the ambient group."""


class NotWellDefined(ModelInputError):
    """A generator assignment does not extend to a homomorphism."""


class NotBijective(ModelInputError):
    """A propagated map is multiplicative but fails to be a bijection."""


class DivisionByZero(MagicModelsError, ZeroDivisionError):
    """Inversion of the zero scalar."""


class ShapeMismatch(ModelInputError):
    """Matrix or model dimensions are incompatible."""


class ModeMismatch(ModelInputError):
    """Exact and float objects mixed in one operation."""


class Inconsistent(MagicModelsError):
    """Two routes that must agree produced different answers."""


class NotFiniteOrder(ModelInputError):
    """A matrix or element does not satisfy the required power identity."""


class NotUnitary(ModelInputError):
    """A matrix fails the unitarity test."""


class NotInGroup(ModelInputError):
    """An element does not belong to the stated group."""


class FreePartPresent(ModelInputError):
    """Operation requires a finite group but the data has a free part."""


class NotQuasiTransitive(ModelInputError):
    """Orbits do not all have the same size."""


class InvalidFamily(ModelInputError):
    """Claimed family violates the pointwise-distinctness condition."""


class InvalidAutomorphism(ModelInputError):
    """Map is not an automorphism compatible with the stated data."""


class NotRepresentation(ModelInputError):
    """Matrix assignment is not multiplicative or not unitary."""
