"""Finitely supported functions on a group, multiplied by convolution.

Coefficients may be ints, Fractions or Cyc values.  The group is any object
exposing .identity and .mul with hashable elements.  The dual-group reference
reads products and identity coefficients of these elements.
"""
from __future__ import annotations

from .matrices import scalar_is_zero

__all__ = ["AlgebraElement"]


class AlgebraElement:
    """An element of the group algebra, as a dict from group elements to
    nonzero coefficients."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs):
        cleaned = {}
        for g, c in coeffs.items():
            if not scalar_is_zero(c):
                cleaned[g] = c
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement values are immutable")

    @classmethod
    def zero(cls, group) -> "AlgebraElement":
        return cls(group, {})

    @classmethod
    def one(cls, group) -> "AlgebraElement":
        return cls(group, {group.identity: 1})

    def at_identity(self):
        """The coefficient of the identity, i.e. the Haar state on a dual."""
        return self.coeffs.get(self.group.identity, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) - c
        return AlgebraElement(self.group, out)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        mul = self.group.mul
        out = {}
        for g, cg in self.coeffs.items():
            for h, ch in other.coeffs.items():
                k = mul(g, h)
                out[k] = out.get(k, 0) + cg * ch
        return AlgebraElement(self.group, out)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c!r})[{g!r}]" for g, c in self.coeffs.items())
