"""Finitely supported functions on a group, multiplied by convolution.

Coefficients may be ints, Fractions or Cyc values; adjoints conjugate the
coefficient and invert the group element.  The group is any object exposing
.identity, .mul and .inv with hashable elements.
"""
from __future__ import annotations

from .matrices import scalar_conj, scalar_is_zero

__all__ = ["AlgebraElement", "delta"]


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

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + c
        return AlgebraElement(self.group, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) - c
        return AlgebraElement(self.group, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.group, {g: -c for g, c in self.coeffs.items()})

    def scale(self, s) -> "AlgebraElement":
        return AlgebraElement(self.group, {g: s * c for g, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        mul = self.group.mul
        out = {}
        for g, cg in self.coeffs.items():
            for h, ch in other.coeffs.items():
                k = mul(g, h)
                out[k] = out.get(k, 0) + cg * ch
        return AlgebraElement(self.group, out)

    def __rmul__(self, other):
        return self.scale(other)

    def adjoint(self) -> "AlgebraElement":
        inv = self.group.inv
        return AlgebraElement(self.group,
                              {inv(g): scalar_conj(c) for g, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c!r})[{g!r}]" for g, c in self.coeffs.items())


def delta(group, element) -> AlgebraElement:
    """The basis element supported on a single group element."""
    return AlgebraElement(group, {element: 1})
