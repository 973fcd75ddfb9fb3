"""The left regular representation of a finite group.

The group is any object exposing .elements, .identity and .mul with hashable
elements.  The regular matrix of sum_g c_g [g] is the matrix model of that
group-algebra element; its normalised trace is the identity coefficient c_e,
the Haar state of the group's dual.
"""
from __future__ import annotations

from .matrices import CMatrix

__all__ = ["regular_rep"]


def _regular_matrix(group, coeffs: dict) -> CMatrix:
    """The left regular matrix of sum_g coeffs[g] [g] in the group's element
    order: entry [gh][h] is the coefficient of g, stored as given."""
    elements = list(group.elements)
    index = {g: y for y, g in enumerate(elements)}
    rows = [[0] * len(elements) for _ in elements]
    for g, c in coeffs.items():
        for y, h in enumerate(elements):
            rows[index[group.mul(g, h)]][y] = c
    return CMatrix.exact(rows)


def regular_rep(group) -> dict:
    """Left regular representation of a finite group-like object as
    permutation matrices in its element order."""
    return {g: _regular_matrix(group, {g: 1}) for g in group.elements}
