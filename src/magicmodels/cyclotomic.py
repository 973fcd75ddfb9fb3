"""Exact scalars in cyclotomic fields.

A value of order n is stored as integer numerators c_0, ..., c_(n-1) over one
positive integer denominator d: the value (c_0 + c_1 z + ... + c_(n-1) z^(n-1))/d
with z = exp(2*pi*i/n), a polynomial taken modulo z^n - 1 but not modulo the
n-th cyclotomic polynomial.  The pair is normalised so that gcd(d, c_0, ...,
c_(n-1)) = 1, so the rational coefficients c_a/d (read through `coeffs`) are
exactly those of the unreduced vector that arithmetic produced; serialized
models write that vector.  Arithmetic works on the integers alone.  Only
equality, zero tests and output (repr, as_fraction, reduced and the returned
inverse) reduce the numerators modulo the n-th cyclotomic polynomial, which
gives the canonical coordinates in the field Q(z); a zero verdict is kept on
the (immutable) value.  Inversion multiplies Galois conjugates: 1/x is the
product of the conjugates z -> z^a of x, a a unit mod n other than 1, divided
by the rational norm, x times that product.  Values of different orders are
combined by lifting both to the least common multiple order.

At a fixed order the (num, den) pair is a canonical form of the exact
coefficient vector modulo z^n - 1.  The integer product kernel of matrices.py
relies on it: it sums the vectors of many products as integers and builds one
value at the end, which equals the value that adding them one by one builds.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import BadArgument, DivisionByZero

__all__ = ["Cyc", "cyclotomic_poly", "zeta", "cyc"]

Rational = (int, Fraction)


def _coerce(value):
    if isinstance(value, Rational):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


def _divide_monic(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division by a monic integer polynomial; remainder must vanish.
    num = list(num)
    d = len(den) - 1
    out = [0] * (len(num) - d)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + d]
        out[i] = c
        if c:
            for j in range(d + 1):
                num[i + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first."""
    if n < 1:
        raise BadArgument("order must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divide_monic(poly, cyclotomic_poly(d))
    return tuple(poly)


def _reduce(order: int, coeffs) -> tuple:
    """Canonical coordinates of the value in the power basis of Q(zeta_order)."""
    phi = cyclotomic_poly(order)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            work[i] = 0
            base = i - deg
            for j in range(deg):
                work[base + j] -= c * phi[j]
    return tuple(work[:deg])


class Cyc:
    """An exact element of a cyclotomic field: `order` n, the tuple `num` of
    n integer numerators and the positive integer denominator `den`."""

    __slots__ = ("order", "num", "den", "_zero")

    def __init__(self, order: int, coeffs):
        coeffs = [_coerce(c) for c in coeffs]
        if order < 1:
            raise BadArgument("order must be positive")
        if len(coeffs) != order:
            raise BadArgument(f"expected {order} coefficients, got {len(coeffs)}")
        # The least common denominator leaves no common factor to remove.
        den = lcm(*[c.denominator for c in coeffs])
        num = tuple([c.numerator * (den // c.denominator) for c in coeffs])
        _set_order(self, order)
        _set_num(self, num)
        _set_den(self, den)
        _set_zero(self, None)

    @classmethod
    def _of(cls, order: int, num: tuple, den: int) -> "Cyc":
        """The value num/den from a tuple of `order` ints and an int den > 0,
        normalised; skips the checks of the public constructor."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                den //= g
                num = tuple([c // g for c in num])
        x = _new(cls)
        _set_order(x, order)
        _set_num(x, num)
        _set_den(x, den)
        _set_zero(x, None)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("Cyc values are immutable")

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients of 1, z, ..., z^(n-1): ints when the
        denominator is 1, Fractions otherwise."""
        den = self.den
        if den == 1:
            return self.num
        return tuple(Fraction(c, den) for c in self.num)

    @classmethod
    def from_rational(cls, value) -> "Cyc":
        value = _coerce(value)
        return cls._of(1, (value.numerator,), value.denominator)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "Cyc":
        num = [0] * order
        num[power % order] = 1
        return cls._of(order, tuple(num), 1)

    def lift(self, order: int) -> "Cyc":
        """Rewrite the value in the field of the given multiple order."""
        if order == self.order:
            return self
        if order % self.order:
            raise BadArgument("can only lift to a multiple of the order")
        step = order // self.order
        num = [0] * order
        for a, c in enumerate(self.num):
            if c:
                num[a * step] = c
        return Cyc._of(order, tuple(num), self.den)

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, p: int, q: int) -> "Cyc":
        """self + p/q for ints p and q > 0."""
        if not p:
            return self
        den = self.den
        if q == 1:
            num = list(self.num)
            num[0] += p * den
            return Cyc._of(self.order, tuple(num), den)
        num = [c * q for c in self.num]
        num[0] += p * den
        return Cyc._of(self.order, tuple(num), den * q)

    def _times(self, p: int, q: int) -> "Cyc":
        """self * p/q for ints p and q > 0."""
        if not p:
            return Cyc._of(self.order, (0,) * self.order, 1)
        if p == 1 and q == 1:
            return self
        return Cyc._of(self.order, tuple(c * p for c in self.num), self.den * q)

    def _pair(self, other: "Cyc"):
        """self and other at a common order; lifts only if the orders differ."""
        if self.order == other.order:
            return self, other
        m = lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def _combine(self, other: "Cyc", sign: int) -> "Cyc":
        """self + sign * other for sign 1 or -1."""
        if other.order == 1:
            return self._plus(sign * other.num[0], other.den)
        if self.order == 1:
            if sign < 0:
                other = -other
            return other._plus(self.num[0], self.den)
        a, b = self._pair(other)
        da, db = a.den, b.den
        if da == db:
            if sign > 0:
                num = tuple([x + y for x, y in zip(a.num, b.num)])
            else:
                num = tuple([x - y for x, y in zip(a.num, b.num)])
            return Cyc._of(a.order, num, da)
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return Cyc._of(a.order, tuple([x * fa + y * fb for x, y in zip(a.num, b.num)]), den)

    def __add__(self, other):
        if isinstance(other, Cyc):
            return self._combine(other, 1)
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self._plus(other.numerator, other.denominator)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Cyc):
            return self._combine(other, -1)
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self._plus(-other.numerator, other.denominator)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Cyc._of(self.order, tuple([-c for c in self.num]), self.den)

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            if isinstance(other, Rational):
                return self._times(other.numerator, other.denominator)
            return NotImplemented
        if other.order == 1:
            return self._times(other.num[0], other.den)
        if self.order == 1:
            return other._times(self.num[0], self.den)
        a, b = self._pair(other)
        n = a.order
        bs = [(j, cj) for j, cj in enumerate(b.num) if cj]
        out = [0] * n
        for i, ci in enumerate(a.num):
            if ci:
                for j, cj in bs:
                    k = i + j
                    if k >= n:
                        k -= n
                    out[k] += ci * cj
        return Cyc._of(n, tuple(out), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = Cyc.from_rational(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, Rational):
            if not other:
                raise DivisionByZero("cannot divide by zero")
            p, q = other.numerator, other.denominator
            return self._times(-q, -p) if p < 0 else self._times(q, p)
        if isinstance(other, Cyc):
            return self * other.inv()
        return NotImplemented

    def _galois(self, a: int) -> "Cyc":
        """The Galois conjugate z -> z^a, for a coprime to the order."""
        n = self.order
        num = [0] * n
        for k, c in enumerate(self.num):
            if c:
                num[a * k % n] = c
        return Cyc._of(n, tuple(num), self.den)

    def conj(self) -> "Cyc":
        """Complex conjugate, the Galois conjugate z -> z^(-1)."""
        return self._galois(-1)

    def inv(self) -> "Cyc":
        """1/x as the product of the other Galois conjugates of x over the
        rational norm N(x), x times that product, in reduced coordinates."""
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        n = self.order
        rest = Cyc.zeta(n, 0)
        for a in range(2, n):
            if gcd(a, n) == 1:
                rest = rest * self._galois(a)
        return rest.reduced() / (self * rest).as_fraction()

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        zero = self._zero
        if zero is None:
            num = self.num
            zero = not any(num) or not any(_reduce(self.order, num))
            _set_zero(self, zero)
        return zero

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Cyc):
            if not isinstance(other, Rational):
                return NotImplemented
            other = Cyc.from_rational(other)
        if self.order == other.order and self.den == other.den and self.num == other.num:
            return True
        return (self - other).is_zero()

    __hash__ = None

    def reduced(self) -> "Cyc":
        """The same value with canonically reduced coefficients."""
        red = _reduce(self.order, self.num)
        return Cyc._of(self.order, red + (0,) * (self.order - len(red)), self.den)

    def as_fraction(self):
        """The value as a Fraction if it is rational, else None."""
        red = _reduce(self.order, self.num)
        if any(red[1:]):
            return None
        return Fraction(red[0], self.den)

    def as_int(self):
        f = self.as_fraction()
        if f is None or f.denominator != 1:
            return None
        return int(f)

    def to_complex(self) -> complex:
        # c / den is the correctly rounded float of the coefficient c/den.
        total = 0j
        n, den = self.order, self.den
        for a, c in enumerate(self.num):
            if c:
                total += complex(c / den) * cmath.exp(2j * cmath.pi * a / n)
        return total

    __complex__ = to_complex

    def __repr__(self):
        f = self.as_fraction()
        if f is not None:
            return str(f)
        den = self.den
        parts = []
        for a, c in enumerate(_reduce(self.order, self.num)):
            if not c:
                continue
            if den != 1:
                c = Fraction(c, den)
            if a == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"z{self.order}^{a}" if a > 1 else f"z{self.order}")
            else:
                parts.append(f"{c}*z{self.order}^{a}" if a > 1 else f"{c}*z{self.order}")
        return " + ".join(parts).replace("+ -", "- ")


# Cyc.__setattr__ refuses every assignment, so values are filled in through
# the slot descriptors, bound once here: a construction sets four slots, and
# this costs less than four object.__setattr__ calls.
_new = object.__new__
_set_order = Cyc.order.__set__
_set_num = Cyc.num.__set__
_set_den = Cyc.den.__set__
_set_zero = Cyc._zero.__set__


def zeta(order: int, power: int = 1) -> Cyc:
    """Root of unity exp(2*pi*i*power/order)."""
    return Cyc.zeta(order, power)


def cyc(value) -> Cyc:
    """Coerce a rational number (or Cyc) to a Cyc value."""
    if isinstance(value, Cyc):
        return value
    return Cyc.from_rational(value)
