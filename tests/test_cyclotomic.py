import cmath
import random
import struct
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicmodels.cyclotomic import Cyc, cyc, cyclotomic_poly, zeta
from magicmodels.errors import DivisionByZero
from test_matrices import UNREDUCED_ZEROS


def rand_cyc(rng, order):
    return Cyc(order, [rng.randint(-3, 3) for _ in range(order)])


def test_roots_of_unity_basics():
    z = zeta(4)
    assert z * z == Fraction(-1)
    assert z ** 4 == Fraction(1)
    assert zeta(6) ** 3 == Fraction(-1)
    assert zeta(1) == Fraction(1)
    # full sum of n-th roots vanishes for n > 1
    for n in (2, 3, 5, 8, 12):
        total = Cyc.from_rational(0)
        for a in range(n):
            total = total + zeta(n, a)
        assert total.is_zero()


def test_zeta_power_wraps():
    assert zeta(5, 7) == zeta(5, 2)
    assert zeta(3, -1) == zeta(3, 2)


def test_cyclotomic_poly_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    # degree is Euler phi
    assert len(cyclotomic_poly(12)) - 1 == 4
    assert len(cyclotomic_poly(9)) - 1 == 6


def test_lift_preserves_value():
    z = zeta(3) + Fraction(1, 2)
    lifted = z.lift(12)
    assert lifted.order == 12
    assert lifted == z
    with pytest.raises(ValueError):
        z.lift(7)


def test_canonical_difference_iff_equal():
    # zeta_6 satisfies z^2 = z - 1, written two ways
    a = zeta(6) * zeta(6)
    b = zeta(6) - 1
    assert a == b
    assert (a - b).is_zero()
    assert not (a - b + 1).is_zero()


def test_ring_axioms_seeded_sweep():
    rng = random.Random(20260823)
    for order in range(1, 25):
        for _ in range(1000):
            a = rand_cyc(rng, order)
            b = rand_cyc(rng, order)
            c = rand_cyc(rng, order)
            assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
            assert ((a * b) * c) == (a * (b * c))
            assert (a * (b + c)) == (a * b + a * c)


def test_conj_is_involutive_automorphism():
    rng = random.Random(7)
    for order in (1, 2, 3, 4, 6, 8, 12):
        for _ in range(50):
            a = rand_cyc(rng, order)
            b = rand_cyc(rng, order)
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()
            norm = a * a.conj()
            assert norm.conj() == norm


def test_inverse_and_division():
    z = zeta(5) + 1
    assert z * z.inv() == Fraction(1)
    assert (z / z) == Fraction(1)
    with pytest.raises(DivisionByZero):
        Cyc.from_rational(0).inv()
    # rational fallback
    assert Cyc.from_rational(Fraction(3, 4)).inv() == Fraction(4, 3)


def test_as_fraction_and_as_int():
    assert (zeta(3) + zeta(3, 2)).as_fraction() == Fraction(-1)
    assert (zeta(4) ** 2).as_int() == -1
    assert zeta(3).as_fraction() is None
    assert Cyc.from_rational(Fraction(1, 2)).as_int() is None


def test_to_complex_matches_roots():
    import cmath
    for n in (1, 2, 3, 4, 5, 12):
        for a in range(n):
            expect = cmath.exp(2j * cmath.pi * a / n)
            assert abs(zeta(n, a).to_complex() - expect) < 1e-12


def test_cyc_coercion():
    assert cyc(3) == Cyc.from_rational(3)
    assert cyc(Fraction(1, 2)) + cyc(Fraction(1, 2)) == Fraction(1)
    assert zeta(2) == Fraction(-1)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_mixed_order_arithmetic(order, data):
    other = data.draw(st.integers(min_value=1, max_value=12))
    ca = data.draw(st.lists(st.integers(-5, 5), min_size=order, max_size=order))
    cb = data.draw(st.lists(st.integers(-5, 5), min_size=other, max_size=other))
    a, b = Cyc(order, ca), Cyc(other, cb)
    # commutativity across automatic order lifting
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a


# -- integer numerators against the Fraction-vector representation -----------

def _ref_reduce(order, coeffs):
    phi = cyclotomic_poly(order)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            work[i] = 0
            for j in range(deg):
                work[i - deg + j] -= c * phi[j]
    return tuple(work[:deg])


def _ref_divmod(a, b):
    r = list(a)
    q = [Fraction(0)] * max(1, len(r) - len(b) + 1)
    lead = Fraction(b[-1])
    for i in range(len(r) - len(b), -1, -1):
        c = Fraction(r[i + len(b) - 1]) / lead
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                r[i + j] -= c * bj
    while len(r) > 1 and not r[-1]:
        r.pop()
    return q, r


class RefCyc:
    """Reference: a length-n vector of int or Fraction coefficients of
    1, z, ..., z^(n-1) modulo z^n - 1, reduced modulo Phi_n on every test."""

    def __init__(self, order, coeffs):
        self.order, self.coeffs = order, tuple(coeffs)
        assert len(self.coeffs) == order

    def lift(self, order):
        step = order // self.order
        co = [0] * order
        for a, c in enumerate(self.coeffs):
            if c:
                co[a * step] = c
        return RefCyc(order, co)

    def _pair(self, other):
        if not isinstance(other, RefCyc):
            other = RefCyc(1, (other,))
        m = lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return RefCyc(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other):
        a, b = self._pair(other)
        return RefCyc(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RefCyc(self.order, (0,) * self.order)
            return RefCyc(self.order, [c * other for c in self.coeffs])
        a, b = self._pair(other)
        n = a.order
        out = [0] * n
        for i, ci in enumerate(a.coeffs):
            if ci:
                for j, cj in enumerate(b.coeffs):
                    if cj:
                        out[(i + j) % n] += ci * cj
        return RefCyc(n, out)

    def conj(self):
        co = [0] * self.order
        for a, c in enumerate(self.coeffs):
            if c:
                co[-a % self.order] = c
        return RefCyc(self.order, co)

    def inv(self):
        n = self.order
        a = list(_ref_reduce(n, self.coeffs))
        while len(a) > 1 and not a[-1]:
            a.pop()
        if not any(a):
            raise DivisionByZero("cannot invert zero")
        r0, u0 = list(cyclotomic_poly(n)), [Fraction(0)]
        r1, u1 = [Fraction(c) for c in a], [Fraction(1)]
        while len(r1) > 1:
            q, rem = _ref_divmod(r0, r1)
            u_next = list(u0) + [Fraction(0)] * max(0, len(q) + len(u1) - 1 - len(u0))
            for i, qi in enumerate(q):
                if qi:
                    for j, uj in enumerate(u1):
                        u_next[i + j] -= qi * uj
            while len(u_next) > 1 and not u_next[-1]:
                u_next.pop()
            r0, u0, r1, u1 = r1, u1, rem, u_next
        co = [0] * n
        for i, c in enumerate(u1):
            if c:
                co[i] = c / Fraction(r1[0])
        return RefCyc(n, co)

    def is_zero(self):
        return not any(_ref_reduce(self.order, self.coeffs))

    def __eq__(self, other):
        return (self - other).is_zero()

    def as_fraction(self):
        red = _ref_reduce(self.order, self.coeffs)
        return None if any(red[1:]) else Fraction(red[0])

    def to_complex(self):
        total = 0j
        for a, c in enumerate(self.coeffs):
            if c:
                total += complex(c) * cmath.exp(2j * cmath.pi * a / self.order)
        return total

    def __repr__(self):
        f = self.as_fraction()
        if f is not None:
            return str(f)
        parts = []
        for a, c in enumerate(_ref_reduce(self.order, self.coeffs)):
            if not c:
                continue
            z = f"z{self.order}^{a}" if a > 1 else f"z{self.order}"
            parts.append(str(c) if a == 0 else z if c == 1 else f"{c}*{z}")
        return " + ".join(parts).replace("+ -", "- ")


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def assert_same(new, ref):
    """Stored vector, serialized coefficient strings, repr and float bits."""
    assert isinstance(new, Cyc) and new.den > 0 and gcd(new.den, *new.num) == 1
    assert (new.order, new.coeffs) == (ref.order, ref.coeffs)
    assert [str(c) for c in new.coeffs] == [str(Fraction(c)) for c in ref.coeffs]
    assert repr(new) == repr(ref)
    assert _bits(new.to_complex()) == _bits(ref.to_complex())


COEFFS = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=12))
RATIONALS = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=12))


@st.composite
def cyc_pairs(draw):
    """A Cyc and its reference, of order 1 to 13 or an unreduced zero."""
    if draw(st.integers(0, 5)) == 0:
        z = draw(st.sampled_from(UNREDUCED_ZEROS))
        coeffs = z.coeffs
        order = z.order
    else:
        order = draw(st.integers(1, 13))
        coeffs = draw(st.lists(st.one_of(st.just(0), COEFFS),
                               min_size=order, max_size=order))
    return Cyc(order, coeffs), RefCyc(order, coeffs)


@settings(max_examples=200, deadline=None)
@given(cyc_pairs(), cyc_pairs(), RATIONALS)
def test_integer_cyc_matches_fraction_vectors(x, y, r):
    (a, ra), (b, rb) = x, y
    assert_same(a, ra)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a * b, ra * rb)
    assert_same(a * r, ra * r)
    assert_same(r * a, ra * r)
    assert_same(a + r, ra + r)
    assert_same(r - a, RefCyc(1, (r,)) - ra)
    assert_same(a.conj(), ra.conj())
    assert_same(a.lift(a.order * 3), ra.lift(ra.order * 3))
    if r:
        assert_same(a / r, ra * (1 / Fraction(r)))
    assert a.is_zero() == ra.is_zero() == (not a)
    assert (a == b) == (ra == rb) == (b == a)
    assert (a == r) == (ra == r)
    assert a == a.lift(a.order * 2) == a.reduced()
    assert a.as_fraction() == ra.as_fraction()
    if ra.is_zero():
        with pytest.raises(DivisionByZero):
            a.inv()
    else:
        assert_same(a.inv(), ra.inv())


def test_unreduced_zeros_match_reference():
    for z in UNREDUCED_ZEROS:
        ref = RefCyc(z.order, z.coeffs)
        assert z.is_zero() and ref.is_zero() and z == 0
        assert_same(z * zeta(5), ref * RefCyc(5, (0, 1, 0, 0, 0)))
        assert_same(z * Fraction(1, 6) + zeta(z.order), ref * Fraction(1, 6)
                    + RefCyc(z.order, (0, 1) + (0,) * (z.order - 2)))


def test_cyc_stays_immutable():
    a = Cyc(4, (Fraction(1, 2), 0, Fraction(3, 4), 1))
    for name in ("order", "num", "den", "coeffs", "_zero"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    assert (a.order, a.num, a.den) == (4, (2, 0, 3, 4), 4)
    assert a.coeffs == (Fraction(1, 2), 0, Fraction(3, 4), 1)


def test_zero_verdict_stays_on_its_instance():
    a = zeta(3)
    assert a                                    # caches "nonzero" on a
    zero = a + zeta(3, 2) + 1
    assert not zero and a and not (a - a)
    assert a and (zero + a) and (zero + a == a)
    z = Cyc(3, (1, 1, 1))
    assert z.is_zero()                          # caches "zero" on z
    for other in (z + 1, z + zeta(3), z * 1 + zeta(6), Cyc(3, (1, 1, 1)) + 2):
        assert other and not other.is_zero()
    assert 0 + a is a and a * 1 is a


@settings(max_examples=200, deadline=None)
@given(cyc_pairs())
def test_complex_of_cyc_is_to_complex(pair):
    a, _ = pair
    assert type(complex(a)) is complex
    assert _bits(complex(a)) == _bits(a.to_complex())


def _stored(x):
    """(order, num, den) of a Cyc, or of the Cyc holding a RefCyc's vector."""
    if isinstance(x, RefCyc):
        x = Cyc(x.order, x.coeffs)
    return x.order, x.num, x.den


@pytest.mark.parametrize("order", range(1, 14))
def test_galois_inverse_and_conjugate_sweep(order):
    """inv() multiplies Galois conjugates; it gives the reference's
    extended-Euclid inverse, in the same reduced coordinates."""
    rng = random.Random(order)
    values = [zeta(order, a) for a in range(order)]
    values += [Cyc(order, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                           if rng.random() < 0.6 else 0 for _ in range(order)])
               for _ in range(25)]
    for x in values:
        ref = RefCyc(order, x.coeffs)
        assert _stored(x.conj()) == _stored(ref.conj())
        if ref.is_zero():
            with pytest.raises(DivisionByZero):
                x.inv()
            continue
        assert _stored(x.inv()) == _stored(ref.inv())
        assert x * x.inv() == 1
        assert (x * x.inv()).as_fraction() == 1
