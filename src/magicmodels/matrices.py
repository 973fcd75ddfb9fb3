"""Matrices over exact cyclotomic scalars, with a float fallback mode.

Exact matrices hold int, Fraction or Cyc entries and every comparison is
literal equality in the field.  Float matrices hold complex entries and every
comparison is entrywise within a tolerance (default EPS).  The two modes never
mix silently; converting is explicit via to_float().

An exact product whose factors have only Cyc entries of one order n > 1 among
their nonzero entries runs on integers: each factor is held once as a common
denominator and, per nonzero entry, the nonzero coefficients of its numerator
vector, and each product entry is one cyclic convolution of those vectors
modulo z^n - 1, turned into a single Cyc at the end.  A Cyc of a fixed order
stores the exact coefficient vector modulo z^n - 1 in a canonical (num, den)
form, and the terms of an exact sum may be added in any order, so every entry
equals, in type, order, numerators and denominator, what adding the Cyc terms
one by one gives.  Every other product adds the terms one by one.

The spectral layer reads a unitary U with U^K = 1 through Fourier sums
(1/K) sum_b zeta_K^(-ab) x_b over its powers: entrywise over U^b for the
projection onto the zeta_K^a eigenspace, and over the traces Tr U^b for the
multiplicity of zeta_K^a.  In exact mode each such sum is one integer vector
(_fourier_entry), for the same reason as the product kernel; in float mode
the terms are added one by one.  Exact unitarity is one product, U U* = 1.

Exact linear algebra has one row-echelon routine, _enlarges_span: it keeps a
sparse reduced row-echelon basis and tells whether a new sparse vector
enlarges its span.  Rational rows are primitive integer vectors, each with
its own pivot value, combined without division (Bareiss 1968); a row with a
Cyc entry is divided by a Cyc pivot through Cyc.inv.  CMatrix.rank counts the
rows that enlarge the span; magic.shortest_difference keeps the words that do.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .cyclotomic import Cyc, zeta
from .errors import (
    BadArgument,
    Inconsistent,
    ModeMismatch,
    NotFiniteOrder,
    NotUnitary,
    ShapeMismatch,
)

__all__ = [
    "EPS",
    "CMatrix",
    "scalar_conj",
    "scalar_is_zero",
    "scalars_equal",
    "spectral_multiplicities",
    "spectral_projection",
]

EPS = 1e-9

_EXACT_TYPES = (int, Fraction, Cyc)


def scalar_conj(x):
    if isinstance(x, Cyc):
        return x.conj()
    if isinstance(x, complex):
        return x.conjugate()
    return x


def scalar_is_zero(x, tol=None):
    if isinstance(x, complex):
        return abs(x) <= (EPS if tol is None else tol)
    if isinstance(x, Cyc):
        return x.is_zero()
    return x == 0


def scalars_equal(a, b, tol=None):
    if isinstance(a, complex) or isinstance(b, complex):
        return abs(complex(a) - complex(b)) <= (EPS if tol is None else tol)
    return a == b


def _minus(vec: dict, d, c, row: dict) -> dict:
    """d * vec - c * row, keeping the nonzero entries only."""
    out = dict(vec) if d == 1 else {k: d * x for k, x in vec.items()}
    for k, x in row.items():
        out[k] = out.get(k, 0) - c * x
    return {k: x for k, x in out.items() if x}


def _primitive(vec: dict, pivot) -> dict:
    """A rational vec as the primitive integer vector on its line that is
    positive at pivot; a vec with a Cyc entry as it is."""
    if not all(type(x) is int for x in vec.values()):
        if any(isinstance(x, Cyc) for x in vec.values()):
            return vec
        den = lcm(*[x.denominator for x in vec.values()])
        vec = {k: x.numerator * (den // x.denominator) for k, x in vec.items()}
    g = gcd(*vec.values())
    if vec[pivot] < 0:
        g = -g
    return vec if g == 1 else {k: x // g for k, x in vec.items()}


def _enlarges_span(basis: dict, vec: dict) -> bool:
    """Whether the exact sparse vector vec lies outside the span of basis; if
    it does, it joins the basis.  basis maps each pivot key to its row, nonzero
    at its pivot and 0 at every other pivot; vec is reduced by each row whose
    pivot p it holds, as d * vec - vec[p] * row with d the row's int pivot
    value (Bareiss 1968).  A rational row is a primitive integer vector,
    positive at its pivot; a row with a Cyc entry joins with its pivot at the
    first one, made 1 through Cyc.inv (a later row may scale it by an int), so
    no rational pivot is ever inverted."""
    for p in [k for k in vec if k in basis]:
        row = basis[p]
        vec = _minus(vec, row[p], vec[p], row)
    if not vec:
        return False
    pivot = next((k for k, x in vec.items() if isinstance(x, Cyc)), None)
    if pivot is None:
        pivot = next(iter(vec))
        row = _primitive(vec, pivot)
    else:
        inv = vec[pivot].inv()
        row = {k: x * inv for k, x in vec.items()}
        row[pivot] = 1
    for q, other in basis.items():
        if pivot in other:
            basis[q] = _primitive(_minus(other, row[pivot], other[pivot], row), q)
    basis[pivot] = row
    return True


class CMatrix:
    """A rectangular matrix in one arithmetic mode ("exact" or "float")."""

    __slots__ = ("rows", "cols", "mode", "data", "_nonzero", "_cyclic")

    def __init__(self, mode: str, data):
        if mode not in ("exact", "float"):
            raise BadArgument(f"unknown mode {mode!r}")
        rows = tuple(tuple(r) for r in data)
        if not rows or not rows[0]:
            raise ShapeMismatch("matrices must have at least one row and column")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ShapeMismatch("ragged rows")
        if mode == "exact":
            for r in rows:
                for x in r:
                    if not isinstance(x, _EXACT_TYPES):
                        raise ModeMismatch(f"exact matrix entry of type {type(x).__name__}")
        else:
            rows = tuple(tuple(complex(x) for x in r) for r in rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "_nonzero", None)
        object.__setattr__(self, "_cyclic", None)

    @classmethod
    def _of(cls, mode: str, rows: tuple) -> "CMatrix":
        """Wrap a nonempty tuple of equal-length row tuples whose entries are
        already of the mode's types, as arithmetic on valid matrices leaves
        them; skips the per-entry checks of the public constructor."""
        m = _new(cls)
        _set_rows(m, len(rows))
        _set_cols(m, len(rows[0]))
        _set_mode(m, mode)
        _set_data(m, rows)
        _set_nonzero(m, None)
        _set_cyclic(m, None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("CMatrix values are immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def exact(cls, data) -> "CMatrix":
        return cls("exact", data)

    @classmethod
    def floating(cls, data) -> "CMatrix":
        return cls("float", data)

    @classmethod
    def zeros(cls, rows: int, cols: int, mode: str = "exact") -> "CMatrix":
        zero = 0 if mode == "exact" else 0j
        return cls(mode, [[zero] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, mode: str = "exact") -> "CMatrix":
        if n < 1 or mode not in ("exact", "float"):
            return cls.diagonal([1] * n, mode)  # raises as the constructor does
        one, zero = (1, 0) if mode == "exact" else (1 + 0j, 0j)
        row = (zero,) * n
        return cls._of(mode, tuple(row[:i] + (one,) + row[i + 1:] for i in range(n)))

    @classmethod
    def diagonal(cls, entries, mode: str = "exact") -> "CMatrix":
        entries = list(entries)
        n = len(entries)
        zero = 0 if mode == "exact" else 0j
        return cls(mode, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_blocks(cls, grid) -> "CMatrix":
        """Assemble a block matrix from a grid of equal-mode CMatrix blocks."""
        out_rows = []
        mode = grid[0][0].mode
        for block_row in grid:
            height = block_row[0].rows
            for b in block_row:
                if b.mode != mode:
                    raise ModeMismatch("mixed modes in block grid")
                if b.rows != height:
                    raise ShapeMismatch("inconsistent block heights")
            for r in range(height):
                row = []
                for b in block_row:
                    row.extend(b.data[r])
                out_rows.append(row)
        width = len(out_rows[0])
        for row in out_rows:
            if len(row) != width:
                raise ShapeMismatch("inconsistent block widths")
        return cls(mode, out_rows)

    # -- basic operations ---------------------------------------------------

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def _check_mode(self, other: "CMatrix"):
        if self.mode != other.mode:
            raise ModeMismatch("cannot mix exact and float matrices")

    def __add__(self, other: "CMatrix") -> "CMatrix":
        self._check_mode(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition needs equal shapes")
        return CMatrix._of(self.mode, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        ))

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        self._check_mode(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("subtraction needs equal shapes")
        return CMatrix._of(self.mode, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        ))

    def __neg__(self) -> "CMatrix":
        return CMatrix._of(self.mode, tuple(tuple(-a for a in row) for row in self.data))

    def scale(self, s) -> "CMatrix":
        if self.mode == "float":
            s = complex(s)
        return CMatrix(self.mode, [[s * a for a in row] for row in self.data])

    def _nonzero_rows(self) -> tuple:
        """Per row, the (column, entry) pairs of its nonzero entries, in
        column order; zero means falsy in exact mode (a Cyc reduces first)
        and |x| <= EPS in float mode.  Built on first use and kept."""
        rows = self._nonzero
        if rows is None:
            if self.mode == "exact":
                rows = tuple(tuple((j, x) for j, x in enumerate(row) if x)
                             for row in self.data)
            else:
                rows = tuple(tuple((j, x) for j, x in enumerate(row) if not abs(x) <= EPS)
                             for row in self.data)
            _set_nonzero(self, rows)
        return rows

    def _cyclic_rows(self):
        """The integer form of an exact matrix whose nonzero entries are all
        Cyc values of one order n > 1: (n, d, rows), where d is the lcm of
        their denominators and each row holds, per nonzero entry in column
        order, (column, pairs) with pairs the (power, coefficient) pairs of
        the nonzero numerators over d.  False for any other matrix.  Built
        on first use and kept."""
        form = self._cyclic
        if form is None:
            form = False
            rows = self._nonzero_rows()
            for row in rows:
                if row:
                    first = row[0][1]
                    if type(first) is Cyc and first.order > 1:
                        form = _cyclic_form(rows, first.order)
                    break
            _set_cyclic(self, form)
        return form

    def __mul__(self, other: "CMatrix") -> "CMatrix":
        """Matrix product, accumulated row by row over nonzero entries only.

        Entry (i, j) starts at the mode's zero (0 or 0j) and adds
        a[i][k] * b[k][j] for each k, in increasing order, at which both
        factors are nonzero.  Those are the same terms in the same order as
        the dense triple loop that tests every pair, so every value and its
        Python type are identical to that loop's.

        When the nonzero entries of both factors are Cyc values of one order
        n > 1, the terms of an entry are summed as integer vectors instead
        (see _cyclic_product), with the same result: the entry is a Cyc of
        order n if it has a term, else the int 0."""
        if not isinstance(other, CMatrix):
            return NotImplemented
        self._check_mode(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        width = other.cols
        if self.mode == "exact":
            fa = self._cyclic_rows()
            fb = fa and other._cyclic_rows()
            if fb and fb[0] == fa[0]:
                return CMatrix._of("exact", _cyclic_product(fa, fb, width))
        zero = 0 if self.mode == "exact" else 0j
        b_rows = other._nonzero_rows()
        out = []
        for a_row in self._nonzero_rows():
            acc = [zero] * width
            for k, a in a_row:
                for j, b in b_rows[k]:
                    acc[j] = acc[j] + a * b
            out.append(tuple(acc))
        return CMatrix._of(self.mode, tuple(out))

    def power(self, k: int) -> "CMatrix":
        if self.rows != self.cols:
            raise ShapeMismatch("powers need a square matrix")
        if k < 0:
            raise BadArgument("negative powers are not supported")
        result = CMatrix.identity(self.rows, self.mode)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def adjoint(self) -> "CMatrix":
        return CMatrix._of(self.mode, tuple(
            tuple(scalar_conj(x) for x in col) for col in zip(*self.data)
        ))

    def trace(self):
        if self.rows != self.cols:
            raise ShapeMismatch("trace needs a square matrix")
        total = self.data[0][0]
        for i in range(1, self.rows):
            total = total + self.data[i][i]
        return total

    def ntrace(self):
        """Trace divided by the dimension."""
        t = self.trace()
        if self.mode == "float":
            return t / self.rows
        if isinstance(t, Cyc):
            return t * Fraction(1, self.rows)
        return Fraction(t, 1) / self.rows

    def to_float(self) -> "CMatrix":
        if self.mode == "float":
            return self
        return CMatrix("float", self.data)

    # -- predicates ---------------------------------------------------------

    def close_to(self, other: "CMatrix", tol=None) -> bool:
        self._check_mode(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self.mode == "exact":
            return self.data == other.data
        tol = EPS if tol is None else tol
        return all(abs(a - b) <= tol
                   for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb))

    def __eq__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self.close_to(other)

    __hash__ = None

    def is_zero(self, tol=None) -> bool:
        if self.mode == "exact":
            return not any(map(any, self.data))
        tol = EPS if tol is None else tol
        return all(abs(x) <= tol for row in self.data for x in row)

    def is_identity(self, tol=None) -> bool:
        if self.rows != self.cols:
            return False
        return self.is_diagonal(tol) and all(
            scalars_equal(row[i], 1, tol) for i, row in enumerate(self.data))

    def is_diagonal(self, tol=None) -> bool:
        if self.mode == "exact":
            return not any(any(row[:i]) or any(row[i + 1:])
                           for i, row in enumerate(self.data))
        tol = EPS if tol is None else tol
        return all(
            abs(x) <= tol
            for i, row in enumerate(self.data)
            for j, x in enumerate(row)
            if i != j
        )

    def is_self_adjoint(self, tol=None) -> bool:
        return self.close_to(self.adjoint(), tol)

    def is_projection(self, tol=None) -> bool:
        """Self-adjoint idempotent test."""
        if self.rows != self.cols:
            return False
        return self.is_self_adjoint(tol) and (self * self).close_to(self, tol)

    def is_unitary(self, tol=None) -> bool:
        """U U* = 1 and U* U = 1 for a square U.  In exact mode U U* = 1
        alone decides it, since over a field a one-sided inverse of a square
        matrix is two-sided; in float mode both products are tested within
        the tolerance."""
        if self.rows != self.cols:
            return False
        adj = self.adjoint()
        if not (self * adj).is_identity(tol):
            return False
        return self.mode == "exact" or (adj * self).is_identity(tol)

    def max_abs(self) -> float:
        return max(abs(complex(x)) for row in self.data for x in row)

    def rank(self, tol=None) -> int:
        """Rank: in exact mode, the number of nonzero rows that enlarge the
        span of the rows before them (_enlarges_span); in float mode, by
        Gaussian elimination that zeroes entries below
        tol * rows * max|entry|."""
        if self.mode == "exact":
            basis = {}
            return sum(_enlarges_span(basis, dict(row)) for row in self._nonzero_rows())
        work = [list(row) for row in self.data]
        threshold = (EPS if tol is None else tol) * self.rows * max(self.max_abs(), 1.0)
        rank = 0
        for col in range(self.cols):
            best, best_abs = None, threshold
            for r in range(rank, self.rows):
                a = abs(work[r][col])
                if a > best_abs:
                    best, best_abs = r, a
            if best is None:
                continue
            work[rank], work[best] = work[best], work[rank]
            head = work[rank]
            for r in range(rank + 1, self.rows):
                if abs(work[r][col]) <= threshold:
                    continue
                factor = work[r][col] / head[col]
                for c in range(col, self.cols):
                    work[r][c] = work[r][c] - factor * head[c]
            rank += 1
            if rank == self.rows:
                break
        return rank

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(x) for x in row) for row in self.data
        )
        return f"CMatrix[{self.mode} {self.rows}x{self.cols}: {body}]"


# CMatrix.__setattr__ refuses every assignment, so arithmetic results and the
# cached row forms are filled in through the slot descriptors, bound once
# here: a product sets six slots, and this costs less than six
# object.__setattr__ calls.
_new = object.__new__
_set_rows = CMatrix.rows.__set__
_set_cols = CMatrix.cols.__set__
_set_mode = CMatrix.mode.__set__
_set_data = CMatrix.data.__set__
_set_nonzero = CMatrix._nonzero.__set__
_set_cyclic = CMatrix._cyclic.__set__


def _cyclic_form(rows: tuple, order: int):
    """CMatrix._cyclic_rows from the nonzero rows, or False unless every
    entry is a Cyc of the given order."""
    entries = [x for row in rows for _, x in row]
    if not all(type(x) is Cyc and x.order == order for x in entries):
        return False
    den = lcm(*[x.den for x in entries])
    return (order, den, tuple(tuple(
        (j, [(a, c * (den // x.den)) for a, c in enumerate(x.num) if c])
        for j, x in row) for row in rows))


def _cyclic_product(fa: tuple, fb: tuple, width: int) -> tuple:
    """The rows of the product of two matrices in the integer form of
    CMatrix._cyclic_rows, of one order n and denominators da and db.  Entry
    (i, j) sums a(z) b(z) modulo z^n - 1 over its terms as one integer vector
    and becomes Cyc._of(n, vector, da * db), which normalises it as Cyc
    arithmetic does; an entry with no term is the int 0."""
    n, da, a_rows = fa
    _, db, b_rows = fb
    den = da * db
    out = []
    for a_row in a_rows:
        acc = [None] * width
        for k, a in a_row:
            for j, b in b_rows[k]:
                v = acc[j]
                if v is None:
                    v = acc[j] = [0] * n
                for s, c in a:
                    for t, d in b:
                        t += s
                        if t >= n:
                            t -= n
                        v[t] += c * d
        out.append(tuple(0 if v is None else Cyc._of(n, tuple(v), den) for v in acc))
    return tuple(out)


def _check_spectral_pre(u: CMatrix, k: int, tol=None, what: str = "matrix") -> list:
    """Raise unless U is unitary with U^k = 1; callers check its shape first.
    Returns the power table U^0, ..., U^(k-1), each the previous one times U,
    on which U^k = U^(k-1) U is checked."""
    if not u.is_unitary(tol):
        raise NotUnitary(f"{what} is not unitary")
    powers = [CMatrix.identity(u.rows, u.mode)]
    for _ in range(k - 1):
        powers.append(powers[-1] * u)
    if not (powers[-1] * u).is_identity(tol):
        raise NotFiniteOrder(f"{what} does not satisfy U^{k} = 1")
    return powers


def _check_square_order(u: CMatrix, k: int):
    if u.rows != u.cols:
        raise ShapeMismatch("need a square matrix")
    if k < 1:
        raise BadArgument("order must be positive")


def _fourier_entry(xs, a: int) -> Cyc:
    """(1/K) sum_b zeta_K^(-ab) x_b for the K exact scalars x_b (int,
    Fraction or Cyc), as one integer vector.  The result has order N, the lcm
    of K and of the order of every Cyc among the x_b (zero or not): each x_b's
    numerators are lifted to order N, shifted by (-ab mod K) N/K and scaled to
    the lcm of the denominators, and Cyc._of normalises the sum over that lcm
    times K.  At a fixed order (num, den) is canonical, so the result equals,
    in order, numerators and denominator, what adding the terms
    zeta_K^(-ab) * x_b as Cyc values one by one and scaling by 1/K gives."""
    k = len(xs)
    n, den = k, 1
    for x in xs:
        if type(x) is not int:
            if isinstance(x, Cyc):
                n, den = lcm(n, x.order), lcm(den, x.den)
            else:
                den = lcm(den, x.denominator)
    step = n // k
    v = [0] * n
    for b, x in enumerate(xs):
        s = (-a * b) % k * step
        if type(x) is int:
            if x:
                v[s] += x * den
            continue
        if isinstance(x, Cyc):
            lift, f = n // x.order, den // x.den
            for i, c in enumerate(x.num):
                if c:
                    t = (i * lift + s) % n
                    v[t] += c * f
        else:
            v[s] += x.numerator * (den // x.denominator)
    return Cyc._of(n, tuple(v), den * k)


def _fourier_sum(powers: list, a: int) -> CMatrix:
    """(1/K) sum_b zeta_K^(-ab) U^b from the powers U^0, ..., U^(K-1): the
    projection onto the zeta_K^a eigenspace of a unitary with U^K = 1.  In
    exact mode each entry is one _fourier_entry over the K powers; in float
    mode the K scaled powers are added one by one."""
    k = len(powers)
    n, mode = powers[0].rows, powers[0].mode
    if mode == "exact":
        return CMatrix._of("exact", tuple(
            tuple(_fourier_entry(xs, a) for xs in zip(*[p.data[i] for p in powers]))
            for i in range(n)))
    acc = CMatrix.zeros(n, n, mode)
    for b, power in enumerate(powers):
        acc = acc + power.scale(zeta(k, (-a * b) % k))
    return acc.scale(1.0 / k)


def spectral_projection(u: CMatrix, k: int, a: int, tol=None) -> CMatrix:
    """Projection onto the eigenspace of zeta_k^a for a unitary with U^k = 1."""
    _check_square_order(u, k)
    return _fourier_sum(_check_spectral_pre(u, k, tol), a)


@lru_cache(maxsize=None)
def _float_roots(k: int) -> tuple:
    return tuple(complex(zeta(k, e)) for e in range(k))


def _traces_and_multiplicities(powers: list, tol=None) -> tuple:
    """The power traces (Tr U^b) for b < k from the checked power table
    U^0, ..., U^(k-1) of a unitary with U^k = 1, and the eigenvalue
    multiplicities derived from them."""
    k = len(powers)
    n, mode = powers[0].rows, powers[0].mode
    traces = [p.trace() for p in powers]
    mults = []
    for a in range(k):
        if mode == "exact":
            m = _fourier_entry(traces, a).as_int()
            if m is None:
                raise Inconsistent("spectral multiplicity is not an integer")
        else:
            roots = _float_roots(k)
            total = 0j
            for b, t in enumerate(traces):
                total += roots[(-a * b) % k] * t
            total /= k
            m = round(total.real)
            lim = (EPS if tol is None else tol) * n * k
            if abs(total - m) > max(lim, 1e-7):
                raise Inconsistent("spectral multiplicity is not close to an integer")
        if m < 0:
            raise Inconsistent("negative spectral multiplicity")
        mults.append(int(m))
    if sum(mults) != n:
        raise Inconsistent("spectral multiplicities do not sum to the dimension")
    return tuple(traces), tuple(mults)


def spectral_multiplicities(u: CMatrix, k: int, tol=None) -> tuple[int, ...]:
    """Eigenvalue multiplicities (m_0, ..., m_{k-1}) of a unitary with U^k = 1,
    where m_a counts the eigenvalue zeta_k^a."""
    _check_square_order(u, k)
    return _traces_and_multiplicities(_check_spectral_pre(u, k, tol), tol)[1]
