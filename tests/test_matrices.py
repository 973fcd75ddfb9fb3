import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicmodels import magic
from magicmodels.cyclotomic import Cyc, cyc, zeta
from magicmodels.errors import (
    BadArgument, Inconsistent, ModeMismatch, NotFiniteOrder, NotUnitary, ShapeMismatch,
)
from magicmodels.matrices import (
    EPS, CMatrix, _enlarges_span, _fourier_sum, _traces_and_multiplicities,
    scalar_is_zero, scalars_equal, spectral_multiplicities, spectral_projection,
)
from magicmodels.quasiflat import classical_model_from_family, latin_family_search
from magicmodels.serialize import model_from_json, model_to_json


def shift(n):
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[(j + 1) % n][j] = 1
    return CMatrix.exact(rows)


def test_construction_and_entry():
    m = CMatrix.exact([[1, Fraction(1, 2)], [0, zeta(3)]])
    assert m.rows == 2 and m.cols == 2 and m.mode == "exact"
    assert m.entry(0, 1) == Fraction(1, 2)
    assert CMatrix.identity(3).is_identity()
    assert CMatrix.zeros(2, 3).is_zero()


def test_float_matrix_takes_cyc_entries():
    m = CMatrix.floating([[zeta(3), Fraction(1, 2)], [0, zeta(8, 3)]])
    assert m.data == ((zeta(3).to_complex(), 0.5 + 0j), (0j, zeta(8, 3).to_complex()))
    assert m.data == CMatrix.exact([[zeta(3), Fraction(1, 2)], [0, zeta(8, 3)]]).to_float().data
    assert m.scale(zeta(4)).data[0][0] == zeta(4).to_complex() * zeta(3).to_complex()


def test_mode_mixing_rejected():
    a = CMatrix.exact([[1]])
    b = CMatrix.floating([[1.0]])
    with pytest.raises(ModeMismatch):
        a * b
    with pytest.raises(ModeMismatch):
        a + b


def test_shape_checks():
    a = CMatrix.exact([[1, 0]])
    with pytest.raises(ShapeMismatch):
        a + CMatrix.exact([[1], [0]])
    with pytest.raises(ShapeMismatch):
        a * a


def test_arithmetic_and_adjoint():
    s = shift(3)
    assert s.power(3).is_identity()
    assert (s * s.adjoint()).is_identity()
    z = CMatrix.exact([[zeta(8)]])
    assert z.adjoint().entry(0, 0) == zeta(8, 7)
    a = CMatrix.exact([[1, 2], [3, 4]])
    b = CMatrix.exact([[0, 1], [1, 0]])
    assert (a * b).entry(0, 0) == 2
    assert (a - a).is_zero()
    assert (-a + a).is_zero()
    assert a.scale(Fraction(1, 2)).entry(1, 1) == 2


def test_from_blocks():
    a = CMatrix.exact([[1, 0], [0, -1]])
    b = CMatrix.exact([[0, 1], [1, 0]])
    blk = CMatrix.from_blocks([[a, CMatrix.zeros(2, 2)],
                               [CMatrix.zeros(2, 2), b]])
    assert blk.rows == 4 and blk.entry(2, 3) == 1


def test_trace_and_ntrace():
    s = shift(4)
    assert s.trace() == 0
    assert CMatrix.identity(4).ntrace() == 1
    assert CMatrix.diagonal([1, 2, 3]).trace() == 6


def test_projection_rank_equals_trace():
    # exact projections: rank must equal trace
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(20):
            cut = rng.randint(0, n)
            diag = [1] * cut + [0] * (n - cut)
            rng.shuffle(diag)
            p = CMatrix.diagonal(diag)
            u = shift(n)
            q = u * p * u.adjoint()
            assert q.is_projection()
            assert q.rank() == q.trace()


def test_rank_exact_and_float():
    m = CMatrix.exact([[1, 1], [1, 1]])
    assert m.rank() == 1
    f = CMatrix.floating([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    assert f.rank(1e-9) == 1
    assert f.rank(1e-16) == 2


def test_unitary_and_self_adjoint_predicates():
    f = CMatrix.exact([[Fraction(1, 2), Fraction(1, 2)],
                       [Fraction(1, 2), Fraction(1, 2)]])
    assert f.is_projection() and f.is_self_adjoint() and not f.is_unitary()
    assert shift(5).is_unitary()
    d = CMatrix.diagonal([zeta(3), zeta(3, 2)])
    assert d.is_unitary() and d.is_diagonal()


def test_spectral_projection_partition():
    # spectral idempotents: orthogonal projections summing to identity
    for k in (2, 3, 4, 6, 12):
        u = shift(k)
        projs = [spectral_projection(u, k, a) for a in range(k)]
        total = projs[0]
        for p in projs[1:]:
            total = total + p
        assert total.is_identity()
        for a in range(k):
            assert projs[a].is_projection()
            for b in range(a + 1, k):
                assert (projs[a] * projs[b]).is_zero()


def test_spectral_multiplicities_values():
    assert spectral_multiplicities(shift(4), 4) == (1, 1, 1, 1)
    assert spectral_multiplicities(CMatrix.identity(3), 3) == (3, 0, 0)
    d = CMatrix.diagonal([1, -1, -1])
    assert spectral_multiplicities(d, 2) == (1, 2)


def test_spectral_preconditions():
    with pytest.raises(NotUnitary):
        spectral_multiplicities(CMatrix.exact([[2]]), 2)
    with pytest.raises(NotFiniteOrder):
        spectral_multiplicities(CMatrix.exact([[zeta(3)]]), 2)


def test_scalars_equal_mixed():
    assert scalars_equal(Fraction(1, 2), Fraction(1, 2))
    assert scalars_equal(zeta(4) * zeta(4), Fraction(-1))
    assert scalars_equal(0.5, Fraction(1, 2), 1e-12)
    assert not scalars_equal(Fraction(1, 2), Fraction(1, 3))


def test_to_float_agreement():
    m = CMatrix.exact([[zeta(3), Fraction(1, 7)], [0, 1]])
    f = m.to_float()
    assert f.mode == "float"
    assert f.close_to(m.to_float(), 0)
    assert abs(f.entry(0, 1) - 1 / 7) < 1e-15


# -- the sparse product against the dense triple loop ---------------------------

def dense_product(a, b):
    """The dense triple loop: every (i, k, j) term, zero-tested on both factors."""
    zero = 0 if a.mode == "exact" else 0j
    out = []
    for row in a.data:
        out_row = []
        for col in zip(*b.data):
            acc = zero
            for x, y in zip(row, col):
                if not scalar_is_zero(x) and not scalar_is_zero(y):
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def entry_keys(rows):
    """Type, repr and (for Cyc) the stored order and coefficients of each entry."""
    return [[(type(x), repr(x), (x.order, x.coeffs) if isinstance(x, Cyc) else None)
             for x in row] for row in rows]


@st.composite
def cyc_values(draw):
    order = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    coeffs = draw(st.lists(st.one_of(st.integers(-2, 2),
                                     st.fractions(-2, 2, max_denominator=3)),
                           min_size=order, max_size=order))
    return Cyc(order, coeffs)


UNREDUCED_ZEROS = [
    Cyc(3, (1, 1, 1)),                  # 1 + z3 + z3^2
    Cyc(4, (1, 0, 1, 0)),               # 1 + z4^2
    Cyc(6, (0, 1, 0, 1, 0, 1)),         # z6 + z6^3 + z6^5
    Cyc(12, (2,) + (0,) * 5 + (2,) + (0,) * 5),
]
EXACT_SCALARS = st.one_of(
    st.just(0), st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4),
    cyc_values(), st.sampled_from(UNREDUCED_ZEROS),
    st.sampled_from([Cyc.from_rational(0), zeta(3), zeta(4, 3), zeta(12, 5)]),
)
FLOAT_PARTS = st.sampled_from([0.0, -0.0, EPS, -EPS, 2 * EPS, 0.5, -1.25, 3.0])
FLOAT_SCALARS = st.builds(complex, FLOAT_PARTS, FLOAT_PARTS)


@st.composite
def matrix_pairs(draw, scalars, mode):
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))

    def grid(h, w):
        return [[draw(scalars) for _ in range(w)] for _ in range(h)]

    return CMatrix(mode, grid(r, k)), CMatrix(mode, grid(k, c))


@settings(max_examples=100, deadline=None)
@given(matrix_pairs(EXACT_SCALARS, "exact"))
def test_sparse_product_matches_dense_loop_exact(pair):
    a, b = pair
    prod = a * b
    assert entry_keys(prod.data) == entry_keys(dense_product(a, b))
    assert (prod.rows, prod.cols, prod.mode) == (a.rows, b.cols, "exact")


@settings(max_examples=150, deadline=None)
@given(matrix_pairs(FLOAT_SCALARS, "float"))
def test_sparse_product_matches_dense_loop_float(pair):
    a, b = pair
    prod = a * b
    assert entry_keys(prod.data) == entry_keys(dense_product(a, b))
    assert (prod.rows, prod.cols, prod.mode) == (a.rows, b.cols, "float")


@settings(max_examples=50, deadline=None)
@given(st.one_of(matrix_pairs(EXACT_SCALARS, "exact"),
                 matrix_pairs(FLOAT_SCALARS, "float")))
def test_zero_and_diagonal_predicates_match_entrywise_tests(pair):
    for m in pair:
        assert m.is_zero() == all(scalar_is_zero(x) for row in m.data for x in row)
        assert m.is_diagonal() == all(
            scalar_is_zero(x) for i, row in enumerate(m.data)
            for j, x in enumerate(row) if i != j)
        assert m.is_zero(4 * EPS) == all(
            scalar_is_zero(x, 4 * EPS) for row in m.data for x in row)


@st.composite
def near_pairs(draw, scalars, mode):
    """Two matrices of one shape; each entry of the second is the first's,
    the first's plus an unreduced zero or a small float, or a fresh draw."""
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = [[draw(scalars) for _ in range(c)] for _ in range(r)]
    shift = st.sampled_from(UNREDUCED_ZEROS) if mode == "exact" else FLOAT_SCALARS

    def twin(x):
        pick = draw(st.integers(0, 2))
        return x if pick == 0 else x + draw(shift) if pick == 1 else draw(scalars)

    return CMatrix(mode, a), CMatrix(mode, [[twin(x) for x in row] for row in a])


@settings(max_examples=150, deadline=None)
@given(st.one_of(near_pairs(EXACT_SCALARS, "exact"), near_pairs(FLOAT_SCALARS, "float")),
       st.sampled_from([None, 0.0, EPS, 4 * EPS]))
def test_close_to_matches_entrywise_scalars_equal(pair, tol):
    a, b = pair
    want = all(scalars_equal(x, y, tol)
               for ra, rb in zip(a.data, b.data) for x, y in zip(ra, rb))
    assert a.close_to(b, tol) is want
    assert b.close_to(a, tol) is want


# -- identity predicates against the route through a built identity matrix --

def old_is_identity(m, tol=None):
    return m.rows == m.cols and m.close_to(CMatrix.diagonal([1] * m.rows, m.mode), tol)


def old_is_unitary(m, tol=None):
    return (m.rows == m.cols and old_is_identity(m * m.adjoint(), tol)
            and old_is_identity(m.adjoint() * m, tol))


CYC4_ONE = Cyc(4, (0, 0, -1, 0))        # -z4^2
CYC4_ZERO = Cyc(4, (1, 0, 1, 0))        # 1 + z4^2
IDENTITY_CASES = [
    CMatrix.exact([[1, 0], [0, 1]]),
    CMatrix.exact([[1, 0], [0, 2]]),
    CMatrix.exact([[1, 1], [0, 1]]),
    CMatrix.exact([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]),
    CMatrix.exact([[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(1)]]),
    CMatrix.exact([[CYC4_ONE, CYC4_ZERO], [Cyc.from_rational(0), zeta(4, 2) * zeta(4, 2)]]),
    CMatrix.exact([[CYC4_ONE, zeta(4)], [CYC4_ZERO, CYC4_ONE]]),
    CMatrix.exact([[zeta(4), 0], [0, zeta(4, 3)]]),
    CMatrix.floating([[1 + 1e-12, 1e-12j], [-1e-12, 1 - 1e-12j]]),
    CMatrix.floating([[1 + 1e-6, 0], [0, 1]]),
    CMatrix.floating([[1, 1e-6j], [0, 1]]),
    CMatrix.floating([[-0.0, 1], [1, 0]]),
    CMatrix.exact([[1, 0, 0], [0, 1, 0]]),
    CMatrix.floating([[1], [0]]),
    shift(3),
    shift(3).scale(zeta(4)),
    shift(3).scale(2),
    shift(4).to_float(),
    (shift(4) + CMatrix.identity(4)).to_float(),
]


@pytest.mark.parametrize("m", IDENTITY_CASES, ids=range(len(IDENTITY_CASES)))
@pytest.mark.parametrize("tol", [None, 0.0, 1e-9, 1e-5])
def test_identity_predicates_match_the_built_identity_route(m, tol):
    assert m.is_identity(tol) == old_is_identity(m, tol)
    assert m.is_unitary(tol) == old_is_unitary(m, tol)


def test_identity_predicate_verdicts():
    assert [m.is_identity() for m in IDENTITY_CASES[:8]] == [
        True, False, False, True, False, True, False, False]
    assert IDENTITY_CASES[8].is_identity() and not IDENTITY_CASES[8].is_identity(0.0)
    assert not IDENTITY_CASES[9].is_identity() and IDENTITY_CASES[9].is_identity(1e-5)
    assert not IDENTITY_CASES[12].is_identity() and not IDENTITY_CASES[12].is_unitary()
    assert shift(3).scale(zeta(4)).is_unitary() and not shift(3).scale(2).is_unitary()


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_identity_matches_the_diagonal_constructor(n, mode):
    built, old = CMatrix.identity(n, mode), CMatrix.diagonal([1] * n, mode)
    assert (built.rows, built.cols, built.mode) == (old.rows, old.cols, old.mode)
    assert built.data == old.data
    assert [type(x) for row in built.data for x in row] == [
        type(x) for row in old.data for x in row]


def test_identity_rejects_what_the_constructor_rejects():
    with pytest.raises(ShapeMismatch):
        CMatrix.identity(0)
    with pytest.raises(ValueError):
        CMatrix.identity(2, "bogus")


# -- the single-order integer kernel against the Cyc-by-Cyc loop ----------------

def cyc_loop_product(a, b):
    """The exact product as it is summed without the integer kernel: entry
    (i, j) starts at the int 0 and adds the Cyc, Fraction or int term
    a[i][k] * b[k][j] for each k, in increasing order, where both are nonzero."""
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b.data]
    out = []
    for row in a.data:
        acc = [0] * b.cols
        for k, x in enumerate(row):
            if x:
                for j, y in b_rows[k]:
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def stored_keys(rows):
    """Type and stored form of each entry: a Cyc's order, numerators and
    denominator, any other value itself."""
    return [[(type(x), x.order, x.num, x.den) if isinstance(x, Cyc) else (type(x), x)
             for x in row] for row in rows]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the products that run on the integer kernel."""
    from magicmodels import matrices
    calls = []
    real = matrices._cyclic_product

    def spy(fa, fb, width):
        calls.append(fa[0])
        return real(fa, fb, width)

    monkeypatch.setattr(matrices, "_cyclic_product", spy)
    return calls


def assert_matches_loop(a, b):
    prod = a * b
    assert (prod.rows, prod.cols, prod.mode) == (a.rows, b.cols, "exact")
    assert stored_keys(prod.data) == stored_keys(cyc_loop_product(a, b))
    return prod


def c8(*coeffs):
    return Cyc(8, list(coeffs) + [0] * (8 - len(coeffs)))


def test_kernel_keeps_denominators(kernel_calls):
    f = Fraction
    a = CMatrix.exact([[c8(f(1, 2), f(1, 3)), c8(0, 0, f(3, 4))],
                       [c8(0, f(-5, 6)), c8(f(1, 8), 0, 0, 0, 0, 0, 0, f(7, 2))]])
    b = CMatrix.exact([[c8(f(2, 3), 0, 1), c8(0, f(1, 10))],
                       [c8(f(4, 9)), c8(0, 0, 0, 0, 0, 0, 0, f(1, 6))]])
    prod = assert_matches_loop(a, b)
    assert kernel_calls == [8]
    assert {x.den for row in prod.data for x in row} - {1}


def test_kernel_keeps_cancelled_terms_as_order_n_zeros(kernel_calls):
    z4, z3 = zeta(4), Cyc(3, (1, 0, 0))
    prod = assert_matches_loop(CMatrix.exact([[z4, z4]]),
                               CMatrix.exact([[z4], [-z4]]))
    (x,), = prod.data
    assert isinstance(x, Cyc) and x.order == 4 and x.num == (0, 0, 0, 0) and x.den == 1
    # 1 + z3 + z3^2 keeps its unreduced numerators and is zero only in the field.
    prod = assert_matches_loop(CMatrix.exact([[z3, zeta(3), zeta(3, 2)]]),
                               CMatrix.exact([[z3], [z3], [z3]]))
    (x,), = prod.data
    assert isinstance(x, Cyc) and x.order == 3 and x.num == (1, 1, 1) and x.is_zero()
    assert kernel_calls == [4, 3]


def test_kernel_leaves_entries_without_terms_the_int_zero(kernel_calls):
    z5 = zeta(5)
    # A zero row, a zero column, a Cyc zero of the order and one of another
    # order: none of them is a term, and none stops the kernel.
    a = CMatrix.exact([[z5, 0, Cyc(5, (1, 1, 1, 1, 1))],
                       [0, 0, 0],
                       [Cyc(4, (1, 0, 1, 0)), zeta(5, 3), 0]])
    b = CMatrix.exact([[zeta(5, 2), 0], [0, 0], [z5, 0]])
    prod = assert_matches_loop(a, b)
    assert kernel_calls == [5]
    assert [[type(x) for x in row] for row in prod.data] == [[Cyc, int], [int, int], [int, int]]


def test_kernel_on_rectangular_shapes(kernel_calls):
    rng = random.Random(7)
    for rows, inner, cols in ((1, 4, 3), (3, 1, 2), (2, 3, 5), (5, 2, 1)):
        a = CMatrix.exact([[zeta(6, rng.randrange(6)) * rng.choice((-2, -1, 1, 2))
                            for _ in range(inner)] for _ in range(rows)])
        b = CMatrix.exact([[zeta(6, rng.randrange(6)) for _ in range(cols)]
                           for _ in range(inner)])
        assert_matches_loop(a, b)
    assert kernel_calls == [6] * 4


Q = Cyc.from_rational
LOOP_CASES = {
    "two orders in a factor": ([[zeta(3), zeta(4)]], [[zeta(3)], [zeta(3)]]),
    "one order per factor": ([[zeta(8), zeta(8, 3)]], [[zeta(4)], [zeta(4, 3)]]),
    "an order-1 Cyc": ([[zeta(8), Q(Fraction(1, 2))]], [[zeta(8)], [zeta(8, 5)]]),
    "order 1 only": ([[Q(3), Q(Fraction(-1, 4))]], [[Q(2)], [Q(5)]]),
    "an int": ([[zeta(8), 2]], [[zeta(8)], [zeta(8, 7)]]),
    "a Fraction": ([[zeta(8), zeta(8, 2)]], [[Fraction(1, 3)], [zeta(8)]]),
    "rationals only": ([[1, Fraction(1, 2)], [0, 3]], [[Fraction(2, 3), 0], [1, 1]]),
}


@pytest.mark.parametrize("a, b", list(LOOP_CASES.values()), ids=list(LOOP_CASES))
def test_other_exact_products_keep_the_loop(kernel_calls, a, b):
    assert_matches_loop(CMatrix.exact(a), CMatrix.exact(b))
    assert kernel_calls == []


def test_float_products_keep_the_loop(kernel_calls):
    a = CMatrix.exact([[zeta(8), zeta(8, 3)], [0, zeta(8, 2)]]).to_float()
    prod = a * a
    assert prod.data == tuple(tuple(row) for row in dense_product(a, a))
    assert kernel_calls == []


@pytest.mark.parametrize("order", [3, 4, 8, 13])
def test_kernel_matches_loop_seeded_sweep(kernel_calls, order):
    rng = random.Random(f"kernel:{order}")

    def scalar():
        if rng.random() < 0.3:
            return 0
        den = rng.choice([1, 1, 2, 3, 6, 12])
        return Cyc(order, [Fraction(rng.randint(-3, 3), den) if rng.random() < 0.5 else 0
                           for _ in range(order)])

    for _ in range(25):
        rows, inner, cols = (rng.randint(1, 4) for _ in range(3))
        a = CMatrix.exact([[scalar() for _ in range(inner)] for _ in range(rows)])
        b = CMatrix.exact([[scalar() for _ in range(cols)] for _ in range(inner)])
        assert_matches_loop(a, b)
    assert kernel_calls and set(kernel_calls) == {order}


def _dense_rank(rows):
    """Rank by fraction-free dense elimination over Cyc: a row below the
    pivot row becomes head * row - entry * pivot_row, so no scalar is ever
    inverted."""
    work = [[cyc(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if not work[r][col].is_zero()), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        head = work[rank]
        for r in range(rank + 1, len(work)):
            x = work[r][col]
            if not x.is_zero():
                work[r] = [head[col] * y - x * h for y, h in zip(work[r], head)]
        rank += 1
    return rank


def _rank_scalar(rng):
    pick = rng.randrange(6)
    if pick == 0:
        return 0
    if pick == 1:
        return rng.randint(-3, 3)
    if pick == 2:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    if pick == 3:
        return rng.choice(UNREDUCED_ZEROS)
    order = rng.choice([2, 3, 4, 5, 6, 12])
    return zeta(order, rng.randrange(order)) * Fraction(rng.randint(-2, 2), rng.randint(1, 3)) \
        + rng.randint(-1, 1)


@pytest.mark.parametrize("seed", range(12))
def test_exact_rank_matches_dense_elimination(seed):
    """Seeded rectangular matrices with int, Fraction and mixed-order Cyc
    entries, unreduced zeros among them, some built as products of thin
    factors and some with repeated or scaled rows."""
    rng = random.Random(seed)
    for _ in range(15):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:
            inner = rng.randint(1, 3)
            a = CMatrix.exact([[_rank_scalar(rng) for _ in range(inner)] for _ in range(rows)])
            b = CMatrix.exact([[_rank_scalar(rng) for _ in range(cols)] for _ in range(inner)])
            data = [list(row) for row in (a * b).data]
        else:
            data = [[_rank_scalar(rng) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(rows), 2)
            data[j] = [x * _rank_scalar(rng) for x in data[i]] if rng.random() < 0.5 \
                else list(data[i])
        m = CMatrix.exact(data)
        assert m.rank() == _dense_rank(data) <= min(rows, cols)


def test_exact_rank_edge_cases():
    assert CMatrix.zeros(3, 4).rank() == 0
    assert CMatrix.exact([[z for z in UNREDUCED_ZEROS]]).rank() == 0
    assert CMatrix.exact([[zeta(3), zeta(4)], [zeta(12, 7), zeta(12, 6)]]).rank() == 1
    assert CMatrix.exact([[zeta(3), 1], [1, zeta(3)]]).rank() == 2
    assert CMatrix.identity(5).rank() == 5
    assert CMatrix.exact([[1, 2, 3]] * 4).rank() == 1


def _fraction_rref_enlarges(basis, vec):
    """Reference: the row-echelon step that divides out every pivot, a Cyc
    through Cyc.inv and any other scalar as a Fraction, so every row is 1 at
    its pivot."""
    def minus(v, c, row):
        out = dict(v)
        for k, x in row.items():
            out[k] = out.get(k, 0) - c * x
        return {k: x for k, x in out.items() if x}

    for p in [k for k in vec if k in basis]:
        vec = minus(vec, vec[p], basis[p])
    if not vec:
        return False
    pivot, head = next(iter(vec.items()))
    inv = head.inv() if isinstance(head, Cyc) else 1 / Fraction(head)
    row = {k: x * inv for k, x in vec.items()}
    for q, other in basis.items():
        if pivot in other:
            basis[q] = minus(other, other[pivot], row)
    basis[pivot] = row
    return True


def _span_scalar(rng, kind):
    sign = rng.choice([-1, 1])
    if kind == "unit":
        return 1
    if kind == "big":
        return sign * 10 ** 12 + rng.randint(-3, 3)
    if kind == "small":
        return sign * rng.randint(1, 4)
    if kind == "fraction":
        return Fraction(sign * rng.randint(1, 5), rng.randint(1, 6))
    order = rng.choice([4, 8])
    return zeta(order, rng.randrange(order)) * rng.randint(1, 3) + rng.randint(-1, 1)


def _span_vectors(rng, count, kinds):
    """Sparse vectors over six keys in shuffled key order: fresh ones, zero
    ones, and integer or Fraction combinations of earlier ones."""
    keys = ["a", "b", "c", "d", "e", "f"]
    made = []
    for _ in range(count):
        pick = rng.random()
        if pick < 0.1:
            vec = {}
        elif pick < 0.5 and made:
            vec = {}
            for _ in range(rng.randint(1, 3)):
                c = rng.choice([1, -1, 2, -10 ** 12, Fraction(-3, 7)])
                for k, x in rng.choice(made).items():
                    vec[k] = vec.get(k, 0) + c * x
        else:
            kind = rng.choice(kinds)
            vec = {k: _span_scalar(rng, kind) for k in rng.sample(keys, rng.randint(1, 6))}
            if rng.random() < 0.3:
                vec = {k: -x for k, x in vec.items()}
        vec = {k: x for k, x in vec.items() if x}
        made.append(vec)
        yield vec


def _check_basis(basis):
    """Each row is nonzero at its pivot and zero at every other pivot; no row
    holds a Fraction; a row of ints is primitive and positive at its pivot."""
    for q, row in basis.items():
        assert row[q] and not any(p in row for p in basis if p != q)
        assert not any(isinstance(x, Fraction) for x in row.values())
        if all(type(x) is int for x in row.values()):
            assert row[q] > 0 and math.gcd(*row.values()) == 1


@pytest.mark.parametrize("seed", range(40))
def test_enlarges_span_matches_the_fraction_rref(seed):
    rng = random.Random(seed)
    kinds = ["unit", "big", "small", "fraction"] + (["cyc"] if seed % 2 else [])
    basis, reference, verdicts, expected = {}, {}, [], []
    for vec in _span_vectors(rng, 30, kinds):
        verdicts.append(_enlarges_span(basis, dict(vec)))
        expected.append(_fraction_rref_enlarges(reference, dict(vec)))
        _check_basis(basis)
    assert verdicts == expected
    assert sum(verdicts) == len(basis) == len(reference)


def test_enlarges_span_keeps_integer_rows_on_a_model_read_from_json(d4, monkeypatch):
    model = model_from_json(json.loads(json.dumps(model_to_json(
        classical_model_from_family(d4, latin_family_search(d4, 4))))))
    bases = []

    def spy(basis, vec):
        bases.append(basis)
        return _enlarges_span(basis, vec)

    monkeypatch.setattr(magic, "_enlarges_span", spy)
    assert magic.shortest_difference(d4, model) is None
    basis = bases[-1]
    assert basis and all(b is basis for b in bases)
    assert all(type(x) is int for row in basis.values() for x in row.values())


# -- exact Fourier sums and unitarity against the term-by-term routes ----------

def loop_fourier_sum(powers, a):
    """(1/K) sum_b zeta_K^(-ab) U^b as it is summed without the integer
    vectors: the K scaled powers added one by one as Cyc values."""
    k = len(powers)
    n = powers[0].rows
    acc = CMatrix.zeros(n, n)
    for b, power in enumerate(powers):
        acc = acc + power.scale(zeta(k, (-a * b) % k))
    return acc.scale(Fraction(1, k))


def loop_multiplicities(traces):
    """The exact multiplicities from the power traces, one Cyc term at a
    time, with the checks of the spectral layer."""
    k = len(traces)
    mults = []
    for a in range(k):
        total = Cyc.from_rational(0)
        for b, t in enumerate(traces):
            total = total + zeta(k, (-a * b) % k) * t
        m = (total * Fraction(1, k)).as_int()
        if m is None:
            raise Inconsistent("spectral multiplicity is not an integer")
        if m < 0:
            raise Inconsistent("negative spectral multiplicity")
        mults.append(m)
    if sum(mults) != traces[0]:
        raise Inconsistent("spectral multiplicities do not sum to the dimension")
    return tuple(mults)


def assert_fourier_sums_match_loop(powers):
    for a in range(len(powers)):
        got = _fourier_sum(powers, a)
        assert got.mode == "exact"
        assert stored_keys(got.data) == stored_keys(loop_fourier_sum(powers, a).data)


def _fourier_scalar(rng, orders):
    pick = rng.randrange(6)
    if pick == 0:
        return 0
    if pick == 1:
        return rng.randint(-3, 3)
    if pick == 2:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    if pick == 3:
        return rng.choice(UNREDUCED_ZEROS + [Cyc.from_rational(0)])
    order = rng.choice(orders)
    return Cyc(order, [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                       if rng.random() < 0.5 else 0 for _ in range(order)])


@pytest.mark.parametrize("k", range(1, 9))
def test_exact_fourier_sum_matches_the_cyc_loop(k):
    rng = random.Random(f"fourier:{k}")
    dividing = [d for d in range(1, k + 1) if k % d == 0]
    for orders in (dividing, [3, 4, 5, 6, 12]):
        for _ in range(6):
            n = rng.randint(1, 3)
            assert_fourier_sums_match_loop([CMatrix.exact(
                [[_fourier_scalar(rng, orders) for _ in range(n)] for _ in range(n)])
                for _ in range(k)])


def test_exact_fourier_sum_edge_cases():
    f = Fraction
    cases = [
        [CMatrix.zeros(2, 2)] * 3,                                  # all int zeros
        [CMatrix.exact([[Cyc(3, (1, 1, 1))]])] * 2,                 # zero in the field only
        [CMatrix.exact([[0]]), CMatrix.exact([[Cyc(5, (0,) * 5)]])],  # a stored zero of order 5
        [CMatrix.exact([[f(1, 2), 3], [0, f(-5, 4)]])],              # K = 1, rationals
        [CMatrix.exact([[zeta(12, 5)]])],                           # K = 1, a Cyc
        [CMatrix.exact([[f(1, 3), zeta(4)], [Cyc.from_rational(f(-2, 5)), 0]]),
         CMatrix.exact([[zeta(6), f(3, 7)], [1, Cyc(3, (1, 1, 1))]]),
         CMatrix.exact([[0, 0], [zeta(8, 3), f(1, 6)]])],           # N = 24 > K = 3
    ]
    for powers in cases:
        assert_fourier_sums_match_loop(powers)


def test_fourier_sum_on_spectral_power_tables_matches_the_cyc_loop():
    d = CMatrix.diagonal([zeta(3), zeta(3, 2), 1])
    for u, k in ((shift(4), 4), (shift(6), 6), (d, 3), (d, 6), (shift(5) * shift(5), 5)):
        powers = [u.power(b) for b in range(k)]
        assert_fourier_sums_match_loop(powers)


def test_float_fourier_sum_keeps_its_bits():
    u = shift(5).to_float()
    powers = [u.power(b) for b in range(5)]
    for a in range(5):
        acc = CMatrix.zeros(5, 5, "float")
        for b, power in enumerate(powers):
            acc = acc + power.scale(zeta(5, (-a * b) % 5))
        assert _fourier_sum(powers, a).data == acc.scale(1.0 / 5).data


@pytest.mark.parametrize("traces", [
    [3, 0, 0], [4, 0, 0, 0], [3, -1, -1], [2, zeta(4) + zeta(4, 3), 0, 0],
    [3, zeta(3) + 2, zeta(3, 2) + 2], [1, zeta(6)], [2, Fraction(1, 2)],
    [2, 5], [1, 3], [1, 1, 1], [2, zeta(3)], [4, Cyc(3, (1, 1, 1)), 0, 0],
    [Fraction(3), Cyc.from_rational(-1), zeta(12, 4) + zeta(12, 8)],
])
def test_exact_multiplicities_match_the_cyc_loop(traces):
    n = traces[0]
    powers = [CMatrix.diagonal([t] + [0] * (int(n) - 1)) for t in traces]
    try:
        expected = loop_multiplicities(traces)
    except Inconsistent as exc:
        with pytest.raises(Inconsistent, match=f"^{exc}$"):
            _traces_and_multiplicities(powers)
    else:
        assert _traces_and_multiplicities(powers) == (tuple(traces), expected)


def test_exact_multiplicities_refuse_a_fractional_one():
    powers = [CMatrix.exact([[1]]), CMatrix.exact([[Fraction(1, 2)]])]
    with pytest.raises(Inconsistent, match="not an integer"):
        _traces_and_multiplicities(powers)


@pytest.fixture
def products(monkeypatch):
    """Counts CMatrix products by mode."""
    calls = []
    real = CMatrix.__mul__

    def spy(a, b):
        calls.append(a.mode)
        return real(a, b)

    monkeypatch.setattr(CMatrix, "__mul__", spy)
    return calls


def two_product_unitary(m, tol=None):
    if m.rows != m.cols:
        return False
    adj = m.adjoint()
    return (m * adj).is_identity(tol) and (adj * m).is_identity(tol)


def _unitary_cases():
    f = Fraction
    r2 = (zeta(8) + zeta(8, 7)) * f(1, 2)  # 1/sqrt(2)
    rng = random.Random("unitary")
    out = [
        shift(5), CMatrix.identity(3), CMatrix.diagonal([zeta(3), zeta(3, 2)]),
        CMatrix.exact([[f(3, 5), f(4, 5)], [f(-4, 5), f(3, 5)]]),
        CMatrix.exact([[r2, r2], [r2, -r2]]),
        CMatrix.exact([[1, 1], [0, 1]]), CMatrix.diagonal([2, 1]),
        CMatrix.exact([[f(3, 5), f(4, 5)], [f(4, 5), f(3, 5)]]),
        CMatrix.exact([[r2, r2], [r2, r2]]), CMatrix.zeros(2, 2),
        CMatrix.exact([[1, 0]]), CMatrix.exact([[1], [0]]), CMatrix.exact([[zeta(4), 0, 1]]),
    ]
    for _ in range(20):
        n = rng.randint(1, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        m = CMatrix.exact([[zeta(6, rng.randrange(6)) if perm[i] == j else 0
                            for j in range(n)] for i in range(n)])
        if rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(n)
            m = m + CMatrix.exact([[f(1, 3) if (r, c) == (i, j) else 0 for c in range(n)]
                                   for r in range(n)])
        out.append(m)
    return out


def test_exact_unitarity_is_the_two_product_test_with_one_product(products):
    verdicts = []
    for m in _unitary_cases():
        expected = two_product_unitary(m)
        products.clear()
        assert m.is_unitary() is expected
        assert products == (["exact"] if m.rows == m.cols else [])
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_float_unitarity_keeps_both_products(products):
    for m in _unitary_cases():
        fm = m.to_float()
        for tol in (None, 1e-12, 0.2):
            expected = two_product_unitary(fm, tol)
            products.clear()
            assert fm.is_unitary(tol) is expected
            if m.rows == m.cols and expected:
                assert products == ["float", "float"]


def test_out_of_range_arguments_are_input_errors():
    u = shift(3)
    for call in (lambda: u.power(-1), lambda: spectral_projection(u, 0, 0),
                 lambda: spectral_multiplicities(u, 0),
                 lambda: magic.bichon_build([0], [u]),
                 lambda: magic.orbits_from_source([2, 0])):
        with pytest.raises(BadArgument) as info:
            call()
        assert isinstance(info.value, ValueError)
