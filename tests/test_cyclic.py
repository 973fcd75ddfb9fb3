"""Cyclically-supported models over abelian cores with twisting automorphism."""
import cmath
import copy
import math
import random
from fractions import Fraction

import pytest

from magicmodels import cyclic
from magicmodels.acceptance import _cyclic_models, _d5_data
from magicmodels.cyclic import (
    CyclicModelData,
    abelian_rep,
    build_cyclic_model,
    cycle_fill,
    semidirect_comparisons,
    semidirect_stationarity,
    verify_half_liberation,
    verify_k_symmetry,
)
from magicmodels.cyclotomic import Cyc, zeta
from magicmodels.errors import BudgetExceeded, InvalidAutomorphism, NotRepresentation
from magicmodels.groups import AutoMap, FinAbelian, Perm, PermGroup
from magicmodels.magic import (
    CheckReport,
    FiberModel,
    _stored_form,
    bichon_build,
    regular_rep,
)
from magicmodels.matrices import CMatrix, scalar_is_zero, scalars_equal
from magicmodels.serialize import model_to_json, render_json

from conftest import first_generator_maps

F = Fraction


def test_cycle_fill_conventions():
    assert cycle_fill([7, 9]) == CMatrix.exact([[0, 7], [9, 0]])
    assert cycle_fill([5]) == CMatrix.exact([[5]])
    assert cycle_fill([1, 2, 3]) == CMatrix.exact(
        [[0, 0, 1], [2, 0, 0], [0, 3, 0]])


def test_cycle_fill_of_unitary_blocks_is_unitary():
    u = CMatrix.exact([[0, 1], [1, 0]])
    v = CMatrix.exact([[zeta(4, 1), 0], [0, zeta(4, 3)]])
    assert cycle_fill([u, v]).is_unitary()


def test_fill_product_with_adjoint_is_block_diagonal():
    u = CMatrix.exact([[0, 1], [1, 0]])
    v = CMatrix.exact([[zeta(4, 1), 0], [0, zeta(4, 3)]])
    prod = cycle_fill([u, v]) * cycle_fill([v, u]).adjoint()
    for r in range(4):
        for c in range(4):
            if (r < 2) != (c < 2):
                assert scalar_is_zero(prod.entry(r, c))


def test_random_fill_words_supported_on_single_cyclic_diagonal():
    rng = random.Random(20260823)
    k, d = 3, 2
    pool = [
        CMatrix.identity(d),
        CMatrix.exact([[0, 1], [1, 0]]),
        CMatrix.exact([[zeta(3, 1), 0], [0, zeta(3, 2)]]),
    ]
    for _ in range(25):
        word = CMatrix.identity(k * d)
        shift = 0
        for _ in range(rng.randrange(1, 5)):
            fill = cycle_fill([rng.choice(pool) for _ in range(k)])
            if rng.random() < 0.5:
                word = word * fill
                shift = (shift + 1) % k
            else:
                word = word * fill.adjoint()
                shift = (shift - 1) % k
        for br in range(k):
            for bc in range(k):
                block_zero = all(
                    scalar_is_zero(word.entry(br * d + r, bc * d + c))
                    for r in range(d) for c in range(d))
                on_diagonal = (br - bc) % k == shift
                if not on_diagonal:
                    assert block_zero, (br, bc, shift)


@pytest.fixture(scope="module")
def dihedral_data():
    z5 = FinAbelian([5])
    rep = abelian_rep(z5, [CMatrix.exact(
        [[zeta(5, 1), 0], [0, zeta(5, 4)]])])
    return CyclicModelData(z5, rep, AutoMap.from_function(z5, z5.inv), 2)


def test_dihedral_fiber_structure(dihedral_data):
    model = build_cyclic_model(dihedral_data)
    assert model.n == 2 and model.dim == 2 and model.n_points == 5
    for a in range(5):
        f = model.entries[0][0][a]
        assert f == CMatrix.exact(
            [[0, zeta(5, (-a) % 5)], [zeta(5, a), 0]])
        assert f.is_self_adjoint()
    assert all(model.entries[0][1][a].is_zero() for a in range(5))


def test_dihedral_model_certifies(dihedral_data):
    model = build_cyclic_model(dihedral_data)
    assert verify_half_liberation(model).passed
    assert semidirect_stationarity(dihedral_data).passed
    assert verify_k_symmetry(model).passed


def test_trivial_representation_order_two_twist():
    z3 = FinAbelian([3])
    rep = {g: CMatrix.exact([[1]]) for g in z3.elements}
    data = CyclicModelData(z3, rep, AutoMap.from_function(z3, z3.inv), 2)
    assert semidirect_stationarity(data).passed
    model = build_cyclic_model(data)
    assert verify_half_liberation(model).passed
    assert verify_k_symmetry(model).passed


def test_order_one_model_is_the_representation_itself():
    z3 = FinAbelian([3])
    rep = abelian_rep(z3, [CMatrix.exact([[zeta(3, 1)]])])
    data = CyclicModelData(z3, rep, AutoMap.identity(z3), 1)
    model = build_cyclic_model(data)
    for a in range(3):
        assert model.entries[0][0][a] == CMatrix.exact([[zeta(3, a)]])
    assert verify_half_liberation(model).passed
    assert verify_k_symmetry(model).passed
    assert semidirect_stationarity(data).passed


def test_order_three_twist_by_doubling():
    z7 = FinAbelian([7])
    rep = abelian_rep(z7, [CMatrix.exact([[zeta(7, 1)]])])
    dbl = AutoMap.from_function(z7, lambda g: z7.power(g, 2))
    data = CyclicModelData(z7, rep, dbl, 3)
    model = build_cyclic_model(data)
    assert model.dim == 3 and model.n_points == 7
    assert verify_half_liberation(model).passed
    assert verify_k_symmetry(model).passed
    assert semidirect_stationarity(data).passed


def test_order_two_magic_model_lacks_cyclic_symmetry():
    mb = bichon_build([2], [CMatrix.exact([[0, 1], [1, 0]])])
    assert not verify_k_symmetry(mb).passed


def test_rejects_twist_of_wrong_order(dihedral_data):
    with pytest.raises(InvalidAutomorphism):
        CyclicModelData(dihedral_data.group, dihedral_data.rep,
                        dihedral_data.auto, 3)


def test_rejects_non_multiplicative_rep(dihedral_data):
    bad = dict(dihedral_data.rep)
    bad[(1,)] = CMatrix.identity(2)
    with pytest.raises(NotRepresentation):
        CyclicModelData(dihedral_data.group, bad, dihedral_data.auto, 2)


def _full_table_rep_failure(group, rep):
    """The representation check as it read before the generator steps: the
    first pair (a, b), in element order, with v(ab) != v(a) v(b), or None."""
    for a in group.elements:
        for b in group.elements:
            if rep[group.mul(a, b)] != rep[a] * rep[b]:
                return a, b
    return None


def _permutation_matrix(p):
    return CMatrix.exact([[int(p(j + 1) == i + 1) for j in range(p.degree)]
                          for i in range(p.degree)])


def _rep_cases():
    """(name, group, rep) for representations and for unitary maps that are
    not representations."""
    x = CMatrix.exact([[0, 1], [1, 0]])
    z = CMatrix.exact([[1, 0], [0, -1]])
    z5 = FinAbelian([5])
    dihedral = abelian_rep(z5, [CMatrix.exact([[zeta(5, 1), 0], [0, zeta(5, 4)]])])
    z2z4 = FinAbelian([2, 4])
    s3 = PermGroup.from_generators([Perm.from_cycles(3, [(1, 2)]),
                                    Perm.from_cycles(3, [(1, 2, 3)])])
    passing = [
        ("Z5 dihedral", z5, dihedral),
        ("Z5 dihedral, float", z5, {g: m.to_float() for g, m in dihedral.items()}),
        ("Z2 + Z4", z2z4, abelian_rep(z2z4, [z, CMatrix.exact([[zeta(4), 0], [0, 1]])])),
        ("Z1", FinAbelian([1]), {(0,): x * x}),
        ("S3 on points", s3, {g: _permutation_matrix(g) for g in s3.elements}),
    ]
    cases = list(passing)
    # v composed with a bijection that respects the first generator alone;
    # each v here is faithful, so only a homomorphism keeps a representation
    rng = random.Random(31)
    for name, group, rep in (passing[2], passing[4]):
        for i, f in enumerate(first_generator_maps(group, rng, 4)):
            cases.append((f"{name} after first-generator map {i}", group,
                          {a: rep[f[a]] for a in group.elements}))
    # X and Z anticommute, so (a, b) -> X^a Z^b is only projective
    z2z2 = FinAbelian([2, 2])
    cases.append(("Z2 + Z2 Pauli", z2z2, abelian_rep(z2z2, [x, z])))
    for name, group, rep in passing:
        elements = list(group.elements)
        first = rep[elements[0]]
        minus = -CMatrix.identity(first.rows, first.mode)
        for i, g in enumerate(elements):
            # another element's matrix, or the identity's negative
            for other in (rep[elements[(i + 1) % len(elements)]], minus):
                if other == rep[g]:
                    continue
                bad = dict(rep)
                bad[g] = other
                cases.append((f"{name} with v({g!r}) changed", group, bad))
    return cases


REP_CASES = _rep_cases()


@pytest.mark.parametrize("name, group, rep", REP_CASES, ids=[case[0] for case in REP_CASES])
def test_generator_steps_decide_the_representation_like_the_full_table(name, group, rep):
    auto = AutoMap.identity(group)
    want = _full_table_rep_failure(group, rep)
    if want is None:
        assert CyclicModelData(group, rep, auto, 1).rep == rep
        return
    with pytest.raises(NotRepresentation) as info:
        CyclicModelData(group, rep, auto, 1)
    e = group.identity
    if want == (e, e):
        # both checks test v(e) v(e) = v(e) first
        assert str(info.value) == f"v({e!r})v({e!r}) differs from v of the product"


@pytest.mark.parametrize("factors", [[5], [2, 4], [3, 3, 2], [1]])
def test_representation_check_takes_few_products(factors, monkeypatch):
    group = FinAbelian(factors)
    rep = abelian_rep(group, [CMatrix.exact([[zeta(d)]]) for d in factors])
    calls = []
    mul = CMatrix.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(CMatrix, "__mul__", counted)
    CyclicModelData(group, rep, AutoMap.identity(group), 1)
    # U U* = 1 for each element, then one product per generator step
    assert len(calls) <= group.order * (len(factors) + 1)


def _legacy_semidirect_stationarity(data):
    """The check as it read before the power table: sigma^(-r) from
    AutoMap.power at every use, one fiber per basis element and point, and
    the Haar side summed over the pairs (x, t) of L x| Z_K."""
    elements = list(data.group.elements)
    k = data.k

    def rho_fiber(g, i, h):
        rows = [[0] * k for _ in range(k)]
        for r in range(1, k + 1):
            if data.auto.power(-r)(g) == h:
                rows[r - 1][(r - 1 - i) % k] = 1
        return CMatrix.exact(rows)

    pairs = [(x, t) for x in elements for t in range(k)]
    basis = [(g, i) for g in elements for i in range(k)]
    fibers = {b: {h: rho_fiber(b[0], b[1], h) for h in elements} for b in basis}
    witnesses = []
    checked = 0
    for b1 in basis:
        for b2 in basis:
            checked += 1
            (g, i), (h2, j) = b1, b2
            prod = (g, (i + j) % k) if h2 == data.auto.power(-i)(g) else None
            for h in elements:
                lhs = fibers[b1][h] * fibers[b2][h]
                rhs = CMatrix.zeros(k, k) if prod is None else fibers[prod][h]
                if lhs != rhs:
                    witnesses.append({"kind": "not_multiplicative",
                                      "left": str(b1), "right": str(b2),
                                      "point": str(h)})
                    break
    for b in basis:
        checked += 1
        g, i = b
        bs = (data.auto.power(-i)(g), (-i) % k)
        for h in elements:
            if fibers[b][h].adjoint() != fibers[bs][h]:
                witnesses.append({"kind": "star_mismatch", "element": str(b),
                                  "point": str(h)})
                break
    for b in basis:
        checked += 1
        g, i = b
        total = None
        for h in elements:
            t = fibers[b][h].ntrace()
            total = t if total is None else total + t
        model_side = total * Fraction(1, len(elements))
        haar = None
        for (x, t) in pairs:
            val = zeta(k, (t * i) % k) if x == g else 0
            haar = val if haar is None else haar + val
        haar_side = haar * Fraction(1, len(pairs))
        if model_side != haar_side:
            witnesses.append({"kind": "not_stationary", "element": str(b),
                              "model": str(model_side), "haar": str(haar_side)})
    return CheckReport("semidirect_stationarity", not witnesses, checked,
                       tuple(witnesses))


def _z13_k3_data():
    z13 = FinAbelian([13])
    rep = abelian_rep(z13, [CMatrix.diagonal([zeta(13, 1), zeta(13, 3),
                                              zeta(13, 9)])])
    times3 = AutoMap.from_function(z13, lambda a: ((3 * a[0]) % 13,))
    return CyclicModelData(z13, rep, times3, 3)


def _trivial_twist_k2_data():
    z3 = FinAbelian([3])
    rep = abelian_rep(z3, [CMatrix.exact([[zeta(3, 1)]])])
    return CyclicModelData(z3, rep, AutoMap.identity(z3), 2)


def _multiplier_data(factors, multiplier, k):
    """The trivial one-dimensional representation of Z_factors, twisted by
    multiplication by multiplier."""
    group = FinAbelian(factors)
    auto = AutoMap.from_function(
        group, lambda a: tuple((multiplier * x) % d for x, d in zip(a, factors)))
    rep = {g: CMatrix.exact([[1]]) for g in group.elements}
    return CyclicModelData(group, rep, auto, k)


@pytest.mark.parametrize("data", [
    *(data for _, data in _cyclic_models()),
    _z13_k3_data(),
    _trivial_twist_k2_data(),
    _multiplier_data([13], 3, 6),
    _multiplier_data([7], 2, 3),
], ids=["K1", "K2", "K3", "Z13-K3", "identity-K2", "Z13-K6", "Z7-K3"])
def test_semidirect_stationarity_matches_the_legacy_loop(data):
    report = semidirect_stationarity(data)
    assert report == _legacy_semidirect_stationarity(data)
    assert report.passed
    assert report.checked == len(data.group.elements) ** 2 * data.k ** 2 \
        + 2 * len(data.group.elements) * data.k


class _TablePowers:
    """An automorphism stand-in whose power t is table[t mod K]: the legacy
    loop reads sigma^t through power(t), the certificate through the table,
    so a patched table reaches both the same way."""

    def __init__(self, table):
        self.table = table

    def power(self, t):
        return self.table[t % len(self.table)]


def _patched_powers(data, t, changes):
    """data with sigma^t changed on the elements that changes maps, and no
    other change: the table then holds a map that is no power of an
    automorphism."""
    powers = list(data.powers)
    powers[t] = AutoMap(data.group, {**powers[t].mapping, **changes})
    patched = copy.copy(data)
    patched.powers = tuple(powers)
    patched.auto = _TablePowers(patched.powers)
    return patched


# (data, t, changes): one map of each table is no longer what it was.
FAILING_SEMIDIRECT = {
    "K2 sigma(1) = sigma(4) = 1": (_d5_data, 1, {(1,): (1,)}),
    # a bijection, but no homomorphism
    "Z7-K3 sigma^2 swaps the images of 1 and 2":
        (lambda: _multiplier_data([7], 2, 3), 2, {(1,): (1,), (2,): (4,)}),
    "Z13-K3 sigma^0(5) = sigma^0(6) = 6": (_z13_k3_data, 0, {(5,): (6,)}),
    "Z13-K6 sigma^4(3) = sigma^4(0) = 0":
        (lambda: _multiplier_data([13], 3, 6), 4, {(3,): (0,)}),
}


@pytest.mark.parametrize("name", list(FAILING_SEMIDIRECT))
def test_semidirect_stationarity_matches_the_legacy_loop_on_failing_data(name):
    make, t, changes = FAILING_SEMIDIRECT[name]
    data = _patched_powers(make(), t, changes)
    report = semidirect_stationarity(data)
    assert report == _legacy_semidirect_stationarity(data)
    assert not report.passed
    assert report.checked == len(data.group.elements) ** 2 * data.k ** 2 \
        + 2 * len(data.group.elements) * data.k
    assert {w["kind"] for w in report.witnesses} == {"not_multiplicative", "star_mismatch"}


def test_semidirect_stationarity_takes_no_matrix_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("a CMatrix product ran")

    datas = [_z13_k3_data(), _patched_powers(_d5_data(), 1, {(1,): (1,)})]
    want = [_legacy_semidirect_stationarity(data) for data in datas]
    monkeypatch.setattr(CMatrix, "__mul__", refuse)
    assert [semidirect_stationarity(data) for data in datas] == want


def _z127_data(multiplier, k):
    z127 = FinAbelian([127])
    rep = abelian_rep(z127, [CMatrix.exact([[zeta(127, 1)]])])
    auto = AutoMap.from_function(z127, lambda a: ((multiplier * a[0]) % 127,))
    return CyclicModelData(z127, rep, auto, k)


@pytest.mark.parametrize("multiplier, k, need", [
    # {0} and 63 orbits of two; {0} and 18 orbits of seven; {0} and 6 of 21
    (126, 2, 1 * 4 + 63 * 8 * 4),
    (2, 7, 1 * 49 + 18 * 343 * 49),
    (25, 21, 1 * 441 + 6 * 9261 * 441),
])
def test_semidirect_comparisons_count_the_orbits(multiplier, k, need):
    assert semidirect_comparisons(_z127_data(multiplier, k)) == need


def test_semidirect_budget_refuses_from_the_library():
    data = _z127_data(25, 21)
    with pytest.raises(BudgetExceeded, match="^semidirect certificate needs 24505047 "
                                             "comparisons, more than 1000000$"):
        semidirect_stationarity(data)


def test_semidirect_budget_is_inclusive(monkeypatch):
    data = _z13_k3_data()
    need = semidirect_comparisons(data)
    assert need == 1 * 9 + 4 * 27 * 9
    monkeypatch.setattr(cyclic, "_SEMIDIRECT_BUDGET", need)
    assert semidirect_stationarity(data).passed
    monkeypatch.setattr(cyclic, "_SEMIDIRECT_BUDGET", need - 1)
    with pytest.raises(BudgetExceeded):
        semidirect_stationarity(data)


def test_every_fixture_is_inside_the_semidirect_budget():
    datas = [*CYCLIC_DATA.values(), *(make() for make, *_ in FAILING_SEMIDIRECT.values()),
             _multiplier_data([13], 3, 6), _multiplier_data([7], 2, 3), _z127_data(2, 7)]
    assert max(map(semidirect_comparisons, datas)) <= cyclic._SEMIDIRECT_BUDGET


@pytest.mark.parametrize("factors, multiplier, k", [
    ([13], 3, 3), ([13], 3, 6), ([7], 2, 3), ([5], 4, 2), ([5], 1, 4),
])
def test_power_table_holds_every_power(factors, multiplier, k):
    data = _multiplier_data(factors, multiplier, k)
    assert len(data.powers) == k
    for t in range(-2 * k, 2 * k):
        assert data.powers[t % k] == data.auto.power(t)


@pytest.mark.parametrize("multiplier, k", [(3, 2), (3, 4), (12, 3), (2, 1)])
def test_power_table_rejects_orders_not_dividing_k(multiplier, k):
    z13 = FinAbelian([13])
    auto = AutoMap.from_function(z13, lambda a: ((multiplier * a[0]) % 13,))
    rep = {g: CMatrix.exact([[1]]) for g in z13.elements}
    with pytest.raises(InvalidAutomorphism,
                       match=f"^automorphism order does not divide {k}$"):
        CyclicModelData(z13, rep, auto, k)


def _legacy_entrywise_adjoint(model, x):
    return CMatrix.from_blocks([
        [model.entries[i][j][x].adjoint() for j in range(model.n)]
        for i in range(model.n)
    ])


def _legacy_verify_half_liberation(model, tol=None):
    """The check as it read before fibers were shared: every adjoint,
    product, diagonality and commutation test taken at every occurrence."""
    n = model.n
    exact = model.mode == "exact"
    witnesses = []
    checked = 0
    for x in range(model.n_points):
        big = model.assembled(x)
        checked += 1
        if not big.is_unitary(tol):
            witnesses.append({"kind": "not_unitary", "point": model.labels[x]})
        checked += 1
        if not _legacy_entrywise_adjoint(model, x).is_unitary(tol):
            witnesses.append({"kind": "conjugate_not_unitary",
                              "point": model.labels[x]})
        flat = [(i, j, model.entries[i][j][x])
                for i in range(n) for j in range(n)]
        prods, diagonal = [], []
        for (i1, j1, a) in flat:
            for (i2, j2, b) in flat:
                for tag, m in (("ab*", a * b.adjoint()), ("a*b", a.adjoint() * b)):
                    checked += 1
                    is_diagonal = m.is_diagonal(tol)
                    if not is_diagonal:
                        witnesses.append({
                            "kind": "not_diagonal", "form": tag,
                            "left": (i1 + 1, j1 + 1), "right": (i2 + 1, j2 + 1),
                            "point": model.labels[x],
                        })
                    prods.append(m)
                    diagonal.append(exact and is_diagonal)
        for a in range(len(prods)):
            for b in range(a + 1, len(prods)):
                checked += 1
                if diagonal[a] and diagonal[b]:
                    continue
                if not (prods[a] * prods[b]).close_to(prods[b] * prods[a], tol):
                    witnesses.append({"kind": "products_do_not_commute",
                                      "pair": (a, b), "point": model.labels[x]})
        if all(m.is_self_adjoint(tol) for _, _, m in flat):
            for (i1, j1, a) in flat:
                for (i2, j2, b) in flat:
                    for (i3, j3, c) in flat:
                        checked += 1
                        if not (a * b * c).close_to(c * b * a, tol):
                            witnesses.append({
                                "kind": "abc_cba",
                                "triple": ((i1 + 1, j1 + 1), (i2 + 1, j2 + 1),
                                           (i3 + 1, j3 + 1)),
                                "point": model.labels[x],
                            })
    return CheckReport("half_liberation", not witnesses, checked, tuple(witnesses))


def _legacy_verify_k_symmetry(model, k, tol=None):
    """The check as it read before fibers were shared: one conjugation per
    entry and point."""
    dmat = CMatrix(model.mode,
                   [[zeta(k, r) if r == c else 0 for c in range(k)]
                    for r in range(k)])
    factor = zeta(k, 1)
    dinv = dmat.adjoint()
    witnesses = []
    checked = 0
    for i in range(model.n):
        for j in range(model.n):
            for x in range(model.n_points):
                checked += 1
                f = model.entries[i][j][x]
                if not (dmat * f * dinv).close_to(f.scale(factor), tol):
                    witnesses.append({"row": i + 1, "col": j + 1,
                                      "point": model.labels[x]})
    return CheckReport("k_symmetry", not witnesses, checked, tuple(witnesses))


def _unshared(model):
    """The model with a fresh copy of its fiber at every entry and point."""
    return FiberModel(model.n, model.dim, model.labels, model.weights, [
        [[CMatrix(f.mode, f.data) for f in model.entries[i][j]]
         for j in range(model.n)] for i in range(model.n)])


def _fiber_ids(model):
    return {id(f) for row in model.entries for entry in row for f in entry}


def _noncommuting_model():
    """Two points of self-adjoint 2 x 2 entries that do not commute; the
    second point holds one entry that is not self-adjoint.  The sigma_x
    fiber is one object in three places."""
    sx = CMatrix.exact([[0, 1], [1, 0]])
    sz = CMatrix.exact([[1, 0], [0, -1]])
    p0 = CMatrix.exact([[1, 0], [0, 0]])
    p1 = CMatrix.exact([[0, 0], [0, 1]])
    up = CMatrix.exact([[0, 1], [0, 0]])
    return FiberModel(2, 2, ["p", "q"], [F(1, 2)] * 2,
                      [[(sx, sx), (sz, up)], [(p0, p0), (p1, sx)]])


def _order_two_block_model():
    """Criterion 9's two-block dual model."""
    return bichon_build([2], [regular_rep(FinAbelian([2]))[(1,)]])


CYCLIC_DATA = {"K1": _cyclic_models()[0][1], "K2": _d5_data(),
               "K3": _cyclic_models()[-1][1], "Z13-K3": _z13_k3_data(),
               "identity-K2": _trivial_twist_k2_data()}


def _check_models():
    """(id, model, K) for every model of the differential tests."""
    cases = [(name, build_cyclic_model(data), data.k)
             for name, data in CYCLIC_DATA.items()]
    cases.append(("block", _order_two_block_model(), 2))
    cases.append(("noncommuting", _noncommuting_model(), 2))
    return cases


@pytest.fixture(scope="module", params=_check_models(), ids=lambda case: case[0])
def check_model(request):
    return request.param


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_half_liberation_matches_the_legacy_loop(check_model, mode):
    name, model, _ = check_model
    tol = None
    if mode == "float":
        model, tol = model.to_float(), 1e-9
    report = verify_half_liberation(model, tol)
    assert report == _legacy_verify_half_liberation(model, tol)
    assert verify_half_liberation(_unshared(model), tol) == report
    kinds = {w["kind"] for w in report.witnesses}
    if name == "block":
        assert (report.checked, len(report.witnesses), kinds) == (594, 16, {"not_diagonal"})
    elif name == "noncommuting":
        assert {"products_do_not_commute", "abc_cba"} <= kinds
    else:
        assert report.passed


def _float_model(*points):
    """A 2 x 2 float model with one point per grid of four 2 x 2 fibers,
    each fiber given by its rows."""
    return FiberModel(2, 2, [f"p{x}" for x in range(len(points))],
                      [F(1, len(points))] * len(points),
                      [[tuple(CMatrix.floating(grid[2 * i + j]) for grid in points)
                        for j in range(2)] for i in range(2)])


def _near_diagonal_points(off):
    """Two points whose fibers are diagonal unitaries, two of them with off
    in an off-diagonal corner, so that some products carry off or its
    multiples off the diagonal."""
    w = complex(0.6, 0.8)
    return ([[[1, off], [0, 1j]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], [[w, 0], [0, -1]]],
            [[[-1, 0], [0, 1]], [[0, 0], [off, 0]], [[0, 0], [0, 0]], [[1j, 0], [0, w]]])


FLOAT_PRODUCT_MODELS = {
    "off-diagonals exactly 0": _float_model(*_near_diagonal_points(0)),
    "off-diagonals within EPS": _float_model(*_near_diagonal_points(4e-10)),
    "off-diagonals in (EPS, 1e-6]": _float_model(*_near_diagonal_points(2e-7)),
    "off-diagonals above 1e-6": _float_model(*_near_diagonal_points(0.25)),
    # products of 1e200 with itself overflow to infinity
    "diagonal overflow": _float_model([[[1e100, 0], [0, 1]], [[0, 0], [0, 1e-3]],
                                       [[1j, 0], [0, 0]], [[1, 0], [0, 1e100j]]]),
    "diagonal NaN": _float_model([[[math.nan, 0], [0, 1]], [[0, 0], [0, 0]],
                                  [[0, 0], [0, 0]], [[1, 0], [0, 1]]]),
    "noncommuting": _noncommuting_model().to_float(),
}


@pytest.mark.parametrize("tol", [None, 0.0, 1e-12, 1e-6])
@pytest.mark.parametrize("name", list(FLOAT_PRODUCT_MODELS))
def test_float_commutation_pruning_matches_the_legacy_loop(name, tol):
    model = FLOAT_PRODUCT_MODELS[name]
    assert verify_half_liberation(model, tol) == _legacy_verify_half_liberation(model, tol)


@pytest.mark.parametrize("rows, want", [
    ([[2, 0], [0, 1j]], True),
    ([[2, 1e-9], [-1e-9j, 0]], True),
    ([[1e150 + 1e150j, 0], [0, -1e150]], True),
    ([[2, 2e-9], [0, 1]], False),
    ([[1.01e150, 0], [0, 1]], False),
    ([[1, 0], [0, complex(0, math.inf)]], False),
    ([[math.nan, 0], [0, 1]], False),
    # a NaN off the diagonal is not within EPS
    ([[1, math.nan], [0, 1]], False),
])
def test_float_diagonal_reads_products_as_the_product_does(rows, want):
    assert cyclic._float_diagonal(CMatrix.floating(rows)) is want


def test_complex_products_commute_bit_for_bit():
    """The float pruning rests on p q = q p for complex scalars, bit for bit,
    both parts at most 1e150 in size."""
    rng = random.Random(33)

    def part():
        return rng.choice([-1, 1]) * rng.random() * 10.0 ** rng.randrange(-320, 151)

    for _ in range(5000):
        a, b = complex(part(), part()), complex(part(), part())
        ab, ba = 0j + a * b, 0j + b * a
        assert (ab.real.hex(), ab.imag.hex()) == (ba.real.hex(), ba.imag.hex())
        assert math.isfinite(ab.real) and math.isfinite(ab.imag)


@pytest.mark.parametrize("tol", [-1.0, -1e-9, math.nan])
def test_half_liberation_at_a_negative_or_nan_tol_fails_every_comparison(tol):
    """The function accepts such a tol: every float comparison fails, so
    every pair of products is tested and listed, none pruned."""
    model = build_cyclic_model(_d5_data()).to_float()
    report = verify_half_liberation(model, tol)
    assert report == _legacy_verify_half_liberation(model, tol)
    kinds = [w["kind"] for w in report.witnesses]
    assert (report.passed, report.checked) == (False, 2650)
    assert {kind: kinds.count(kind) for kind in kinds} == {
        "not_unitary": 5, "conjugate_not_unitary": 5, "not_diagonal": 160,
        "products_do_not_commute": 5 * 32 * 31 // 2}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_k_symmetry_matches_the_legacy_loop(check_model, mode):
    name, model, k = check_model
    tols = [None]
    if mode == "float":
        model, tols = model.to_float(), [None, 1e-9, 1e-8, 1e-6, 1e-12, -1.0, math.nan]
    assert k == model.dim
    for tol in tols:
        report = verify_k_symmetry(model, tol)
        assert report == _legacy_verify_k_symmetry(model, k, tol)
        assert verify_k_symmetry(_unshared(model), tol) == report
        if tol is None or tol >= 0:
            assert report.passed == (name not in ("block", "noncommuting"))
        else:
            assert len(report.witnesses) == report.checked


def _single_point_model(fiber):
    return FiberModel(1, fiber.rows, ["p"], [1], [[(fiber,)]])


def _random_float_fiber(rng, k):
    """A K x K fiber whose cycle-fill entries are 0 or of size 1e-12 to 1,
    with up to two other entries of size 1e-14 to 1e-5."""
    def scalar(low, high):
        return cmath.rect(10.0 ** rng.uniform(low, high), rng.uniform(0, 2 * math.pi))

    rows = [[0j] * k for _ in range(k)]
    for r in range(k):
        if rng.random() < 0.7:
            rows[r][(r - 1) % k] = scalar(-12, 0)
    off = [(r, c) for r in range(k) for c in range(k) if c != (r - 1) % k]
    for r, c in rng.sample(off, min(len(off), rng.choice([0, 1, 1, 2]))):
        rows[r][c] = scalar(-14, -5)
    return CMatrix.floating(rows)


@pytest.mark.parametrize("k", range(1, 7))
def test_random_float_fibers_match_the_legacy_k_symmetry(k):
    rng = random.Random(3400 + k)
    points = [_random_float_fiber(rng, k) for _ in range(200)]
    model = FiberModel(1, k, [f"p{x}" for x in range(len(points))],
                       [F(1, len(points))] * len(points), [[tuple(points)]])
    failures = []
    for tol in (None, 1e-9, 1e-8, 1e-6, 1e-12, 1e-14):
        report = verify_k_symmetry(model, tol)
        assert report == _legacy_verify_k_symmetry(model, k, tol)
        failures.append(len(report.witnesses))
    # Entries below and above the tols occur: the verdicts differ by tol,
    # and at some tol fibers both pass and fail.
    assert len(set(failures)) > 1 and any(0 < n < 200 for n in failures)


def test_exact_k_symmetry_fails_one_fiber_at_a_lifted_order():
    """Z127 with K = 7: the legacy conjugation runs at order lcm(7, 127)."""
    model = build_cyclic_model(_z127_data(2, 7))
    bent = [[zeta(127, 5) if (r, c) == (3, 0) else x for c, x in enumerate(row)]
            for r, row in enumerate(model.entries[0][0][4].data)]
    fibers = list(model.entries[0][0])
    fibers[4] = CMatrix.exact(bent)
    model = FiberModel(1, 7, model.labels, model.weights, [[tuple(fibers)]])
    report = verify_k_symmetry(model)
    assert report == _legacy_verify_k_symmetry(model, 7, None)
    assert report.witnesses == ({"row": 1, "col": 1, "point": model.labels[4]},)
    assert report.checked == 127


def test_float_k_symmetry_at_tol_zero_passes_an_exactly_symmetric_model():
    """The one intended change: the legacy loop failed this model at tol 0
    on the rounding of zeta^r x zeta^(-c) against zeta x; the support
    reading passes it."""
    model = build_cyclic_model(_d5_data()).to_float()
    assert verify_k_symmetry(model, 0.0).passed
    assert not _legacy_verify_k_symmetry(model, 2, 0.0).passed


def _random_exact_scalar(rng):
    pick = rng.randrange(4)
    if pick == 0:
        return 0
    if pick == 1:
        return rng.randint(-9, 9) or 1
    if pick == 2:
        return F(rng.randint(-9, 9) or 1, rng.randint(1, 9))
    return zeta(rng.choice([3, 5, 7, 12]), rng.randrange(12)) * rng.randint(1, 4)


@pytest.mark.parametrize("k", range(1, 9))
def test_cycle_fill_is_k_symmetric_and_no_off_pattern_entry_is(k):
    rng = random.Random(340 + k)
    for _ in range(3):
        fill = cycle_fill([_random_exact_scalar(rng) for _ in range(k)])
        assert verify_k_symmetry(_single_point_model(fill)).passed
        for r in range(k):
            for c in range(k):
                if c == (r - 1) % k:
                    continue
                rows = [list(row) for row in fill.data]
                rows[r][c] = rng.choice([1, F(-2, 3), zeta(5, 2), zeta(k, 1) + 2])
                bent = _single_point_model(CMatrix.exact(rows))
                assert not verify_k_symmetry(bent).passed


def test_k_symmetry_takes_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product ran")

    model = build_cyclic_model(_z127_data(25, 21))
    monkeypatch.setattr(CMatrix, "__mul__", refuse)
    monkeypatch.setattr(Cyc, "__mul__", refuse)
    monkeypatch.setattr(Cyc, "__rmul__", refuse)
    report = verify_k_symmetry(model)
    assert (report.passed, report.checked) == (True, 127)


def _legacy_haar_side(k, i, size):
    """The Haar side as the certificate summed it: sum_t zeta_K^(ti) / (|L| K)."""
    total = zeta(k, 0)
    for t in range(1, k):
        total = total + zeta(k, (t * i) % k)
    return total * Fraction(1, size * k)


@pytest.mark.parametrize("size", [1, 5, 13, 127])
def test_haar_side_is_the_zeta_sum(size):
    for k in range(1, 65):
        for i in range(k):
            want = _legacy_haar_side(k, i, size)
            got = cyclic._haar_side(i, size)
            assert scalars_equal(got, want)
            assert str(got) == str(want)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_emptied_tables_give_the_legacy_reports(monkeypatch, mode):
    """Tables of one result each are emptied at every new pair or triple."""
    monkeypatch.setattr(cyclic, "_TABLE_SCALARS", 1)
    monkeypatch.setattr(cyclic, "_SHARED_MAX", 1)
    for model in (_noncommuting_model(), build_cyclic_model(_d5_data())):
        tol = None
        if mode == "float":
            model, tol = model.to_float(), 1e-9
        assert verify_half_liberation(model, tol) == \
            _legacy_verify_half_liberation(model, tol)


@pytest.mark.parametrize("name, distinct, total", [
    ("Z13-K3", 14, 117), ("K2", 6, 20), ("K3", 7, 7),
])
def test_builder_keeps_one_fiber_per_stored_form(name, distinct, total):
    model = build_cyclic_model(CYCLIC_DATA[name])
    fibers = [f for row in model.entries for entry in row for f in entry]
    assert len(fibers) == total
    assert len(_fiber_ids(model)) == distinct
    assert len({_stored_form(f) for f in fibers}) == distinct
    float_model = model.to_float()
    assert len(_fiber_ids(float_model)) == distinct
    # The writer renders the shared model as it renders fresh copies.
    assert render_json(model_to_json(model)) == \
        render_json(model_to_json(_unshared(model)))


def test_float_builder_keeps_signed_zeros_apart():
    """Entry (1, 2) is -0.0 at the identity and 0.0 at the other point;
    entry (2, 1) is 0.0 at both, so it shares the second fiber."""
    z2 = FinAbelian([2])
    rep = {(0,): CMatrix.floating([[1, complex(-0.0, 0.0)], [0, 1]]),
           (1,): CMatrix.floating([[-1, 0], [0, -1]])}
    model = build_cyclic_model(CyclicModelData(z2, rep, AutoMap.identity(z2), 1))
    minus, plus = model.entries[0][1]
    assert minus is not plus
    assert minus.entry(0, 0).real.hex() == "-0x0.0p+0"
    assert plus.entry(0, 0).real.hex() == "0x0.0p+0"
    assert model.entries[1][0][0] is plus and model.entries[1][0][1] is plus
    assert len(_fiber_ids(model)) == len(
        {_stored_form(f) for row in model.entries for e in row for f in e}) == 4
