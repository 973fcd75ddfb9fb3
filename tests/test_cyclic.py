"""Cyclically-supported models over abelian cores with twisting automorphism."""
import random
from fractions import Fraction

import pytest

from magicmodels.acceptance import _cyclic_models
from magicmodels.cyclic import (
    CyclicModelData,
    abelian_rep,
    build_cyclic_model,
    cycle_fill,
    semidirect_stationarity,
    verify_half_liberation,
    verify_k_symmetry,
)
from magicmodels.cyclotomic import zeta
from magicmodels.errors import InvalidAutomorphism, NotRepresentation
from magicmodels.groups import AutoMap, FinAbelian
from magicmodels.magic import CheckReport, bichon_build
from magicmodels.matrices import CMatrix, scalar_is_zero

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


@pytest.mark.parametrize("data", [
    *(data for _, data in _cyclic_models()),
    _z13_k3_data(),
    _trivial_twist_k2_data(),
], ids=["K1", "K2", "K3", "Z13-K3", "identity-K2"])
def test_semidirect_stationarity_matches_the_legacy_loop(data):
    report = semidirect_stationarity(data)
    assert report == _legacy_semidirect_stationarity(data)
    assert report.passed
    assert report.checked == len(data.group.elements) ** 2 * data.k ** 2 \
        + 2 * len(data.group.elements) * data.k


@pytest.mark.parametrize("factors, multiplier, k", [
    ([13], 3, 3), ([13], 3, 6), ([7], 2, 3), ([5], 4, 2), ([5], 1, 4),
])
def test_power_table_holds_every_power(factors, multiplier, k):
    group = FinAbelian(factors)
    auto = AutoMap.from_function(
        group, lambda a: tuple((multiplier * x) % d for x, d in zip(a, factors)))
    rep = {g: CMatrix.exact([[1]]) for g in group.elements}
    data = CyclicModelData(group, rep, auto, k)
    assert len(data.powers) == k
    for t in range(-2 * k, 2 * k):
        assert data.powers[t % k] == auto.power(t)


@pytest.mark.parametrize("multiplier, k", [(3, 2), (3, 4), (12, 3), (2, 1)])
def test_power_table_rejects_orders_not_dividing_k(multiplier, k):
    z13 = FinAbelian([13])
    auto = AutoMap.from_function(z13, lambda a: ((multiplier * a[0]) % 13,))
    rep = {g: CMatrix.exact([[1]]) for g in z13.elements}
    with pytest.raises(InvalidAutomorphism,
                       match=f"^automorphism order does not divide {k}$"):
        CyclicModelData(z13, rep, auto, k)
