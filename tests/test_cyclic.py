"""Cyclically-supported models over abelian cores with twisting automorphism."""
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
    semidirect_stationarity,
    verify_half_liberation,
    verify_k_symmetry,
)
from magicmodels.cyclotomic import zeta
from magicmodels.errors import InvalidAutomorphism, NotRepresentation
from magicmodels.groups import AutoMap, FinAbelian, Perm, PermGroup
from magicmodels.magic import (
    CheckReport,
    FiberModel,
    _stored_form,
    bichon_build,
    regular_rep,
)
from magicmodels.matrices import CMatrix, scalar_is_zero
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
    # The float Z13 model has no repeated products on its unshared copy, so
    # that copy takes as long as the legacy loop; its exact twin is checked.
    if not (name == "Z13-K3" and mode == "float"):
        assert verify_half_liberation(_unshared(model), tol) == report
    kinds = {w["kind"] for w in report.witnesses}
    if name == "block":
        assert (report.checked, len(report.witnesses), kinds) == (594, 16, {"not_diagonal"})
    elif name == "noncommuting":
        assert {"products_do_not_commute", "abc_cba"} <= kinds
    else:
        assert report.passed


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_k_symmetry_matches_the_legacy_loop(check_model, mode):
    name, model, k = check_model
    tol = None
    if mode == "float":
        model, tol = model.to_float(), 1e-9
    assert k == model.dim
    report = verify_k_symmetry(model, tol)
    assert report == _legacy_verify_k_symmetry(model, k, tol)
    assert verify_k_symmetry(_unshared(model), tol) == report
    assert report.passed == (name not in ("block", "noncommuting"))


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
