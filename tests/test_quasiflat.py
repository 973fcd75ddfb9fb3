"""Family search over sparse Latin patterns and uniformity certificates."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pg
from magicmodels.cyclotomic import zeta
from magicmodels.errors import (
    InvalidFamily, NotFiniteOrder, NotQuasiTransitive, NotUnitary, ShapeMismatch,
)
from magicmodels.groups import Perm, PermGroup, orbit_blocks
from magicmodels.magic import (
    StateOnWords,
    convolution_idempotency,
    orbits_from_source,
    quasi_flat_check,
    single_fiber,
    stationarity_check,
    verify_magic,
)
from magicmodels.matrices import CMatrix
from magicmodels.quasiflat import (
    LatinFamily,
    NoFamily,
    SparseLatinSquare,
    classical_model_from_family,
    derangement_scan,
    latin_family_search,
    quasiflat_dual_check,
    trace_vector_check,
    uniform_check,
)
from magicmodels.matrices import spectral_multiplicities

F = Fraction


def is_valid_family(group, size, members):
    try:
        LatinFamily(group, size, tuple(members))
    except InvalidFamily:
        return False
    return True


def pointwise_family_search(group, size):
    """The search with the plain point-by-point conflict test: the reference
    for the bitmask search.  Returns (members or None, explored)."""
    elements = list(group.elements)
    explored = 0
    chosen = [0]

    def conflicts(candidate):
        for m in range(1, group.degree + 1):
            v = candidate(m)
            for idx in chosen:
                if elements[idx](m) == v:
                    return True
        return False

    def extend(start):
        nonlocal explored
        if len(chosen) == size:
            return True
        for c in range(start, len(elements)):
            explored += 1
            if conflicts(elements[c]):
                continue
            chosen.append(c)
            if extend(c + 1):
                return True
            chosen.pop()
        return False

    found = extend(1)
    return (tuple(elements[c] for c in chosen) if found else None), explored


def assert_search_matches_reference(group, size):
    res = latin_family_search(group, size)
    members, explored = pointwise_family_search(group, size)
    if members is None:
        assert isinstance(res, NoFamily)
        assert res.explored == explored
    else:
        assert isinstance(res, LatinFamily)
        assert res.members == members
    return res


G216 = [[2, 3, 6, 1, 4, 5, 12, 9, 10, 8, 7, 11],
        [1, 6, 3, 2, 5, 4, 11, 10, 7, 12, 9, 8]]
G360 = [[3, 2, 6, 1, 4, 5, 8, 11, 10, 12, 9, 7],
        [1, 3, 5, 2, 6, 4, 7, 8, 9, 10, 11, 12]]
RELABEL = [5, 11, 2, 8, 1, 12, 7, 3, 10, 4, 9, 6]
# PSL(2, 7) acting 2-transitively on the eight points of the projective line
# over F_7: order 168, 21 involutions.  Its first family needs backtracking.
PSL27 = [[2, 3, 4, 5, 6, 7, 1, 8], [8, 7, 4, 3, 6, 5, 2, 1]]


def _relabelled(gens, pi):
    """pi g pi^-1 for each generator."""
    out = []
    for g in gens:
        images = [0] * len(g)
        for i, v in enumerate(g):
            images[pi[i] - 1] = pi[v - 1]
        out.append(images)
    return out


SEARCH_CASES = {
    "klein6": (pg(6, [(1, 2), (3, 4)], [(1, 2), (5, 6)]), 2),
    "Z3": (pg(3, [(1, 2, 3)]), 3),
    "V4": (pg(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)]), 4),
    "D4": (pg(4, [(1, 2, 3, 4)], [(1, 3)]), 4),
    "S4": (pg(4, [(1, 2)], [(1, 2, 3, 4)]), 4),
    "G216": (PermGroup.from_generators(G216), 6),
    "G360": (PermGroup.from_generators(G360), 6),
    "G216 relabelled": (PermGroup.from_generators(_relabelled(G216, RELABEL)), 6),
    "G360 relabelled": (PermGroup.from_generators(_relabelled(G360, RELABEL)), 6),
    "PSL(2,7) on 8 points": (PermGroup.from_generators(PSL27), 8),
}


@pytest.mark.parametrize("name", list(SEARCH_CASES))
def test_bitmask_search_matches_pointwise_search(name):
    group, size = SEARCH_CASES[name]
    res = assert_search_matches_reference(group, size)
    if name.startswith("G"):
        assert res.explored == {216: 142091, 360: 343999}[group.order]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.permutations(range(1, n + 1)), min_size=1, max_size=3)))
def test_bitmask_search_matches_pointwise_search_on_random_groups(gens):
    group = PermGroup.from_generators(gens)
    sizes = {len(b) for b in orbit_blocks(group)}
    if len(sizes) != 1:
        with pytest.raises(NotQuasiTransitive):
            latin_family_search(group, max(sizes))
        return
    assert_search_matches_reference(group, sizes.pop())


def test_klein_degree_six_has_no_family(klein6):
    assert klein6.order == 4
    assert orbits_from_source(klein6).blocks == ((1, 2), (3, 4), (5, 6))
    assert derangement_scan(klein6) == ()
    res = latin_family_search(klein6, 2)
    assert isinstance(res, NoFamily)
    assert res.exhaustive
    assert res.explored == 3
    assert res.group_order == 4


def test_klein_degree_four_family_is_whole_group(klein4):
    fam = latin_family_search(klein4, 4)
    assert isinstance(fam, LatinFamily)
    assert set(fam.members) == set(klein4.elements)
    assert len(derangement_scan(klein4)) == 3


def test_cyclic_regular_family_is_all_powers(z3):
    fam = latin_family_search(z3, 3)
    assert isinstance(fam, LatinFamily)
    assert tuple(fam.members) == tuple(z3.elements)


def test_size_two_family_exists_iff_derangement_exists():
    z2z2 = pg(4, [(1, 2)], [(3, 4)])
    scan = derangement_scan(z2z2)
    assert len(scan) == 1
    fam = latin_family_search(z2z2, 2)
    assert isinstance(fam, LatinFamily)
    assert fam.members[0] == z2z2.identity
    assert fam.members[1] == scan[0]


def test_dihedral_family_is_rotation_subgroup(d4):
    fam = latin_family_search(d4, 4)
    assert isinstance(fam, LatinFamily)
    rot = Perm.from_cycles(4, [(1, 2, 3, 4)])
    assert set(fam.members) == {d4.identity, rot, rot * rot, rot * rot * rot}


def test_sparse_square_symbols_once_per_block(z3, klein4, d4):
    for group, size in ((z3, 3), (klein4, 4), (d4, 4)):
        fam = latin_family_search(group, size)
        sq = SparseLatinSquare.from_family(fam)
        blocks = orbits_from_source(group).blocks
        for block in blocks:
            idx = [p - 1 for p in block]
            for i in idx:
                row = [sq.cells[i][j] for j in idx if sq.cells[i][j] is not None]
                assert sorted(row) == list(range(1, size + 1))
            for j in idx:
                col = [sq.cells[i][j] for i in idx if sq.cells[i][j] is not None]
                assert sorted(col) == list(range(1, size + 1))


def test_family_validity_is_left_translation_invariant(z3, klein4, d4):
    for group, size in ((z3, 3), (klein4, 4), (d4, 4)):
        fam = latin_family_search(group, size)
        for g in group.elements:
            shifted = tuple(g * s for s in fam.members)
            assert is_valid_family(group, size, shifted), (group.degree, g)
    # exhaustively over all member tuples for the small groups
    for group, size in ((z3, 3), (klein4, 4)):
        elements = list(group.elements)
        for members in itertools.product(elements, repeat=size):
            base = is_valid_family(group, size, members)
            for g in elements:
                shifted = tuple(g * s for s in members)
                assert is_valid_family(group, size, shifted) is base


def test_family_models_always_certify(z3, klein4, d4):
    for group, size in ((z3, 3), (klein4, 4), (d4, 4)):
        fam = latin_family_search(group, size)
        model = classical_model_from_family(group, fam)
        assert model.n == group.degree
        assert model.n_points == group.order
        assert verify_magic(model).passed
        assert quasi_flat_check(model, orbits_from_source(group)).passed
        st = stationarity_check(group, model, word_len=2)
        assert st.passed, st.witnesses[:3]
        assert convolution_idempotency(
            StateOnWords.from_model(model, 2)).passed


def test_single_fiber_controls_break_certification(d4):
    fam = latin_family_search(d4, 4)
    model = classical_model_from_family(d4, fam)
    ident_idx = list(d4.elements).index(d4.identity)
    bad = single_fiber(model, ident_idx)
    st = stationarity_check(d4, bad, word_len=2)
    assert not st.passed
    w = st.witnesses[0]
    assert w["word"] == "u[1,1] u[2,2]"
    assert w["model"] == "1/4" and w["reference"] == "1/8"
    refl_idx = next(i for i, x in enumerate(d4.elements)
                    if x not in fam.members)
    bad2 = single_fiber(model, refl_idx)
    assert not stationarity_check(d4, bad2, word_len=2).passed
    conv = convolution_idempotency(StateOnWords.from_model(bad2, 2))
    assert not conv.passed


def test_uniform_certificates_positive():
    z2z2 = pg(4, [(1, 2)], [(3, 4)])
    cert = uniform_check(z2z2, [Perm.from_cycles(4, [(1, 2)]),
                                Perm.from_cycles(4, [(3, 4)])])
    assert cert.passed
    assert cert.details["order"] == 2 and cert.details["count"] == 2
    # Condition 4 extends the swap over the group the marked set generates,
    # whatever generators the group was built from.
    marked = [Perm.from_cycles(3, [(1, 2)]), Perm.from_cycles(3, [(1, 3)])]
    for s3 in (pg(3, [(1, 2)], [(1, 3)]), pg(3, [(1, 2)], [(1, 2, 3)])):
        cert3 = uniform_check(s3, marked)
        assert cert3.passed and cert3.details["order"] == 2
        assert cert3.details["abelian_factors"] == (2,)


def test_uniform_certificate_negative_swap_obstruction():
    s3z2 = pg(5, [(1, 2)], [(1, 3)], [(4, 5)])
    assert s3z2.order == 12
    cert = uniform_check(s3z2, [Perm.from_cycles(5, [(1, 2)]),
                                Perm.from_cycles(5, [(1, 3)]),
                                Perm.from_cycles(5, [(4, 5)])])
    assert not cert.passed
    assert cert.details["conditions"] == {1: True, 2: True, 3: True, 4: False}
    assert cert.details["first_failing"] == 4
    assert cert.witnesses == ({"condition": 4, "pair": (1, 3)},)


def test_uniform_witnesses_of_conditions_1_and_2():
    s3 = pg(3, [(1, 2)], [(1, 2, 3)])
    t, r = Perm.from_cycles(3, [(1, 2)]), Perm.from_cycles(3, [(1, 2, 3)])
    cert = uniform_check(s3, [t])
    assert cert.witnesses == ({"condition": 1, "generated_order": 2, "group_order": 6},)
    assert cert.details["first_failing"] == 1
    cert = uniform_check(s3, [t, r])
    assert cert.witnesses == ({"condition": 2, "orders": [2, 3]},
                              {"condition": 4, "pair": (1, 2)})
    assert cert.details["conditions"] == {1: True, 2: False, 3: True, 4: False}


def test_uniform_witness_of_condition_3_on_a_marked_set_unlike_the_generators():
    # Z6 built from g, marked with g^2 and g^3: condition 4 works on a
    # marked set of another length than the group's generator list.
    g = Perm.from_cycles(6, [(1, 2, 3, 4, 5, 6)])
    cert = uniform_check(pg(6, [(1, 2, 3, 4, 5, 6)]), [g * g, g * g * g])
    assert cert.witnesses == (
        {"condition": 2, "orders": [3, 2]},
        {"condition": 3, "well_defined": False, "image_subgroup_order": 6,
         "abelianization_order": 6},
        {"condition": 4, "pair": (1, 2)},
    )
    assert cert.details["conditions"] == {1: True, 2: False, 3: False, 4: False}


def test_trace_vector_values():
    t1 = trace_vector_check(CMatrix.exact([[1, 0], [0, -1]]), 2)
    assert t1.passed and t1.details["trace"] == (2, 0) and t1.witnesses == ()
    t2 = trace_vector_check(CMatrix.identity(2), 2)
    assert not t2.passed and t2.details["trace"] == (2, 2)
    assert t2.witnesses == ({"power": 1, "trace": "2"},)
    shift3 = CMatrix.exact([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    t3 = trace_vector_check(shift3, 3)
    assert t3.passed and t3.details["multiplicities"] == (1, 1, 1)


def test_trace_vector_agrees_with_multiplicities_exhaustively():
    for k in (2, 3):
        for exps in itertools.product(range(k), repeat=k):
            u = CMatrix.exact([[zeta(k, exps[i]) if i == j else 0
                                for j in range(k)] for i in range(k)])
            rep = trace_vector_check(u, k)
            mults = spectral_multiplicities(u, k)
            assert rep.passed is all(m == 1 for m in mults), exps
            assert rep.details["multiplicities"] == mults


def test_trace_vector_agrees_with_multiplicities_float():
    np = pytest.importorskip("numpy")
    rng = np.random.RandomState(7)
    for k in (2, 3, 4):
        for _ in range(20):
            exps = rng.randint(0, k, size=k)
            diag = np.diag([np.exp(2j * np.pi * e / k) for e in exps])
            q, _ = np.linalg.qr(rng.randn(k, k) + 1j * rng.randn(k, k))
            arr = q @ diag @ q.conj().T
            u = CMatrix.floating([[complex(arr[i, j]) for j in range(k)]
                                  for i in range(k)])
            rep = trace_vector_check(u, k, tol=1e-8)
            mults = spectral_multiplicities(u, k, tol=1e-8)
            assert rep.passed is all(m == 1 for m in mults)


def test_dual_flat_certificates():
    swap = CMatrix.exact([[0, 1], [1, 0]])
    r13 = CMatrix.exact([[0, zeta(3, 2)], [zeta(3, 1), 0]])
    assert quasiflat_dual_check([[swap], [r13]], 2).passed
    bad = quasiflat_dual_check([[swap], [CMatrix.identity(2)]], 2)
    assert not bad.passed
    assert bad.witnesses[0]["generator"] == 2
    zreg = CMatrix.exact([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert quasiflat_dual_check([[zreg, zreg]], 3).passed


def test_rejects_invalid_family_and_non_quasi_transitive(z3):
    with pytest.raises(InvalidFamily):
        LatinFamily(z3, 2, (z3.identity, z3.identity))
    with pytest.raises(NotQuasiTransitive):
        latin_family_search(pg(3, [(1, 2)]), 2)


def test_trace_vector_multiplicities_match_spectral_multiplicities():
    """The multiplicities trace_vector_check derives from its own power
    traces equal spectral_multiplicities, on every criterion-7 exact pattern
    and on seeded random conjugates."""
    np = pytest.importorskip("numpy")
    from magicmodels.acceptance import _pattern_entries
    for k in range(1, 7):
        for mask in range(2 ** k):
            bits = [(mask >> j) & 1 for j in range(k)]
            u = CMatrix.diagonal(_pattern_entries(k, bits))
            assert trace_vector_check(u, k).details["multiplicities"] == \
                spectral_multiplicities(u, k), (k, bits)
    rng = np.random.RandomState(11)
    for k in (2, 3, 5):
        for _ in range(5):
            exps = rng.randint(0, k, size=k)
            diag = np.diag([np.exp(2j * np.pi * e / k) for e in exps])
            q, _ = np.linalg.qr(rng.randn(k, k) + 1j * rng.randn(k, k))
            arr = q @ diag @ q.conj().T
            u = CMatrix.floating([[complex(arr[i, j]) for j in range(k)]
                                  for i in range(k)])
            assert trace_vector_check(u, k, tol=1e-8).details["multiplicities"] == \
                spectral_multiplicities(u, k, tol=1e-8), (k, exps)


def test_trace_vector_precondition_order():
    with pytest.raises(ShapeMismatch, match="^need a 2 x 2 matrix for order 2$"):
        trace_vector_check(CMatrix.identity(3), 2)
    with pytest.raises(NotUnitary, match="^matrix is not unitary$"):
        trace_vector_check(CMatrix.exact([[1, 0, 0], [0, 1, 0]]), 2)
    with pytest.raises(NotUnitary, match="^matrix is not unitary$"):
        trace_vector_check(CMatrix.exact([[1, 1], [0, 1]]), 2)
    with pytest.raises(NotFiniteOrder, match=r"^matrix does not satisfy U\^2 = 1$"):
        trace_vector_check(CMatrix.diagonal([1, zeta(4)]), 2)
