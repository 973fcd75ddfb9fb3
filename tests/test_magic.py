"""Magic-unitary models: construction, verification, states, and flatness."""
import hashlib
import itertools
import sys
from collections import deque
from fractions import Fraction

import pytest

from conftest import pg
from magicmodels.cyclotomic import Cyc, zeta
from magicmodels import magic
from magicmodels.errors import (
    BadArgument,
    Inconsistent,
    ModeMismatch,
    NotFiniteOrder,
    NotQuasiTransitive,
    NotUnitary,
    ShapeMismatch,
)
from magicmodels.group_algebra import _regular_matrix
from magicmodels.groups import FinAbelian, Perm, PermGroup
from magicmodels.magic import (
    DualWordReference,
    FiberModel,
    StateOnWords,
    bichon_build,
    block_projection,
    convolution_idempotency,
    dual_group_stationarity,
    fixed_point_matrix,
    orbits_from_source,
    quasi_flat_check,
    regular_rep,
    shortest_difference,
    single_fiber,
    stationarity_check,
    verify_magic,
)
from magicmodels.matrices import (
    CMatrix,
    _enlarges_span,
    scalar_is_zero,
    scalars_equal,
    spectral_projection,
)
from magicmodels.quasiflat import classical_model_from_family, latin_family_search
from magicmodels.serialize import check_to_json, render_json

F = Fraction


def flat_fiber(group, family, x):
    """Permutation-matrix fiber grid of the translation model at point x."""
    n = group.degree
    ids = [[None] * n for _ in range(n)]
    for j in range(1, n + 1):
        for k, s in enumerate(family):
            i = s(x(j))
            ids[i - 1][j - 1] = k
    zero = CMatrix.zeros(n, n)
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            k = ids[i][j]
            if k is None:
                grid[i][j] = zero
            else:
                rows = [[1 if (a == b == k) else 0 for b in range(n)]
                        for a in range(n)]
                grid[i][j] = CMatrix.exact(rows)
    return grid


def translation_model(group, family):
    grids = [flat_fiber(group, family, x) for x in group.elements]
    n = group.degree
    npts = len(grids)
    return FiberModel(
        n, n, [str(x) for x in group.elements],
        [F(1, npts)] * npts,
        [[tuple(g[i][j] for g in grids) for j in range(n)] for i in range(n)],
    )


@pytest.fixture(scope="module")
def m2():
    return bichon_build([2], [CMatrix.exact([[0, 1], [1, 0]])])


def test_order_two_block_entries_exact(m2):
    p = CMatrix.exact([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    q = CMatrix.exact([[F(1, 2), F(-1, 2)], [F(-1, 2), F(1, 2)]])
    assert m2.entry(0, 0)[0] == p
    assert m2.entry(0, 1)[0] == q
    assert m2.entry(1, 0)[0] == q
    assert m2.entry(1, 1)[0] == p
    assert verify_magic(m2).passed


def test_magic_rows_sum_to_identity_with_unit_traces(m2):
    for model in (m2, bichon_build([3], [CMatrix.exact(
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]])])):
        n, dim = model.n, model.dim
        for a in range(model.n_points):
            for i in range(n):
                row = model.entries[i][0][a]
                for j in range(1, n):
                    row = row + model.entries[i][j][a]
                assert row == CMatrix.identity(dim)
            total = sum(model.entries[i][j][a].ntrace() for i in range(n)
                        for j in range(n))
            assert total == n


def test_verify_magic_flags_non_projection_entry(m2):
    half_i = CMatrix.exact([[F(1, 2), 0], [0, F(1, 2)]])
    broken = FiberModel(2, 2, ("pt",), (F(1),), [
        [(half_i,), (m2.entry(0, 1)[0],)],
        [(m2.entry(1, 0)[0],), (m2.entry(1, 1)[0],)],
    ])
    rep = verify_magic(broken)
    assert not rep.passed
    assert any(w["kind"] == "not_projection" and w["row"] == 1 and w["col"] == 1
               for w in rep.witnesses)


def test_quasi_flat_for_dual_block_sizes(m2):
    orb = orbits_from_source([2])
    assert orb.blocks == ((1, 2),)
    assert quasi_flat_check(m2, orb).passed


def test_cyclic_shift_block_is_circulant_rank_one():
    u3 = CMatrix.exact([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    m3 = bichon_build([3], [u3])
    assert verify_magic(m3).passed
    for i in range(3):
        for j in range(3):
            assert m3.entry(i, j)[0].rank() == 1
            assert m3.entry(i, j)[0] == m3.entry(0, (j - i) % 3)[0]


def test_two_block_model_orbits_and_dual_stationarity():
    klein = FinAbelian([2, 2])
    reg = regular_rep(klein)
    m22 = bichon_build([2, 2], [reg[(1, 0)], reg[(0, 1)]])
    assert verify_magic(m22).passed
    orb = orbits_from_source(m22)
    assert orb.blocks == ((1, 2), (3, 4))
    assert orb.lower_bound
    assert orbits_from_source([2, 2]).blocks == ((1, 2), (3, 4))
    assert dual_group_stationarity(klein, reg).passed


def test_dual_reference_stationarity_order_two(m2):
    ref = DualWordReference.from_block_generators(FinAbelian([2]), [((1,), 2)])
    st = stationarity_check(ref, m2, word_len=3)
    assert st.passed, st.witnesses[:2]


# -- group-algebra oracles for a dual's reference -----------------------------

def group_algebra_product(group, a, b):
    """The product of two group-algebra elements, dicts from group elements
    to nonzero coefficients, by convolution; zero coefficients are dropped."""
    out = {}
    for g, x in a.items():
        for h, y in b.items():
            k = group.mul(g, h)
            out[k] = out.get(k, 0) + x * y
    return {g: c for g, c in out.items() if not scalar_is_zero(c)}


def k_squared_dual_coords(group, gens_with_orders):
    """Dual coordinates with one Fourier sum per block entry (r, c), as
    group-algebra elements."""
    coords, offset = {}, 0
    n = sum(k for _, k in gens_with_orders)
    for i in range(n):
        for j in range(n):
            coords[(i, j)] = {}
    for g, k in gens_with_orders:
        powers = [group.identity]
        for _ in range(k - 1):
            powers.append(group.mul(powers[-1], g))
        for r in range(k):
            for c in range(k):
                coeffs = {}
                for a in range(k):
                    w = zeta(k, ((c - r) * a) % k) * Fraction(1, k)
                    coeffs[powers[a]] = coeffs.get(powers[a], 0) + w
                coords[(offset + r, offset + c)] = {
                    h: w for h, w in coeffs.items() if not scalar_is_zero(w)}
        offset += k
    return coords


class Dual:
    """A group dual two ways: its coordinates as group-algebra elements,
    whose Haar state is the identity coefficient of their product, for the
    oracles, and the library's reference, its block model."""

    def __init__(self, group, gens_with_orders):
        self.group = group
        self.coords = k_squared_dual_coords(group, gens_with_orders)
        self.reference = DualWordReference.from_block_generators(group, gens_with_orders)
        self.n = self.reference.n

    def haar(self, word):
        """The identity coefficient of the product of the word's coordinates."""
        acc = {self.group.identity: 1}
        for letter in word:
            acc = group_algebra_product(self.group, acc, self.coords[letter])
        return acc.get(self.group.identity, 0)


def block_model_and_dual(factors):
    """The block model of a finite abelian group's regular representation
    and the group's dual."""
    group = FinAbelian(factors)
    reg = regular_rep(group)
    gens = [(group.generator(i), k) for i, k in enumerate(factors)]
    return bichon_build(factors, [reg[g] for g, _ in gens]), Dual(group, gens)


def block_model_and_reference(factors):
    """The block model of a finite abelian group's regular representation
    and the dual reference of that group."""
    model, dual = block_model_and_dual(factors)
    return model, dual.reference


def library_reference(reference):
    """What the library reads for a reference: a permutation group, or a
    dual's block model."""
    return reference.reference if isinstance(reference, Dual) else reference


def haar_word_classical(group, word):
    """Haar integral of u_{i1 j1} ... u_{im jm} over a permutation group:
    the share of elements with sigma(j_a) = i_a for all a."""
    kept = sum(all(g(j) == i for i, j in word) for g in group.elements)
    return F(kept, group.order)


@pytest.mark.parametrize("factors", [[2, 2], [4]])
def test_float_stationarity_against_dual_reference(factors):
    """Float words of a block model compare with the exact Cyc values of its
    dual reference, and check as many words as the exact run."""
    model, ref = block_model_and_reference(factors)
    exact = stationarity_check(ref, model, word_len=3)
    assert exact.passed and exact.checked == 4369
    approx = stationarity_check(ref, model.to_float(), word_len=3, tol=1e-9)
    assert approx.passed and approx.checked == exact.checked


@pytest.fixture(scope="module")
def m4():
    r4 = CMatrix.exact([[0, 0, 0, 1], [1, 0, 0, 0],
                        [0, 1, 0, 0], [0, 0, 1, 0]])
    return bichon_build([4], [r4])


def test_dual_reference_state_matches_model_state(m4):
    ref = Dual(FinAbelian([4]), [((1,), 4)])
    s_model = StateOnWords.from_model(m4, 2)
    s_dual = dense_reference_table(ref, 4, 2)
    assert len(s_dual) == len(s_model.table) == 273
    for w in words_up_to(4, 2):
        assert scalars_equal(s_model.table[w], s_dual[w]), w


def test_classical_cyclic_reference_accepts_rotation_model(m4):
    c4 = pg(4, [(1, 2, 3, 4)])
    st = stationarity_check(c4, m4, word_len=2)
    assert st.passed
    assert st.details.get("single_point_flatness") is True


def test_haar_word_values_on_symmetric_group(s3):
    """The oracle and the state of the permutation model of S3."""
    table = StateOnWords.from_model(magic._reference_model(s3, 3), 2).table
    for word, want in (([(1, 1)], F(1, 3)), ([(1, 1), (2, 2)], F(1, 6)),
                       ([(1, 1), (2, 1)], 0)):
        assert haar_word_classical(s3, word) == want
        assert table[tuple((i - 1, j - 1) for i, j in word)] == want


def test_fixed_point_matrix_transitive_groups(d4):
    c4 = pg(4, [(1, 2, 3, 4)])
    s4 = pg(4, [(1, 2)], [(1, 2, 3, 4)])
    j4 = CMatrix.exact([[F(1, 4)] * 4 for _ in range(4)])
    for g in (c4, d4, s4):
        q, rep = fixed_point_matrix(g)
        assert rep.passed
        assert q == j4


def test_fixed_point_matrix_orbit_blocks(klein6):
    q, rep = fixed_point_matrix(klein6)
    assert rep.passed
    assert q == block_projection(orbits_from_source(klein6), 6)


def test_dual_stationarity_witness_of_the_identity_representation():
    z2 = FinAbelian([2])
    rep = dual_group_stationarity(z2, {g: CMatrix.identity(1) for g in z2.elements})
    assert not rep.passed and rep.checked == 2
    assert rep.witnesses == ({"element": "(1,)", "value": "1", "expected": 0},)


def test_fixed_point_matrix_witnesses():
    # One point: Q = [[1/2]] from a rank-one 2 x 2 fiber, and Q = diag(1, 0).
    half = FiberModel(1, 2, ["a"], [1], [[[CMatrix.exact([[1, 0], [0, 0]])]]])
    q, rep = fixed_point_matrix(half)
    assert q == CMatrix.exact([[F(1, 2)]])
    assert rep.witnesses == ({"kind": "not_projection"}, {"kind": "ones_not_fixed"})
    one, zero = CMatrix.exact([[1]]), CMatrix.exact([[0]])
    corner = FiberModel(2, 1, ["a"], [1], [[[one], [zero]], [[zero], [zero]]])
    q, rep = fixed_point_matrix(corner)
    assert q == CMatrix.exact([[1, 0], [0, 0]])
    assert rep.witnesses == ({"kind": "ones_not_fixed"},)


def test_fixed_point_matrix_from_model(m2):
    q, rep = fixed_point_matrix(m2)
    assert rep.passed
    assert q == CMatrix.exact([[F(1, 2)] * 2] * 2)


def test_translation_model_certifies(klein4):
    fam = list(klein4.elements)
    assert len(fam) == 4
    model = translation_model(klein4, fam)
    assert verify_magic(model).passed
    assert quasi_flat_check(model, orbits_from_source(klein4)).passed
    st = stationarity_check(klein4, model, word_len=2)
    assert st.passed, st.witnesses[:3]
    assert convolution_idempotency(StateOnWords.from_model(model, 2)).passed


@pytest.fixture(scope="module")
def rotation_model():
    d4 = pg(4, [(1, 2, 3, 4)], [(1, 3)])
    rot = [d4.identity]
    r = Perm.from_cycles(4, [(1, 2, 3, 4)])
    for _ in range(3):
        rot.append(rot[-1] * r)
    return d4, rot, translation_model(d4, rot)


def test_averaged_rotation_model_is_stationary(rotation_model):
    d4, _, model = rotation_model
    assert verify_magic(model).passed
    st = stationarity_check(d4, model, word_len=2)
    assert st.passed, st.witnesses[:3]


def test_identity_fiber_not_stationary_but_idempotent(rotation_model):
    d4, _, model = rotation_model
    idx = list(d4.elements).index(d4.identity)
    fib = single_fiber(model, idx)
    st = stationarity_check(d4, fib, word_len=2)
    assert not st.passed
    w = st.witnesses[0]
    assert w["word"] == "u[1,1] u[2,2]"
    assert w["model"] == "1/4" and w["reference"] == "1/8"
    assert convolution_idempotency(StateOnWords.from_model(fib, 2)).passed


def test_reflection_fiber_fails_idempotency(rotation_model):
    d4, rot, model = rotation_model
    idx = next(i for i, x in enumerate(d4.elements) if x not in rot)
    fib = single_fiber(model, idx)
    assert not stationarity_check(d4, fib, word_len=2).passed
    conv = convolution_idempotency(StateOnWords.from_model(fib, 2))
    assert not conv.passed
    w = conv.witnesses[0]
    assert w["word"] == "u[1,1] u[2,2]" and w["convolution"] == "1/4"


def test_group_state_is_idempotent(s3):
    """The Haar state of S3, read off its permutation model."""
    permutation_model = magic._reference_model(s3, 3)
    assert convolution_idempotency(StateOnWords.from_model(permutation_model, 2)).passed


def test_stationary_state_is_idempotent(m2, m4):
    for model in (m2, m4):
        assert convolution_idempotency(
            StateOnWords.from_model(model, 2)).passed


def test_quasi_flat_rejects_full_rank_entry():
    i2 = CMatrix.identity(2)
    z = CMatrix.zeros(2, 2)
    idmodel = FiberModel(2, 2, ("pt",), (F(1),),
                         [[(i2,), (z,)], [(z,), (i2,)]])
    qf = quasi_flat_check(idmodel, orbits_from_source([2]))
    assert not qf.passed
    assert qf.witnesses[0]["rank"] == 2


def test_orbit_source_rejects_non_group_input():
    with pytest.raises((TypeError, NotQuasiTransitive, ShapeMismatch,
                        ValueError)):
        orbits_from_source("nonsense")


# -- the pruned word-state table against the full recursion ------------------

def words_up_to(n, bound):
    """Every word of 0-based letters up to the bound, length-major and
    lexicographic."""
    letters = [(i, j) for i in range(n) for j in range(n)]
    return [w for m in range(bound + 1) for w in itertools.product(letters, repeat=m)]


def reference_words(reference, n):
    """The word automaton of a reference's Haar state: that of its
    stationary model."""
    return magic._ModelWords(magic._reference_model(library_reference(reference), n))


def dense_reference_table(reference, n, bound):
    """Reference Haar-state table by recursing through every word, dead
    prefixes included: the share of group elements g with g(j) = i for every
    letter (i, j), or the identity coefficient of the product of a Dual's
    group-algebra coordinates."""
    table = {}
    classical = isinstance(reference, PermGroup)
    identity = None if classical else reference.group.identity

    def rec(word, state):
        table[word] = F(len(state), reference.order) if classical else state.get(identity, 0)
        if len(word) < bound:
            for i in range(n):
                for j in range(n):
                    if classical:
                        nxt = [g for g in state if g(j + 1) == i + 1]
                    else:
                        nxt = group_algebra_product(reference.group, state,
                                                    reference.coords[(i, j)])
                    rec(word + ((i, j),), nxt)

    rec((), list(reference.elements) if classical else {identity: 1})
    return table


def dense_differing(reference, model, bound, tol=None):
    """(word, model value, reference value) on which the two dense tables
    differ, length-major."""
    ref = dense_reference_table(reference, model.n, bound)
    state = dense_state_table(model, bound)
    assert len(ref) == len(state)
    return [(w, state[w], ref[w]) for w in words_up_to(model.n, bound)
            if not scalars_equal(ref[w], state[w], tol)]


def assert_walk_matches_dense(reference, model, bound, tol=None):
    """The joint walk's words, values and value types, and the check's
    witnesses and count, against the dense tables; returns the report."""
    want = dense_differing(reference, model, bound, tol)
    got = magic._differing_words(magic._ModelWords(model),
                                 reference_words(reference, model.n),
                                 model.n, bound, tol)
    typed = [(w, type(a), repr(a), type(b), repr(b)) for w, a, b in got]
    assert typed == [(w, type(a), repr(a), type(b), repr(b)) for w, a, b in want]
    report = stationarity_check(library_reference(reference), model, bound, tol)
    assert list(report.witnesses) == [
        {"word": " ".join(f"u[{i + 1},{j + 1}]" for i, j in w) or "1",
         "reference": str(b), "model": str(a)} for w, a, b in want]
    assert report.passed == (not want)
    assert report.checked == len(words_up_to(model.n, bound))
    return report


def dense_state_table(model, bound):
    """Word-state table by recursing through every word, dead prefixes included."""
    table = {}

    def value_of(prods):
        total = None
        for w, p in zip(model.weights, prods):
            if p is None:
                continue
            t = p.ntrace()
            term = t * w if model.mode == "exact" else t * complex(w)
            total = term if total is None else total + term
        if total is None:
            return 0 if model.mode == "exact" else 0j
        return total

    def rec(word, prods):
        table[word] = value_of(prods)
        if len(word) == bound:
            return
        for i in range(model.n):
            for j in range(model.n):
                nxt = []
                for p, f in zip(prods, model.entries[i][j]):
                    q = None if p is None or f.is_zero() else p * f
                    nxt.append(None if q is None or q.is_zero() else q)
                rec(word + ((i, j),), nxt)

    rec((), [CMatrix.identity(model.dim, model.mode)] * model.n_points)
    return table


@pytest.fixture(scope="module")
def family_models():
    """A stationary family model over Z3 and the failing identity-fiber
    collapse of a D4 family model, with their groups."""
    z3 = pg(3, [(1, 2, 3)])
    d4 = pg(4, [(1, 2, 3, 4)], [(1, 3)])
    stationary = classical_model_from_family(z3, latin_family_search(z3, 3))
    d4_model = classical_model_from_family(d4, latin_family_search(d4, 4))
    failing = single_fiber(d4_model, list(d4.elements).index(d4.identity))
    return (z3, stationary), (d4, failing)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_pruned_state_table_matches_full_recursion(family_models, mode):
    bound = 3
    for _, model in family_models:
        if mode == "float":
            model = model.to_float()
        got = StateOnWords.from_model(model, bound).table
        want = dense_state_table(model, bound)
        assert len(got) == sum((model.n ** 2) ** m for m in range(bound + 1))
        assert list(got) == list(want)
        assert [(type(v), repr(v)) for v in got.values()] == \
            [(type(v), repr(v)) for v in want.values()]


def test_failing_model_witnesses_match_full_recursion(d4_s4_models):
    """Witnesses, values and value types of the joint walk, and the check's
    witnesses, on every single fiber of the D4 and S4 family models at length
    3, in both modes."""
    for group, model in d4_s4_models:
        for tol in (None, 1e-9):
            failing = 0
            for x in range(model.n_points):
                fiber = single_fiber(model, x)
                if tol is not None:
                    fiber = fiber.to_float()
                failing += not assert_walk_matches_dense(group, fiber, 3, tol).passed
            assert failing


# -- one spectral kernel: block entries, dual coordinates, integrated traces ---

@pytest.mark.parametrize("sizes", [[2], [3], [2, 2], [8], [3, 4]])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_bichon_blocks_are_spectral_projections(sizes, mode):
    group = FinAbelian(sizes)
    reg = regular_rep(group)
    gens = [reg[group.generator(i)] for i in range(len(sizes))]
    if mode == "float":
        gens = [u.to_float() for u in gens]
    model = bichon_build(sizes, gens)
    assert verify_magic(model).passed
    offset = 0
    for k, u in zip(sizes, gens):
        projections = [spectral_projection(u, k, d) for d in range(k)]
        for r in range(k):
            for c in range(k):
                got = model.entry(offset + r, offset + c)[0]
                assert repr(got) == repr(projections[(r - c) % k]), (sizes, r, c)
        offset += k


def test_bichon_build_precondition_messages():
    with pytest.raises(NotUnitary, match="^generator is not unitary$"):
        bichon_build([2], [CMatrix.exact([[1, 1], [0, 1]])])
    with pytest.raises(NotFiniteOrder, match=r"^generator does not satisfy U\^2 = 1$"):
        bichon_build([2], [CMatrix.diagonal([1, zeta(4)])])


def _half_moved(fourier_sum, powers, d):
    """Moves half of P_1 onto P_0: the sum stays 1, P_1 / 2 is no projection."""
    if d > 1:
        return fourier_sum(powers, d)
    half = fourier_sum(powers, 1).scale(Fraction(1, 2))
    return fourier_sum(powers, 0) + half if d == 0 else half


def _dropped(fourier_sum, powers, d):
    """Replaces P_1 by the zero projection: the sum is not 1."""
    p = fourier_sum(powers, d)
    return CMatrix.zeros(p.rows, p.cols) if d == 1 else p


@pytest.mark.parametrize("broken", [_half_moved, _dropped])
def test_bichon_build_rejects_a_non_magic_block(monkeypatch, broken):
    fourier_sum = magic._fourier_sum
    monkeypatch.setattr(magic, "_fourier_sum",
                        lambda powers, d: broken(fourier_sum, powers, d))
    reg = regular_rep(FinAbelian([3]))
    with pytest.raises(Inconsistent, match="^constructed block model is not magic$"):
        bichon_build([3], [reg[(1,)]])


@pytest.mark.parametrize("factors, gens", [
    ([2, 2], [((1, 0), 2), ((0, 1), 2)]),
    ([4], [((1,), 4)]),
])
def test_dual_reference_matches_k_squared_construction(factors, gens):
    """Each fiber of the dual's block model is, by value, the regular matrix
    of its coordinate, summed as one group-algebra element per entry."""
    group = FinAbelian(factors)
    ref = DualWordReference.from_block_generators(group, gens)
    want = k_squared_dual_coords(group, gens)
    assert (ref.n, ref.dim, ref.weights) == (sum(factors), group.order, (1,))
    for (i, j), coeffs in want.items():
        assert ref.entry(i, j) == (_regular_matrix(group, coeffs),), (i, j)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_fixed_point_matrix_sums_weighted_traces_in_point_order(family_models, mode):
    (_, model), _ = family_models
    if mode == "float":
        model = model.to_float()
    q, report = fixed_point_matrix(model)
    assert report.passed
    for i in range(model.n):
        for j in range(model.n):
            total = None
            for w, f in zip(model.weights, model.entry(i, j)):
                term = f.ntrace() * (w if mode == "exact" else complex(w))
                total = term if total is None else total + term
            assert (type(q.entry(i, j)), repr(q.entry(i, j))) == (type(total), repr(total))


# -- exact stationarity by automaton equivalence --------------------------------

@pytest.fixture(scope="module")
def d4_s4_models():
    """The D4 and S4 family models of criterion 3's search, with their groups."""
    d4 = pg(4, [(1, 2, 3, 4)], [(1, 3)])
    s4 = pg(4, [(1, 2)], [(1, 2, 3, 4)])
    return [(g, classical_model_from_family(g, latin_family_search(g, 4)))
            for g in (d4, s4)]


def test_automaton_certifies_family_and_block_models_at_all_lengths(d4_s4_models):
    for group, model in d4_s4_models:
        assert shortest_difference(group, model) is None
    for factors in ([2, 2], [4]):
        model, ref = block_model_and_reference(factors)
        assert shortest_difference(ref, model) is None


def bounded_failing_words(group, model, bound):
    """The words up to the bound on which the two dense tables differ, in
    length-major order."""
    return [w for w, _, _ in dense_differing(group, model, bound)]


@pytest.mark.parametrize("which", [0, 1], ids=["D4", "S4"])
def test_automaton_witness_is_a_shortest_bounded_witness(d4_s4_models, which):
    group, model = d4_s4_models[which]
    for x in range(model.n_points):
        fiber = single_fiber(model, x)
        shortest = shortest_difference(group, fiber)
        failing = bounded_failing_words(group, fiber, 3)
        assert (shortest is None) == (not failing), x
        if shortest is not None:
            assert len(shortest) == len(failing[0]) and shortest in failing, x
        report = stationarity_check(group, fiber, word_len=3)
        assert report.passed == (not failing)
        assert [w["word"] for w in report.witnesses] == [
            " ".join(f"u[{i + 1},{j + 1}]" for i, j in w) for w in failing]
    if which == 0:
        ident = single_fiber(model, list(group.elements).index(group.identity))
        assert shortest_difference(group, ident) == ((0, 0), (1, 1))
        assert stationarity_check(group, ident, word_len=2).witnesses[0]["word"] == \
            "u[1,1] u[2,2]"


@pytest.mark.parametrize("planted", [((0, 0),), ((0, 0), (1, 1), (2, 2))])
def test_automaton_and_tables_disagreeing_raise(d4_s4_models, monkeypatch, planted):
    """A witness the tables do not confirm, on a failing fiber (first bounded
    witness of length 2) and on a passing model, raises Inconsistent."""
    group, model = d4_s4_models[0]
    ident = single_fiber(model, list(group.elements).index(group.identity))
    monkeypatch.setattr(magic, "_first_difference", lambda *args: planted)
    for m in (ident, model):
        with pytest.raises(Inconsistent, match="automaton search and the word tables"):
            stationarity_check(group, m, word_len=3)


def test_exact_stationarity_builds_no_table_when_the_states_agree(d4_s4_models, monkeypatch):
    def refuse(*args):
        raise RuntimeError("word table built")

    monkeypatch.setattr(StateOnWords, "from_model", classmethod(refuse))
    monkeypatch.setattr(magic, "_differing_words", refuse)
    group, model = d4_s4_models[0]
    report = stationarity_check(group, model, word_len=4)
    assert report.passed and report.checked == 69905 and not report.witnesses
    block, ref = block_model_and_reference([2, 2])
    report = stationarity_check(ref, block, word_len=3)
    assert report.passed and report.checked == 4369
    with pytest.raises(RuntimeError, match="word table built"):
        stationarity_check(group, model.to_float(), word_len=2)
    with pytest.raises(RuntimeError, match="word table built"):
        stationarity_check(ref, block.to_float(), word_len=2)


# -- the joint walk and the reference states against their dense recursions ----

@pytest.mark.parametrize("factors", [[2, 2], [4]])
def test_dual_table_matches_unpruned_recursion(factors, monkeypatch):
    """The state of the dual's block model on every word against the
    unpruned group-algebra recursion; the walk of a float check takes each
    matrix product of its two models once, 80 on Z2xZ2 and 52 on Z4, where
    the recursion takes 4,368 group-algebra products."""
    model, dual = block_model_and_dual(factors)
    want = dense_reference_table(dual, dual.n, 3)
    words = words_up_to(dual.n, 3)
    assert len(words) == len(want) == 4369
    got = StateOnWords.from_model(dual.reference, 3).table
    assert all(scalars_equal(got[w], want[w]) for w in words)
    assert [str(got[w]) for w in words] == [str(want[w]) for w in words]
    calls = []
    mul = CMatrix.__mul__
    monkeypatch.setattr(CMatrix, "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    assert stationarity_check(dual.reference, model.to_float(), 3, tol=1e-9).passed
    assert 0 < len(calls) <= {(2, 2): 80, (4,): 52}[tuple(factors)]


def test_group_table_matches_haar_word_classical(d4):
    table = dense_reference_table(d4, 4, 3)
    assert len(table) == 4369
    for word, value in table.items():
        want = haar_word_classical(d4, [(i + 1, j + 1) for i, j in word])
        assert (type(value), value) == (type(want), want), word


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_walk_matches_dense_tables_on_block_models(mode):
    """Each block model against its own dual reference (passing) and against
    the other one (failing, 432 witnesses at length 3)."""
    tol = None if mode == "exact" else 1e-9
    (m22, r22), (m4, r4) = block_model_and_dual([2, 2]), block_model_and_dual([4])
    for model, ref, failing in ((m22, r22, 0), (m4, r4, 0), (m4, r22, 432), (m22, r4, 432)):
        if mode == "float":
            model = model.to_float()
        report = assert_walk_matches_dense(ref, model, 3, tol)
        assert len(report.witnesses) == failing


# sha256 of render_json(check_to_json(stationarity_check(ref, model, 3, tol)))
# for a block model against the other block model's dual reference, pinned
# when the witnesses still came from two word tables.
GOLDEN_DUAL_FAILURES = {
    ("Z4 model", "Z2xZ2 reference", "exact"):
        "35263eabb2275e88cce990ecc234012a674e6452c708dd626f3c3651fc804685",
    ("Z4 model", "Z2xZ2 reference", "float"):
        "289263cdeb0932d59babf49f44ac79b785548886209542844afc8379cfa09735",
    ("Z2xZ2 model", "Z4 reference", "exact"):
        "3e247bedefdcec73983319ca008e39d569c971fecd7e657147899fe34e2a9b20",
    ("Z2xZ2 model", "Z4 reference", "float"):
        "ebe14d3c51bb8f0b685aa0cf64243159fff68e970cdc41e0bd7da5747c2408be",
}


@pytest.mark.parametrize("case", list(GOLDEN_DUAL_FAILURES), ids=" ".join)
def test_dual_reference_failure_is_byte_identical(case):
    blocks = {"Z4": block_model_and_reference([4]), "Z2xZ2": block_model_and_reference([2, 2])}
    model = blocks[case[0].split()[0]][0]
    ref = blocks[case[1].split()[0]][1]
    tol = None
    if case[2] == "float":
        model, tol = model.to_float(), 1e-9
    report = stationarity_check(ref, model, 3, tol)
    assert len(report.witnesses) == 432 and report.witnesses[0]["word"] == "u[1,1]"
    out = render_json(check_to_json(report))
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DUAL_FAILURES[case]


# -- one reference type: a permutation group or an exact model -----------------

@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_model_reference_is_read_as_its_own_state(mode):
    """The Z4 block model against the Z2xZ2 block model built by bichon_build,
    as a plain model reference: the 432 witnesses, the report's bytes and the
    shortest word of the dual reference DualWordReference builds."""
    (m4, _), (m22, r22) = block_model_and_reference([4]), block_model_and_reference([2, 2])
    assert m22 is not r22
    assert shortest_difference(m22, m4) == shortest_difference(r22, m4) == ((0, 0),)
    model, tol = (m4, None) if mode == "exact" else (m4.to_float(), 1e-9)
    report = stationarity_check(m22, model, 3, tol)
    assert len(report.witnesses) == 432
    digest = hashlib.sha256(render_json(check_to_json(report)).encode()).hexdigest()
    assert digest == GOLDEN_DUAL_FAILURES[("Z4 model", "Z2xZ2 reference", mode)]


@pytest.mark.parametrize("check", [stationarity_check, shortest_difference])
def test_a_reference_model_of_another_size_is_refused(check, m2, m4):
    for reference, model in ((m2, m4), (m4, m2), (pg(4, [(1, 2, 3, 4)]), m2)):
        with pytest.raises(ShapeMismatch, match="does not match the model size$"):
            check(reference, model)


@pytest.mark.parametrize("check", [stationarity_check, shortest_difference])
def test_a_float_reference_model_is_refused(check, m4, monkeypatch):
    """Haar states are exact, so the span search never eliminates over the
    floats of a reference: it is refused before either automaton is built."""
    def refuse(*args):
        raise RuntimeError("automaton built")

    monkeypatch.setattr(magic, "_ModelWords", refuse)
    with pytest.raises(ModeMismatch, match="^a reference model must be exact$"):
        check(m4.to_float(), m4)
    if check is stationarity_check:
        with pytest.raises(ModeMismatch, match="^a reference model must be exact$"):
            check(m4.to_float(), m4.to_float(), 2, tol=1e-9)


@pytest.mark.parametrize("reference", [
    FinAbelian([4]), [4], "Z4", None, Perm.from_cycles(4, [(1, 2, 3, 4)]),
], ids=["FinAbelian", "list", "str", "None", "Perm"])
@pytest.mark.parametrize("check", [stationarity_check, shortest_difference])
def test_a_reference_of_another_type_is_refused(check, reference, m4):
    with pytest.raises(TypeError, match="^reference must be a PermGroup or FiberModel$"):
        check(reference, m4)


@pytest.mark.parametrize("gens", [[], [((1,), 0)], [((1,), -4)], [((1,), 4), ((0,), 0)]],
                         ids=["no generator", "order 0", "order -4", "a second of order 0"])
def test_a_dual_reference_needs_generators_of_positive_order(gens):
    with pytest.raises(BadArgument, match="^need at least one block$|^block sizes must be"):
        DualWordReference.from_block_generators(FinAbelian([4]), gens)


def test_a_dual_reference_generator_order_must_divide_its_block_size():
    z4 = FinAbelian([4])
    for g, k in (((1,), 2), ((1,), 3), ((1,), 1), ((2,), 3)):
        with pytest.raises(NotFiniteOrder, match=f"^generator does not satisfy U\\^{k} = 1$"):
            DualWordReference.from_block_generators(z4, [(g, k)])
    # An order that divides the block size is enough: (2,) has order 2 in Z4.
    for g, k in (((2,), 2), ((2,), 4), ((0,), 1), ((1,), 8)):
        ref = DualWordReference.from_block_generators(z4, [(g, k)])
        assert (ref.n, ref.dim, ref.mode) == (k, 4, "exact") and verify_magic(ref).passed


@pytest.fixture(scope="module")
def s3_dual():
    """The dual of S3 with one order-two block per transposition, s = (1 2)
    and t = (2 3): its coordinates (1 + s)/2 and (1 + t)/2 do not commute,
    so the left and right regular matrices of a coordinate differ.  With
    the block model of S3's regular representation and that of Z2xZ2."""
    s3 = pg(3, [(1, 2)], [(2, 3)])
    s, t = Perm.from_cycles(3, [(1, 2)]), Perm.from_cycles(3, [(2, 3)])
    ref = Dual(s3, [(s, 2), (t, 2)])
    reg = regular_rep(s3)
    return ref, bichon_build([2, 2], [reg[s], reg[t]]), block_model_and_reference([2, 2])[0]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_non_abelian_dual_reference_matches_its_definition(s3_dual, mode):
    """The S3 dual against its own block model (stationary) and against the
    Z2xZ2 block model (512 witnesses at length 4): the walk's words, values
    and the check's witnesses against the identity coefficients of the
    group-algebra products on every word, and the automaton's word a
    shortest one on which those identity coefficients differ."""
    ref, own, klein = s3_dual
    a, b = ref.coords[(0, 0)], ref.coords[(2, 2)]
    assert group_algebra_product(ref.group, a, b) != group_algebra_product(ref.group, b, a)
    tol = None if mode == "exact" else 1e-9
    for model, failing in ((own, 0), (klein, 512)):
        shortest = shortest_difference(ref.reference, model)
        if tol is not None:
            model = model.to_float()
        report = assert_walk_matches_dense(ref, model, 4, tol)
        assert len(report.witnesses) == failing
        if failing:
            first = report.witnesses[0]
            assert first["word"] == magic._word_label(shortest)
            assert first["reference"] == str(ref.haar(shortest))
        else:
            assert shortest is None
    table = dense_reference_table(ref, ref.n, 3)
    got = StateOnWords.from_model(ref.reference, 3).table
    for word, want in table.items():
        assert scalars_equal(got[word], want) and str(got[word]) == str(want), word


def test_walk_keeps_a_zero_reference_state(monkeypatch):
    # Stepping every reference word took 1,680 group-algebra products here.
    # The reference's regular model takes each product of a kept matrix by a
    # fiber once (36 exact products), and its zero state, with no live
    # point, takes none.
    model = block_model_and_reference([4])[0].to_float()
    ref = block_model_and_reference([2, 2])[1]
    modes = []
    mul = CMatrix.__mul__
    monkeypatch.setattr(CMatrix, "__mul__",
                        lambda self, other: modes.append(self.mode) or mul(self, other))
    assert len(stationarity_check(ref, model, 3, 1e-9).witnesses) == 432
    assert 0 < modes.count("exact") <= 36 and 0 < modes.count("float") <= 32


# -- the shared walk against a walk that reads every word on its own --------

def plain_differing_words(reference, model, bound, tol=None):
    """The joint walk with no shared states: each word steps plain CMatrix
    products at every point, and the reference's Haar state by definition
    (the surviving group elements, or the group-algebra product of a dual's
    coordinates), depth first, and is compared on its own; below a word on
    which both states are zero nothing is read.  Length-major order."""
    exact = model.mode == "exact"
    weights = model.weights if exact else [complex(w) for w in model.weights]
    fibers = {(i, j): [None if f.is_zero() else f for f in model.entries[i][j]]
              for i in range(model.n) for j in range(model.n)}
    if isinstance(reference, PermGroup):
        ref_start = list(reference.elements)

        def ref_step(survivors, letter):
            return [g for g in survivors if g(letter[1] + 1) == letter[0] + 1]

        def ref_value(survivors):
            return F(len(survivors), reference.order)
    else:
        ref_start = {reference.group.identity: 1}

        def ref_step(acc, letter):
            return group_algebra_product(reference.group, acc, reference.coords[letter])

        def ref_value(acc):
            return acc.get(reference.group.identity, 0)

    def value(prods):
        total = None
        for w, p in zip(weights, prods):
            if p is not None:
                term = p.ntrace() * w
                total = term if total is None else total + term
        return (0 if exact else 0j) if total is None else total

    def step(prods, letter):
        nxt = []
        for p, f in zip(prods, fibers[letter]):
            q = None if p is None or f is None else p * f
            nxt.append(None if q is None or q.is_zero() else q)
        return nxt

    differing = []

    def walk(word, p, r):
        a, b = value(p), ref_value(r)
        if not scalars_equal(b, a, tol):
            differing.append((word, a, b))
        p_zero = all(q is None for q in p)
        r_zero = not r
        if len(word) < bound and not (p_zero and r_zero):
            for letter in fibers:
                walk(word + (letter,), p if p_zero else step(p, letter),
                     r if r_zero else ref_step(r, letter))

    walk((), [CMatrix.identity(model.dim, model.mode)] * model.n_points, ref_start)
    differing.sort(key=lambda found: (len(found[0]), found[0]))
    return differing


def assert_shared_walk_matches_plain(reference, model, bound, tol=None):
    got = magic._differing_words(magic._ModelWords(model),
                                 reference_words(reference, model.n),
                                 model.n, bound, tol)
    want = plain_differing_words(reference, model, bound, tol)
    assert [(w, type(a), repr(a), type(b), repr(b)) for w, a, b in got] == \
        [(w, type(a), repr(a), type(b), repr(b)) for w, a, b in want]
    return len(got)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_shared_walk_matches_the_plain_walk_on_every_fiber(d4_s4_models, mode):
    tol = None if mode == "exact" else 1e-9
    for group, model in d4_s4_models:
        found = 0
        for x in range(model.n_points):
            fiber = single_fiber(model, x)
            if tol is not None:
                fiber = fiber.to_float()
            found += assert_shared_walk_matches_plain(group, fiber, 3, tol)
        assert found


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_shared_walk_matches_the_plain_walk_on_block_models(mode):
    tol = None if mode == "exact" else 1e-9
    blocks = [block_model_and_dual([2, 2]), block_model_and_dual([4])]
    for model, _ in blocks:
        if tol is not None:
            model = model.to_float()
        assert [assert_shared_walk_matches_plain(ref, model, 3, tol)
                for _, ref in blocks] in ([0, 432], [432, 0])


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_walk_that_empties_its_tables_matches_the_plain_walk(d4_s4_models, monkeypatch, mode):
    """With room for four entries the walk's tables are emptied again and
    again: sharing is lost, but no word, value or type changes, and the
    model's tables never hold more than four entries."""
    monkeypatch.setattr(magic, "_SHARED_MAX", 4)
    tol = None if mode == "exact" else 1e-9
    group, model = d4_s4_models[0]
    block, own = block_model_and_dual([2, 2])
    cases = [(group, single_fiber(model, 0)), (group, single_fiber(model, 1)),
             (own, block), (block_model_and_dual([4])[1], block)]
    found = 0
    for reference, m in cases:
        if tol is not None:
            m = m.to_float()
        found += assert_shared_walk_matches_plain(reference, m, 3, tol)
        mod = magic._ModelWords(m)
        memo_sizes = walk_memo_sizes(mod)
        magic._differing_words(mod, reference_words(reference, m.n), m.n, 3, tol)
        assert max(len(mod._kept), len(mod._products), len(mod._states)) <= 4
        assert memo_sizes and max(memo_sizes) <= 4
        # The start state was kept before an emptying, so it holds no
        # successor that would keep the emptied states alive.
        assert mod._since > mod.start[0] and not mod.start[3]
    assert found


def walk_memo_sizes(mod):
    """The size of the walk's memo at each step of mod, read from the frame
    of the _differing_words call that makes the step."""
    sizes = []
    step = mod.step

    def spy(state, letter):
        sizes.append(len(sys._getframe(1).f_locals["memo"]))
        return step(state, letter)

    mod.step = spy
    return sizes


# -- one state object per distinct content, and the span search over pairs ---

def plain_live_forms(model, word):
    """The (point, stored form) pairs of the word's nonzero fiber products,
    multiplied out on their own."""
    forms = []
    for x in range(model.n_points):
        p = CMatrix.identity(model.dim, model.mode)
        for i, j in word:
            f = model.entries[i][j][x]
            p = None if p is None or f.is_zero() else p * f
            p = None if p is None or p.is_zero() else p
        if p is not None:
            forms.append((x, magic._stored_form(p)))
    return tuple(forms)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_words_with_equal_stored_products_reach_one_state(d4_s4_models, monkeypatch, mode):
    """Two words reach the identical state object exactly when their fiber
    products have equal stored forms at the same points, and the product
    loop of a state runs once per letter, however many words step it."""
    group, model = d4_s4_models[0]
    model = model if mode == "exact" else model.to_float()
    mod = magic._ModelWords(model)
    loops = []
    intern = mod._state
    monkeypatch.setattr(mod, "_state", lambda live: loops.append(live) or intern(live))
    states = {(): mod.start}
    stepped = set()
    for word in words_up_to(model.n, 3)[1:]:
        before = states[word[:-1]]
        stepped.add((id(before), word[-1]))
        states[word] = mod.step(before, word[-1])
        assert mod.step(before, word[-1]) is states[word]
    assert len(loops) == len(stepped) < len(states) - 1
    by_form = {}
    for word, state in states.items():
        by_form.setdefault(plain_live_forms(model, word), set()).add(id(state))
    assert all(len(ids) == 1 for ids in by_form.values())
    assert len(set.union(*by_form.values())) == len(by_form) > 1


def span_search_reading_every_word(reference, model, max_len=None):
    """shortest_difference as it was before pairs of states were told apart:
    every word popped is compared and its vector reduced, even when an
    earlier word reached the same pair of states."""
    ref = reference_words(reference, model.n)
    mod = magic._ModelWords(model)
    basis = {}
    queue = deque([((), mod.start, ref.start)])
    while queue:
        word, p, r = queue.popleft()
        if not scalars_equal(p[2], r[2]):
            return word
        vec = dict(mod.coordinates(p, 0) + ref.coordinates(r, 1))
        if _enlarges_span(basis, vec) and (max_len is None or len(word) < max_len):
            for letter in itertools.product(range(model.n), repeat=2):
                queue.append((word + (letter,), mod.step(p, letter), ref.step(r, letter)))
    return None


def span_search_cases(d4_s4_models):
    for group, model in d4_s4_models:
        yield f"{group.order} family", group, model
        for x in range(model.n_points):
            yield f"{group.order} fiber {x}", group, single_fiber(model, x)
    blocks = {"Z2xZ2": block_model_and_reference([2, 2]), "Z4": block_model_and_reference([4]),
              "Z2xZ3": block_model_and_reference([2, 3])}
    for name, (model, _) in blocks.items():
        for other, (_, ref) in blocks.items():
            if ref.n == model.n:
                yield f"{name} model, {other} reference", ref, model


def test_span_search_skipping_pairs_finds_the_word_of_the_full_search(d4_s4_models,
                                                                      monkeypatch):
    """The search reads each pair of states once and returns the same
    shortest word, or None, as the search that reads every word."""
    read = []
    coordinates = magic._ModelWords.coordinates
    monkeypatch.setattr(magic._ModelWords, "coordinates",
                        lambda self, state, side: read.append((side, state[0]))
                        or coordinates(self, state, side))
    outcomes = set()
    skipped = 0
    for label, reference, model in span_search_cases(d4_s4_models):
        for max_len in (None, 1, 2, 3, 4):
            read.clear()
            want = span_search_reading_every_word(reference, model, max_len)
            every_word = len(read)
            read.clear()
            got = shortest_difference(reference, model, max_len)
            assert got == want, (label, max_len)
            pairs = list(zip(read[::2], read[1::2]))
            assert len(set(pairs)) == len(pairs), (label, max_len)
            skipped += every_word - len(read)
            outcomes.add(got is None)
    assert outcomes == {True, False} and skipped > 0


# -- one reading per pair of states and per check ------------------------------

def differing_words_compared_in_the_parent(mod, ref, n, bound, tol=None):
    """_differing_words as it was when the root was compared before the walk
    and every child in its parent's loop, once per edge, so that the leaves
    never entered the memo."""
    letters = [(i, j) for i in range(n) for j in range(n)]
    memo = {}

    def suffixes(p, r, left):
        key = (p[0], r[0], left)
        found = memo.get(key)
        if found is None:
            found = []
            for letter in letters:
                p1, r1 = mod.step(p, letter), ref.step(r, letter)
                if not scalars_equal(r1[2], p1[2], tol):
                    found.append(((letter,), p1[2], r1[2]))
                if left > 1:
                    found += [((letter,) + w, a, b) for w, a, b in suffixes(p1, r1, left - 1)]
            if len(memo) >= magic._SHARED_MAX:
                memo.clear()
            memo[key] = found
        return found

    p, r = mod.start, ref.start
    differing = [] if scalars_equal(r[2], p[2], tol) else [((), p[2], r[2])]
    if bound:
        differing += suffixes(p, r, bound)
    return sorted(differing, key=lambda found: (len(found[0]), found[0]))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_walk_comparing_each_pair_once_lists_the_words_of_the_parent_loop(
        d4_s4_models, monkeypatch, mode):
    """The same words, values and value types as the walk that compared each
    child in its parent's loop: up to length 4 with the tables at their size
    (3 on the single S4 fibers, which take seconds at 4), and up to length 2
    with room for four entries, so that the memo and the automata's tables
    are emptied again and again."""
    tol = None if mode == "exact" else 1e-9
    cases = list(span_search_cases(d4_s4_models))
    found = 0
    for room, longest in ((magic._SHARED_MAX, 4), (4, 2)):
        monkeypatch.setattr(magic, "_SHARED_MAX", room)
        for label, reference, model in cases:
            if tol is not None:
                model = model.to_float()
            top = 3 if room > 4 and label.startswith("24 fiber") else longest
            for bound in range(top + 1):
                walks = [walk(magic._ModelWords(model), reference_words(reference, model.n),
                              model.n, bound, tol)
                         for walk in (magic._differing_words,
                                      differing_words_compared_in_the_parent)]
                got, want = ([(w, type(a), str(a), type(b), str(b)) for w, a, b in words]
                             for words in walks)
                assert got == want, (label, room, bound)
                found += len(got)
    assert found


def test_walk_compares_each_pair_once_per_memo_key(d4_s4_models, monkeypatch):
    """A float check compares the values of a pair of states once per
    (model state, reference state, letters left), where comparing each child
    in its parent's loop took one comparison per edge: 2,114 on the D4 and S4
    family models at length 3."""
    keys = []
    compare = magic.scalars_equal

    def spy(a, b, tol=None):
        keys.append(sys._getframe(1).f_locals["key"])
        return compare(a, b, tol)

    monkeypatch.setattr(magic, "scalars_equal", spy)
    for group, model in d4_s4_models:
        keys.clear()
        assert stationarity_check(group, model.to_float(), 3, tol=1e-9).passed
        assert 0 < len(keys) == len(set(keys))
        assert {left for _, _, left in keys} == {0, 1, 2, 3}


def test_failing_exact_check_builds_its_two_automata_once(d4_s4_models, monkeypatch):
    """The span search and the walk read one model automaton and one
    reference automaton, so the check takes no product that the walk alone
    would not take."""
    group, model = d4_s4_models[0]
    ident = single_fiber(model, list(group.elements).index(group.identity))
    built, products = [], []
    init, mul = magic._ModelWords.__init__, CMatrix.__mul__
    monkeypatch.setattr(magic._ModelWords, "__init__",
                        lambda self, m: built.append(m) or init(self, m))
    monkeypatch.setattr(CMatrix, "__mul__",
                        lambda self, other: products.append(1) or mul(self, other))
    report = stationarity_check(group, ident, word_len=3)
    assert len(report.witnesses) == 448
    assert built[1] is ident and len(built) == 2
    check_products = len(products)
    products.clear()
    magic._differing_words(magic._ModelWords(ident), reference_words(group, ident.n),
                           ident.n, 3)
    assert check_products == len(products) > 0


def fixed_point_matrix_by_enumeration(group, tol=None):
    """fixed_point_matrix of a permutation group as it read when each entry
    counted the group elements: Q_ij = |{g : g(j) = i}| / |G|."""
    n = group.degree
    q = CMatrix.exact([[haar_word_classical(group, [(i + 1, j + 1)]) for j in range(n)]
                       for i in range(n)])
    witnesses = []
    if not q.is_projection(tol):
        witnesses.append({"kind": "not_projection"})
    ones = CMatrix(q.mode, [[1]] * q.rows)
    if not (q * ones).close_to(ones, tol):
        witnesses.append({"kind": "ones_not_fixed"})
    return q, magic.CheckReport("fixed_point_matrix", not witnesses, 2, tuple(witnesses))


@pytest.mark.parametrize("group", [
    pg(4, [(1, 2, 3, 4)]), pg(4, [(1, 2, 3, 4)], [(1, 3)]), pg(4, [(1, 2)], [(1, 2, 3, 4)]),
    pg(6, [(1, 2), (3, 4)], [(1, 2), (5, 6)]), pg(5, [(1, 2)], [(1, 2, 3, 4, 5)]),
    pg(6, [(1, 2), (3, 4), (5, 6)]), pg(5, [(1, 2)], [(1, 3)], [(1, 4)], [(1, 5)]),
], ids=["Z4", "D4", "S4", "V4 in S6", "S5", "Z2 in S6", "S5 star"])
def test_fixed_point_matrix_of_a_group_reads_its_permutation_model(group):
    q, report = fixed_point_matrix(group)
    want_q, want_report = fixed_point_matrix_by_enumeration(group)
    assert q.mode == want_q.mode == "exact"
    assert [(type(x), repr(x)) for row in q.data for x in row] == \
        [(type(x), repr(x)) for row in want_q.data for x in row]
    assert report == want_report


def term_by_term_sum(weights, values, zero=None):
    """The weighted sum added one term at a time, in point order, over the
    values that are not None: the loop that _weighted_sum keeps and that
    _rational_sum must agree with, type included."""
    total = None
    for w, v in zip(weights, values):
        if v is not None:
            term = v * w
            total = term if total is None else total + term
    return zero if total is None else total


WEIGHTED_SUM_CASES = {
    "ints": ([1, 2, 3], [4, -5, 6], 0),
    "int terms beside a None": ([F(1, 2), 3], [None, 2], 0),
    "fractions": ([F(1, 24)] * 4, [F(1), F(1, 2), F(0), F(1, 3)], 0),
    "a whole fraction": ([F(1, 2), F(1, 2)], [F(1), F(1)], 0),
    "ints then fractions": ([2, F(1, 3), 5], [3, F(3, 4), 7], None),
    "int weights": ([3, 1], [F(1, 6), F(-1, 2)], 0),
    "unequal denominators": ([F(1, 6), F(1, 10), F(1, 15)], [F(5, 7), 3, F(2, 9)], 0),
    "cancelling": ([F(1, 3), F(2, 3)], [F(1, 2), F(-1, 4)], 0),
    "Cyc values": ([F(1, 2), F(1, 2)], [zeta(3), F(1)], 0),
    "Cyc after fractions": ([F(1, 3), F(2, 3)], [F(1), zeta(4)], 0),
    "Cyc weights": ([zeta(3), 1], [F(1, 2), 2], 0),
    "complex": ([0.5 + 0j, 0.5 + 0j], [1 + 0j, -2j], 0j),
    "complex after fractions": ([F(1, 2), F(1, 2)], [F(1), 1j], 0j),
    "Nones": ([F(1, 3)] * 3, [None, F(1, 2), None], 0),
    "all None": ([F(1, 2), 1], [None, None], 0),
    "all None, complex zero": ([0.5 + 0j], [None], 0j),
    "all None, no zero": ([F(1, 2)], [None], None),
    "empty": ([], [], 0),
}


@pytest.mark.parametrize("weighted_sum", [magic._weighted_sum, magic._rational_sum],
                         ids=["term by term", "rational"])
@pytest.mark.parametrize("name", list(WEIGHTED_SUM_CASES))
def test_weighted_sums_agree_with_the_term_by_term_loop(weighted_sum, name):
    weights, values, zero = WEIGHTED_SUM_CASES[name]
    got = weighted_sum(weights, values, zero)
    want = term_by_term_sum(weights, values, zero)
    assert got == want
    assert type(got) is type(want)
    assert magic._scalar_key(got) == magic._scalar_key(want)


def test_the_rational_sum_is_chosen_once_per_model(family_models, d4_s4_models):
    """An exact model of int and Fraction fibers sums over one denominator;
    a float model or a model with a Cyc entry keeps the term-by-term loop."""
    (_, z3_model), _ = family_models
    for model in (z3_model, d4_s4_models[1][1],
                  magic._reference_model(pg(4, [(1, 2, 3, 4)]), 4)):
        assert magic._ModelWords(model).weighted_sum is magic._rational_sum
        assert magic._ModelWords(model.to_float()).weighted_sum is magic._weighted_sum
    cyclic = bichon_build([3], [CMatrix.exact([[0, 0, 1], [1, 0, 0], [0, 1, 0]])])
    assert magic._ModelWords(cyclic).weighted_sum is magic._weighted_sum


# -- one object per distinct fiber against fresh copies ----------------------

def fiber_ids(model):
    return {id(f) for row in model.entries for fibers in row for f in fibers}


def unshared(model):
    """The model with a fresh copy of the fiber at every entry and point."""
    grid = [[tuple(CMatrix(f.mode, [list(r) for r in f.data]) for f in model.entries[i][j])
             for j in range(model.n)] for i in range(model.n)]
    twin = FiberModel(model.n, model.dim, model.labels, model.weights, grid)
    assert len(fiber_ids(twin)) == model.n * model.n * model.n_points
    return twin


def broken_family_model(group):
    """The family model with its first distinct fiber swapped for a rank-two
    projection and its second for half a unit, object for object, so that
    the magic, rank and stationarity checks all fail on shared fibers."""
    model = classical_model_from_family(group, latin_family_search(group, 4))
    first, second = list({id(f): f for row in model.entries for fibers in row
                          for f in fibers}.values())[:2]
    wide, half = first + second, second.scale(F(1, 2))
    swap = {id(first): wide, id(second): half}
    grid = [[tuple(swap.get(id(f), f) for f in model.entries[i][j])
             for j in range(model.n)] for i in range(model.n)]
    return FiberModel(model.n, model.dim, model.labels, model.weights, grid)


def shared_fiber_cases():
    """(reference, model, orbits) for models whose equal fibers are one object."""
    d4 = pg(4, [(1, 2, 3, 4)], [(1, 3)])
    s4 = pg(4, [(1, 2)], [(1, 2, 3, 4)])
    cases = [(g, classical_model_from_family(g, latin_family_search(g, 4)),
              orbits_from_source(g)) for g in (d4, s4)]
    cases.append((d4, broken_family_model(d4), orbits_from_source(d4)))
    for factors in ([2, 2], [4]):
        model, ref = block_model_and_reference(factors)
        cases.append((ref, model, orbits_from_source(factors)))
    return cases


def per_entry_witnesses(model, orbits, tol):
    """The projection and rank witnesses of verify_magic and quasi_flat_check,
    found by testing the fiber at every entry and point on its own."""
    not_projection = [{"kind": "not_projection", "row": i + 1, "col": j + 1,
                       "point": model.labels[x]}
                      for x in range(model.n_points) for i in range(model.n)
                      for j in range(model.n)
                      if not model.entries[i][j][x].is_projection(tol)]
    ranks = [{"row": i, "col": j, "point": model.labels[x],
              "rank": model.entries[i - 1][j - 1][x].rank(tol)}
             for block in orbits.blocks for i in block for j in block
             for x in range(model.n_points)]
    return not_projection, [w for w in ranks if w["rank"] != 1]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_shared_fibers_give_the_reports_of_fresh_copies(mode):
    tol = None if mode == "exact" else 1e-9
    failed = set()
    for reference, model, orbits in shared_fiber_cases():
        twin = unshared(model)
        assert len(fiber_ids(model)) < len(fiber_ids(twin))
        if tol is not None:
            shared_ids = len(fiber_ids(model))
            model, twin = model.to_float(), twin.to_float()
            assert len(fiber_ids(model)) == shared_ids
        checks = [lambda m: verify_magic(m, tol),
                  lambda m: stationarity_check(reference, m, 3, tol)]
        if orbits.block_size == model.dim:
            checks.append(lambda m: quasi_flat_check(m, orbits, tol))
        not_projection, not_rank_one = per_entry_witnesses(twin, orbits, tol)
        for check in checks:
            got, want = check(model), check(twin)
            assert render_json(check_to_json(got)) == render_json(check_to_json(want))
            if got.name == "verify_magic":
                assert [w for w in got.witnesses if w["kind"] == "not_projection"] == \
                    not_projection
            if got.name == "quasi_flat":
                assert list(got.witnesses) == not_rank_one
            if not got.passed:
                failed.add(got.name)
    assert failed == {"verify_magic", "stationarity", "quasi_flat"}


@pytest.mark.parametrize("which, most", [(0, 640), (1, 1920)], ids=["D4", "S4"])
def test_passing_float_check_takes_each_product_once(d4_s4_models, monkeypatch, which, most):
    # Reading every word took 10,368 products on D4 and 31,104 on S4.
    group, model = d4_s4_models[which]
    model = model.to_float()
    calls = []
    mul = CMatrix.__mul__
    monkeypatch.setattr(CMatrix, "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    assert stationarity_check(group, model, 3, tol=1e-9).passed
    assert 0 < len(calls) <= most


def test_states_with_different_stored_forms_are_never_merged():
    """Fibers equal as values but stored differently get different ids, and
    so do the regular fibers of dual coordinates whose coefficients are."""
    one, minus_z2 = Cyc(4, [1, 0, 0, 0]), Cyc(4, [0, 0, -1, 0])  # 1 = -z^2
    pairs = [
        ("float", 0.0, -0.0),
        ("float", complex(0.0, 0.0), complex(0.0, -0.0)),
        ("exact", 1, F(1)),
        ("exact", one, minus_z2),
        ("exact", Cyc(1, [1]), one),
    ]
    for mode, a, b in pairs:
        fa = CMatrix(mode, [[1, a], [0, 1]])
        fb = CMatrix(mode, [[1, b], [0, 1]])
        assert fa.close_to(fb)
        model = FiberModel(1, 2, ("a", "b"), (F(1, 2), F(1, 2)), [[(fa, fb)]])
        mod = magic._ModelWords(model)
        ka, kb = mod.fibers[(0, 0)]
        assert ka[0] != kb[0] and ka[1] is fa and kb[1] is fb
    group = FinAbelian([2])
    coefficients = [1, F(1), one, minus_z2, Cyc(1, [1])]
    n = len(coefficients)
    zero = CMatrix.zeros(2, 2)
    grid = [[(zero,)] * n for _ in range(n)]
    grid[0] = [(_regular_matrix(group, {group.identity: c}),) for c in coefficients]
    ref = reference_words(FiberModel(n, 2, ("pt",), (F(1),), grid), n)
    kept = [ref.fibers[(0, j)][0] for j in range(n)]
    assert len({k[0] for k in kept}) == n
    for k, c in zip(kept, coefficients):
        assert [magic._scalar_key(x) for x in k[1].data[0]] == [magic._scalar_key(c), (int, 0)]


# -- row and column sums against adding every row and column in full ---------

def full_sum_verify_magic(model, tol=None):
    """verify_magic as it read when every row and column was added up in full,
    left to right, at every point."""
    witnesses = []
    checked = 0
    ident = CMatrix.identity(model.dim, model.mode)
    for x in range(model.n_points):
        for i in range(model.n):
            for j in range(model.n):
                checked += 1
                if not model.entries[i][j][x].is_projection(tol):
                    witnesses.append({"kind": "not_projection", "row": i + 1,
                                      "col": j + 1, "point": model.labels[x]})
        for i in range(model.n):
            total = model.entries[i][0][x]
            for j in range(1, model.n):
                total = total + model.entries[i][j][x]
            checked += 1
            if not total.close_to(ident, tol):
                witnesses.append({"kind": "row_sum", "row": i + 1,
                                  "point": model.labels[x]})
        for j in range(model.n):
            total = model.entries[0][j][x]
            for i in range(1, model.n):
                total = total + model.entries[i][j][x]
            checked += 1
            if not total.close_to(ident, tol):
                witnesses.append({"kind": "col_sum", "col": j + 1,
                                  "point": model.labels[x]})
    return not witnesses, checked, witnesses


def scalar_model(rows, mode="exact"):
    """A one-point model of 1 x 1 fibers, one shared object per distinct
    value in rows."""
    fiber = {}
    grid = [[(fiber.setdefault(v, CMatrix(mode, [[v]])),) for v in row] for row in rows]
    return FiberModel(len(rows), 1, ("pt",), (F(1),), grid)


def magic_sum_cases():
    """(name, model) for the differential test of verify_magic."""
    z8, z3z4 = FinAbelian([8]), FinAbelian([3, 4])
    reg8, reg34 = regular_rep(z8), regular_rep(z3z4)
    d4 = pg(4, [(1, 2, 3, 4)], [(1, 3)])
    z3_model = bichon_build([3], [CMatrix.exact([[0, 0, 1], [1, 0, 0], [0, 1, 0]])])
    grid = [[z3_model.entry(i, j) for j in range(3)] for i in range(3)]
    grid[1][2] = (CMatrix.zeros(3, 3),)
    tenth = F(1, 10)
    return [
        ("Z8", bichon_build([8], [reg8[(1,)]])),
        ("Z3xZ4", bichon_build([3, 4], [reg34[(1, 0)], reg34[(0, 1)]])),
        ("D4 family", classical_model_from_family(d4, latin_family_search(d4, 4))),
        ("row 2 and column 3 fail", FiberModel(3, 3, ("pt",), (F(1),), grid)),
        # Each row and column holds 1/10, 2/10 and 7/10 in its own order.
        ("one multiset in three orders",
         scalar_model([[tenth, 2 * tenth, 7 * tenth], [7 * tenth, tenth, 2 * tenth],
                       [2 * tenth, 7 * tenth, tenth]])),
        ("not a projection", broken_family_model(d4)),
        ("identity and zero fibers", scalar_model([[1, 0], [0, 1]])),
        ("only zero fibers", scalar_model([[0, 0], [0, 0]])),
    ]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_magic_reports_what_adding_each_sum_in_full_reports(mode):
    tol = None if mode == "exact" else 1e-9
    failing = set()
    for name, model in magic_sum_cases():
        if mode == "float":
            model = model.to_float()
        rep = verify_magic(model, tol)
        assert (rep.passed, rep.checked, list(rep.witnesses)) == \
            full_sum_verify_magic(model, tol), name
        failing |= {w["kind"] for w in rep.witnesses}
    assert failing == {"not_projection", "row_sum", "col_sum"}


def test_float_sums_keep_their_order():
    """At tolerance 0, 0.1 + 0.2 + 0.7 is 1 in some orders and not in others:
    rows and columns with one multiset of fibers in different orders get
    their own float sums."""
    model = scalar_model([[0.1, 0.2, 0.7], [0.7, 0.1, 0.2], [0.2, 0.7, 0.1]], "float")
    rep = verify_magic(model, 0.0)
    assert (rep.passed, rep.checked, list(rep.witnesses)) == full_sum_verify_magic(model, 0.0)
    assert [w for w in rep.witnesses if w["kind"] != "not_projection"] == [
        {"kind": "row_sum", "row": 3, "point": "pt"},
        {"kind": "col_sum", "col": 3, "point": "pt"},
    ]


@pytest.mark.parametrize("name, sums", [("Z8", 1), ("Z3xZ4", 2)])
def test_exact_circulant_rows_share_their_sums(monkeypatch, name, sums):
    """Every row and column of a circulant block holds one multiset of
    projections, so an exact check adds it up once per block."""
    model = dict(magic_sum_cases())[name]
    calls = []
    add = CMatrix.__add__
    monkeypatch.setattr(CMatrix, "__add__",
                        lambda self, other: calls.append(1) or add(self, other))
    assert verify_magic(model).passed
    assert len(calls) == sums * (model.n - 1)


# -- the square automaton against the nested loop over middle tuples ----------

def nested_loop_idempotency(state, tol=None):
    """convolution_idempotency as a sum over every middle tuple, zero terms
    included, in increasing order, read off the state's table."""
    n, table = state.n, state.table
    witnesses = []
    checked = 0
    for word in words_up_to(n, state.bound):
        m = len(word)
        checked += 1
        if m == 0:
            conv = table[()] * table[()]
        else:
            conv = None
            for mids in itertools.product(range(n), repeat=m):
                left = tuple((word[a][0], mids[a]) for a in range(m))
                right = tuple((mids[a], word[a][1]) for a in range(m))
                term = table[left] * table[right]
                conv = term if conv is None else conv + term
        if not scalars_equal(conv, table[word], tol):
            witnesses.append({
                "word": magic._word_label(word),
                "state": str(table[word]),
                "convolution": str(conv),
            })
    return magic.CheckReport("convolution_idempotency", not witnesses, checked,
                             tuple(witnesses))


def assert_same_idempotency(model, bound, monkeypatch):
    """The report of the square automaton equals the nested loop's, witness
    strings included, also when every table empties at 4 entries up to bound
    2 (at bound 3 that takes the D4 family model 5 s in both modes)."""
    want = nested_loop_idempotency(StateOnWords.from_model(model, bound))
    assert convolution_idempotency(StateOnWords.from_model(model, bound)) == want
    if bound > 2:
        return want
    with monkeypatch.context() as patched:
        patched.setattr(magic, "_SHARED_MAX", 4)
        assert convolution_idempotency(StateOnWords.from_model(model, bound)) == want
    return want


def reflection_fiber_point(group):
    """Criterion 4's reflection fiber: the first point outside the family."""
    members = latin_family_search(group, 4).members
    return next(x for x, g in enumerate(group.elements) if g not in members)


def test_sparse_idempotency_matches_nested_loop_on_family_models(d4_s4_models, monkeypatch):
    """The D4 family model at bounds 0 to 3, the S4 one at bounds 0 to 2,
    every single fiber of both at bounds 0 to 2, and criterion 4's
    reflection fiber at bound 3, in both modes."""
    (d4, d4_model), (_, s4_model) = d4_s4_models
    refl = single_fiber(d4_model, reflection_fiber_point(d4))
    cases = [(d4_model, bound) for bound in range(4)]
    cases += [(s4_model, bound) for bound in range(3)] + [(refl, 3)]
    for model in (d4_model, s4_model):
        cases += [(single_fiber(model, x), bound)
                  for x in range(model.n_points) for bound in range(3)]
    failing = 0
    for model, bound in cases:
        for m in (model, model.to_float()):
            rep = assert_same_idempotency(m, bound, monkeypatch)
            failing += not rep.passed
            if model is d4_model or model is s4_model:
                assert rep.passed
            if model is refl and bound == 3:
                assert len(rep.witnesses) == 448
    assert failing == 50


def test_sparse_idempotency_matches_nested_loop_on_cyc_and_float_states(monkeypatch):
    """The Z2, Z3, Z2xZ2 and Z4 block models at bounds 0 to 2, in both modes."""
    for factors in ([2], [3], [2, 2], [4]):
        model, _ = block_model_and_reference(factors)
        for bound in range(3):
            assert assert_same_idempotency(model, bound, monkeypatch).passed
            assert assert_same_idempotency(model.to_float(), bound, monkeypatch).passed


def test_idempotency_builds_no_word_table(d4_s4_models, monkeypatch):
    """Criteria 3 to 5 and a check of the D4 family model at length 3 give
    their verdicts without reading a table of words."""
    from magicmodels.acceptance import criterion_3, criterion_4, criterion_5

    def refuse(self):
        raise RuntimeError("word table built")

    monkeypatch.setattr(StateOnWords, "table", property(refuse))
    with pytest.raises(RuntimeError, match="word table built"):
        StateOnWords.from_model(d4_s4_models[0][1], 1).table
    assert criterion_3()["passed"] and criterion_4()["passed"] and criterion_5()["passed"]
    report = convolution_idempotency(StateOnWords.from_model(d4_s4_models[0][1], 3))
    assert report.passed and report.checked == 4369


def test_square_table_empties_when_full(d4_s4_models, monkeypatch):
    """With _SHARED_MAX patched to 4 the square keeps at most 4 states, and
    the reports are those of the unpatched run."""
    d4, model = d4_s4_models[0]
    refl = single_fiber(model, reflection_fiber_point(d4))
    want = [convolution_idempotency(StateOnWords.from_model(m, 2)) for m in (model, refl)]
    sizes = []

    class Recorded(magic._SquareWords):
        def _state(self, pairs):
            state = super()._state(pairs)
            sizes.append(len(self._states))
            return state

    monkeypatch.setattr(magic, "_SquareWords", Recorded)
    monkeypatch.setattr(magic, "_SHARED_MAX", 4)
    got = [convolution_idempotency(StateOnWords.from_model(m, 2)) for m in (model, refl)]
    assert got == want and not want[1].passed
    assert max(sizes) == 4 and sizes.count(1) > 2


def one_point_model(mode, grid):
    """A one-point model of 2 x 2 diagonal fibers: grid[i][j] is the pair of
    diagonal entries of the fiber at (i, j)."""
    n = len(grid)
    fibers = [[(CMatrix(mode, [[a, 0], [0, b]]),) for a, b in row] for row in grid]
    return FiberModel(n, 2, ("pt",), (F(1),), fibers)


def test_sparse_idempotency_keeps_the_form_zero_terms_give(monkeypatch):
    """A live state whose value is zero still adds its term, which decides
    how the sum prints: the Cyc zero of order 4 that diag(z4, -z4) gives
    lifts z3^2 to order 12.  The zero state (of the zero fiber at (2, 2))
    adds nothing."""
    z3, z4 = zeta(3), zeta(4)
    model = one_point_model("exact", [[(z3, z3), (z4, -z4)], [(1, 1), (0, 0)]])
    rep = assert_same_idempotency(model, 1, monkeypatch)
    assert rep.witnesses[0]["word"] == "u[1,1]"
    assert rep.witnesses[0]["convolution"] != repr(z3 * z3)


def test_sparse_idempotency_adds_in_increasing_middle_tuple(monkeypatch):
    """The square at u[1,2] sums 1 * 0.1, 0.1 * 2 and 0.3 * 1 in this order;
    float addition in another order would print 0.6."""
    grid = [[(x, x) for x in row] for row in [[1, 0.1, 0.3], [0, 2, 0], [0, 1, 0]]]
    rep = assert_same_idempotency(one_point_model("float", grid), 1, monkeypatch)
    assert {"word": "u[1,2]", "state": "(0.1+0j)",
            "convolution": "(0.6000000000000001+0j)"} in rep.witnesses
