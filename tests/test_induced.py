import itertools
import random
from dataclasses import fields
from fractions import Fraction

import pytest

from magicmodels import induced
from magicmodels.errors import (
    Inconsistent, ModelInputError, NotNormal, NotWellDefined,
)
from magicmodels.groups import Perm
from magicmodels.induced import (
    InducedModel, VirtuallyAbelianData, check_stationarity,
    evaluate_at_character, frobenius_trace, induce,
)
from magicmodels.magic import CheckReport
from conftest import pg


def data_for(gamma, lam_gens):
    lam = gamma.subgroup(lam_gens)
    return VirtuallyAbelianData.from_permutation_groups(gamma, lam)


@pytest.fixture
def s3_a3(s3):
    return data_for(s3, [Perm.from_cycles(3, [(1, 2, 3)])])


@pytest.fixture
def d4_z4(d4):
    return data_for(d4, [Perm.from_cycles(4, [(1, 2, 3, 4)])])


def test_requires_normal_abelian(s3, d4):
    with pytest.raises(NotNormal):
        data_for(s3, [Perm.from_cycles(3, [(1, 2)])])
    s4 = pg(4, [(1, 2)], [(1, 2, 3, 4)])
    a4 = s4.subgroup([Perm.from_cycles(4, [(1, 2, 3)]),
                      Perm.from_cycles(4, [(2, 3, 4)])])
    # A4 is normal in S4 but not abelian
    from magicmodels.errors import ModelInputError
    with pytest.raises(ModelInputError):
        VirtuallyAbelianData.from_permutation_groups(s4, a4)


def test_character_map_that_is_not_a_bijection_is_inconsistent(d4_z4, monkeypatch):
    """The abelianization of an abelian subgroup is a bijection; a map that
    is not one is a failed cross-check, not a raw exception."""
    assert len(set(d4_z4.char_structure()[1].values())) == 4
    folded = induced.FinAbelian([2])
    monkeypatch.setattr(induced, "abelianization", lambda lam: (
        folded, {g: (k % 2,) for k, g in enumerate(lam.elements)}))
    again = data_for(d4_z4.gamma, list(d4_z4.lam.generators))
    with pytest.raises(Inconsistent, match="not a bijection"):
        again.char_structure()


def test_monomial_structure(s3_a3):
    gamma = s3_a3.gamma
    for g in gamma.elements:
        model = induce(s3_a3, g)
        assert model.size == s3_a3.n_reps == 2
        assert sorted(model.columns) == list(range(model.size))


def test_multiplicative_exhaustive(s3_a3, d4_z4):
    """induce(g) induce(h) = induce(gh) over the subgroup's group algebra,
    checked at every character: the characters of an abelian subgroup
    separate the elements of its group algebra."""
    for data in (s3_a3, d4_z4):
        gamma = data.gamma
        _, _, chars = data.char_structure()
        for chi in chars:
            at = {g: evaluate_at_character(induce(data, g), chi) for g in gamma.elements}
            for g in gamma.elements:
                for h in gamma.elements:
                    assert at[g] * at[h] == at[gamma.mul(g, h)]


def test_identity_average_is_delta(s3_a3):
    gamma = s3_a3.gamma
    for g in gamma.elements:
        value = induce(s3_a3, g).diagonal_identity_average()
        expected = Fraction(1) if g == gamma.identity else Fraction(0)
        assert value == expected


def test_stationarity_all_pairs(s3, d4):
    z6 = pg(6, [(1, 2, 3, 4, 5, 6)])
    cases = [
        data_for(s3, [Perm.from_cycles(3, [(1, 2, 3)])]),
        data_for(d4, [Perm.from_cycles(4, [(1, 2, 3, 4)])]),
        data_for(z6, [Perm.from_cycles(6, [(1, 2, 3, 4, 5, 6)])]),
    ]
    for data in cases:
        rep = check_stationarity(data)
        assert rep.passed and rep.details["routes_agree"]
        assert rep.checked == data.gamma.order


def test_frobenius_agrees_with_matrix_trace(s3_a3, d4_z4):
    for data in (s3_a3, d4_z4):
        _, _, chars = data.char_structure()
        assert len(chars) == data.lam.order
        for g in data.gamma.elements:
            model = induce(data, g)
            for chi in chars:
                assert frobenius_trace(data, chi, g) == \
                    evaluate_at_character(model, chi).trace()


def test_character_evaluation_unitary(d4_z4):
    # induced monomial matrices evaluate to unitaries at every character
    _, _, chars = d4_z4.char_structure()
    for g in d4_z4.gamma.elements:
        model = induce(d4_z4, g)
        for chi in chars:
            assert evaluate_at_character(model, chi).is_unitary()


def test_split_data_free_part():
    # infinite diagonal subgroup Z^1 acted on by the order-2 sign flip
    phi = pg(2, [(1, 2)])
    data = VirtuallyAbelianData.split(1, [], phi, [[[-1]]])
    assert not data.finite
    rep = check_stationarity(data, word_len=3)
    assert rep.passed
    assert rep.checked > 1


def test_split_rejects_non_action():
    phi = pg(2, [(1, 2)])
    from magicmodels.errors import ModelInputError
    with pytest.raises(ModelInputError):
        VirtuallyAbelianData.split(1, [], phi, [[[2]]])


def test_finite_split_matches_permutation_route(s3):
    """Z3 x| Z2 presented split is S3 over A3: (a, p) -> r^a s^p with
    r = (1 2 3) and s = (1 2) carries each element to one with the same
    identity average and the same traces over the subgroup's dual."""
    phi = pg(2, [(1, 2)])
    split = VirtuallyAbelianData.split(0, [3], phi, [[[-1]]])
    assert split.finite
    srep = check_stationarity(split)
    assert srep.passed and srep.details["routes_agree"]
    perm = data_for(s3, [Perm.from_cycles(3, [(1, 2, 3)])])
    r, s = Perm.from_cycles(3, [(1, 2, 3)]), Perm.from_cycles(3, [(1, 2)])
    powers = [s3.identity, r, s3.mul(r, r)]
    _, _, split_chars = split.char_structure()
    _, _, perm_chars = perm.char_structure()
    for a in range(3):
        for p, sp in zip(phi.elements, (s3.identity, s)):
            g, h = ((a,), p), s3.mul(powers[a], sp)
            split_model, perm_model = induce(split, g), induce(perm, h)
            assert split_model.diagonal_identity_average() == \
                perm_model.diagonal_identity_average()
            assert sorted(repr(evaluate_at_character(split_model, chi).trace())
                          for chi in split_chars) == \
                sorted(repr(evaluate_at_character(perm_model, chi).trace())
                       for chi in perm_chars)


def _all_pairs_rows(data, g):
    """Nonzero entries (column, label) of each row of the induced matrix,
    found by testing x^-1 g y for every pair of representatives."""
    mul, inv = data.gamma.mul, data.gamma.inv
    rows = []
    for x in data.reps:
        row = []
        for j, y in enumerate(data.reps):
            t = mul(inv(x), mul(g, y))
            if data.in_lambda(t):
                row.append((j, data.lam_key(t)))
        rows.append(row)
    return rows


def _word_elements(data, word_len):
    """(word, element) for every word up to word_len in the data's moves,
    length by length, each length in the order of the moves."""
    words = frontier = [((), data.gamma.identity)]
    for _ in range(word_len):
        frontier = [(word + (name,), data.gamma.mul(g, move))
                    for word, g in frontier for name, move in data.word_moves]
        words = words + frontier
    return words


def _split_cases():
    z2, z4 = pg(2, [(1, 2)]), pg(4, [(1, 2, 3, 4)])
    return [
        VirtuallyAbelianData.split(1, [], z2, [[[-1]]]),
        VirtuallyAbelianData.split(0, [3], z2, [[[-1]]]),
        VirtuallyAbelianData.split(1, [4], z2, [[[-1, 0], [0, -1]]]),
        VirtuallyAbelianData.split(2, [], z4, [[[0, -1], [1, 0]]]),
    ]


def test_coset_action_matches_all_pairs_grid(s3, d4):
    """Each row's column and label, read off the coset action, is the one
    nonzero entry of the all-pairs grid."""
    s4 = pg(4, [(1, 2)], [(1, 2, 3, 4)])
    cases = [(data, data.gamma.elements) for data in (
        data_for(s3, [Perm.from_cycles(3, [(1, 2, 3)])]),
        data_for(d4, [Perm.from_cycles(4, [(1, 2, 3, 4)])]),
        data_for(s4, [Perm.from_cycles(4, [(1, 2), (3, 4)]),
                      Perm.from_cycles(4, [(1, 3), (2, 4)])]),
    )]
    cases += [(data, {g for _, g in _word_elements(data, 3)})
              for data in _split_cases()]
    rows = 0
    for data, elements in cases:
        for g in elements:
            model = induce(data, g)
            assert _all_pairs_rows(data, g) == \
                [[(y, t)] for y, t in zip(model.columns, model.labels)]
            rows += model.size
    assert rows > 250


def test_induce_refuses_a_broken_coset_map(s3_a3):
    g = Perm.from_cycles(3, [(1, 2)])
    s3_a3.coset_of = lambda h: 0
    with pytest.raises(Inconsistent, match="row is not monomial"):
        induce(s3_a3, g)
    s3_a3._in_lam = lambda h: True
    with pytest.raises(Inconsistent, match="column is not monomial"):
        induce(s3_a3, g)


def test_induced_model_holds_columns_and_labels():
    assert [f.name for f in fields(InducedModel)] == \
        ["data", "element", "columns", "labels"]
    assert not hasattr(induced, "AlgebraElement")
    assert not hasattr(induced, "delta")
    assert not hasattr(induced._IntMatrixAction, "_check_bijective")


def _is_bijective(action, m):
    """Bijectivity of one action matrix, tested directly: the free block has
    determinant +-1 (Fraction elimination) and the torsion part maps
    injectively."""
    free = action.lam.free_rank
    work = [[Fraction(m[i][j]) for j in range(free)] for i in range(free)]
    det = Fraction(1)
    for col in range(free):
        piv = next((r for r in range(col, free) if work[r][col]), None)
        if piv is None:
            return False
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, free):
            f = work[r][col] / work[col][col]
            for c in range(col, free):
                work[r][c] -= f * work[col][c]
    if det not in (1, -1):
        return False
    torsion = [(0,) * free + tail for tail in
               itertools.product(*map(range, action.lam.factors))]
    return len({action.apply(m, t) for t in torsion}) == len(torsion)


def test_homomorphism_check_implies_bijective_actions():
    """Every action the homomorphism check accepts is bijective, on a seeded
    sweep of random integer actions of Z2, Z3, S3 and Z4."""
    phis = [pg(2, [(1, 2)]), pg(3, [(1, 2, 3)]), pg(3, [(1, 2)], [(1, 2, 3)]),
            pg(4, [(1, 2, 3, 4)])]
    rng = random.Random(2017)
    accepted = refused = moving = 0
    for _ in range(3000):
        phi = rng.choice(phis)
        free = rng.randrange(3)
        factors = [rng.choice((2, 3, 4, 6)) for _ in range(rng.randrange(3 - free))]
        lam = induced.AbelianWithFreePart(free, factors)
        n = lam.rank
        mats = [[[rng.randint(-1, 1) if r < free and c < free else
                  0 if r < free else rng.randrange(6) for c in range(n)]
                 for r in range(n)] for _ in phi.generators]
        try:
            action = induced._IntMatrixAction(lam, phi, mats)
        except ModelInputError:
            refused += 1
            continue
        accepted += 1
        moving += len(set(action.matrices.values())) > 1
        assert all(_is_bijective(action, m) for m in action.matrices.values())
    assert accepted >= 300 and refused >= 300 and moving >= 100
    z4 = induced.AbelianWithFreePart(0, [4])
    doubling = ((2,),)
    assert not _is_bijective(induced._IntMatrixAction(z4, pg(1), []), doubling)
    with pytest.raises(NotWellDefined):
        VirtuallyAbelianData.split(0, [4], pg(2, [(1, 2)]), [[[2]]])


def _word_loop_report(data, word_len):
    """The stationarity report built by inducing every word on its own."""
    ident = data.gamma.identity
    tested = []
    for word, g in _word_elements(data, word_len):
        expected = Fraction(1) if g == ident else Fraction(0)
        value = induce(data, g).diagonal_identity_average()
        tested.append((".".join(word) or "e", value, expected))
    witnesses = tuple({"element": e, "value": str(v), "expected": str(x)}
                      for e, v, x in tested if v != x)
    return CheckReport("induced_stationarity", not witnesses, len(tested),
                       witnesses, {"routes_agree": True})


@pytest.mark.parametrize("tamper", [False, True])
def test_word_stationarity_induces_each_element_once(monkeypatch, tamper):
    """With a free part every word is reported, and induce runs once per
    distinct element the words reach.  Tampered averages give witnesses in
    the same order as the loop that induces every word."""
    if tamper:
        monkeypatch.setattr(InducedModel, "diagonal_identity_average",
                            lambda self: Fraction(sum(self.element[0]) % 3, 2))
    calls = []

    def spy(data, g):
        calls.append(g)
        return induce(data, g)

    for data in _split_cases():
        if data.finite:
            continue
        words = _word_elements(data, 3)
        expected = _word_loop_report(data, 3)
        calls.clear()
        monkeypatch.setattr(induced, "induce", spy)
        report = check_stationarity(data, word_len=3)
        monkeypatch.setattr(induced, "induce", induce)
        assert report == expected
        assert bool(report.witnesses) == tamper
        assert sorted(map(repr, calls)) == sorted({repr(g) for _, g in words})
        assert len(calls) < len(words)
