from fractions import Fraction

import pytest

from magicmodels.errors import NotNormal
from magicmodels.groups import Perm
from magicmodels.induced import (
    VirtuallyAbelianData, check_stationarity, evaluate_at_character,
    frobenius_trace, induce,
)
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


def test_monomial_structure(s3_a3):
    gamma = s3_a3.gamma
    for g in gamma.elements:
        model = induce(s3_a3, g)
        assert model.size == s3_a3.n_reps == 2
        for row in model.grid:
            assert sum(1 for e in row if not e.is_zero()) == 1


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
    # Z3 x| Z2 presented split agrees with the S3/A3 permutation route
    phi = pg(2, [(1, 2)])
    split = VirtuallyAbelianData.split(0, [3], phi, [[[-1]]])
    assert split.finite
    srep = check_stationarity(split)
    assert srep.passed and srep.details["routes_agree"]
