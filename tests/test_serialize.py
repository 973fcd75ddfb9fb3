"""JSON encodings: round trips for scalars, matrices, permutations and
models, and the one-way encodings of groups, Latin data and certificates."""
import json
from fractions import Fraction

import pytest

from magicmodels import serialize
from magicmodels.cyclotomic import Cyc, zeta
from magicmodels.groups import FinAbelian, Perm
from magicmodels.magic import FiberModel, bichon_build, verify_magic
from magicmodels.matrices import CMatrix
from magicmodels.quasiflat import (
    SparseLatinSquare, classical_model_from_family, latin_family_search,
)
from magicmodels.serialize import (
    BadInput,
    abelian_auto_from_images,
    abelian_from_json,
    dump_json,
    embedded,
    family_to_json,
    group_from_json,
    matrix_from_json,
    matrix_to_json,
    model_from_json,
    model_to_json,
    perm_from_json,
    perm_to_json,
    render_json,
    scalar_from_json,
    scalar_to_json,
    square_to_json,
)

F = Fraction


def test_scalar_round_trips():
    for x in (F(3, 7), F(-1, 2), 5, zeta(5, 2), zeta(12, 7) + F(1, 3),
              0.25, complex(1.5, -2.0)):
        back = scalar_from_json(json.loads(json.dumps(scalar_to_json(x))))
        if isinstance(x, int):
            assert back == F(x)
        elif isinstance(x, Cyc):
            assert back == x
        else:
            assert back == x


def test_scalar_strings_stay_exact():
    payload = scalar_to_json(F(1, 3))
    assert payload == "1/3"
    assert scalar_from_json(payload) == F(1, 3)
    z = zeta(8, 3)
    enc = scalar_to_json(z)
    assert enc["order"] == 8 and len(enc["coeffs"]) == 8
    assert all(isinstance(c, str) for c in enc["coeffs"])


def test_scalar_bad_inputs():
    with pytest.raises(BadInput):
        scalar_from_json("3/0")
    with pytest.raises(BadInput):
        scalar_from_json("not-a-number")
    with pytest.raises(BadInput):
        scalar_from_json(True)
    with pytest.raises(BadInput):
        scalar_from_json({"order": 4, "coeffs": ["1", "0"]})
    with pytest.raises(BadInput):
        scalar_from_json({"order": 2, "coeffs": [1.5, 0]})
    with pytest.raises(BadInput):
        scalar_from_json([1, 2])


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_non_finite_numbers_are_input_errors(text):
    value = json.loads(text)
    for payload in (value, {"re": value, "im": 0}, {"re": 0, "im": value}):
        with pytest.raises(BadInput):
            scalar_from_json(payload)
    assert scalar_from_json({"re": 1e308, "im": -0.5}) == complex(1e308, -0.5)


def test_matrix_round_trip_exact_and_float():
    m = CMatrix.exact([[F(1, 2), zeta(3, 1)], [0, -1]])
    assert matrix_from_json(matrix_to_json(m)) == m
    f = CMatrix.floating([[0.5, -0.25], [1.0, 0.0]])
    back = matrix_from_json(matrix_to_json(f))
    assert back.mode == "float"
    assert back == f


def test_matrix_mode_mismatch_rejected():
    with pytest.raises(BadInput):
        matrix_from_json({"mode": "exact", "rows": [[0.5]]})
    with pytest.raises(BadInput):
        matrix_from_json({"mode": "float", "rows": [["1/2"]]})
    with pytest.raises(BadInput):
        matrix_from_json({"mode": "woah", "rows": [["1"]]})
    with pytest.raises(BadInput):
        matrix_from_json({"rows": []})
    with pytest.raises(BadInput):
        matrix_from_json({"rows": [["1"], ["1", "0"]]})


def test_perm_and_group_round_trips(d4):
    p = Perm.from_cycles(4, [(1, 2, 3, 4)])
    assert perm_from_json(perm_to_json(p)) == p
    back = group_from_json({"degree": 4, "generators": [[2, 3, 4, 1], [3, 2, 1, 4]]})
    assert back.degree == d4.degree
    assert set(back.elements) == set(d4.elements)
    with pytest.raises(BadInput):
        perm_from_json([1, 1, 2])
    with pytest.raises(BadInput):
        perm_from_json("(1 2)")
    with pytest.raises(BadInput):
        group_from_json({"degree": 3})
    assert group_from_json({"degree": 12, "generators": []}).degree == 12
    with pytest.raises(BadInput, match="^degree must be at most 1024$"):
        group_from_json({"degree": 1025, "generators": []})


def test_abelian_round_trip_and_auto_images():
    g = FinAbelian([2, 4])
    assert abelian_from_json({"factors": [2, 4]}).factors == g.factors
    auto = abelian_auto_from_images(g, [[1, 0], [0, 3]])
    assert auto((1, 1)) == (1, 3)
    assert auto((0, 2)) == (0, 2)
    with pytest.raises(BadInput):
        abelian_auto_from_images(g, [[1, 0]])
    with pytest.raises(BadInput):
        abelian_from_json({"factors": [0]})


def test_model_round_trip_preserves_certification():
    m = bichon_build([2, 2], [
        CMatrix.exact([[1, 0], [0, -1]]),
        CMatrix.exact([[-1, 0], [0, 1]]),
    ])
    payload = json.loads(json.dumps(model_to_json(m)))
    back = model_from_json(payload)
    assert back.n == m.n and back.dim == m.dim
    assert back.n_points == m.n_points
    for i in range(m.n):
        for j in range(m.n):
            for x in range(m.n_points):
                assert back.entries[i][j][x] == m.entries[i][j][x]
    assert verify_magic(back).passed


def test_model_bad_schema():
    with pytest.raises(BadInput):
        model_from_json({"n": 2, "dim": 2})
    with pytest.raises(BadInput):
        model_from_json({"n": 2, "dim": 2, "points": []})
    with pytest.raises(BadInput):
        model_from_json({"n": 1, "dim": 1, "points": [
            {"weight": 1.0, "entries": [[{"rows": [["1"]]}]]}]})
    with pytest.raises(BadInput):
        model_from_json({"n": 2, "dim": 1, "points": [
            {"weight": "1", "entries": [[{"rows": [["1"]]}]]}]})


def test_family_and_square_round_trip(klein4):
    fam = latin_family_search(klein4, 4)
    payload = family_to_json(fam)
    assert payload["size"] == 4
    assert len(payload["members"]) == 4
    sq = SparseLatinSquare.from_family(fam)
    assert square_to_json(sq) == {"degree": 4, "cells": [list(row) for row in sq.cells]}


def test_render_json_is_deterministic():
    value = {"b": [1, 2], "a": {"y": "1/2", "x": None}}
    out = render_json(value)
    assert out == render_json({"a": {"x": None, "y": "1/2"}, "b": [1, 2]})
    assert out.endswith("\n")
    assert json.loads(out) == value


class Real(float):
    pass


class Whole(int):
    pass


# Dict objects that the edge inputs hold more than once.
SHARED = {"b": [1, 2.5, {"c": None}], "a": "x"}
OUTER = {"in": SHARED, "z": [SHARED]}
EMPTY = {}

RENDER_EDGES = [
    "plain", "é ü ☃ \U0001f600", "tab\tnew\nline \x00\x1f \"quoted\" back\\slash",
    -0.0, 0.0, 1e300, -1e-300, 0.1, float("nan"), float("inf"), float("-inf"),
    0, -7, 10 ** 40, True, False, None,
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[[1, [2, []]]]],
    (1, (2, "x"), []), [(), ((),)],
    {1: "one", -2: "minus two", 10: "ten"},
    {True: 1, False: 0}, {None: "none"}, {1.5: "x", -0.0: "y", float("inf"): "z"},
    {"b": 1, "a": {"d": [1, 2.5, None], "c": ("t", True)}, "é": "\x7f"},
    Real(2.5), [Real(-0.0), Real(1e-7)], {"r": Real(3.0)}, [Whole(5)], {Whole(2): Whole(-3)},
    # one dict at three indentations, four times at the second
    {"p": SHARED, "q": [SHARED, SHARED, {"r": SHARED}], "s": [SHARED, SHARED]},
    [[[SHARED, SHARED]], [[SHARED], SHARED], [[[SHARED]]]],
    [EMPTY, {"a": EMPTY, "b": [EMPTY, EMPTY]}, EMPTY],
    # a shared dict whose text holds the reused text of another
    [OUTER, SHARED, OUTER, {"k": OUTER}, [OUTER, SHARED], OUTER],
]


@pytest.mark.parametrize("value", RENDER_EDGES, ids=range(len(RENDER_EDGES)))
def test_render_json_writes_the_bytes_of_json_dumps(value):
    assert render_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    {"a": object()}, [1, {2, 3}], Fraction(1, 2), b"bytes", 1j, {(1, 2): "tuple key"},
    {1: "int", "a": "str"},
])
def test_render_json_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        render_json(value)


def test_render_json_reuses_an_embedded_text(monkeypatch):
    value = {"m": OUTER, "n": [OUTER], "o": SHARED}
    memo = embedded(OUTER, render_json(OUTER)) | embedded(SHARED, render_json(SHARED))
    walked = []
    real = serialize._render

    def spy(v, *args):
        walked.append(v)
        return real(v, *args)

    monkeypatch.setattr(serialize, "_render", spy)
    assert render_json(value, memo) == json.dumps(value, indent=2, sort_keys=True) + "\n"
    # The members OUTER and SHARED take their embedded texts; the OUTER one
    # level deeper is walked, and so are the two SHARED inside it.
    assert sum(v is OUTER["z"] for v in walked) == 1
    assert sum(v is SHARED["b"] for v in walked) == 2


def test_dump_json_keeps_the_file_when_the_value_does_not_render(tmp_path):
    path = tmp_path / "kept.json"
    assert dump_json({"a": [1, "x"]}, str(path)) == path.read_text()
    before = path.read_bytes()
    with pytest.raises(TypeError):
        dump_json({"a": object()}, str(path))
    assert path.read_bytes() == before


def test_cyc_coefficients_are_written_as_fraction_text():
    values = [zeta(8, 3), zeta(12, 7) * F(-3, 4) + F(1, 6),
              Cyc(5, (F(-1, 2), 0, 3, F(4, 6), F(-9, 3))), Cyc(1, (F(-7, 3),)),
              Cyc(6, (0,) * 6), Cyc(3, (F(1, 2), F(1, 2), F(1, 2)))]
    for x in values:
        enc = scalar_to_json(x)
        assert enc == {"order": x.order, "coeffs": [str(F(c, x.den)) for c in x.num]}
        back = scalar_from_json(json.loads(json.dumps(enc)))
        assert (back.order, back.num, back.den) == (x.order, x.num, x.den)
        assert back == x


def test_equal_cyc_payloads_read_as_equal_values():
    payload = {"order": 4, "coeffs": ["1/2", "0", "-3/4", "2"]}
    first, second = scalar_from_json(payload), scalar_from_json(dict(payload))
    public = Cyc(4, [F(1, 2), 0, F(-3, 4), 2])
    for x in (first, second):
        assert (x.order, x.num, x.den) == (public.order, public.num, public.den)
    with pytest.raises(BadInput):
        scalar_from_json({"order": 4, "coeffs": ["1/2", "0", "x", "2"]})
    with pytest.raises(BadInput):
        scalar_from_json({"order": 4, "coeffs": ["1/2", "0", "1/0", "2"]})


def test_integral_rationals_read_back_as_ints():
    for text, value in (("4/2", 2), ("-0", 0), ("1", 1), ("0", 0), ("-6/3", -2),
                        ("1000000000000", 10 ** 12)):
        back = scalar_from_json(text)
        assert type(back) is int and back == value, text
    half = scalar_from_json("1/2")
    assert type(half) is Fraction and half == F(1, 2)
    for bad in ("3/0", "-0/0", "not-a-number", "", "1/2/3", "1//2"):
        with pytest.raises(BadInput):
            scalar_from_json(bad)


def test_ints_are_written_as_their_decimal_text():
    for x, text in ((5, "5"), (-10 ** 12, "-1000000000000"), (0, "0"), (True, "1"),
                    (False, "0"), (F(4, 2), "2"), (F(-1, 2), "-1/2")):
        assert scalar_to_json(x) == text


def _scalar_types(model):
    """The type of every weight and of every fiber entry, in order."""
    return ([type(w) for w in model.weights],
            [type(x) for row in model.entries for fibers in row
             for f in fibers for line in f.data for x in line])


def test_model_round_trip_keeps_every_scalar_type(d4):
    family = classical_model_from_family(d4, latin_family_search(d4, 4))
    mixed = FiberModel(2, 2, ["p", "q"], [F(1, 3), F(2, 3)], [
        [(CMatrix.exact([[F(1, 2), zeta(4)], [0, 3]]), CMatrix.exact([[1, 0], [0, 1]])),
         (CMatrix.exact([[zeta(8, 3) * F(1, 3), -2], [F(-5, 2), 0]]), CMatrix.zeros(2, 2))],
        [(CMatrix.zeros(2, 2), CMatrix.exact([[F(4, 3), zeta(8)], [zeta(4) * 2, F(7, 9)]])),
         (CMatrix.identity(2), CMatrix.exact([[0, F(-1, 4)], [Cyc(4, (1, 0, 1, 0)), 1]]))],
    ])
    for model in (family, mixed):
        back = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert _scalar_types(back) == _scalar_types(model)
        assert model_to_json(back) == model_to_json(model)
    assert set(_scalar_types(family)[1]) == {int}
    assert set(_scalar_types(mixed)[1]) == {int, Fraction, Cyc}


# -- equal fibers read back as one object -------------------------------------

def _points_model(mode, *fibers):
    """A 1 x 1 model payload with one point per fiber payload, of equal weights."""
    return {"n": 1, "dim": 1, "points": [
        {"label": str(x), "weight": f"1/{len(fibers)}",
         "entries": [[{"mode": mode, "rows": [[entry]]}]]}
        for x, entry in enumerate(fibers)]}


@pytest.mark.parametrize("good, bad", [
    (1, True),
    (1.0, True),
    ({"re": 1, "im": 0}, {"re": True, "im": 0}),
    ({"re": 0, "im": 1.0}, {"re": 0, "im": True}),
], ids=["number", "float", "re", "im"])
def test_a_boolean_fiber_read_after_an_equal_number_is_rejected(good, bad):
    # True == 1 == 1.0 in Python, so a reader keyed by equality would hand the
    # boolean fiber the matrix parsed from the number.
    assert model_from_json(_points_model("float", good, good)).n_points == 2
    for order in ((good, bad), (bad, good)):
        with pytest.raises(BadInput, match="booleans are not scalars"):
            model_from_json(_points_model("float", *order))


def test_a_boolean_cyclotomic_order_read_after_an_equal_int_is_rejected():
    good = {"order": 1, "coeffs": ["1"]}
    with pytest.raises(BadInput, match="order must be a positive integer"):
        model_from_json(_points_model("exact", good, {"order": True, "coeffs": ["1"]}))


@pytest.mark.parametrize("zero, minus_zero", [
    (0.0, -0.0),
    ({"re": 0.0, "im": 0.0}, {"re": -0.0, "im": 0.0}),
    ({"re": 0.0, "im": 0.0}, {"re": 0.0, "im": -0.0}),
], ids=["number", "re", "im"])
def test_a_minus_zero_fiber_keeps_its_sign(zero, minus_zero):
    # -0.0 == 0.0 in Python, so a reader keyed by equality would read the
    # second fiber back as the first.
    want = scalar_from_json(minus_zero)
    back = model_from_json(_points_model("float", zero, minus_zero, zero))
    first, second, third = back.entries[0][0]
    assert first is third and second is not first
    assert repr(second.data[0][0]) == repr(complex(want)) != repr(first.data[0][0])
    payload = json.loads(json.dumps(model_to_json(back)))
    assert [pt["entries"][0][0]["rows"][0][0] for pt in payload["points"]] == \
        [scalar_to_json(complex(0.0)), scalar_to_json(complex(want)), scalar_to_json(complex(0.0))]


def _fiber_objects(model):
    return [f for row in model.entries for fibers in row for f in fibers]


def test_equal_cyc_fibers_read_back_as_one_object():
    shift = CMatrix.exact([[1 if r == (c + 1) % 4 else 0 for c in range(4)] for r in range(4)])
    model = bichon_build([4], [shift])
    payload = json.loads(json.dumps(model_to_json(model)))
    back = model_from_json(payload)
    fibers = _fiber_objects(back)
    assert len(fibers) == 16 and len({id(f) for f in fibers}) == 4
    assert any(isinstance(x, Cyc) for f in fibers for row in f.data for x in row)
    rows = [c for pt in payload["points"] for row in pt["entries"] for c in row]
    for f, row in zip(fibers, rows):
        for g, other in zip(fibers, rows):
            assert (f is g) == (row == other)
    assert model_to_json(back) == payload
    assert verify_magic(back).passed


def test_each_distinct_fiber_has_one_payload_object(d4):
    model = classical_model_from_family(d4, latin_family_search(d4, 4))
    payload = model_to_json(model)
    fibers = [c for pt in payload["points"] for row in pt["entries"] for c in row]
    assert len(fibers) == 128 and len({id(c) for c in fibers}) == 4
    assert render_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    back = model_from_json(json.loads(render_json(payload)))
    assert len({id(f) for f in _fiber_objects(back)}) == 4
    assert model_to_json(back) == payload


def test_render_json_of_one_object_at_two_depths():
    shared = {"b": [1, 2.5, {"c": None}], "a": "x"}
    row = [shared, "y"]
    value = {"p": shared, "q": shared, "s": shared, "r": [shared, row, [row]], "t": row}
    assert render_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert render_json([value, value]) == json.dumps([value, value], indent=2, sort_keys=True) + "\n"
