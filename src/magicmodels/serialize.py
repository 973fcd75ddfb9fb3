"""JSON encoding for every value the command line reads or writes.

Exact scalars travel as strings ("p/q") or {"order", "coeffs"} objects so no
precision is lost; bare JSON numbers always mean float mode.  Scalars,
matrices, permutations and fiber models have both a *_to_json writer and a
*_from_json reader, and reading back what was written gives the same value
and type, save that an integral Fraction reads back as an int.

A model repeats a few fibers many times (the S4 family model has 4 distinct
fibers among 384, the Z8 block model 8 among 64), so equal fibers are one
object from reader to writer.  model_from_json parses each distinct fiber
payload once and shares the matrix, keyed by the payload's stored form (its
marshal bytes, which tell true from 1 and -0.0 from 0.0), never by Python
equality.  model_to_json builds one payload per distinct fiber object.
Reports and artifacts are written by render_json, which gives the bytes of
json.dumps with indent=2 and sorted keys.  It appends every piece of text to
one list of parts and joins the list once, and it reuses the text of a dict
that it meets again at one indentation.  A command renders each artifact
once: dump_json returns the text it wrote, and the report that embeds the
artifact takes that text, re-indented by embedded, in place of another walk.
"""
from __future__ import annotations

import json
import marshal
import math
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .cyclotomic import Cyc
from .errors import CapExceeded, ModelInputError
from .groups import DEFAULT_CAP, AutoMap, FinAbelian, Perm, PermGroup
from .magic import FiberModel, _once_per_object
from .matrices import CMatrix
from .quasiflat import LatinFamily, SparseLatinSquare


class BadInput(ModelInputError):
    """Input file or JSON payload does not match the expected schema."""


def _expect(cond: bool, msg: str):
    if not cond:
        raise BadInput(msg)


def _is_int(v) -> bool:
    """Whether a JSON value is an integer: true and false are not, though a
    Python bool is an int."""
    return isinstance(v, int) and not isinstance(v, bool)


# -- scalars ----------------------------------------------------------------

def _ratio_text(c: int, den: int) -> str:
    """str(Fraction(c, den)) for ints c and den > 0."""
    g = math.gcd(c, den)
    if g == den:
        return str(c // den)
    return f"{c // g}/{den // g}"


def scalar_to_json(x):
    if isinstance(x, Cyc):
        den = x.den
        return {"order": x.order, "coeffs": [_ratio_text(c, den) for c in x.num]}
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, float):
        return x
    raise BadInput(f"cannot serialize scalar of type {type(x).__name__}")


@lru_cache(maxsize=4096)
def _rational(text: str):
    """The value of a rational string: an int when it is integral, else a
    Fraction.  A model file holds only a few distinct coefficient strings, so
    parsed values are kept (both types are immutable)."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadInput(f"bad rational string {text!r}") from exc
    return value.numerator if value.denominator == 1 else value


@lru_cache(maxsize=4096)
def _cyclotomic(order: int, coeffs: tuple) -> Cyc:
    """The Cyc of a checked order and tuple of coefficient strings.  A model
    file holds only a few distinct values, so each is built once and shared
    (Cyc values are immutable)."""
    values = [_rational(c) for c in coeffs]
    den = math.lcm(*[c.denominator for c in values])
    return Cyc._of(order, tuple([c.numerator * (den // c.denominator) for c in values]), den)


def _finite(v) -> float:
    """A JSON number as a float; booleans, NaN, the infinities and integers
    beyond the float range are input errors."""
    _expect(not isinstance(v, bool), "booleans are not scalars")
    try:
        x = float(v)
    except OverflowError as exc:
        raise BadInput("number is out of the float range") from exc
    _expect(math.isfinite(x), f"non-finite number {v!r}")
    return x


def scalar_from_json(v):
    if isinstance(v, str):
        return _rational(v)
    if isinstance(v, (int, float)):
        return _finite(v)
    if isinstance(v, dict) and "order" in v:
        _expect(isinstance(v.get("coeffs"), list), "cyclotomic needs a coeffs list")
        order = v["order"]
        _expect(_is_int(order) and order >= 1, "cyclotomic order must be a positive integer")
        _expect(len(v["coeffs"]) == order, "cyclotomic coeffs length must equal the order")
        _expect(all(isinstance(c, str) for c in v["coeffs"]),
                "cyclotomic coeffs must be rational strings")
        return _cyclotomic(order, tuple(v["coeffs"]))
    if isinstance(v, dict) and "re" in v:
        _expect(isinstance(v.get("re"), (int, float)) and isinstance(v.get("im"), (int, float)),
                "complex scalar needs numeric re and im")
        return complex(_finite(v["re"]), _finite(v["im"]))
    raise BadInput(f"unrecognized scalar payload {v!r}")


# -- matrices ---------------------------------------------------------------

def matrix_to_json(m: CMatrix) -> dict:
    return {
        "mode": m.mode,
        "rows": [[scalar_to_json(m.entry(i, j)) for j in range(m.cols)]
                 for i in range(m.rows)],
    }


def matrix_from_json(v) -> CMatrix:
    _expect(isinstance(v, dict) and "rows" in v, "matrix needs a rows field")
    mode = v.get("mode", "exact")
    _expect(mode in ("exact", "float"), f"unknown matrix mode {mode!r}")
    rows = v["rows"]
    _expect(isinstance(rows, list) and rows, "matrix rows must be a nonempty list")
    _expect(all(isinstance(r, list) and len(r) == len(rows[0]) and r for r in rows),
            "matrix rows must be nonempty and equal length")
    data = [[scalar_from_json(c) for c in row] for row in rows]
    for row in data:
        for c in row:
            exact = isinstance(c, (int, Fraction, Cyc))
            if exact != (mode == "exact"):
                raise BadInput("matrix entries do not match the declared mode")
    try:
        return CMatrix(mode, data)
    except ValueError as exc:
        raise BadInput(str(exc)) from exc


# -- permutations and groups ------------------------------------------------

def perm_to_json(p: Perm) -> list:
    return list(p.images)


def perm_from_json(v) -> Perm:
    _expect(isinstance(v, list) and all(_is_int(i) for i in v),
            "permutation must be a list of 1-based images")
    try:
        return Perm(tuple(v))
    except ValueError as exc:
        raise BadInput(str(exc)) from exc


# Every element of a group is a tuple of degree images and orbits walks every
# point, so a declared degree costs time and memory before the cap applies.
_DEGREE_MAX = 1024


def group_from_json(v, cap: int = DEFAULT_CAP) -> PermGroup:
    """The group; a declared degree above _DEGREE_MAX is refused before any
    permutation is built."""
    _expect(isinstance(v, dict) and "generators" in v, "group needs a generators field")
    _expect(isinstance(v["generators"], list), "group generators must be a list")
    degree = v.get("degree")
    if degree is not None:
        _expect(_is_int(degree) and degree >= 1, "degree must be a positive integer")
        _expect(degree <= _DEGREE_MAX, f"degree must be at most {_DEGREE_MAX}")
    gens = [perm_from_json(p) for p in v["generators"]]
    _expect(bool(gens) or degree is not None, "empty generator list needs an explicit degree")
    _expect(degree is not None or gens[0].degree >= 1, "generators must have degree at least 1")
    return PermGroup.from_generators(gens, degree=degree, cap=cap)


def abelian_from_json(v, cap: int = DEFAULT_CAP) -> FinAbelian:
    """The group; an order above cap is CapExceeded, found by a running
    product that stops at the first factor past cap, before any element is
    listed."""
    _expect(isinstance(v, dict) and isinstance(v.get("factors"), list),
            "abelian group needs a factors list")
    _expect(all(_is_int(n) and n >= 1 for n in v["factors"]),
            "factors must be positive integers")
    order = 1
    for n in v["factors"]:
        order *= n
        if order > cap:
            raise CapExceeded(f"more than {cap} elements")
    return FinAbelian(v["factors"])


def abelian_auto_from_images(group: FinAbelian, images) -> AutoMap:
    """Automorphism of a finite abelian group from images of the canonical
    generators, each given as an element tuple."""
    _expect(isinstance(images, list) and len(images) == len(group.factors),
            "need one image per canonical generator")
    imgs = []
    for img in images:
        _expect(isinstance(img, (list, tuple)) and len(img) == len(group.factors)
                and all(_is_int(a) for a in img),
                "each image must be an element tuple")
        imgs.append(tuple(a % f for a, f in zip(img, group.factors)))

    def fn(elem):
        out = group.identity
        for a, img in zip(elem, imgs):
            out = group.mul(out, group.power(img, a))
        return out

    return AutoMap.from_function(group, fn)


# -- fiber models -----------------------------------------------------------

def model_to_json(model: FiberModel) -> dict:
    """The model's payload.  Each distinct fiber object has one payload
    object, placed wherever the fiber is, so the payload is read-only."""
    payload = _once_per_object(matrix_to_json)
    return {
        "n": model.n,
        "dim": model.dim,
        "points": [
            {
                "label": model.labels[x],
                "weight": str(model.weights[x]),
                "entries": [[payload(model.entries[i][j][x])
                             for j in range(model.n)] for i in range(model.n)],
            }
            for x in range(model.n_points)
        ],
    }


def _fiber_reader():
    """matrix_from_json, run once per distinct stored form of a fiber
    payload: equal payloads read back as one shared matrix (CMatrix values
    are immutable).  The key is the payload's marshal bytes at version 2,
    which has no back-references, so the bytes depend only on the types and
    values: true is not 1 and -0.0 is not 0.0, as the parse tells them
    apart.  A payload that marshal refuses (not plain JSON data, or nested
    too deep) is parsed on its own.  Only a parsed matrix is kept, so a bad
    payload raises wherever it occurs."""
    read = {}

    def fiber(v) -> CMatrix:
        try:
            key = marshal.dumps(v, 2)
        except ValueError:
            return matrix_from_json(v)
        m = read.get(key)
        if m is None:
            m = read[key] = matrix_from_json(v)
        return m

    return fiber


def model_from_json(v) -> FiberModel:
    _expect(isinstance(v, dict), "model must be an object")
    for field in ("n", "dim", "points"):
        _expect(field in v, f"model needs a {field} field")
    n, dim, points = v["n"], v["dim"], v["points"]
    _expect(_is_int(n) and n >= 1, "n must be a positive integer")
    _expect(_is_int(dim) and dim >= 1, "dim must be a positive integer")
    _expect(isinstance(points, list) and points, "points must be a nonempty list")
    labels, weights, grids = [], [], []
    fiber = _fiber_reader()
    for pt in points:
        _expect(isinstance(pt, dict) and "weight" in pt and "entries" in pt,
                "each point needs weight and entries")
        labels.append(str(pt.get("label", len(labels))))
        w = pt["weight"]
        _expect(isinstance(w, str), "point weights must be rational strings")
        try:
            weight = Fraction(w)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadInput(f"bad point weight {w!r}") from exc
        _expect(weight >= 0, "point weights must be nonnegative")
        weights.append(weight)
        rows = pt["entries"]
        _expect(isinstance(rows, list) and len(rows) == n
                and all(isinstance(r, list) and len(r) == n for r in rows),
                "point entries must form an n x n grid")
        grids.append([[fiber(c) for c in row] for row in rows])
    entries = [[tuple(grids[x][i][j] for x in range(len(points)))
                for j in range(n)] for i in range(n)]
    return FiberModel(n, dim, labels, weights, entries)


# -- latin data -------------------------------------------------------------

def family_to_json(fam: LatinFamily) -> dict:
    return {"size": fam.size, "members": [perm_to_json(p) for p in fam.members]}


def square_to_json(sq: SparseLatinSquare) -> dict:
    return {"degree": len(sq.cells), "cells": [list(row) for row in sq.cells]}


def check_to_json(report) -> dict:
    """JSON form of a CheckReport: its five fields."""
    return {
        "name": report.name,
        "passed": report.passed,
        "checked": report.checked,
        "witnesses": [dict(w) for w in report.witnesses],
        "details": dict(report.details),
    }


# -- files ------------------------------------------------------------------

def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadInput(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers too long to convert
        raise BadInput(f"{path} is not valid JSON: {exc}") from exc


def dump_json(value, path: str) -> str:
    """Write render_json(value) to path and return the text.  The text is
    rendered before the file is opened, so a value that does not render
    leaves the file as it was.  A path that cannot be written is BadInput."""
    text = render_json(value)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadInput(f"cannot write {path}: {exc}") from exc
    return text


def render_json(value, memo=None) -> str:
    """The bytes of json.dumps(value, indent=2, sort_keys=True) plus a
    newline.  With an indent, json encodes through its pure-Python generator
    encoder; this renderer appends every piece of the same text to one list
    and joins the list once.

    A dict object met more than once at one indentation, as the shared fiber
    payloads of model_to_json are, renders to the same text each time.  Its
    first meeting notes where its text lies in the list; its second meeting
    joins that slice, and the text is reused after that.  Every dict stays
    alive in value while it renders, so no id is reused.  memo, as embedded
    makes it, holds a text that the renderer takes without a walk; the call
    fills it in, so it serves one call."""
    out = []
    _render(value, "", {} if memo is None else memo, out)
    out.append("\n")
    return "".join(out)


def embedded(d: dict, text: str) -> dict:
    """A render_json memo under which the dict d, held by the rendered value
    as one of its own members, renders as text without a walk.  text is
    render_json(d), as dump_json returns it.  The json escapes leave no
    newline inside a string, so d's text two spaces in is text with two
    spaces after each newline.  Only that copy is kept, so the written text
    can go before the report's text is joined."""
    return {(id(d), "  "): text[:-1].replace("\n", "\n  ")}


def _scalar_text(v):
    """The text json writes for a str (before quoting), None, bool, int or
    float, as a value or as a key; None for any other type."""
    if isinstance(v, str):
        return v
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == math.inf:
            return "Infinity"
        if v == -math.inf:
            return "-Infinity"
        return float.__repr__(v)
    return None


def _render(v, pad: str, seen: dict, out: list):
    """Append the text of one value at indentation pad to out; containers
    put each member on its own line, two spaces deeper, and dicts sort their
    items by the original keys.  seen maps (id, pad) of each nonempty dict
    rendered so far to its text once that is known, else to the (start, end)
    slice of out that holds it."""
    if isinstance(v, str):
        out.append(_quote(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        for x in v:
            if type(x) is str:
                out.append(_quote(x))
            else:
                _render(x, inner, seen, out)
            out.append(sep)
        out[-1] = "\n" + pad + "]"
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        key = (id(v), pad)
        mark = seen.get(key)
        if mark is not None:
            if type(mark) is tuple:
                mark = seen[key] = "".join(out[mark[0]:mark[1]])
            out.append(mark)
            return
        start = len(out)
        inner = pad + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for k, x in sorted(v.items()):
            name = k if type(k) is str else _scalar_text(k)
            if name is None:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {type(k).__name__}")
            name = _quote(name) + ": "
            if type(x) is str:
                out.append(name + _quote(x))
            else:
                out.append(name)
                _render(x, inner, seen, out)
            out.append(sep)
        out[-1] = "\n" + pad + "}"
        seen[key] = (start, len(out))
    else:
        text = _scalar_text(v)
        if text is None:
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
        out.append(text)
