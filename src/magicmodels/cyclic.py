"""Cyclic matrix models: cycle-fill entries over a finite group with an
order-K automorphism, half-liberation relation checks, the semidirect-product
stationarity certificate, and the K-symmetry conjugation invariant.

`CyclicModelData` builds the powers sigma^0, ..., sigma^(K-1) of the
automorphism once, while it checks that sigma^K = id.  The model fibers and
the crossed-product and star rules of L x| Z_K all read sigma^t from that one
table.

A cyclic model repeats a few fibers many times (the Z_13 model with K = 3
holds 14 distinct fibers in 117 places).  `build_cyclic_model` keeps one
object per distinct stored form, and the checks do their per-fiber work once
per object: each adjoint and self-adjointness test, each K-symmetry test,
each pair's products a b* and a* b with their diagonality, each commutation
test of two products and each abc = cba test.  Every entry, pair and triple
is still counted and reported as before.  The tables that hold products are
caches of bounded size.  The crossed-product certificate compares two
functions on L only where one of them is nonzero.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .cyclotomic import zeta
from .errors import (
    BadArgument,
    Inconsistent,
    InvalidAutomorphism,
    ModeMismatch,
    NotRepresentation,
    NotUnitary,
    ShapeMismatch,
)
from .groups import AutoMap
from .magic import (
    _SHARED_MAX,
    CheckReport,
    FiberModel,
    _once_per_object,
    _stored_form,
)
from .matrices import CMatrix, scalars_equal

__all__ = [
    "CyclicModelData",
    "abelian_rep",
    "build_cyclic_model",
    "cycle_fill",
    "semidirect_stationarity",
    "verify_half_liberation",
    "verify_k_symmetry",
]


def cycle_fill(xs):
    """Fill the standard K-cycle with x_1, ..., x_K: row r carries x_r in
    column r-1 (mod K), so row 1 carries x_1 in the last column.  Accepts
    scalars or same-shaped CMatrix blocks."""
    xs = list(xs)
    k = len(xs)
    if k < 1:
        raise BadArgument("need at least one element")
    if isinstance(xs[0], CMatrix):
        d, mode = xs[0].rows, xs[0].mode
        for x in xs:
            if not isinstance(x, CMatrix) or x.rows != d or x.cols != d:
                raise ShapeMismatch("blocks must be square of equal size")
            if x.mode != mode:
                raise ModeMismatch("blocks must share a mode")
        zero = CMatrix.zeros(d, d, mode)
        grid = [[xs[r] if c == (r - 1) % k else zero for c in range(k)]
                for r in range(k)]
        return CMatrix.from_blocks(grid)
    rows = [[xs[r] if c == (r - 1) % k else 0 for c in range(k)]
            for r in range(k)]
    if any(isinstance(x, (float, complex)) for x in xs):
        return CMatrix.floating([[complex(v) for v in row] for row in rows])
    return CMatrix.exact(rows)


class CyclicModelData:
    """A finite group L, a unitary representation v given on every element,
    and an automorphism sigma of order dividing K.  `powers` holds
    sigma^0, ..., sigma^(K-1); sigma^t is powers[t % K] for every integer t."""

    def __init__(self, group, rep: dict, auto: AutoMap, k: int):
        if k < 1:
            raise BadArgument("K must be positive")
        powers = [AutoMap.identity(group)]
        step = auto
        while not step.is_identity() and len(powers) < k:
            powers.append(step)
            step = step.compose(auto)
        if not step.is_identity() or k % len(powers):
            raise InvalidAutomorphism(f"automorphism order does not divide {k}")
        self.group = group
        self.auto = auto
        self.k = k
        self.powers = tuple(powers) * (k // len(powers))
        self.rep = dict(rep)
        elements = list(group.elements)
        missing = [g for g in elements if g not in self.rep]
        if missing:
            raise NotRepresentation(f"no matrix assigned to {missing[0]!r}")
        first = self.rep[elements[0]]
        self.dim = first.rows
        self.mode = first.mode
        for g in elements:
            m = self.rep[g]
            if m.rows != self.dim or m.cols != self.dim:
                raise ShapeMismatch("representation matrices differ in size")
            if m.mode != self.mode:
                raise ModeMismatch("representation matrices differ in mode")
            if not m.is_unitary():
                raise NotUnitary(f"matrix at {g!r} is not unitary")
        # v(e) = 1 and v(a s) = v(a) v(s) on the generator steps give
        # v(ab) = v(a) v(b), by induction on a word for b.
        e = group.identity
        if not self.rep[e].is_identity():
            raise NotRepresentation(f"v({e!r})v({e!r}) differs from v of the product")
        for a in elements:
            for s in group.generators:
                if self.rep[group.mul(a, s)] != self.rep[a] * self.rep[s]:
                    raise NotRepresentation(
                        f"v({a!r})v({s!r}) differs from v of the product")


def abelian_rep(group, generator_images) -> dict:
    """Representation of a FinAbelian group from one unitary per factor:
    exponent tuple (a_1, ..., a_r) maps to the product of U_i^a_i."""
    images = list(generator_images)
    if len(images) != len(group.factors):
        raise ShapeMismatch("need one image per cyclic factor")
    if not images:
        raise ShapeMismatch("need at least one generator image")
    rep = {}
    for g in group.elements:
        m = CMatrix.identity(images[0].rows, images[0].mode)
        for a, u in zip(g, images):
            m = m * u.power(a)
        rep[g] = m
    return rep


def build_cyclic_model(data: CyclicModelData) -> FiberModel:
    """Fibers are K x K cycle-fill matrices; row r of the (i, j) entry at
    point g carries the (i, j) coordinate of v(sigma^r(g)).  Fibers with one
    stored form are one shared object."""
    elements = list(data.group.elements)
    n, k = data.dim, data.k
    weights = [Fraction(1, len(elements))] * len(elements)
    kept = {}

    def fiber(vals):
        m = cycle_fill(vals)
        return kept.setdefault(_stored_form(m), m)

    entries = [[tuple(fiber([data.rep[data.powers[r % k](g)].entry(i, j)
                             for r in range(1, k + 1)])
                      for g in elements)
                for j in range(n)] for i in range(n)]
    model = FiberModel(n, k, [str(g) for g in elements], weights, entries)
    adjoint = _once_per_object(CMatrix.adjoint)
    for x in range(model.n_points):
        big = model.assembled(x)
        if not big.is_unitary():
            raise Inconsistent("assembled fiber is not unitary")
        if not _entrywise_adjoint(model, x, adjoint).is_unitary():
            raise Inconsistent("entrywise adjoint fiber is not unitary")
    return model


def _entrywise_adjoint(model: FiberModel, x: int, adjoint) -> CMatrix:
    """The fiber at x with every entry replaced by its adjoint (as the
    function adjoint gives it), the block positions kept."""
    return CMatrix.from_blocks([
        [adjoint(model.entries[i][j][x]) for j in range(model.n)]
        for i in range(model.n)
    ])


# Each table of products holds at most this many matrix entries (scalars)
# and is emptied when full, which loses only sharing.  So a model without
# repeated fibers does not keep the products of every point.
_TABLE_SCALARS = 1 << 16


def verify_half_liberation(model: FiberModel, tol=None) -> CheckReport:
    """Per fiber: U and its entrywise adjoint are unitary; every product
    a b* and a* b of entries is diagonal; those products all commute; and
    when every entry of the fiber is self-adjoint, abc = cba on all entry
    triples.  Per-fiber work runs once per fiber object, pair or triple of
    them, and each commutation test once per pair of product objects."""
    n = model.n
    exact = model.mode == "exact"
    limit = max(1, _TABLE_SCALARS // (2 * model.dim ** 2))
    adjoint = _once_per_object(CMatrix.adjoint)
    self_adjoint = _once_per_object(lambda f: f.is_self_adjoint(tol))
    pair_forms = _once_per_object(
        lambda a, b: tuple((tag, m, m.is_diagonal(tol)) for tag, m in
                           (("ab*", a * adjoint(b)), ("a*b", adjoint(a) * b))),
        limit)
    commute = _once_per_object(lambda p, q: (p * q).close_to(q * p, tol), limit)
    abc_cba = _once_per_object(
        lambda a, b, c: (a * b * c).close_to(c * b * a, tol), _SHARED_MAX)
    witnesses = []
    checked = 0
    for x in range(model.n_points):
        big = model.assembled(x)
        checked += 1
        if not big.is_unitary(tol):
            witnesses.append({"kind": "not_unitary", "point": model.labels[x]})
        checked += 1
        if not _entrywise_adjoint(model, x, adjoint).is_unitary(tol):
            witnesses.append({"kind": "conjugate_not_unitary",
                              "point": model.labels[x]})
        flat = [(i, j, model.entries[i][j][x])
                for i in range(n) for j in range(n)]
        prods, flagged = [], []
        for (i1, j1, a) in flat:
            for (i2, j2, b) in flat:
                for tag, m, is_diagonal in pair_forms(a, b):
                    checked += 1
                    if not is_diagonal:
                        witnesses.append({
                            "kind": "not_diagonal", "form": tag,
                            "left": (i1 + 1, j1 + 1), "right": (i2 + 1, j2 + 1),
                            "point": model.labels[x],
                        })
                    prods.append(m)
                    # Exactly diagonal matrices commute; within tol they need not.
                    flagged.append(not (exact and is_diagonal))
        # Only a pair with a flagged member is tested, in (a, b) order.
        count = len(prods)
        checked += count * (count - 1) // 2
        off = [a for a in range(count) if flagged[a]]
        for a in range(count if off else 0):
            later = range(a + 1, count) if flagged[a] else off[bisect_right(off, a):]
            for b in later:
                if not commute(prods[a], prods[b]):
                    witnesses.append({"kind": "products_do_not_commute",
                                      "pair": (a, b), "point": model.labels[x]})
        if all(self_adjoint(m) for _, _, m in flat):
            for (i1, j1, a) in flat:
                for (i2, j2, b) in flat:
                    for (i3, j3, c) in flat:
                        checked += 1
                        if not abc_cba(a, b, c):
                            witnesses.append({
                                "kind": "abc_cba",
                                "triple": ((i1 + 1, j1 + 1), (i2 + 1, j2 + 1),
                                           (i3 + 1, j3 + 1)),
                                "point": model.labels[x],
                            })
    return CheckReport("half_liberation", not witnesses, checked, tuple(witnesses))


def semidirect_stationarity(data: CyclicModelData) -> CheckReport:
    """The basis delta_g tau^i of functions on L x| Z_K, multiplied with the
    crossed-product structure constants, maps to cyclic-diagonal matrix
    functions on L: the fiber at h of the image of delta_g tau^i carries
    [h = sigma^(-r)(g)] in row r - 1 on the cyclic diagonal c = r - 1 - i,
    for r = 1, ..., K.  Certifies that the map is a *-homomorphism and that
    the normalized trace-average of each image equals the group integral.
    Every sigma^t is read from the power table `data.powers`."""
    elements = list(data.group.elements)
    k, powers = data.k, data.powers
    basis = [(g, i) for g in elements for i in range(k)]
    zero = CMatrix.zeros(k, k)
    # The fiber of delta_g tau^i at h, kept only on its support, the points
    # h = sigma^(-r-1)(g); it is the zero matrix everywhere else.
    support = {}
    for g, i in basis:
        hits = {}
        for r in range(k):
            h = powers[(-r - 1) % k](g)
            if h not in hits:
                hits[h] = [[0] * k for _ in range(k)]
            hits[h][r][(r - i) % k] = 1
        support[(g, i)] = {h: CMatrix.exact(rows) for h, rows in hits.items()}
    position = {h: x for x, h in enumerate(elements)}
    witnesses = []
    checked = 0
    # Crossed-product rule: (g, i)(h, j) = (g, i + j) when h = sigma^(-i)(g),
    # and 0 otherwise.  Both sides are zero at a point where a factor is
    # zero and the product is, so only the other points are compared, in
    # element order.
    for b1 in basis:
        g, i = b1
        partner = powers[-i % k](g)
        left = support[b1]
        for b2 in basis:
            checked += 1
            h, j = b2
            right = support[b2]
            prod = support[(g, (i + j) % k)] if h == partner else {}
            points = sorted(left.keys() & right.keys() | prod.keys(),
                            key=position.__getitem__)
            for x in points:
                rhs = prod.get(x, zero)
                fl, fr = left.get(x), right.get(x)
                lhs = zero if fl is None or fr is None else fl * fr
                if lhs != rhs:
                    witnesses.append({"kind": "not_multiplicative",
                                      "left": str(b1), "right": str(b2),
                                      "point": str(x)})
                    break
    # Star rule: (g, i)* = (sigma^(-i)(g), -i), compared on both supports.
    for b in basis:
        checked += 1
        g, i = b
        star = support[(powers[-i % k](g), -i % k)]
        for h in sorted(support[b].keys() | star.keys(), key=position.__getitem__):
            if support[b].get(h, zero).adjoint() != star.get(h, zero):
                witnesses.append({"kind": "star_mismatch", "element": str(b),
                                  "point": str(h)})
                break
    for b in basis:
        checked += 1
        g, i = b
        total = None
        for h in elements:
            t = support[b].get(h, zero).ntrace()
            total = t if total is None else total + t
        model_side = total * Fraction(1, len(elements))
        haar = None
        for x in elements:
            for t in range(k):
                val = zeta(k, (t * i) % k) if x == g else 0
                haar = val if haar is None else haar + val
        haar_side = haar * Fraction(1, len(elements) * k)
        if not scalars_equal(model_side, haar_side):
            witnesses.append({"kind": "not_stationary", "element": str(b),
                              "model": str(model_side), "haar": str(haar_side)})
    return CheckReport("semidirect_stationarity", not witnesses, checked,
                       tuple(witnesses))


def verify_k_symmetry(model: FiberModel, tol=None) -> CheckReport:
    """Conjugation by diag(1, zeta_K, ..., zeta_K^(K-1)), K the fiber
    dimension, must multiply every fiber of every entry by zeta_K.  Each fiber
    object is tested once; every entry it fills is counted and reported."""
    k = model.dim
    dmat = CMatrix(model.mode,
                   [[zeta(k, r) if r == c else 0 for c in range(k)]
                    for r in range(k)])
    factor = zeta(k, 1)
    dinv = dmat.adjoint()
    symmetric = _once_per_object(
        lambda f: (dmat * f * dinv).close_to(f.scale(factor), tol))
    witnesses = []
    checked = 0
    for i in range(model.n):
        for j in range(model.n):
            for x in range(model.n_points):
                checked += 1
                if not symmetric(model.entries[i][j][x]):
                    witnesses.append({"row": i + 1, "col": j + 1,
                                      "point": model.labels[x]})
    return CheckReport("k_symmetry", not witnesses, checked, tuple(witnesses))
