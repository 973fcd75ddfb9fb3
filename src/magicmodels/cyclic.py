"""Cyclic matrix models: cycle-fill entries over a finite group with an
order-K automorphism, half-liberation relation checks, the semidirect-product
stationarity certificate, and the K-symmetry invariant.

`CyclicModelData` builds the powers sigma^0, ..., sigma^(K-1) of the
automorphism once, while it checks that sigma^K = id; the fibers and the
crossed-product and star rules of L x| Z_K all read sigma^t from that table.
`build_cyclic_model` keeps one object per distinct stored form, and the checks
do their work once per object, pair or triple of objects, while every entry,
pair and triple is counted and reported.  No check does cyclotomic arithmetic
of its own: K-symmetry is read off each fiber's support, the crossed-product
certificate composes 0/1 index maps under a work budget and has its Haar side
in closed form, and float products are tested for commutation only where they
can differ.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .errors import (
    BadArgument,
    BudgetExceeded,
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
from .matrices import EPS, CMatrix, _float_roots, scalars_equal

__all__ = [
    "CyclicModelData",
    "abelian_rep",
    "build_cyclic_model",
    "check_semidirect_budget",
    "cycle_fill",
    "semidirect_comparisons",
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


# Both parts of a diagonal entry at most this in size keep every product of
# two such entries finite: each part is at most 2e300.
_DIAGONAL_PART_MAX = 1e150


def _float_diagonal(m: CMatrix) -> bool:
    """Whether CMatrix.__mul__ reads the float m as a diagonal matrix whose
    entries multiply without overflow: it skips every entry within EPS, so
    each row must keep at most its diagonal entry, and that entry must have
    both parts at most _DIAGONAL_PART_MAX (so NaN and infinity fail)."""
    return all(j == i and abs(x.real) <= _DIAGONAL_PART_MAX
               and abs(x.imag) <= _DIAGONAL_PART_MAX
               for i, row in enumerate(m._nonzero_rows()) for j, x in row)


def verify_half_liberation(model: FiberModel, tol=None) -> CheckReport:
    """Per fiber: U and its entrywise adjoint are unitary; every product
    a b* and a* b of entries is diagonal; those products all commute; and
    when every entry of the fiber is self-adjoint, abc = cba on all entry
    triples.  Per-fiber work runs once per fiber object, pair or triple of
    them, and each commutation test once per pair of product objects.

    A commutation test runs only where the two products can differ.  Exactly
    diagonal products commute.  In float mode, let p and q be products that
    CMatrix.__mul__ reads as diagonal with bounded entries (_float_diagonal).
    Then p q and q p are diagonal: entry (i, i) is 0j + p_ii q_ii when both
    factors exceed EPS, and 0j otherwise.  Complex * and + commute exactly,
    so p q and q p are equal bit for bit and finite, and close_to holds for
    every tol >= 0.  So a pair of such products is not tested unless tol is
    negative or NaN."""
    n = model.n
    exact = model.mode == "exact"
    float_settles = tol is None or tol >= 0
    limit = max(1, _TABLE_SCALARS // (2 * model.dim ** 2))
    adjoint = _once_per_object(CMatrix.adjoint)
    self_adjoint = _once_per_object(lambda f: f.is_self_adjoint(tol))

    def forms(a, b):
        """(tag, product, diagonal within tol, commutes with every such
        product) for a b* and a* b."""
        out = []
        for tag, m in (("ab*", a * adjoint(b)), ("a*b", adjoint(a) * b)):
            diagonal = m.is_diagonal(tol)
            out.append((tag, m, diagonal,
                        diagonal if exact else float_settles and _float_diagonal(m)))
        return tuple(out)

    pair_forms = _once_per_object(forms, limit)
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
                for tag, m, is_diagonal, settled in pair_forms(a, b):
                    checked += 1
                    if not is_diagonal:
                        witnesses.append({
                            "kind": "not_diagonal", "form": tag,
                            "left": (i1 + 1, j1 + 1), "right": (i2 + 1, j2 + 1),
                            "point": model.labels[x],
                        })
                    prods.append(m)
                    flagged.append(not settled)
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


# The semidirect certificate makes at most this many (pair, point)
# comparisons; semidirect_comparisons counts them before any work.
_SEMIDIRECT_BUDGET = 1_000_000


def semidirect_comparisons(data: CyclicModelData) -> int:
    """The number of (pair, point) comparisons semidirect_stationarity makes
    at most: a sigma-orbit of d elements carries d K basis elements, and
    each is compared with the d K elements over its orbit at the d points
    of the orbit, so the orbit costs d^3 K^2.  Counted by walking each orbit
    once, at most K steps from its first element."""
    k, step = data.k, data.powers[1 % data.k]
    seen = set()
    total = 0
    for g in data.group.elements:
        if g in seen:
            continue
        seen.add(g)
        d, h = 1, step(g)
        while h != g and d < k:
            seen.add(h)
            d, h = d + 1, step(h)
        total += d ** 3 * k ** 2
    return total


def check_semidirect_budget(data: CyclicModelData):
    """Raise BudgetExceeded when semidirect_stationarity would make more
    than _SEMIDIRECT_BUDGET comparisons on data."""
    need = semidirect_comparisons(data)
    if need > _SEMIDIRECT_BUDGET:
        raise BudgetExceeded(f"semidirect certificate needs {need} comparisons, "
                             f"more than {_SEMIDIRECT_BUDGET}")


def semidirect_stationarity(data: CyclicModelData) -> CheckReport:
    """The basis delta_g tau^i of functions on L x| Z_K, multiplied with the
    crossed-product structure constants, maps to cyclic-diagonal matrix
    functions on L: the fiber at h of the image of delta_g tau^i carries
    [h = sigma^(-r)(g)] in row r - 1 on the cyclic diagonal c = r - 1 - i,
    for r = 1, ..., K.  Certifies that the map is a *-homomorphism and that
    the normalized trace-average of each image equals the group integral.
    Every sigma^t is read from the power table `data.powers`.

    Each fiber is a 0/1 matrix with at most one 1 per row, kept as its index
    map {row: column}: a product is a composition, the adjoint a transpose
    (compared as a set of pairs), the zero matrix the empty map, and ntrace
    the number of fixed rows over K.  The fibers of delta_g tau^i are
    nonzero only on the points sigma^t(g), the support of g.  A pair (b1,
    b2) is compared only at the points where one side is nonzero, so a pair
    whose supports are disjoint, other than b1 times its partner
    (sigma^(-i)(g), j), has no point to compare; only the rest is visited,
    in basis order, and every pair is counted.  The model side has K fixed
    rows when i = 0 and none otherwise, for any power table, so comparing it
    with the closed form _haar_side checks `support`.  Inputs over
    _SEMIDIRECT_BUDGET comparisons raise BudgetExceeded first."""
    check_semidirect_budget(data)
    elements = list(data.group.elements)
    k, powers = data.k, data.powers
    position = {h: x for x, h in enumerate(elements)}
    basis = [(g, i) for g in elements for i in range(k)]
    # The fiber of delta_g tau^i at h = sigma^(-r-1)(g) maps row r to column
    # r - i; it is the zero matrix everywhere else.  owners[h] lists the g
    # whose support holds h.
    support, owners = {}, {}
    for g in elements:
        hits = {}
        for r in range(k):
            hits.setdefault(powers[(-r - 1) % k](g), []).append(r)
        for h in hits:
            owners.setdefault(h, []).append(g)
        for i in range(k):
            support[(g, i)] = {h: {r: (r - i) % k for r in rows}
                               for h, rows in hits.items()}
    witnesses = []
    # Crossed-product rule: (g, i)(h, j) = (g, i + j) when h = sigma^(-i)(g),
    # and 0 otherwise.  Both sides are zero at a point where a factor is
    # zero and the product is, so only the other points are compared, in
    # element order: the support of g for the partner, whose product lives
    # there, and for any other h the points where the supports meet.
    for g in elements:
        points = support[(g, 0)].keys()
        ordered = sorted(points, key=position.__getitem__)
        near = {h for x in points for h in owners[x]}
        common = {h: sorted(points & support[(h, 0)].keys(), key=position.__getitem__)
                  for h in near}
        for i in range(k):
            b1 = (g, i)
            partner = powers[-i % k](g)
            left = support[b1]
            for h in sorted(near | {partner}, key=position.__getitem__):
                for j in range(k):
                    right = support[(h, j)]
                    if h == partner:
                        prod, where = support[(g, (i + j) % k)], ordered
                    else:
                        prod, where = {}, common[h]
                    for x in where:
                        fr = right.get(x, {})
                        lhs = {r: fr[c] for r, c in left[x].items() if c in fr}
                        if lhs != prod.get(x, {}):
                            witnesses.append({"kind": "not_multiplicative",
                                              "left": str(b1), "right": str((h, j)),
                                              "point": str(x)})
                            break
    # Star rule: (g, i)* = (sigma^(-i)(g), -i), compared on both supports.
    for b in basis:
        g, i = b
        fibers = support[b]
        star = support[(powers[-i % k](g), -i % k)]
        for h in sorted(fibers.keys() | star.keys(), key=position.__getitem__):
            adjoint = {(c, r) for r, c in fibers.get(h, {}).items()}
            if adjoint != set(star.get(h, {}).items()):
                witnesses.append({"kind": "star_mismatch", "element": str(b),
                                  "point": str(h)})
                break
    for b in basis:
        g, i = b
        fixed = sum(r == c for fiber in support[b].values() for r, c in fiber.items())
        model_side = Fraction(fixed, k) * Fraction(1, len(elements))
        haar = _haar_side(i, len(elements))
        if not scalars_equal(model_side, haar):
            witnesses.append({"kind": "not_stationary", "element": str(b),
                              "model": str(model_side), "haar": str(haar)})
    checked = len(basis) ** 2 + 2 * len(basis)
    return CheckReport("semidirect_stationarity", not witnesses, checked,
                       tuple(witnesses))


def _haar_side(i: int, size: int) -> Fraction:
    """sum_t zeta_K^(ti) / (size K), the group integral of delta_g tau^i over
    L x| Z_K with |L| = size and 0 <= i < K: 1/size at i = 0, else 0."""
    return Fraction(0 if i else 1, size)


def verify_k_symmetry(model: FiberModel, tol=None) -> CheckReport:
    """Conjugation by D = diag(1, zeta, ..., zeta^(K-1)), zeta = zeta_K and K
    the fiber dimension, must multiply every fiber f by zeta.  Entry (r, c) of
    D f D* is zeta^(r-c) f_rc, so this holds exactly when f is zero off the
    cycle-fill diagonal c = r - 1 (mod K), as every entry is at K = 1.  Float
    mode keeps the verdict of the float product, which drops |x| <= EPS, and
    close_to: an entry x at offset d = r - c (mod K) passes when |x| <= tol if
    |x| <= EPS, else when |x| |zeta^d - zeta| <= tol; a negative or NaN tol
    fails every fiber.  Each fiber object is tested once; every entry counts."""
    k = model.dim
    if model.mode == "exact":
        def symmetric(f):
            return all(c == (r - 1) % k
                       for r, row in enumerate(f._nonzero_rows()) for c, _ in row)
    else:
        tol = EPS if tol is None else tol
        roots = _float_roots(k)
        gaps = [abs(z - roots[1 % k]) for z in roots]

        def symmetric(f):
            return all(abs(x) <= tol if abs(x) <= EPS else abs(x) * gaps[(r - c) % k] <= tol
                       for r, row in enumerate(f.data) for c, x in enumerate(row))
    symmetric = _once_per_object(symmetric)
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
