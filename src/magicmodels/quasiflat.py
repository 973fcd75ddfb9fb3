"""Sparse-Latin-family search, the classical quasi-flat model construction,
uniform-generator certification, and trace-vector eigenvalue criteria.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    Inconsistent,
    InvalidFamily,
    NotQuasiTransitive,
    NotWellDefined,
    ShapeMismatch,
)
from .groups import PermGroup, abelianization, extend_automorphism, orbit_blocks
from .magic import (
    CheckReport,
    FiberModel,
    bichon_build,
    orbits_from_source,
    quasi_flat_check,
    stationarity_check,
    verify_magic,
)
from .matrices import (
    CMatrix,
    _check_spectral_pre,
    _traces_and_multiplicities,
    scalars_equal,
)

__all__ = [
    "LatinFamily",
    "NoFamily",
    "SparseLatinSquare",
    "classical_model_from_family",
    "derangement_scan",
    "latin_family_search",
    "quasiflat_dual_check",
    "trace_vector_check",
    "uniform_check",
]


@dataclass(frozen=True)
class LatinFamily:
    """Members sigma_1, ..., sigma_K of G whose values at every point are
    pairwise distinct."""

    group: PermGroup
    size: int
    members: tuple

    def __post_init__(self):
        if len(self.members) != self.size:
            raise InvalidFamily("member count differs from the declared size")
        degree = self.group.degree
        for m in range(1, degree + 1):
            seen = set()
            for s in self.members:
                v = s(m)
                if v in seen:
                    raise InvalidFamily(f"members collide at point {m}")
                seen.add(v)


@dataclass(frozen=True)
class NoFamily:
    """Certificate that an exhaustive backtracking search found no family."""

    group_order: int
    size: int
    explored: int
    exhaustive: bool = True


class SparseLatinSquare:
    """N x N array with entry (i, j) = k when sigma_k(j) = i, else None."""

    def __init__(self, cells):
        self.cells = tuple(tuple(row) for row in cells)
        n = len(self.cells)
        if any(len(row) != n for row in self.cells):
            raise ShapeMismatch("cells must be square")

    @property
    def n(self) -> int:
        return len(self.cells)

    @classmethod
    def from_family(cls, fam: LatinFamily) -> "SparseLatinSquare":
        n = fam.group.degree
        cells = [[None] * n for _ in range(n)]
        for k, s in enumerate(fam.members, start=1):
            for j in range(1, n + 1):
                cells[s(j) - 1][j - 1] = k
        return cls(cells)


def derangement_scan(group: PermGroup) -> tuple:
    """All elements without fixed points, in enumeration order."""
    return tuple(s for s in group.elements if not s.fixed_points())


def latin_family_search(group: PermGroup, size: int):
    """Lexicographically first family found by backtracking over the group's
    elements in enumeration order, normalized to sigma_1 = identity; or an
    exhaustive NoFamily certificate.  The explored count is the number of
    candidate placements tested.

    clash[c] is a bitmask over element indices marking every element that
    agrees with c at some point: the union of the (point, image) buckets c
    lies in.  Agreement is symmetric, so c conflicts with the chosen members
    exactly when its bit lies in `forbidden`, the union of their clash masks,
    and each node walks only the free bits above its start.  Only a NoFamily
    reports the count, and there every node tests all n - start candidates
    from its start on, so it adds that without visiting each.  Candidate
    order and the explored count are those of the plain point-by-point
    comparison."""
    blocks = orbit_blocks(group)
    sizes = {len(b) for b in blocks}
    if sizes != {size}:
        raise NotQuasiTransitive(
            f"orbit sizes {sorted(sizes)} do not all equal {size}")
    elements = list(group.elements)
    n = len(elements)
    buckets = [[0] * (group.degree + 1) for _ in range(group.degree)]
    for c, s in enumerate(elements):
        for bucket, v in zip(buckets, s.images):
            bucket[v] |= 1 << c
    clash = []
    for s in elements:
        mask = 0
        for bucket, v in zip(buckets, s.images):
            mask |= bucket[v]
        clash.append(mask)
    explored = 0
    chosen = [0]

    def extend(start: int, forbidden: int):
        nonlocal explored
        if len(chosen) == size:
            return True
        free = ((1 << n) - (1 << start)) & ~forbidden
        while free:
            c = (free & -free).bit_length() - 1
            chosen.append(c)
            if extend(c + 1, forbidden | clash[c]):
                return True
            chosen.pop()
            free &= free - 1
        explored += n - start
        return False

    if extend(1, clash[0]):
        fam = LatinFamily(group, size,
                          tuple(elements[c] for c in chosen))
    else:
        fam = NoFamily(group.order, size, explored)
    if size == 2 and bool(derangement_scan(group)) != isinstance(fam, LatinFamily):
        raise Inconsistent(
            "size-2 family existence disagrees with the derangement scan")
    return fam


def classical_model_from_family(group: PermGroup, fam: LatinFamily) -> FiberModel:
    """Model over X = G with uniform weights: the (i, j) fiber at x is the
    diagonal unit E_kk for the unique k with sigma_k(x(j)) = i.  The result
    must certify as magic, quasi-flat, and stationary at word length 2."""
    for s in fam.members:
        if s not in group:
            raise InvalidFamily("family member outside the group")
    k_size = fam.size
    n = group.degree
    points = list(group.elements)
    units = [CMatrix.exact([[1 if (a == b == k) else 0 for b in range(k_size)]
                            for a in range(k_size)]) for k in range(k_size)]
    zero = CMatrix.zeros(k_size, k_size)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            fibers = []
            for x in points:
                hit = zero
                target = x(j + 1)
                for k, s in enumerate(fam.members):
                    if s(target) == i + 1:
                        hit = units[k]
                        break
                fibers.append(hit)
            row.append(tuple(fibers))
        entries.append(row)
    model = FiberModel(n, k_size, [str(x) for x in points],
                       [Fraction(1, len(points))] * len(points), entries)
    if not verify_magic(model).passed:
        raise Inconsistent("family model failed the magic conditions")
    if not quasi_flat_check(model, orbits_from_source(group)).passed:
        raise Inconsistent("family model failed the rank-one conditions")
    if not stationarity_check(group, model, word_len=2).passed:
        raise Inconsistent("family model failed stationarity at length 2")
    return model


def uniform_check(group: PermGroup, generators) -> CheckReport:
    """Certify the four uniform-generator conditions: (1) the listed elements
    generate the group; (2) they share a common order K; (3) sending the i-th
    coordinate generator of Z_K^M to the class of g_i defines a surjection
    onto the abelianization; (4) every transposition of two generators
    extends to an automorphism of the group they generate.  One witness per
    failing condition; details are the common `order` (None unless (2)
    holds), the generator `count`, the verdict per condition in
    `conditions`, `first_failing` and the `abelian_factors` of the
    abelianization, read off the group's Cayley graph (abelianization).
    When the listed elements are the group's own generators, (1) and (4)
    reuse the group's enumeration, so no group is enumerated twice."""
    gens = list(generators)
    m_count = len(gens)
    witnesses = []
    conditions = {}
    for g in gens:
        if g not in group:
            raise InvalidFamily("generator outside the group")
    # The generators lie in the group, so what they generate fits its order.
    sub = group.subgroup(gens, cap=group.order)
    conditions[1] = sub.order == group.order
    if not conditions[1]:
        witnesses.append({"condition": 1, "generated_order": sub.order,
                          "group_order": group.order})
    orders = [g.order() for g in gens]
    common = orders[0] if orders else 1
    conditions[2] = all(o == common for o in orders)
    if not conditions[2]:
        witnesses.append({"condition": 2, "orders": orders})
    ab, proj = abelianization(group)
    images = [proj[g] for g in gens]
    well_defined = all(common % ab.element_order(img) == 0 for img in images)
    span = {ab.identity}
    frontier = [ab.identity]
    while frontier:
        cur = frontier.pop()
        for img in images:
            nxt = ab.mul(cur, img)
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    surjective = len(span) == ab.order
    conditions[3] = well_defined and surjective
    if not conditions[3]:
        witnesses.append({"condition": 3, "well_defined": well_defined,
                          "image_subgroup_order": len(span),
                          "abelianization_order": ab.order})
    swap_ok = True
    swap_witness = None
    for a in range(m_count):
        for b in range(a + 1, m_count):
            swapped = list(gens)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            # The swapped list lies in sub and generates it, so an
            # extension that is a homomorphism is onto.
            try:
                extend_automorphism(sub, swapped)
            except NotWellDefined:
                swap_ok = False
                swap_witness = (a + 1, b + 1)
                break
        if not swap_ok:
            break
    conditions[4] = swap_ok
    if not swap_ok:
        witnesses.append({"condition": 4, "pair": swap_witness})
    failing = [c for c in (1, 2, 3, 4) if not conditions[c]]
    details = {"order": common if conditions[2] else None, "count": m_count,
               "conditions": conditions,
               "first_failing": failing[0] if failing else None,
               "abelian_factors": ab.factors}
    return CheckReport("uniform", not failing, 4, tuple(witnesses), details)


def trace_vector_check(u: CMatrix, k: int, tol=None) -> CheckReport:
    """Passes iff the power-trace vector (Tr U^a) for a < K is (K, 0, ..., 0);
    cross-validated against all spectral multiplicities being 1.  One witness
    per power whose trace is off; details are the K power traces in `trace`
    and the eigenvalue `multiplicities`."""
    if u.rows != k:
        raise ShapeMismatch(f"need a {k} x {k} matrix for order {k}")
    traces, mults = _traces_and_multiplicities(_check_spectral_pre(u, k, tol), tol)
    witnesses = tuple({"power": a, "trace": str(t)} for a, t in enumerate(traces)
                      if not scalars_equal(t, k if a == 0 else 0, tol))
    if (not witnesses) != all(m == 1 for m in mults):
        raise Inconsistent(
            "trace vector and spectral multiplicities disagree")
    return CheckReport("trace_vector", not witnesses, k, witnesses,
                       {"trace": traces, "multiplicities": mults})


def quasiflat_dual_check(generator_fibers, k: int, labels=None,
                         tol=None) -> CheckReport:
    """Each generator is a list of unitary fibers of order dividing K and
    dimension K.  Passes iff every fiber of every generator has flat trace
    vector; cross-validated against rank-one-ness of the per-fiber
    block-diagonal model."""
    gens = [list(fibers) for fibers in generator_fibers]
    if not gens:
        raise ShapeMismatch("need at least one generator")
    n_points = len(gens[0])
    if any(len(f) != n_points for f in gens):
        raise ShapeMismatch("generators disagree on the fiber set")
    if labels is None:
        labels = [str(x) for x in range(n_points)]
    witnesses = []
    checked = 0
    for x in range(n_points):
        fiber_flat = True
        for i, fibers in enumerate(gens):
            checked += 1
            report = trace_vector_check(fibers[x], k, tol)
            if not report.passed:
                fiber_flat = False
                witnesses.append({"generator": i + 1, "point": labels[x],
                                  "trace": [str(t) for t in report.details["trace"]]})
        model = bichon_build([k] * len(gens), [f[x] for f in gens], tol)
        flat = quasi_flat_check(model, orbits_from_source([k] * len(gens)), tol)
        if flat.passed != fiber_flat:
            raise Inconsistent(
                "trace vectors and model flatness disagree on a fiber")
    return CheckReport("quasiflat_dual", not witnesses, checked, tuple(witnesses))
