"""Magic unitary matrix models and their certification.

A model assigns to each coordinate u_ij an entry of a matrix-valued function
on a finite weighted point set.  Certification is word-based: the state
word -> sum_x w_x ntrace(P_{i1 j1}(x) ... P_{im jm}(x)) is compared against a
reference Haar state, either counting permutations (classical reference) or
extracting the identity coefficient in a group algebra (dual reference).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import zeta
from .errors import (
    Inconsistent,
    ModeMismatch,
    NotFiniteOrder,
    NotQuasiTransitive,
    ShapeMismatch,
)
from .group_algebra import AlgebraElement
from .groups import PermGroup, _joined_blocks, orbit_blocks
from .matrices import (
    CMatrix,
    _check_spectral_pre,
    _fourier_sum,
    _powers,
    scalars_equal,
)

__all__ = [
    "DualWordReference",
    "FiberModel",
    "OrbitStructure",
    "StateOnWords",
    "bichon_build",
    "block_projection",
    "convolution_idempotency",
    "dual_group_stationarity",
    "fixed_point_matrix",
    "haar_word_classical",
    "orbits_from_source",
    "quasi_flat_check",
    "regular_rep",
    "single_fiber",
    "stationarity_check",
    "verify_magic",
]


class FiberModel:
    """An n x n grid of dim x dim matrix fibers over one weighted point set."""

    def __init__(self, n: int, dim: int, labels, weights, entries):
        self.n = n
        self.dim = dim
        self.labels = tuple(str(x) for x in labels)
        self.weights = tuple(Fraction(w) for w in weights)
        if len(self.labels) != len(self.weights):
            raise ShapeMismatch("labels and weights differ in length")
        if sum(self.weights) != 1:
            raise ShapeMismatch("point weights must sum to 1")
        grid = []
        mode = None
        for i in range(n):
            row = []
            for j in range(n):
                fibers = tuple(entries[i][j])
                if len(fibers) != len(self.labels):
                    raise ShapeMismatch("entry has the wrong number of fibers")
                for f in fibers:
                    if f.rows != dim or f.cols != dim:
                        raise ShapeMismatch("fiber has the wrong dimension")
                    if mode is None:
                        mode = f.mode
                    elif f.mode != mode:
                        raise ModeMismatch("mixed modes in one model")
                row.append(fibers)
            grid.append(tuple(row))
        self.entries = tuple(grid)
        self.mode = mode

    @property
    def n_points(self) -> int:
        return len(self.labels)

    def entry(self, i: int, j: int):
        """The tuple of fibers of coordinate (i, j), 0-based."""
        return self.entries[i][j]

    def assembled(self, x: int) -> CMatrix:
        """The full n*dim square matrix of the fiber at point x."""
        return CMatrix.from_blocks([
            [self.entries[i][j][x] for j in range(self.n)] for i in range(self.n)
        ])

    def to_float(self) -> "FiberModel":
        return FiberModel(
            self.n, self.dim, self.labels, self.weights,
            [[tuple(f.to_float() for f in self.entries[i][j]) for j in range(self.n)]
             for i in range(self.n)],
        )


def single_fiber(model: FiberModel, x: int) -> FiberModel:
    """Collapse a model to the single point x with full weight.  Discards the
    averaging over the point set, so stationarity is usually destroyed."""
    grid = [[(model.entries[i][j][x],) for j in range(model.n)]
            for i in range(model.n)]
    return FiberModel(model.n, model.dim, (model.labels[x],), (Fraction(1),), grid)


@dataclass(frozen=True)
class CheckReport:
    """The result of every check: the verdict, the number of cases tested,
    the failing cases as JSON-ready dicts, and check-specific facts in
    details, whose keys the producing function's docstring names."""

    name: str
    passed: bool
    checked: int
    witnesses: tuple = ()
    details: dict = field(default_factory=dict)


def verify_magic(model: FiberModel, tol=None) -> CheckReport:
    """All entries projections, all row and column sums equal to the identity,
    at every point."""
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
    return CheckReport("verify_magic", not witnesses, checked, tuple(witnesses))


@dataclass(frozen=True)
class OrbitStructure:
    """Blocks of coordinates joined by nonzero entries, 1-based and sorted."""

    blocks: tuple
    source: str
    lower_bound: bool = False

    @property
    def sizes(self) -> tuple:
        return tuple(len(b) for b in self.blocks)

    @property
    def quasi_transitive(self) -> bool:
        return len(set(self.sizes)) == 1

    @property
    def block_size(self) -> int:
        if not self.quasi_transitive:
            raise NotQuasiTransitive(f"unequal block sizes {self.sizes}")
        return self.sizes[0]


def orbits_from_source(source, tol=None) -> OrbitStructure:
    """Orbit blocks from a classical group, a dual presentation (list of
    cyclic factor sizes, giving consecutive blocks), or a model (transitive
    closure of entry support; only a lower bound on the true orbits)."""
    if isinstance(source, PermGroup):
        return OrbitStructure(orbit_blocks(source), "classical")
    if isinstance(source, FiberModel):
        n = source.n
        joined = ((i + 1, j + 1) for i in range(n) for j in range(n)
                  if any(not f.is_zero(tol) for f in source.entries[i][j]))
        return OrbitStructure(_joined_blocks(n, joined), "model", lower_bound=True)
    sizes = [int(s) for s in source]
    if any(s < 1 for s in sizes):
        raise ValueError("block sizes must be positive")
    blocks, at = [], 1
    for s in sizes:
        blocks.append(tuple(range(at, at + s)))
        at += s
    return OrbitStructure(tuple(blocks), "dual")


def quasi_flat_check(model: FiberModel, orbits: OrbitStructure, tol=None) -> CheckReport:
    """Every in-block entry has rank exactly 1 at every point.  Requires the
    orbit size to equal the fiber dimension."""
    k = orbits.block_size
    if k != model.dim:
        raise ShapeMismatch(f"orbit size {k} does not match fiber dimension {model.dim}")
    witnesses = []
    checked = 0
    for block in orbits.blocks:
        for i in block:
            for j in block:
                for x in range(model.n_points):
                    checked += 1
                    r = model.entries[i - 1][j - 1][x].rank(tol)
                    if r != 1:
                        witnesses.append({"row": i, "col": j,
                                          "point": model.labels[x], "rank": r})
    return CheckReport("quasi_flat", not witnesses, checked, tuple(witnesses))


def haar_word_classical(group: PermGroup, word) -> Fraction:
    """Haar integral of u_{i1 j1} ... u_{im jm} over a classical permutation
    group: the proportion of elements with sigma(j_a) = i_a for all a."""
    count = 0
    for sigma in group.elements:
        if all(sigma(j) == i for i, j in word):
            count += 1
    return Fraction(count, group.order)


class DualWordReference:
    """Haar-state reference for a group dual: coordinates of the magic
    unitary as group algebra elements, integrated by taking the identity
    coefficient."""

    def __init__(self, group, n: int, coords):
        self.group = group
        self.n = n
        self.coords = dict(coords)

    @classmethod
    def from_block_generators(cls, group, gens_with_orders) -> "DualWordReference":
        """Block-diagonal coordinates: block i is the order-K_i cyclic pattern
        (1/K_i) sum_a zeta^{(c - r) a} [g_i^a] for the i-th generator."""
        n = sum(k for _, k in gens_with_orders)
        zero = AlgebraElement.zero(group)
        coords = {(i, j): zero for i in range(n) for j in range(n)}
        offset = 0
        for g, k in gens_with_orders:
            powers = [group.identity]
            for _ in range(k - 1):
                powers.append(group.mul(powers[-1], g))
            if group.mul(powers[-1], g) != group.identity:
                raise NotFiniteOrder(f"generator order does not divide {k}")
            projections = []
            for d in range(k):
                coeffs = {}
                for a in range(k):
                    w = zeta(k, (-d * a) % k) * Fraction(1, k)
                    coeffs[powers[a]] = coeffs.get(powers[a], 0) + w
                projections.append(AlgebraElement(group, coeffs))
            for r in range(k):
                for c in range(k):
                    coords[(offset + r, offset + c)] = projections[(r - c) % k]
            offset += k
        return cls(group, n, coords)

    def haar(self, word):
        """Identity coefficient of the product of the word's coordinates."""
        acc = AlgebraElement.one(self.group)
        for i, j in word:
            acc = acc * self.coords[(i, j)]
            if acc.is_zero():
                break
        return acc.at_identity()


def _point_weights(model: FiberModel) -> tuple:
    """The point weights as scalars of the model's mode."""
    if model.mode == "exact":
        return model.weights
    return tuple(complex(w) for w in model.weights)


def _weighted_ntrace(weights, fibers, zero=None):
    """sum_x w_x ntrace(F_x), added in point order over the fibers that are
    not None; zero when every fiber is None."""
    total = None
    for w, f in zip(weights, fibers):
        if f is not None:
            term = f.ntrace() * w
            total = term if total is None else total + term
    return zero if total is None else total


class StateOnWords:
    """A state evaluated on all coordinate words up to a length bound."""

    def __init__(self, n: int, bound: int, table: dict):
        self.n = n
        self.bound = bound
        self.table = table

    def value(self, word):
        return self.table[tuple(word)]

    def words_by_length(self):
        """All words in length-major, lexicographic order."""
        letters = list(itertools.product(range(self.n), repeat=2))
        for m in range(self.bound + 1):
            for combo in itertools.product(letters, repeat=m):
                yield combo

    @classmethod
    def from_model(cls, model: FiberModel, bound: int) -> "StateOnWords":
        n = model.n
        zero = 0 if model.mode == "exact" else 0j
        weights = _point_weights(model)
        # Each letter with its fibers, None where the fiber is zero.
        letters = [((i, j), tuple(None if f.is_zero() else f for f in model.entries[i][j]))
                   for i in range(n) for j in range(n)]
        table = {}

        def fill(word):
            # The prefix products vanish at every point: the word and all
            # its extensions are worth the mode's zero.
            table[word] = zero
            if len(word) < bound:
                for letter, _ in letters:
                    fill(word + (letter,))

        def rec(word, prods):
            table[word] = _weighted_ntrace(weights, prods, zero)
            if len(word) == bound:
                return
            for letter, fibers in letters:
                nxt = []
                for p, f in zip(prods, fibers):
                    q = None
                    if p is not None and f is not None:
                        q = p * f
                        if q.is_zero():
                            q = None
                    nxt.append(q)
                if any(q is not None for q in nxt):
                    rec(word + (letter,), nxt)
                else:
                    fill(word + (letter,))

        start = [CMatrix.identity(model.dim, model.mode)] * model.n_points
        rec((), start)
        return cls(n, bound, table)

    @classmethod
    def from_group(cls, group: PermGroup, n: int, bound: int) -> "StateOnWords":
        table = {}
        order = group.order

        def rec(word, survivors):
            table[word] = Fraction(len(survivors), order)
            if len(word) == bound:
                return
            for i in range(n):
                for j in range(n):
                    keep = [s for s in survivors if s(j + 1) == i + 1]
                    rec(word + ((i, j),), keep)

        rec((), list(group.elements))
        return cls(n, bound, table)

    @classmethod
    def from_dual(cls, ref: DualWordReference, bound: int) -> "StateOnWords":
        table = {}

        def rec(word, acc):
            table[word] = acc.at_identity()
            if len(word) == bound:
                return
            for i in range(ref.n):
                for j in range(ref.n):
                    rec(word + ((i, j),), acc * ref.coords[(i, j)])

        rec((), AlgebraElement.one(ref.group))
        return cls(ref.n, bound, table)


def _word_label(word) -> str:
    if not word:
        return "1"
    return " ".join(f"u[{i + 1},{j + 1}]" for i, j in word)


def stationarity_check(reference, model: FiberModel, word_len: int = 3,
                       tol=None) -> CheckReport:
    """Compare the model state with the reference Haar state on every word up
    to the bound.  The reference is a classical permutation group or a
    DualWordReference.

    When the check passes on a single-point model whose reference is
    quasi-transitive with block size equal to the fiber dimension, the
    rank-one property of in-block entries is forced; that implication is
    re-checked, its verdict is details["single_point_flatness"], and a
    violation raises Inconsistent."""
    if isinstance(reference, PermGroup):
        if reference.degree != model.n:
            raise ShapeMismatch("group degree does not match the model size")
        ref_state = StateOnWords.from_group(reference, model.n, word_len)
        orbit_src = reference
    elif isinstance(reference, DualWordReference):
        if reference.n != model.n:
            raise ShapeMismatch("reference size does not match the model size")
        ref_state = StateOnWords.from_dual(reference, word_len)
        orbit_src = None
    else:
        raise TypeError("reference must be a PermGroup or DualWordReference")
    model_state = StateOnWords.from_model(model, word_len)
    witnesses = []
    checked = 0
    for word in model_state.words_by_length():
        checked += 1
        ref_v = ref_state.table[word]
        mod_v = model_state.table[word]
        if not scalars_equal(ref_v, mod_v, tol):
            witnesses.append({
                "word": _word_label(word),
                "reference": str(ref_v),
                "model": str(mod_v),
            })
    passed = not witnesses
    details = {}
    if (passed and word_len >= 2 and model.n_points == 1 and orbit_src is not None):
        orbits = orbits_from_source(orbit_src)
        if orbits.quasi_transitive and orbits.block_size == model.dim:
            flat = quasi_flat_check(model, orbits, tol)
            details["single_point_flatness"] = flat.passed
            if not flat.passed:
                raise Inconsistent(
                    "stationary single-point model failed the forced rank-one property")
    return CheckReport("stationarity", passed, checked, tuple(witnesses), details)


def convolution_idempotency(state: StateOnWords, tol=None) -> CheckReport:
    """Whether the state equals its own convolution square on every word up
    to the bound."""
    n = state.n
    witnesses = []
    checked = 0
    for word in state.words_by_length():
        m = len(word)
        checked += 1
        if m == 0:
            conv = state.table[()] * state.table[()]
        else:
            conv = None
            for mids in itertools.product(range(n), repeat=m):
                left = tuple((word[a][0], mids[a]) for a in range(m))
                right = tuple((mids[a], word[a][1]) for a in range(m))
                term = state.table[left] * state.table[right]
                conv = term if conv is None else conv + term
        if not scalars_equal(conv, state.table[word], tol):
            witnesses.append({
                "word": _word_label(word),
                "state": str(state.table[word]),
                "convolution": str(conv),
            })
    return CheckReport("convolution_idempotency", not witnesses, checked,
                       tuple(witnesses))


def fixed_point_matrix(source, tol=None) -> tuple[CMatrix, CheckReport]:
    """The matrix of integrated coordinates: Q_ij = integral of u_ij.  Must
    always be an orthogonal projection fixing the all-ones vector."""
    if isinstance(source, PermGroup):
        n = source.degree
        rows = [[haar_word_classical(source, [(i + 1, j + 1)]) for j in range(n)]
                for i in range(n)]
        q = CMatrix.exact(rows)
    elif isinstance(source, FiberModel):
        n = source.n
        weights = _point_weights(source)
        rows = [[_weighted_ntrace(weights, source.entries[i][j]) for j in range(n)]
                for i in range(n)]
        q = CMatrix(source.mode, rows)
    else:
        raise TypeError("source must be a PermGroup or FiberModel")
    witnesses = []
    if not q.is_projection(tol):
        witnesses.append({"kind": "not_projection"})
    ones = CMatrix(q.mode, [[1]] * q.rows)
    if not (q * ones).close_to(ones, tol):
        witnesses.append({"kind": "ones_not_fixed"})
    report = CheckReport("fixed_point_matrix", not witnesses, 2, tuple(witnesses))
    return q, report


def block_projection(orbits: OrbitStructure, n: int) -> CMatrix:
    """The projection with entry 1/|block| on pairs in a common block."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for block in orbits.blocks:
        w = Fraction(1, len(block))
        for i in block:
            for j in block:
                rows[i - 1][j - 1] = w
    return CMatrix.exact(rows)


def regular_rep(group) -> dict:
    """Left regular representation of a finite group-like object as
    permutation matrices in its element order."""
    elements = list(group.elements)
    index = {g: i for i, g in enumerate(elements)}
    out = {}
    for g in elements:
        n = len(elements)
        rows = [[0] * n for _ in range(n)]
        for y, h in enumerate(elements):
            rows[index[group.mul(g, h)]][y] = 1
        out[g] = CMatrix.exact(rows)
    return out


def dual_group_stationarity(group, rep, tol=None) -> CheckReport:
    """ntrace of the representing matrix must be the delta at the identity,
    for every group element."""
    witnesses = []
    checked = 0
    for g in group.elements:
        checked += 1
        expected = 1 if g == group.identity else 0
        value = rep(g).ntrace() if callable(rep) else rep[g].ntrace()
        if not scalars_equal(value, expected, tol):
            witnesses.append({"element": str(g), "value": str(value),
                              "expected": expected})
    return CheckReport("dual_stationarity", not witnesses, checked, tuple(witnesses))


def bichon_build(sizes, generator_matrices, tol=None) -> FiberModel:
    """Single-point block-diagonal magic model from unitaries of finite
    order: block i has entries (1/K_i) sum_a zeta_{K_i}^{(c - r) a} U_i^a,
    the spectral projections of U_i arranged in a circulant pattern: entry
    (r, c) is the projection onto the zeta_{K_i}^{r - c} eigenspace."""
    sizes = [int(k) for k in sizes]
    if len(sizes) != len(generator_matrices):
        raise ShapeMismatch("need one generator per block size")
    if any(k < 1 for k in sizes):
        raise ValueError("block sizes must be positive")
    mats = list(generator_matrices)
    dim = mats[0].rows
    mode = mats[0].mode
    for k, u in zip(sizes, mats):
        if u.rows != dim or u.cols != dim or u.mode != mode:
            raise ShapeMismatch("generators must share dimension and mode")
        _check_spectral_pre(u, k, tol, what="generator")
    n = sum(sizes)
    zero = CMatrix.zeros(dim, dim, mode)
    ident = CMatrix.identity(dim, mode)
    grid = [[(zero,) for _ in range(n)] for _ in range(n)]
    offset = 0
    for k, u in zip(sizes, mats):
        powers = _powers(u, k)
        projections = [_fourier_sum(powers, d) for d in range(k)]
        # Magic check of the block: every row and column of the circulant
        # holds each projection once and the entries off the blocks are
        # zero, so the model is magic iff each projection is one and they
        # sum to the identity.
        total = projections[0]
        for p in projections[1:]:
            total = total + p
        if not (all(p.is_projection(tol) for p in projections) and total.close_to(ident, tol)):
            raise Inconsistent("constructed block model is not magic")
        for r in range(k):
            for c in range(k):
                grid[offset + r][offset + c] = (projections[(r - c) % k],)
        offset += k
    return FiberModel(n, dim, ("pt",), (Fraction(1),), grid)
