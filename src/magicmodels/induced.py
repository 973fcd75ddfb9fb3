"""Stationary models for duals of virtually abelian groups.

The data is an abelian normal subgroup of finite index together with coset
representatives.  Inducing the tautological representation of the subgroup's
group algebra gives, for each group element, a square matrix over the algebra
with exactly one monomial entry per row and column; integrating (coefficient
of the identity, or averaging over subgroup characters) recovers the
delta-at-identity Haar state of the dual.

Two kinds of input are supported: a pair of finite permutation groups, and
split data Z^d x Z_{d_1} x ... x| Phi with Phi finite acting by integer
matrices on exponent vectors.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyc
from .errors import (
    FreePartPresent,
    Inconsistent,
    InvalidAutomorphism,
    ModelInputError,
    NotNormal,
)
from .group_algebra import AlgebraElement, delta
from .groups import (
    CharacterOf,
    FinAbelian,
    PermGroup,
    _cosets,
    abelian_dual,
    abelian_structure,
    extend_generator_map,
    is_normal,
)
from .magic import CheckReport

__all__ = [
    "AbelianWithFreePart",
    "InducedModel",
    "VirtuallyAbelianData",
    "check_stationarity",
    "evaluate_at_character",
    "frobenius_trace",
    "induce",
]


class AbelianWithFreePart:
    """Z^free_rank x Z_{d_1} x ... x Z_{d_r}; elements are int tuples with the
    finite coordinates reduced modulo the factors."""

    def __init__(self, free_rank: int, factors):
        if free_rank < 0:
            raise ValueError("free rank cannot be negative")
        self.free_rank = free_rank
        self.factors = tuple(int(d) for d in factors)
        if any(d < 1 for d in self.factors):
            raise ValueError("factors must be positive")
        self.rank = free_rank + len(self.factors)

    @property
    def identity(self):
        return (0,) * self.rank

    def normalize(self, vec):
        vec = tuple(vec)
        if len(vec) != self.rank:
            raise ValueError("wrong coordinate count")
        head = vec[: self.free_rank]
        tail = tuple(x % d for x, d in zip(vec[self.free_rank:], self.factors))
        return head + tail

    def mul(self, a, b):
        return self.normalize(x + y for x, y in zip(a, b))

    def inv(self, a):
        return self.normalize(-x for x in a)

    def is_free(self) -> bool:
        return self.free_rank > 0

    def basis_moves(self):
        """Generating moves for word enumeration: +-each free unit vector and
        +each finite unit vector."""
        moves = []
        for i in range(self.free_rank):
            unit = tuple(1 if j == i else 0 for j in range(self.rank))
            moves.append((f"a{i + 1}", unit))
            moves.append((f"a{i + 1}'", self.inv(unit)))
        for i in range(len(self.factors)):
            j = self.free_rank + i
            unit = tuple(1 if t == j else 0 for t in range(self.rank))
            moves.append((f"b{i + 1}", unit))
        return moves

    def __repr__(self):
        return f"AbelianWithFreePart(free_rank={self.free_rank}, factors={self.factors})"


class _IntMatrixAction:
    """Integer matrices acting on exponent vectors of an AbelianWithFreePart,
    one per element of a finite permutation group."""

    def __init__(self, lam: AbelianWithFreePart, phi: PermGroup, generator_matrices):
        self.lam = lam
        self.phi = phi
        mats = [self._normalize(self._validate(m)) for m in generator_matrices]
        ident = self._normalize(tuple(
            tuple(1 if i == j else 0 for j in range(lam.rank)) for i in range(lam.rank)
        ))
        self.matrices = extend_generator_map(phi, mats, self._compose, ident)
        for p, mat in self.matrices.items():
            self._check_bijective(mat, p)

    def _validate(self, m):
        m = tuple(tuple(int(x) for x in row) for row in m)
        n = self.lam.rank
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError(f"action matrices must be {n}x{n}")
        free = self.lam.free_rank
        for j, d in enumerate(self.lam.factors):
            col = free + j
            for r in range(free):
                if m[r][col] != 0:
                    raise InvalidAutomorphism(
                        "finite-order generator cannot map to an infinite-order element")
            for r, dr in enumerate(self.lam.factors):
                if (d * m[free + r][col]) % dr:
                    raise InvalidAutomorphism("action is not well defined modulo the factors")
        return m

    def _normalize(self, m):
        free = self.lam.free_rank
        rows = []
        for r, row in enumerate(m):
            if r < free:
                rows.append(tuple(row))
            else:
                d = self.lam.factors[r - free]
                rows.append(tuple(x % d for x in row))
        return tuple(rows)

    def _compose(self, a, b):
        n = self.lam.rank
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        return self._normalize(prod)

    def _check_bijective(self, m, p):
        free = self.lam.free_rank
        if free:
            block = [[Fraction(m[i][j]) for j in range(free)] for i in range(free)]
            det = Fraction(1)
            work = [row[:] for row in block]
            for col in range(free):
                piv = next((r for r in range(col, free) if work[r][col]), None)
                if piv is None:
                    det = Fraction(0)
                    break
                if piv != col:
                    work[col], work[piv] = work[piv], work[col]
                    det = -det
                det *= work[col][col]
                for r in range(col + 1, free):
                    f = work[r][col] / work[col][col]
                    for c in range(col, free):
                        work[r][c] -= f * work[col][c]
            if det not in (1, -1):
                raise InvalidAutomorphism(f"free block of {p!r} has determinant {det}")
        if self.lam.factors:
            torsion = [
                (0,) * free + tail
                for tail in itertools.product(*map(range, self.lam.factors))
            ]
            images = {self.apply(m, t) for t in torsion}
            if len(images) != len(torsion):
                raise InvalidAutomorphism(f"action of {p!r} is not bijective on the torsion part")

    def apply(self, m, vec):
        n = self.lam.rank
        return self.lam.normalize(
            tuple(sum(m[i][k] * vec[k] for k in range(n)) for i in range(n))
        )

    def act(self, p, vec):
        return self.apply(self.matrices[p], vec)


class _SplitGamma:
    """The extension group: pairs (vector, phi) with twisted multiplication."""

    def __init__(self, action: _IntMatrixAction):
        self.action = action
        self.lam = action.lam
        self.phi = action.phi

    @property
    def identity(self):
        return (self.lam.identity, self.phi.identity)

    def mul(self, a, b):
        (v, p), (w, q) = a, b
        return (self.lam.mul(v, self.action.act(p, w)), p * q)

    def inv(self, a):
        v, p = a
        pi = p.inv()
        return (self.action.act(pi, self.lam.inv(v)), pi)


class VirtuallyAbelianData:
    """An abelian normal subgroup of finite index, with coset representatives
    (first member of each coset in enumeration order, identity first)."""

    def __init__(self, *, finite, gamma, lam, reps, lam_key, in_lam, lam_group,
                 word_moves=None):
        self.finite = finite
        self.gamma = gamma
        self.lam = lam
        self.reps = tuple(reps)
        self._lam_key = lam_key
        self._in_lam = in_lam
        self.lam_group = lam_group
        self.word_moves = word_moves
        self._chars = None

    @classmethod
    def from_permutation_groups(cls, gamma: PermGroup, lam: PermGroup) -> "VirtuallyAbelianData":
        if not lam.is_abelian():
            raise ModelInputError("subgroup is not abelian")
        if not is_normal(lam, gamma):
            raise NotNormal("subgroup is not normal")
        reps, _ = _cosets(gamma.elements, lam.elements, gamma.mul)
        return cls(finite=True, gamma=gamma, lam=lam, reps=reps,
                   lam_key=lambda g: g, in_lam=lambda g: g in lam,
                   lam_group=lam)

    @classmethod
    def split(cls, free_rank: int, factors, phi: PermGroup,
              action_matrices) -> "VirtuallyAbelianData":
        lam = AbelianWithFreePart(free_rank, factors)
        action = _IntMatrixAction(lam, phi, action_matrices)
        gamma = _SplitGamma(action)
        reps = [(lam.identity, p) for p in phi.elements]
        moves = [(name, (vec, phi.identity)) for name, vec in lam.basis_moves()]
        for i, g in enumerate(phi.generators):
            moves.append((f"s{i + 1}", (lam.identity, g)))
        return cls(finite=not lam.is_free() , gamma=gamma, lam=lam, reps=reps,
                   lam_key=lambda g: g[0], in_lam=lambda g: g[1] == phi.identity,
                   lam_group=lam, word_moves=moves)

    @property
    def n_reps(self) -> int:
        return len(self.reps)

    def in_lambda(self, g) -> bool:
        return self._in_lam(g)

    def lam_key(self, g):
        return self._lam_key(g)

    def char_structure(self):
        """Characters of the subgroup: (FinAbelian, element -> tuple map,
        list of CharacterOf).  Finite data only."""
        if not self.finite:
            raise FreePartPresent("subgroup has a free part, no finite dual")
        if self._chars is None:
            if isinstance(self.lam, AbelianWithFreePart):
                fin = FinAbelian(self.lam.factors)
                to_tuple = {v: v for v in fin.elements}
            else:
                fin, to_tuple, _ = abelian_structure(self.lam)
            self._chars = (fin, to_tuple, abelian_dual(fin))
        return self._chars


@dataclass(frozen=True)
class InducedModel:
    """The induced matrix of one group element over the subgroup's algebra."""

    data: VirtuallyAbelianData
    element: object
    grid: tuple

    @property
    def size(self) -> int:
        return len(self.grid)

    def diagonal_identity_average(self) -> Fraction:
        total = Fraction(0)
        for i in range(self.size):
            total += Fraction(self.grid[i][i].at_identity())
        return total / self.size


def induce(data: VirtuallyAbelianData, g) -> InducedModel:
    """The induced matrix of g: entry (x, y) is the monomial [x^-1 g y] when
    that element lands in the subgroup, else zero.  Always has exactly one
    nonzero entry per row and per column."""
    mul, inv = data.gamma.mul, data.gamma.inv
    grid = []
    for x in data.reps:
        xi = inv(x)
        row = []
        for y in data.reps:
            t = mul(xi, mul(g, y))
            if data.in_lambda(t):
                row.append(delta(data.lam_group, data.lam_key(t)))
            else:
                row.append(AlgebraElement.zero(data.lam_group))
        grid.append(tuple(row))
    model = InducedModel(data, g, tuple(grid))
    for i in range(model.size):
        if sum(1 for e in model.grid[i] if not e.is_zero()) != 1:
            raise Inconsistent("induced matrix row is not monomial")
        if sum(1 for x in range(model.size) if not model.grid[x][i].is_zero()) != 1:
            raise Inconsistent("induced matrix column is not monomial")
    return model


def evaluate_at_character(model: InducedModel, chi: CharacterOf):
    """Numerical matrix of the induced element at a subgroup character."""
    from .matrices import CMatrix

    data = model.data
    fin, to_tuple, _ = data.char_structure()
    if chi.group.factors != fin.factors:
        raise ValueError("character does not match the subgroup structure")
    rows = []
    for row in model.grid:
        out = []
        for entry in row:
            total = Cyc.from_rational(0)
            for lam_elem, coeff in entry.coeffs.items():
                total = total + chi.value(to_tuple[lam_elem]) * coeff
            out.append(total)
        rows.append(out)
    return CMatrix.exact(rows)


def frobenius_trace(data: VirtuallyAbelianData, chi: CharacterOf, g) -> Cyc:
    """Character of the induced representation at g, computed directly as the
    sum of chi over the representatives that conjugate g into the subgroup."""
    fin, to_tuple, _ = data.char_structure()
    if chi.group.factors != fin.factors:
        raise ValueError("character does not match the subgroup structure")
    mul, inv = data.gamma.mul, data.gamma.inv
    total = Cyc.from_rational(0)
    for x in data.reps:
        t = mul(inv(x), mul(g, x))
        if data.in_lambda(t):
            total = total + chi.value(to_tuple[data.lam_key(t)])
    return total


def check_stationarity(data: VirtuallyAbelianData, word_len: int = 4) -> CheckReport:
    """Certify that averaging the induced model recovers delta at the
    identity.

    Finite data: every group element is tested, by two independent routes
    (identity-coefficient extraction and averaging the induced characters over
    the full dual of the subgroup); the routes must agree.  Split data with a
    free part: every word up to word_len in the canonical moves is tested by
    coefficient extraction.  Witnesses are the failing elements as strings
    {element, value, expected}; details = {"routes_agree": bool}."""
    tested = []
    routes_agree = True
    if data.finite and isinstance(data.lam, PermGroup):
        fin, _, chars = data.char_structure()
        n_lam = max(1, len(chars))
        for g in data.gamma.elements:
            expected = Fraction(1) if g == data.gamma.identity else Fraction(0)
            value = induce(data, g).diagonal_identity_average()
            char_total = Cyc.from_rational(0)
            for chi in chars:
                char_total = char_total + frobenius_trace(data, chi, g)
            char_value = char_total * Fraction(1, n_lam * data.n_reps)
            agree = char_value == value
            routes_agree = routes_agree and agree
            tested.append((repr(g), value, expected, agree))
    else:
        moves = data.word_moves or []
        ident = data.gamma.identity
        seen_words = [((), ident)]
        frontier = [((), ident)]
        for _ in range(word_len):
            nxt = []
            for word, elem in frontier:
                for name, move in moves:
                    nxt.append((word + (name,), data.gamma.mul(elem, move)))
            seen_words.extend(nxt)
            frontier = nxt
        for word, elem in seen_words:
            expected = Fraction(1) if elem == ident else Fraction(0)
            value = induce(data, elem).diagonal_identity_average()
            tested.append((".".join(word) or "e", value, expected, True))
    witnesses = tuple({"element": e, "value": str(v), "expected": str(x)}
                      for e, v, x, agree in tested if not (v == x and agree))
    return CheckReport("induced_stationarity", not witnesses, len(tested),
                       witnesses, {"routes_agree": routes_agree})
