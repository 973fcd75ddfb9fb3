"""Stationary models for duals of virtually abelian groups.

The data is an abelian normal subgroup of finite index together with coset
representatives.  Inducing the tautological representation of the subgroup's
group algebra gives, for each group element, a monomial matrix read off the
coset action: row x has its one nonzero entry, the subgroup element
x^-1 g y, in the column of the representative y of the coset of g^-1 x.
Integrating (coefficient of the identity, or averaging over subgroup
characters) recovers the delta-at-identity Haar state of the dual.

Two kinds of input are supported: a pair of finite permutation groups, and
split data Z^d x Z_{d_1} x ... x| Phi with Phi finite acting by integer
matrices on exponent vectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyc
from .errors import (
    BadArgument,
    FreePartPresent,
    Inconsistent,
    InvalidAutomorphism,
    ModelInputError,
    NotNormal,
)
from .groups import (
    CharacterOf,
    FinAbelian,
    PermGroup,
    _cosets,
    abelian_dual,
    abelianization,
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
            raise BadArgument("free rank cannot be negative")
        self.free_rank = free_rank
        self.factors = tuple(int(d) for d in factors)
        if any(d < 1 for d in self.factors):
            raise BadArgument("factors must be positive")
        self.rank = free_rank + len(self.factors)

    @property
    def identity(self):
        return (0,) * self.rank

    def normalize(self, vec):
        vec = tuple(vec)
        if len(vec) != self.rank:
            raise BadArgument("wrong coordinate count")
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
        # Each action is bijective: the homomorphism check gives
        # f(p) f(p^-1) = f(e) = I.
        self.matrices = extend_generator_map(phi, mats, self._compose, ident)

    def _validate(self, m):
        m = tuple(tuple(int(x) for x in row) for row in m)
        n = self.lam.rank
        if len(m) != n or any(len(row) != n for row in m):
            raise BadArgument(f"action matrices must be {n}x{n}")
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
    (first member of each coset in enumeration order, identity first) and
    the map from each element to the index of its coset's representative."""

    def __init__(self, *, finite, gamma, lam, reps, coset_of, lam_key, in_lam,
                 word_moves=None):
        self.finite = finite
        self.gamma = gamma
        self.lam = lam
        self.reps = tuple(reps)
        self.coset_of = coset_of
        self._lam_key = lam_key
        self._in_lam = in_lam
        self.word_moves = word_moves
        self._chars = None

    @classmethod
    def from_permutation_groups(cls, gamma: PermGroup, lam: PermGroup) -> "VirtuallyAbelianData":
        if not lam.is_abelian():
            raise ModelInputError("subgroup is not abelian")
        if not is_normal(lam, gamma):
            raise NotNormal("subgroup is not normal")
        reps, coset_of = _cosets(gamma.elements, lam.elements, gamma.mul)
        return cls(finite=True, gamma=gamma, lam=lam, reps=reps,
                   coset_of=coset_of.__getitem__,
                   lam_key=lambda g: g, in_lam=lambda g: g in lam)

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
        return cls(finite=not lam.is_free(), gamma=gamma, lam=lam, reps=reps,
                   coset_of=lambda g: phi._index[g[1].images],
                   lam_key=lambda g: g[0], in_lam=lambda g: g[1] == phi.identity,
                   word_moves=moves)

    @property
    def n_reps(self) -> int:
        return len(self.reps)

    def in_lambda(self, g) -> bool:
        return self._in_lam(g)

    def lam_key(self, g):
        return self._lam_key(g)

    def char_structure(self):
        """Characters of the subgroup: (FinAbelian, element -> tuple map,
        list of CharacterOf).  Finite data only.  A permutation subgroup's
        map is its abelianization, which must be a bijection since the
        subgroup is abelian; Inconsistent if it is not."""
        if not self.finite:
            raise FreePartPresent("subgroup has a free part, no finite dual")
        if self._chars is None:
            if isinstance(self.lam, AbelianWithFreePart):
                fin = FinAbelian(self.lam.factors)
                to_tuple = {v: v for v in fin.elements}
            else:
                fin, to_tuple = abelianization(self.lam)
                if len(set(to_tuple.values())) != self.lam.order:
                    raise Inconsistent(
                        "abelianization of the subgroup is not a bijection")
            self._chars = (fin, to_tuple, abelian_dual(fin))
        return self._chars


@dataclass(frozen=True)
class InducedModel:
    """The induced matrix of one group element over the subgroup's algebra:
    row x has its one nonzero entry, the monomial [labels[x]], in column
    columns[x]."""

    data: VirtuallyAbelianData
    element: object
    columns: tuple
    labels: tuple

    @property
    def size(self) -> int:
        return len(self.columns)

    def diagonal_identity_average(self) -> Fraction:
        ident = self.data.lam.identity
        hits = sum(1 for x, (y, t) in enumerate(zip(self.columns, self.labels))
                   if y == x and t == ident)
        return Fraction(hits, self.size)


def induce(data: VirtuallyAbelianData, g) -> InducedModel:
    """The induced matrix of g, row by row: row x has its one nonzero entry,
    the monomial [x^-1 g y], in the column of the representative y of the
    coset of g^-1 x.  Raises Inconsistent unless every label lies in the
    subgroup and the columns form a permutation."""
    mul, inv = data.gamma.mul, data.gamma.inv
    gi = inv(g)
    columns, labels = [], []
    for x in data.reps:
        y = data.coset_of(mul(gi, x))
        t = mul(inv(x), mul(g, data.reps[y]))
        if not data.in_lambda(t):
            raise Inconsistent("induced matrix row is not monomial")
        columns.append(y)
        labels.append(data.lam_key(t))
    if len(set(columns)) != len(columns):
        raise Inconsistent("induced matrix column is not monomial")
    return InducedModel(data, g, tuple(columns), tuple(labels))


def evaluate_at_character(model: InducedModel, chi: CharacterOf):
    """Numerical matrix of the induced element at a subgroup character."""
    from .matrices import CMatrix

    fin, to_tuple, _ = model.data.char_structure()
    if chi.group.factors != fin.factors:
        raise BadArgument("character does not match the subgroup structure")
    rows = []
    for y, t in zip(model.columns, model.labels):
        row = [Cyc.from_rational(0)] * model.size
        row[y] = chi.value(to_tuple[t])
        rows.append(row)
    return CMatrix.exact(rows)


def frobenius_trace(data: VirtuallyAbelianData, chi: CharacterOf, g) -> Cyc:
    """Character of the induced representation at g, computed directly as the
    sum of chi over the representatives that conjugate g into the subgroup."""
    if chi.group.factors != data.char_structure()[0].factors:
        raise BadArgument("character does not match the subgroup structure")
    return sum(map(chi.value, _conjugates_in_subgroup(data, g)), Cyc.from_rational(0))


def _conjugates_in_subgroup(data: VirtuallyAbelianData, g) -> list:
    """The conjugates x^-1 g x that lie in the subgroup, as arguments of its
    characters, over the representatives x in order."""
    _, to_tuple, _ = data.char_structure()
    mul, inv = data.gamma.mul, data.gamma.inv
    conjugates = (mul(inv(x), mul(g, x)) for x in data.reps)
    return [to_tuple[data.lam_key(t)] for t in conjugates if data.in_lambda(t)]


def check_stationarity(data: VirtuallyAbelianData, word_len: int = 4) -> CheckReport:
    """Certify that averaging the induced model recovers delta at the
    identity.

    Finite permutation data: every group element is tested, by two
    independent routes (identity-coefficient extraction and averaging the
    induced characters over the full dual of the subgroup); the routes must
    agree.  Otherwise every word up to word_len in the canonical moves is
    tested by coefficient extraction, once per distinct element the words
    reach.  Witnesses are the failing elements as strings
    {element, value, expected}; details = {"routes_agree": bool}."""
    ident = data.gamma.identity
    chars = None
    if data.finite and isinstance(data.lam, PermGroup):
        _, _, chars = data.char_structure()
        scale = Fraction(1, max(1, len(chars)) * data.n_reps)
        cases = [(repr(g), g) for g in data.gamma.elements]
    else:
        words = frontier = [((), ident)]
        for _ in range(word_len):
            frontier = [(word + (name,), data.gamma.mul(g, move))
                        for word, g in frontier for name, move in data.word_moves or []]
            words = words + frontier
        cases = [(".".join(word) or "e", g) for word, g in words]
    averages = {}
    tested = []
    routes_agree = True
    for label, g in cases:
        if g not in averages:
            averages[g] = induce(data, g).diagonal_identity_average()
        value = averages[g]
        expected = Fraction(1) if g == ident else Fraction(0)
        agree = True
        if chars is not None:
            # frobenius_trace for each character, conjugating g only once.
            conjugates = _conjugates_in_subgroup(data, g)
            char_total = Cyc.from_rational(0)
            for chi in chars:
                char_total = char_total + sum(map(chi.value, conjugates), Cyc.from_rational(0))
            agree = char_total * scale == value
            routes_agree = routes_agree and agree
        tested.append((label, value, expected, agree))
    witnesses = tuple({"element": e, "value": str(v), "expected": str(x)}
                      for e, v, x, agree in tested if not (v == x and agree))
    return CheckReport("induced_stationarity", not witnesses, len(tested),
                       witnesses, {"routes_agree": routes_agree})
