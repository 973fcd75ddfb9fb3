"""Finite group machinery: permutation groups, abelian groups, characters,
automorphisms and abelianization.

Permutations act on 1-based points and compose like functions,
(s * t)(i) = s(t(i)).  Group enumeration is breadth-first from the identity
with generators applied on the right in the order given, so element order is
deterministic and the identity always comes first.  Enumeration runs on image
tuples; membership, abelianization and extension read the tables it keeps.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod

from .cyclotomic import Cyc, zeta
from .errors import (
    BadArgument,
    CapExceeded,
    DegreeMismatch,
    NotBijective,
    NotInGroup,
    NotSubgroup,
    NotWellDefined,
)

__all__ = [
    "DEFAULT_CAP",
    "Perm",
    "PermGroup",
    "FinAbelian",
    "CharacterOf",
    "AutoMap",
    "abelian_dual",
    "abelianization",
    "extend_automorphism",
    "extend_generator_map",
    "generate",
    "is_normal",
    "orbit_blocks",
]

DEFAULT_CAP = 20160


class Perm:
    """A permutation of {1, ..., n} stored by its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise BadArgument(f"not a permutation of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _of(cls, images: tuple) -> "Perm":
        """A Perm from a tuple already known to be a permutation of 1..n,
        without validation: for products and inverses of valid Perms."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Perm values are immutable")

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(1, degree + 1))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Perm":
        images = list(range(1, degree + 1))
        for cycle in cycles:
            cycle = list(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        images, right = self.images, other.images
        if len(images) != len(right):
            raise DegreeMismatch(f"degrees {len(images)} and {len(right)}")
        return Perm._of(tuple([images[i - 1] for i in right]))

    def inv(self) -> "Perm":
        images = [0] * self.degree
        for i, v in enumerate(self.images, start=1):
            images[v - 1] = i
        return Perm._of(tuple(images))

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, v in enumerate(self.images) if v == i + 1)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen, out = set(), []
        for start in range(1, self.degree + 1):
            if start in seen or self(start) == start:
                continue
            cycle, point = [], start
            while point not in seen:
                seen.add(point)
                cycle.append(point)
                point = self(point)
            out.append(tuple(cycle))
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cycles = self.cycles()
        if not cycles:
            return "e"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def generate(generators, degree: int | None = None, cap: int = DEFAULT_CAP):
    """Closure of the generators under composition, breadth-first from the
    identity over image tuples.  Returns (elements, cayley, index) where
    cayley[i][g] is the index of elements[i] * generators[g], the Cayley
    graph, and index maps each element's image tuple to its index.  Indices
    follow the order the search reaches elements, row by row of the table,
    so the breadth-first tree edge of an element leaves a smaller index."""
    generators = list(generators)
    if degree is None:
        if not generators:
            raise BadArgument("need a degree when there are no generators")
        degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise DegreeMismatch("generators act on different point counts")
    # x * g has images x[g(i) - 1]: look each up through the 0-based g.
    steps = [tuple(i - 1 for i in g.images) for g in generators]
    e = tuple(range(1, degree + 1))
    found, cayley = [e], []
    index = {e: 0}
    for x in found:
        row = []
        for step in steps:
            y = tuple(map(x.__getitem__, step))
            j = index.get(y)
            if j is None:
                if len(found) >= cap:
                    raise CapExceeded(f"more than {cap} elements")
                j = index[y] = len(found)
                found.append(y)
            row.append(j)
        cayley.append(tuple(row))
    return tuple(map(Perm._of, found)), tuple(cayley), index


class PermGroup:
    """A finite permutation group with a fixed, deterministic element order.
    It keeps the two tables of its enumeration (generate): _index, from
    image tuples to element indices, and the Cayley graph _cayley."""

    def __init__(self, generators, elements, cayley, index):
        self.degree = elements[0].degree
        self.generators = tuple(generators)
        self.elements = elements
        self._cayley = cayley
        self._index = index

    @classmethod
    def from_generators(cls, generators, degree: int | None = None,
                        cap: int = DEFAULT_CAP) -> "PermGroup":
        generators = [g if isinstance(g, Perm) else Perm(g) for g in generators]
        return cls(generators, *generate(generators, degree, cap))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return self.elements[0]

    def __contains__(self, g) -> bool:
        return isinstance(g, Perm) and g.images in self._index

    def mul(self, a: Perm, b: Perm) -> Perm:
        return a * b

    def inv(self, a: Perm) -> Perm:
        return a.inv()

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for a in gens for b in gens)

    def subgroup(self, generators, cap: int = DEFAULT_CAP) -> "PermGroup":
        """The subgroup the generators generate: the group itself when they
        are its own generator tuple, else enumerated under cap."""
        generators = tuple(generators)
        if generators == self.generators:
            return self
        sub = PermGroup.from_generators(list(generators), self.degree, cap)
        for g in sub.elements:
            if g not in self:
                raise NotSubgroup(f"{g!r} is not in the ambient group")
        return sub

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def is_normal(sub: PermGroup, ambient: PermGroup) -> bool:
    """Whether sub is a normal subgroup of ambient."""
    if sub.degree != ambient.degree:
        raise DegreeMismatch("degrees differ")
    for h in sub.elements:
        if h not in ambient:
            raise NotSubgroup(f"{h!r} is not in the ambient group")
    for g in ambient.generators:
        gi = g.inv()
        for h in sub.elements:
            if g * h * gi not in sub:
                return False
    return True


def _cosets(elements, sub_elements, mul) -> tuple[list, dict]:
    """Left cosets g H of the subgroup with the given elements: the
    representatives (first member of each coset in enumeration order) and
    the index of the coset of every element."""
    reps: list = []
    coset_of: dict = {}
    for g in elements:
        if g in coset_of:
            continue
        idx = len(reps)
        reps.append(g)
        for h in sub_elements:
            coset_of[mul(g, h)] = idx
    return reps, coset_of


class FinAbelian:
    """Direct sum of cyclic groups Z_d1 + ... + Z_dr; elements are exponent
    tuples, enumerated lexicographically; its generators are the unit vectors."""

    def __init__(self, factors):
        self.factors = tuple(int(d) for d in factors)
        if any(d < 1 for d in self.factors):
            raise BadArgument("factors must be positive")
        self.elements = tuple(itertools.product(*(range(d) for d in self.factors)))
        self.generators = tuple(
            tuple(int(i == j) % d for j, d in enumerate(self.factors))
            for i in range(len(self.factors)))

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    @property
    def exponent(self) -> int:
        return lcm(*self.factors) if self.factors else 1

    def mul(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))

    def inv(self, a):
        return tuple((-x) % d for x, d in zip(a, self.factors))

    def power(self, a, k: int):
        return tuple((x * k) % d for x, d in zip(a, self.factors))

    def __iter__(self):
        return iter(self.elements)

    def element_order(self, a) -> int:
        return lcm(*(d // gcd(x, d) for x, d in zip(a, self.factors))) if self.factors else 1

    def generator(self, i: int) -> tuple[int, ...]:
        """The i-th coordinate unit vector."""
        return self.generators[i]

    def __repr__(self):
        return f"FinAbelian{self.factors}"


@dataclass(frozen=True)
class CharacterOf:
    """A character of a FinAbelian group, given by exponents against the
    invariant factors: value(x) = zeta_n ^ (sum_i exponents[i] * x[i] * n/d_i)
    with n the group exponent."""

    group: FinAbelian
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.group.factors):
            raise BadArgument("exponent tuple has the wrong length")

    @property
    def modulus(self) -> int:
        return self.group.exponent

    def value(self, element) -> Cyc:
        n = self.modulus
        total = 0
        for a, x, d in zip(self.exponents, element, self.group.factors):
            total += a * x * (n // d)
        return zeta(n, total % n)


def abelian_dual(group: FinAbelian) -> list[CharacterOf]:
    """All characters, in the same lexicographic order as the elements."""
    return [CharacterOf(group, exps) for exps in group.elements]


def extend_generator_map(group, generator_images, target_mul, target_identity):
    """Extend gen_i -> generator_images[i] to a homomorphism f on all of group.

    f is built along the breadth-first tree of the group's enumeration:
    f(e) = target_identity, and the edge a -> a g_i that first reaches an
    element sets f(a g_i) = f(a) images[i], one target product per element.
    f is then checked on the generator steps, the edges of the Cayley graph
    kept by the enumeration: f(a g_i) = f(a) f(g_i) for every element a and
    generator g_i, with f(g_i) the value just built and a g_i read off the
    table.  That is at most |G| |S| target products, not |G|^2, and no
    product in the group.  Two kinds of edge hold whenever target_identity
    is a left identity, and are skipped: an edge from e, as
    f(e g_i) = f(g_i) = f(e) f(g_i), and a tree edge, whose value
    f(a) images[i] is f(a) f(g_i), since a generator that labels a tree edge
    is first reached by its own edge from e, so f(g_i) = target_identity
    images[i].

    The verdict equals the full-table check f(ab) = f(a) f(b) for all a, b:
    the full check contains every generator step (b = g_i), and conversely,
    by induction on the length of the tree path to b, either b = e and
    f(ae) = f(a) = f(a) f(e), or b = b' g_i with b' shorter and
    f(ab) = f(ab') f(g_i) = f(a) f(b') f(g_i) = f(a) f(b), using the step at
    ab', the hypothesis at b' and the step at b'.  This needs only an
    associative target_mul with target_identity as identity.

    Finally f must send each listed generator to its own assigned image,
    which fails when the list repeats a generator with different images or
    contains the identity with a non-identity image.

    The group must be a PermGroup, whose enumeration kept its Cayley graph.
    Returns the dict element -> f(element), in element order; raises
    NotWellDefined if the assignment does not extend to a homomorphism."""
    if len(generator_images) != len(group.generators):
        raise BadArgument("need one image per generator")
    cayley = group._cayley
    values = [target_identity]
    for i, b in enumerate(cayley[0]):
        if b == len(values):
            values.append(target_mul(target_identity, generator_images[i]))
    at_generators = [values[b] for b in cayley[0]]
    steps = list(zip(generator_images, at_generators))
    for a in range(1, len(cayley)):
        fa = values[a]
        for b, (image, fg) in zip(cayley[a], steps):
            if b == len(values):
                values.append(target_mul(fa, image))
            elif values[b] != target_mul(fa, fg):
                raise NotWellDefined("generator assignment is not multiplicative")
    for i, (fg, image) in enumerate(zip(at_generators, generator_images), start=1):
        if fg != image:
            raise NotWellDefined(
                f"generator assignment is not well defined at generator {i}")
    return dict(zip(group.elements, values))


@dataclass(frozen=True)
class AutoMap:
    """An automorphism of a finite group, stored as a full element map."""

    group: object
    mapping: dict

    @classmethod
    def identity(cls, group) -> "AutoMap":
        return cls(group, {g: g for g in group.elements})

    @classmethod
    def from_function(cls, group, fn) -> "AutoMap":
        """The bijection g -> fn(g), checked on the identity pair and on the
        steps f(a s) = f(a) f(s); extend_generator_map proves them enough."""
        mapping = {g: fn(g) for g in group.elements}
        values = set(mapping.values())
        if len(values) != len(mapping):
            raise NotBijective("map is not injective")
        if values != set(group.elements):
            raise NotBijective("map is not onto the group")
        mul = group.mul
        fe = mapping[group.identity]
        steps = [(s, mapping[s]) for s in group.generators]
        if mul(fe, fe) != fe or any(mapping[mul(a, s)] != mul(fa, fs)
                                    for a, fa in mapping.items() for s, fs in steps):
            raise NotWellDefined("map is not multiplicative")
        return cls(group, mapping)

    def __call__(self, element):
        return self.mapping[element]

    def compose(self, other: "AutoMap") -> "AutoMap":
        return AutoMap(self.group, {g: self.mapping[other.mapping[g]] for g in self.group.elements})

    def power(self, k: int) -> "AutoMap":
        result = AutoMap.identity(self.group)
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    def inverse(self) -> "AutoMap":
        return AutoMap(self.group, {v: k for k, v in self.mapping.items()})

    def is_identity(self) -> bool:
        return all(v == k for k, v in self.mapping.items())


def extend_automorphism(group: PermGroup, generator_images) -> AutoMap:
    """Extend a generator assignment of a permutation group to an
    automorphism, on image tuples; raises NotWellDefined or NotBijective
    when impossible."""
    generator_images = list(generator_images)
    for img in generator_images:
        if img not in group:
            raise NotInGroup(f"{img!r} is not in the group")
    mapping = extend_generator_map(group, [g.images for g in generator_images],
                                   lambda x, y: tuple([x[i - 1] for i in y]),
                                   group.identity.images)
    if len(set(mapping.values())) != group.order:
        raise NotBijective("extension is not a bijection")
    return AutoMap(group, {g: group.elements[group._index[v]]
                           for g, v in mapping.items()})


def _joined_blocks(n: int, pairs) -> tuple[tuple[int, ...], ...]:
    """Classes of the points 1..n under the equivalence the pairs generate,
    each in increasing order, sorted by smallest point."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        a, b = find(i), find(j)
        if a != b:
            parent[max(a, b)] = min(a, b)
    blocks: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        blocks.setdefault(find(i), []).append(i)
    return tuple(tuple(blocks[r]) for r in sorted(blocks))


def orbit_blocks(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Orbits of the natural action on 1..degree, sorted by smallest point."""
    points = range(1, group.degree + 1)
    return _joined_blocks(group.degree,
                          ((i, g(i)) for g in group.generators for i in points))




# -- abelianization ----------------------------------------------------------


def _smith(rows, n: int):
    """Smith normal form of the integer matrix with the given rows and n
    columns, which must have rank n.  Row and column operations bring it to
    D = P R V with P and V unimodular and D diagonal, each diagonal entry
    dividing the next; only V, the column transform, is kept.  Returns the
    diagonal entries, made positive, and V as a list of its rows."""
    rows = [list(r) for r in rows]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    diagonal = []
    for t in range(n):
        while True:
            # The pivot is the smallest nonzero entry of the block left.
            _, k, j = min((abs(x), k, j) for k in range(t, len(rows))
                          for j, x in enumerate(rows[k]) if j >= t and x)
            rows[t], rows[k] = rows[k], rows[t]
            for r in itertools.chain(rows, v):
                r[t], r[j] = r[j], r[t]
            pivot = rows[t]
            p = pivot[t]
            for r in rows[t + 1:]:
                q = r[t] // p
                if q:
                    for c in range(t, n):
                        r[c] -= q * pivot[c]
            for c in range(t + 1, n):
                q = pivot[c] // p
                if q:
                    for r in itertools.chain(rows, v):
                        r[c] -= q * r[t]
            # A nonzero remainder is smaller than the pivot: pivot again.
            if any(r[t] for r in rows[t + 1:]) or any(pivot[t + 1:]):
                continue
            # The pivot must divide the block left; if it does not, adding
            # the offending row leaves a remainder in the pivot row.
            bad = next((r for r in rows[t + 1:] if any(x % p for x in r[t + 1:])),
                       None)
            if bad is None:
                break
            for c in range(t + 1, n):
                pivot[c] += bad[c]
        diagonal.append(abs(p))
    return diagonal, v


def abelianization(group: PermGroup):
    """The abelianization G / [G, G], read off the Cayley graph that
    enumeration kept, with no element enumerated or multiplied.

    Each element gets the exponent vector of its breadth-first tree path,
    vec(e) = 0 and vec(a g_i) = vec(a) + e_i along the edge a -> a g_i that
    first reaches a g_i.  An edge a -> a g_i of the graph gives the relator
    row vec(a) + e_i - vec(a g_i), which is 0 on the tree edges.  By
    Schreier's lemma, for the trivial subgroup, these rows present G^ab on
    the M generators: G^ab is Z^M modulo their row lattice.  With the Smith
    normal form D = P R V of the rows, x -> x V reduced modulo the diagonal
    of D maps Z^M onto the sum of the Z_d with exactly that lattice as
    kernel.  The rows have rank M, since the edges of the
    cycle of a generator of order k add up to k e_i.

    Returns (fin, proj): fin is a FinAbelian whose factors are the diagonal
    entries other than 1, largest first, each dividing the one before; proj
    sends each element g to vec(g) V reduced modulo the factors, a
    homomorphism onto fin."""
    m = len(group.generators)
    vecs = [(0,) * m]
    rows = {}
    for x, row in zip(vecs, group._cayley):
        for i, b in enumerate(row):
            y = x[:i] + (x[i] + 1,) + x[i + 1:]
            if b == len(vecs):
                vecs.append(y)
            rows[tuple(p - q for p, q in zip(y, vecs[b]))] = None
    diagonal, v = _smith(rows, m)
    keep = [j for j in reversed(range(m)) if diagonal[j] != 1]
    fin = FinAbelian([diagonal[j] for j in keep])
    proj = {g: tuple(sum(x * v[i][j] for i, x in enumerate(vec)) % diagonal[j]
                     for j in keep)
            for g, vec in zip(group.elements, vecs)}
    return fin, proj
