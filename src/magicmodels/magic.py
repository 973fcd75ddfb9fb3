"""Magic unitary matrix models and their certification.

A model assigns to each coordinate u_ij an entry of a matrix-valued function
on a finite weighted point set.  Certification is word-based: the state
word -> sum_x w_x ntrace(P_{i1 j1}(x) ... P_{im jm}(x)) is compared against a
reference Haar state.

A reference is a permutation group or an exact model, read as the state of
its stationary model, a model whose state is the Haar state.  A permutation
group G is read as its permutation model over the points of G.  A group
dual's reference is a model already: the block model of its regular
representation at one point (DualWordReference.from_block_generators), whose
normalised traces are identity coefficients in the group algebra.  So both
sides are the one weighted automaton of a model (_ModelWords), whose state
after a word is the list of its live points, each with its nonzero
fiber product, and the value they give; no live point is the zero state.
Products and states are hash-consed, and each kept state is stepped once
per letter, so words that reach one state share that work.  A check builds
its two automata once.  An exact verdict is decided by automaton equivalence
(shortest_difference), which reads each pair of states once.  The witnesses
of a failing check, and every float verdict, come from one walk over the
words of the same two automata, which lists the differing suffixes of a
pair of states, and compares the pair's own values, once per remaining
length.  States merge only when products repeat exactly in their stored
form, as 0/1 and +-1 fibers do; float products that round differently on
different words merge less, and the tables are caches of bounded size.
The convolution square is again such an automaton, over pairs of model
states (_SquareWords), read by the same walk; no check builds a word table.
"""
from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .cyclotomic import Cyc
from .errors import (
    BadArgument,
    Inconsistent,
    ModeMismatch,
    NotQuasiTransitive,
    ShapeMismatch,
)
from .group_algebra import _regular_matrix, regular_rep
from .groups import PermGroup, _joined_blocks, orbit_blocks
from .matrices import (
    CMatrix,
    _check_spectral_pre,
    _enlarges_span,
    _fourier_sum,
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
    "orbits_from_source",
    "quasi_flat_check",
    "regular_rep",
    "shortest_difference",
    "single_fiber",
    "stationarity_check",
    "verify_magic",
]


def _once_per_object(fn, limit=None):
    """fn, run once per distinct tuple of argument objects: a later call
    with the same objects returns the first result.  Objects are told apart
    by id, and each result is kept with its arguments, so an id stays theirs
    while it is a key.  With a limit, the table is emptied when it holds
    that many results, which loses only sharing."""
    results = {}

    def once(*args):
        key = tuple(map(id, args))
        hit = results.get(key)
        if hit is None:
            if limit is not None and len(results) >= limit:
                results.clear()
            hit = results[key] = (args, fn(*args))
        return hit[1]

    return once


class FiberModel:
    """An n x n grid of dim x dim matrix fibers over one weighted point set.
    Equal fibers may be one shared object, as serialize.model_from_json and
    the builders give them; the per-fiber work of to_float, the checks and
    the word walk runs once per object."""

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
        """The model in float mode; fibers shared here stay shared."""
        convert = _once_per_object(CMatrix.to_float)
        return FiberModel(
            self.n, self.dim, self.labels, self.weights,
            [[tuple(map(convert, self.entries[i][j])) for j in range(self.n)]
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
    at every point.  Each distinct fiber object is tested for being a
    projection once; every entry it fills is counted and reported.  Rows and
    columns share one table of sums: in exact mode a sum is decided once per
    multiset of fiber objects, since exact addition is commutative and
    associative, so its verdict depends on nothing else; in float mode once
    per ordered tuple, so every float sum is added in row or column order and
    no verdict near tol can move.  Every row and column is still counted, and
    each failing one is reported at its own place."""
    witnesses = []
    checked = 0
    ident = CMatrix.identity(model.dim, model.mode)
    is_projection = _once_per_object(lambda f: f.is_projection(tol))
    sums_to_identity = _once_per_object(
        lambda *fibers: functools.reduce(CMatrix.__add__, fibers).close_to(ident, tol))
    key = (lambda fibers: sorted(fibers, key=id)) if model.mode == "exact" else tuple
    for x in range(model.n_points):
        for i in range(model.n):
            for j in range(model.n):
                checked += 1
                if not is_projection(model.entries[i][j][x]):
                    witnesses.append({"kind": "not_projection", "row": i + 1,
                                      "col": j + 1, "point": model.labels[x]})
        for i in range(model.n):
            checked += 1
            if not sums_to_identity(*key(model.entries[i][j][x] for j in range(model.n))):
                witnesses.append({"kind": "row_sum", "row": i + 1,
                                  "point": model.labels[x]})
        for j in range(model.n):
            checked += 1
            if not sums_to_identity(*key(model.entries[i][j][x] for i in range(model.n))):
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
        raise BadArgument("block sizes must be positive")
    blocks, at = [], 1
    for s in sizes:
        blocks.append(tuple(range(at, at + s)))
        at += s
    return OrbitStructure(tuple(blocks), "dual")


def quasi_flat_check(model: FiberModel, orbits: OrbitStructure, tol=None) -> CheckReport:
    """Every in-block entry has rank exactly 1 at every point.  Requires the
    orbit size to equal the fiber dimension.  The rank of each distinct fiber
    object is taken once; every entry it fills is counted and reported."""
    k = orbits.block_size
    if k != model.dim:
        raise ShapeMismatch(f"orbit size {k} does not match fiber dimension {model.dim}")
    witnesses = []
    checked = 0
    rank = _once_per_object(lambda f: f.rank(tol))
    for block in orbits.blocks:
        for i in block:
            for j in block:
                for x in range(model.n_points):
                    checked += 1
                    r = rank(model.entries[i - 1][j - 1][x])
                    if r != 1:
                        witnesses.append({"row": i, "col": j,
                                          "point": model.labels[x], "rank": r})
    return CheckReport("quasi_flat", not witnesses, checked, tuple(witnesses))


class DualWordReference:
    """The reference of a group dual is its block model; this class names
    only the builder of that model."""

    @staticmethod
    def from_block_generators(group, gens_with_orders) -> FiberModel:
        """The block model of the group's regular representation, bichon_build
        of the regular matrix of each generator g_i with its order K_i: its
        (r, c) entry in block i is the regular matrix of the coordinate
        (1/K_i) sum_a zeta^{(c - r) a} [g_i^a], whose normalised trace is the
        coordinate's identity coefficient.  As in bichon_build, no generator,
        or an order below 1, raises BadArgument, and g_i^K_i other than the
        identity raises NotFiniteOrder."""
        pairs = list(gens_with_orders)
        return bichon_build([k for _, k in pairs],
                            [_regular_matrix(group, {g: 1}) for g, _ in pairs])


_RATIONAL = (int, Fraction)


def _point_weights(model: FiberModel, fibers) -> tuple:
    """The point weights as scalars of the model's mode, and the weighted sum
    for the model's values.  The sum is _rational_sum when the model is exact
    and the fibers given, its distinct nonzero fibers at least, hold only int
    and Fraction entries: then so do their products, and every weight and
    ntrace is a Fraction.  It is _weighted_sum otherwise, in float mode
    without reading a fiber."""
    if model.mode == "float":
        return tuple(complex(w) for w in model.weights), _weighted_sum
    rational = all(type(x) in _RATIONAL for f in fibers for row in f.data for x in row)
    return model.weights, _rational_sum if rational else _weighted_sum


def _weighted_sum(weights, values, zero=None):
    """sum_x w_x v_x, added in point order over the values that are not
    None; zero when every value is None."""
    total = None
    for w, v in zip(weights, values):
        if v is not None:
            term = v * w
            total = term if total is None else total + term
    return zero if total is None else total


def _rational_sum(weights, values, zero=None):
    """_weighted_sum for int and Fraction operands, with the same value and
    type: the numerators of the terms are added over one common denominator,
    and one Fraction is built at the end.  The result is an int exactly when
    every operand of a term is an int, as a sum of int products is; _scalar_key
    tells 1 from Fraction(1).  An operand of another type, which has no
    numerator, hands the whole sum to _weighted_sum."""
    num, den, whole, empty = 0, 1, True, True
    try:
        for w, v in zip(weights, values):
            if v is None:
                continue
            empty = False
            if whole:
                if type(w) is int and type(v) is int:
                    num += w * v
                    continue
                whole = False
            n = w.numerator * v.numerator
            d = w.denominator * v.denominator
            if d != den:
                g = gcd(d, den)
                num *= d // g
                n *= den // g
                den = den // g * d
            num += n
    except AttributeError:
        return _weighted_sum(weights, values, zero)
    if empty:
        return zero
    return num if whole else Fraction(num, den)


def _scalar_key(x):
    """A key that tells every stored form of a scalar apart, so that equal
    keys give equal sums, products and printed values, types included: a
    complex by the exact hex text of its parts (so -0.0 is not 0.0), a Cyc
    by its (order, num, den), anything else by its type and value (so
    Fraction(1) is not 1)."""
    if type(x) is complex:
        return (x.real.hex(), x.imag.hex())
    if type(x) is Cyc:
        return (x.order, x.num, x.den)
    return (type(x), x)


def _stored_form(m: CMatrix) -> tuple:
    """The matrix's entries by _scalar_key, in row order."""
    return tuple([_scalar_key(x) for row in m.data for x in row])


def _letters(n: int) -> list:
    """The coordinates (i, j), 0-based, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(n)]


# The word walk's tables are caches.  Once one of them holds this many
# entries they are emptied, so that a walk whose products rarely repeat in
# their stored form (as on a float model with irrational entries, where
# words that reach one matrix round differently) keeps bounded memory
# instead of one state per word.  Only sharing is lost by emptying.
_SHARED_MAX = 1 << 13


class _ModelWords:
    """The state of a model on words as a weighted automaton.  A state is a
    kept (serial, live, value, successors) tuple: live holds the (point, kept
    product) pairs, in point order, of the points at which the product of the
    fibers of the word read so far is nonzero; value is sum_x w_x ntrace over
    them, added in point order; successors maps each letter stepped so far to
    its state.  No live point is the zero state, and every step keeps it.

    Matrices and states are hash-consed.  A kept matrix is a (serial, matrix,
    ntrace) triple, one for each distinct stored form, fibers and products
    alike; each distinct fiber object is looked up once.  The product of a
    kept matrix by a fiber is taken once, remembered by their serials.  A
    state is kept once per tuple of its (point, matrix serial) pairs, so two
    words reach one state object exactly when their products have the same
    stored forms, and so the same printed values on every extension.  The
    tables are emptied together when one is full (_SHARED_MAX).  What is kept
    after that gets a new serial from the one counter, so states never merge
    across an emptying; the states kept before it lose their successors and
    gain none, so no state, start included, keeps the emptied part alive."""

    def __init__(self, model: FiberModel):
        self.zero = 0 if model.mode == "exact" else 0j
        self._serials = itertools.count()
        self._since = 0     # the first serial drawn since the last emptying
        self._kept = {}
        self._products = {}
        self._states = {}
        fiber = _once_per_object(lambda f: None if f.is_zero() else self._keep(f))
        self.fibers = {letter: tuple(map(fiber, model.entries[letter[0]][letter[1]]))
                       for letter in _letters(model.n)}
        # The kept fibers, unless a table was emptied on the way; a fiber
        # missed there still sums right, through _rational_sum's hand-over.
        kept = [k[1] for k in self._kept.values()]
        self.weights, self.weighted_sum = _point_weights(model, kept)
        one = self._keep(CMatrix.identity(model.dim, model.mode))
        self.start = self._state(tuple((x, one) for x in range(model.n_points)))

    def _room(self, table: dict):
        if len(table) >= _SHARED_MAX:
            for state in self._states.values():
                state[3].clear()
            self._kept.clear()
            self._products.clear()
            self._states.clear()
            self._since = next(self._serials)

    def _keep(self, m: CMatrix) -> tuple:
        # A float matrix is looked up by its values, which hash fast.  Equal
        # values may still differ in the sign of a zero part, so a match is
        # confirmed on the stored forms, and a matrix that fails is kept
        # under its stored form instead.
        float_mode = m.mode == "float"
        key = m.data if float_mode else _stored_form(m)
        kept = self._kept.get(key)
        if kept is not None and float_mode and _stored_form(kept[1]) != _stored_form(m):
            key = _stored_form(m)
            kept = self._kept.get(key)
        if kept is None:
            self._room(self._kept)
            kept = self._kept[key] = (next(self._serials), m, m.ntrace())
        return kept

    def _state(self, live: tuple) -> tuple:
        key = tuple([(x, a[0]) for x, a in live])
        state = self._states.get(key)
        if state is None:
            value = self.weighted_sum([self.weights[x] for x, _ in live],
                                      [a[2] for _, a in live], self.zero)
            self._room(self._states)
            state = self._states[key] = (next(self._serials), live, value, {})
        return state

    def step(self, state: tuple, letter) -> tuple:
        """The kept state that the letter leads to from the state."""
        nxt = state[3].get(letter)
        if nxt is None:
            fibers = self.fibers[letter]
            products = self._products
            live = []
            for x, a in state[1]:
                f = fibers[x]
                if f is None:
                    continue
                key = (a[0], f[0])
                q = products.get(key, False)    # a product is a kept triple or None
                if q is False:
                    q = a[1] * f[1]
                    q = None if q.is_zero() else self._keep(q)
                    self._room(products)
                    products[key] = q
                if q is not None:
                    live.append((x, q))
            nxt = self._state(tuple(live))
            if state[0] >= self._since:
                state[3][letter] = nxt
        return nxt

    def coordinates(self, state, side) -> list:
        """The nonzero entries of the state's products, keyed by (side,
        point, row, column): each letter acts on them linearly, and the value
        is a linear function of them.  Two automata read together are given
        different sides, so that their keys never coincide."""
        return [((side, x, r, c), v) for x, a in state[1]
                for r, row in enumerate(a[1]._nonzero_rows()) for c, v in row]


class _SquareWords:
    """The convolution square of a model's state, Delta(u_ij) = sum_k u_ik (x)
    u_kj, as a weighted automaton over the model automaton's states.  A state
    is a kept (serial, pairs, value) tuple: pairs maps the serials of each
    pair (p, q) of model states that (i_1 k_1) ... (i_m k_m) and (k_1 j_1)
    ... (k_m j_m) reach, over the middle tuples k, to (p, q, count), in the
    order that increasing k first reach them; value is sum count v(p) v(q),
    added in that order.  Pairs with the zero state, which every letter
    keeps, are left out.  A state is kept once per set of (pair serials,
    count), under a serial of the square's own, in a table emptied at
    _SHARED_MAX states; it stores no successors, as the walk's memo shares
    its suffixes."""

    def __init__(self, words: _ModelWords, n: int):
        self.words = words
        self.n = n
        self._serials = itertools.count()
        self._states = {}
        s = words.start
        self.start = self._state({(s[0], s[0]): (s, s, 1)})

    def _state(self, pairs: dict) -> tuple:
        key = frozenset([(serials, c) for serials, (_, _, c) in pairs.items()])
        state = self._states.get(key)
        if state is None:
            value = self.words.weighted_sum([c for _, _, c in pairs.values()],
                                            [p[2] * q[2] for p, q, _ in pairs.values()],
                                            self.words.zero)
            if len(self._states) >= _SHARED_MAX:
                self._states.clear()
            state = self._states[key] = (next(self._serials), pairs, value)
        return state

    def step(self, state: tuple, letter) -> tuple:
        """The kept state that the letter leads to from the state."""
        i, j = letter
        step = self.words.step
        pairs = {}
        for p, q, c in state[1].values():
            for k in range(self.n):
                a, b = step(p, (i, k)), step(q, (k, j))
                if a[1] and b[1]:
                    hit = pairs.get((a[0], b[0]))
                    pairs[(a[0], b[0])] = (a, b, c if hit is None else hit[2] + c)
        return self._state(pairs)


def _reference_model(reference, n: int) -> FiberModel:
    """The stationary model of a reference on n x n coordinates: a model whose
    state is the reference's Haar state.  A permutation group G gives its
    permutation model over the points of G, with weights 1/|G| and 1 x 1
    fibers [g(j) = i], one shared object for 1 and one for 0.  A model, such
    as the block model of a group dual, is its own; it must be n x n and
    exact, since Haar states are exact and the span search eliminates over
    its fiber entries."""
    if isinstance(reference, PermGroup):
        if reference.degree != n:
            raise ShapeMismatch("group degree does not match the model size")
        elements = reference.elements
        one, zero = CMatrix.exact([[1]]), CMatrix.exact([[0]])
        return FiberModel(
            n, 1, [str(g) for g in elements], [Fraction(1, len(elements))] * len(elements),
            [[tuple(one if g(j + 1) == i + 1 else zero for g in elements) for j in range(n)]
             for i in range(n)])
    if isinstance(reference, FiberModel):
        if reference.n != n:
            raise ShapeMismatch("reference size does not match the model size")
        if reference.mode == "float":
            raise ModeMismatch("a reference model must be exact")
        return reference
    raise TypeError("reference must be a PermGroup or FiberModel")


def _word_bound(bound, name: str) -> int:
    """The bound, which must be an int (not a bool) of at least 0."""
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
        raise BadArgument(f"{name} must be an int of at least 0")
    return bound


class StateOnWords:
    """A model's state on the words up to a bound: its automaton and the bound."""

    def __init__(self, model: FiberModel, bound: int):
        self.n = model.n
        self.bound = _word_bound(bound, "bound")
        self.words = _ModelWords(model)

    @classmethod
    def from_model(cls, model: FiberModel, bound: int) -> "StateOnWords":
        return cls(model, bound)

    @functools.cached_property
    def table(self) -> dict:
        """The value on every word up to the bound, depth first; no check reads it."""
        table = {}

        def rec(word, state):
            table[word] = state[2]
            for letter in _letters(self.n) if len(word) < self.bound else ():
                rec(word + (letter,), self.words.step(state, letter))

        rec((), self.words.start)
        return table


def _word_label(word) -> str:
    if not word:
        return "1"
    return " ".join(f"u[{i + 1},{j + 1}]" for i, j in word)


def shortest_difference(reference, model: FiberModel, max_len=None):
    """A shortest word, as a tuple of 0-based letters (i, j), on which the
    state of an exact model differs from the Haar state of the reference (a
    permutation group, or an exact model of the same size such as a group
    dual's block model, read as the state of its stationary model); None when
    the two agree on every word, or on every word of length at most max_len
    (None, or an int of at least 0).  A reference of another size raises
    ShapeMismatch, a float reference model ModeMismatch, and a reference of
    another type TypeError.

    Both states are weighted automata (Schützenberger 1961).  A word's joint
    vector holds the fiber products at the live points of both models; each
    letter acts on it linearly, and each state is a linear function of it.
    Words are read breadth-first in length-major order, and only a word
    whose vector enlarges the span of the vectors kept so far is kept and
    extended, so the search stops once the span stops growing and reads at
    most n^2 words per kept vector (Tzeng 1992, SIAM J.
    Comput. 21).  Every word's vector is a combination of kept vectors of
    words no longer than it, so the states agree on every word if they agree
    on the kept words, and the first word on which they differ is a shortest
    one.  A word that reaches a pair of states already read is skipped: an
    earlier word had its values and vector, compared equal and spanned it."""
    _word_bound(0 if max_len is None else max_len, "max_len")
    if model.mode != "exact":
        raise ModeMismatch("the automaton search needs an exact model")
    ref = _ModelWords(_reference_model(reference, model.n))
    return _first_difference(_ModelWords(model), ref, model.n, max_len)


def _first_difference(mod: _ModelWords, ref: _ModelWords, n: int, max_len=None):
    """The span search of shortest_difference over two built automata."""
    letters = _letters(n)
    basis = {}
    read = set()
    queue = deque([((), mod.start, ref.start)])
    while queue:
        word, p, r = queue.popleft()
        if (p[0], r[0]) in read:
            continue
        read.add((p[0], r[0]))
        if not scalars_equal(p[2], r[2]):
            return word
        vec = dict(mod.coordinates(p, 0) + ref.coordinates(r, 1))
        if _enlarges_span(basis, vec) and (max_len is None or len(word) < max_len):
            for letter in letters:
                queue.append((word + (letter,), mod.step(p, letter), ref.step(r, letter)))
    return None


def _differing_words(mod: _ModelWords, ref, n: int, bound: int, tol=None) -> list:
    """(word, mod's value, ref's value) for every word up to the bound on
    which the two automata differ beyond tol, in length-major lexicographic
    order.  ref is a reference's automaton, or the square of mod
    (_SquareWords); its states are kept (serial, ..., value) tuples too.

    Each word is read into both automata at once.  A word's values and those
    of its extensions depend only on the pair of states it reaches, so the
    differing suffixes of a pair, the empty one included, are listed once per
    remaining length, under the two states' serials, and shared by every word
    that reaches it; a pair compares its own values once per listing.  The
    memo is emptied when it is full (_SHARED_MAX); a pair met after that is
    listed again.  So the work grows with the distinct pairs of states, not
    with the words, where products repeat exactly (as 0/1 and +-1 do)."""
    letters = _letters(n)
    memo = {}

    def suffixes(p, r, left):
        """The differing suffixes of length at most left."""
        key = (p[0], r[0], left)
        found = memo.get(key)
        if found is None:
            found = [] if scalars_equal(r[2], p[2], tol) else [((), p[2], r[2])]
            if left:
                for letter in letters:
                    found += [((letter,) + w, a, b) for w, a, b in
                              suffixes(mod.step(p, letter), ref.step(r, letter), left - 1)]
            if len(memo) >= _SHARED_MAX:
                memo.clear()
            memo[key] = found
        return found

    return sorted(suffixes(mod.start, ref.start, bound),
                  key=lambda found: (len(found[0]), found[0]))


def stationarity_check(reference, model: FiberModel, word_len: int = 3,
                       tol=None) -> CheckReport:
    """Compare the model state with the reference Haar state on every word up
    to the bound; checked counts every such word.  The reference is a
    permutation group, or an exact model of the same size such as a group
    dual's block model, read as the state of its stationary model, and is
    refused as shortest_difference refuses it.  The model's automaton and the
    reference's are built once, and the span search and the walk read the
    same two.

    An exact model is decided by the span search of shortest_difference up
    to the bound.  When the states agree, the report passes and no word is
    read.  Otherwise the joint walk of _differing_words lists the witnesses
    in length-major order, and the automaton's word must be one of them, as
    long as the first (or, past the bound, the walk must find none); any
    other outcome raises Inconsistent.  A float model is compared by the
    walk alone, since a rank decision under a tolerance is no proof.

    When the check passes on a single-point model whose reference is
    quasi-transitive with block size equal to the fiber dimension, the
    rank-one property of in-block entries is forced; that implication is
    re-checked, its verdict is details["single_point_flatness"], and a
    violation raises Inconsistent."""
    _word_bound(word_len, "word_len")
    ref = _ModelWords(_reference_model(reference, model.n))
    mod = _ModelWords(model)
    exact = model.mode == "exact"
    shortest = _first_difference(mod, ref, model.n, word_len) if exact else None
    checked = sum((model.n * model.n) ** m for m in range(word_len + 1))
    differing = []
    if not exact or shortest is not None:
        differing = _differing_words(mod, ref, model.n, word_len, tol)
        failing = [word for word, _, _ in differing]
        if shortest is not None and (
                bool(failing) != (len(shortest) <= word_len)
                or failing and (len(failing[0]) != len(shortest) or shortest not in failing)):
            raise Inconsistent("the automaton search and the word tables disagree")
    witnesses = tuple({"word": _word_label(word), "reference": str(b), "model": str(a)}
                      for word, a, b in differing)
    passed = not witnesses
    details = {}
    if (passed and word_len >= 2 and model.n_points == 1
            and isinstance(reference, PermGroup)):
        orbits = orbits_from_source(reference)
        if orbits.quasi_transitive and orbits.block_size == model.dim:
            flat = quasi_flat_check(model, orbits, tol)
            details["single_point_flatness"] = flat.passed
            if not flat.passed:
                raise Inconsistent(
                    "stationary single-point model failed the forced rank-one property")
    return CheckReport("stationarity", passed, checked, witnesses, details)


def convolution_idempotency(state: StateOnWords, tol=None) -> CheckReport:
    """Whether the state equals its own convolution square on every word up
    to the bound; checked counts every such word.  The walk of
    _differing_words reads the model's automaton against its square
    (_SquareWords).  A float square may print other last bits, or another
    sign of a zero part, than the sum over middle tuples in their order."""
    square = _SquareWords(state.words, state.n)
    differing = _differing_words(state.words, square, state.n, state.bound, tol)
    witnesses = tuple({"word": _word_label(word), "state": str(a), "convolution": str(b)}
                      for word, a, b in differing)
    checked = sum((state.n * state.n) ** m for m in range(state.bound + 1))
    return CheckReport("convolution_idempotency", not witnesses, checked, witnesses)


def fixed_point_matrix(source, tol=None) -> tuple[CMatrix, CheckReport]:
    """The matrix of integrated coordinates: Q_ij = integral of u_ij, read
    off a model, or off the permutation model of a permutation group.  Must
    always be an orthogonal projection fixing the all-ones vector."""
    if isinstance(source, PermGroup):
        source = _reference_model(source, source.degree)
    if not isinstance(source, FiberModel):
        raise TypeError("source must be a PermGroup or FiberModel")
    n = source.n
    fibers = {id(f): f for row in source.entries for cell in row for f in cell}
    weights, weighted_sum = _point_weights(source, fibers.values())
    traces = {key: f.ntrace() for key, f in fibers.items()}
    rows = [[weighted_sum(weights, [traces[id(f)] for f in source.entries[i][j]])
             for j in range(n)]
            for i in range(n)]
    q = CMatrix(source.mode, rows)
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


def dual_group_stationarity(group, rep, tol=None) -> CheckReport:
    """ntrace of the representing matrix rep[g] must be the delta at the
    identity, for every group element g."""
    witnesses = []
    checked = 0
    for g in group.elements:
        checked += 1
        expected = 1 if g == group.identity else 0
        value = rep[g].ntrace()
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
    if not sizes:
        raise BadArgument("need at least one block")
    if any(k < 1 for k in sizes):
        raise BadArgument("block sizes must be positive")
    mats = list(generator_matrices)
    dim = mats[0].rows
    mode = mats[0].mode
    tables = []
    for k, u in zip(sizes, mats):
        if u.rows != dim or u.cols != dim or u.mode != mode:
            raise ShapeMismatch("generators must share dimension and mode")
        tables.append(_check_spectral_pre(u, k, tol, what="generator"))
    n = sum(sizes)
    zero = CMatrix.zeros(dim, dim, mode)
    ident = CMatrix.identity(dim, mode)
    grid = [[(zero,) for _ in range(n)] for _ in range(n)]
    offset = 0
    for k, powers in zip(sizes, tables):
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
