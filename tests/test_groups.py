import itertools
import random
from operator import mul

import pytest

from magicmodels.cyclotomic import Cyc, zeta
from magicmodels.errors import (
    CapExceeded, DegreeMismatch, NotBijective, NotInGroup, NotSubgroup,
    NotWellDefined,
)
from magicmodels.groups import (
    AutoMap, FinAbelian, Perm, PermGroup, abelian_dual,
    abelianization, extend_automorphism, extend_generator_map, generate,
    is_normal, orbit_blocks,
)
from conftest import first_generator_maps, pg


def test_perm_basics():
    p = Perm.from_cycles(4, [(1, 2, 3)])
    assert p(1) == 2 and p(3) == 1 and p(4) == 4
    assert p.order() == 3
    assert (p * p.inv()).is_identity()
    assert p.fixed_points() == (4,)
    assert Perm.from_cycles(4, [(1, 2), (3, 4)]).cycles() == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        Perm((1, 1, 3))
    with pytest.raises(DegreeMismatch):
        p * Perm.identity(3)
    with pytest.raises(DegreeMismatch, match="^degrees 3 and 4$"):
        Perm.identity(3) * Perm.identity(4)


def test_composition_convention():
    # (s * t)(i) = s(t(i)): t acts first
    s = Perm.from_cycles(3, [(1, 2)])
    t = Perm.from_cycles(3, [(2, 3)])
    assert (s * t) == Perm.from_cycles(3, [(1, 2, 3)])
    assert (s * t)(3) == 1 and (s * t)(2) == 3
    assert (t * s)(1) == 3


def test_group_enumeration_and_closure(s3, d4):
    assert s3.order == 6 and d4.order == 8
    for g in d4.elements:
        for h in d4.elements:
            assert g * h in d4


def test_enumeration_is_deterministic(d4):
    again = pg(4, [(1, 2, 3, 4)], [(1, 3)])
    assert list(d4.elements) == list(again.elements)


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        PermGroup.from_generators([Perm.from_cycles(5, [(1, 2, 3, 4, 5)]),
                                   Perm.from_cycles(5, [(1, 2)])], cap=10)


def test_subgroup_and_normality(s3, d4, z3):
    assert s3.subgroup(list(s3.generators), cap=1) is s3
    a3 = s3.subgroup([Perm.from_cycles(3, [(1, 2, 3)])])
    assert a3.order == 3
    assert is_normal(a3, s3)
    z2 = s3.subgroup([Perm.from_cycles(3, [(1, 2)])])
    assert not is_normal(z2, s3)
    z4 = d4.subgroup([Perm.from_cycles(4, [(1, 2, 3, 4)])])
    assert is_normal(z4, d4)
    with pytest.raises(NotSubgroup):
        is_normal(pg(3, [(1, 2)]), z3)
    with pytest.raises(DegreeMismatch):
        is_normal(pg(4, [(1, 2)]), s3)


def test_membership_is_by_perm_and_images(s3):
    for g in s3.elements:
        assert g in s3 and Perm(g.images) in s3
        # a plain tuple equal to a member's images is not a member
        assert g.images not in s3 and list(g.images) not in s3
    # neither is a Perm of another degree, even one that fixes the new point
    assert Perm.identity(4) not in s3 and Perm.identity(2) not in s3
    assert Perm.from_cycles(4, [(1, 2)]) not in s3
    assert Perm.from_cycles(3, [(1, 2)]) in s3
    assert Perm.from_cycles(3, [(1, 2)]) not in s3.subgroup([Perm.from_cycles(3, [(1, 2, 3)])])
    # the index of image tuples is the one membership table
    assert not hasattr(s3, "words") and not hasattr(s3, "_members")


def test_fin_abelian_basics():
    g = FinAbelian([2, 4])
    assert g.order == 8 and g.exponent == 4
    assert g.identity == (0, 0)
    assert g.mul((1, 3), (1, 2)) == (0, 1)
    assert g.inv((1, 1)) == (1, 3)
    assert g.element_order((0, 1)) == 4
    assert g.power((0, 1), 6) == (0, 2)
    assert len(list(g)) == 8
    assert g.generators == ((1, 0), (0, 1)) == (g.generator(0), g.generator(1))
    # the unit vector of a trivial factor is reduced to its element 0
    assert FinAbelian([3, 1]).generators == ((1, 0), (0, 0))
    assert FinAbelian([]).generators == ()


def test_abelian_dual_orthogonality():
    for factors in ([3], [2, 2], [2, 4]):
        g = FinAbelian(factors)
        chars = abelian_dual(g)
        assert len(chars) == g.order
        # distinct as functions: some element separates any two characters
        for i, c1 in enumerate(chars):
            for c2 in chars[i + 1:]:
                assert any(c1.value(x) != c2.value(x) for x in g)
        # column orthogonality
        for c in chars:
            total = Cyc.from_rational(0)
            for x in g:
                total = total + c.value(x)
            expected = 0 if any(c.exponents) else g.order
            assert total == Cyc.from_rational(expected)


def test_character_values():
    g = FinAbelian([4])
    chars = abelian_dual(g)
    chi = next(c for c in chars if c.value((1,)) == zeta(4))
    assert chi.value((2,)) == zeta(4) ** 2


def test_automap_identity_and_power():
    g = FinAbelian([5])
    inv = AutoMap.from_function(g, g.inv)
    assert inv.power(2).is_identity()
    assert inv.power(-1)((2,)) == (3,)
    assert inv.inverse().compose(inv).is_identity()
    assert AutoMap.identity(g).is_identity()


def test_automap_rejects_non_bijection():
    g = FinAbelian([4])
    with pytest.raises(NotBijective):
        AutoMap.from_function(g, lambda a: (a[0] % 2,))


def full_table_from_function(group, fn):
    """AutoMap.from_function with multiplicativity tested on all |G|^2
    pairs: the reference for the generator-step check."""
    mapping = {g: fn(g) for g in group.elements}
    values = set(mapping.values())
    if len(values) != len(mapping):
        raise NotBijective("map is not injective")
    if values != set(group.elements):
        raise NotBijective("map is not onto the group")
    for a in group.elements:
        for b in group.elements:
            if mapping[group.mul(a, b)] != group.mul(mapping[a], mapping[b]):
                raise NotWellDefined("map is not multiplicative")
    return AutoMap(group, mapping)


AUTOMAP_CASES = {
    "Z1": FinAbelian([1]),
    "trivial, no factors": FinAbelian([]),
    "Z5": FinAbelian([5]),
    "Z2 + Z4": FinAbelian([2, 4]),
    "Z2 + Z2 + Z2": FinAbelian([2, 2, 2]),
    "Z3 + Z6": FinAbelian([3, 6]),
    "Z4 + Z1": FinAbelian([4, 1]),
    "S3": pg(3, [(1, 2)], [(1, 2, 3)]),
    "D4": pg(4, [(1, 2, 3, 4)], [(1, 3)]),
}


def _automap_outcome(fn, group, images):
    try:
        return "map", fn(group, images.__getitem__).mapping
    except (NotBijective, NotWellDefined) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", list(AUTOMAP_CASES))
def test_automap_generator_steps_decide_like_the_full_table(name):
    group = AUTOMAP_CASES[name]
    elements = list(group.elements)
    rng = random.Random(name)
    maps = [dict(zip(elements, elements))]
    # power maps, automorphisms when k is prime to the exponent, and the
    # inner automorphisms of a permutation group
    if isinstance(group, FinAbelian):
        maps += [{a: group.power(a, k) for a in elements} for k in range(2, 8)]
    else:
        maps += [{a: c * a * c.inv() for a in elements} for c in elements]
    # random bijections and bijections that respect only the first generator
    for _ in range(40):
        shuffled = elements[:]
        rng.shuffle(shuffled)
        maps.append(dict(zip(elements, shuffled)))
    if group.generators:
        maps += first_generator_maps(group, rng, 10)
    # a bijection that swaps e with another element, and two non-bijections
    if len(elements) > 1:
        swapped = dict(zip(elements, elements))
        swapped[elements[0]], swapped[elements[1]] = elements[1], elements[0]
        maps.append(swapped)
        maps.append({a: elements[0] for a in elements})
        maps.append({a: elements[-1] if a == elements[0] else a for a in elements})
    verdicts = set()
    for images in maps:
        got = _automap_outcome(AutoMap.from_function, group, images)
        assert got == _automap_outcome(full_table_from_function, group, images)
        verdicts.add(got[0] if got[0] == "map" else got[1])
    assert "map" in verdicts
    if len(elements) > 2:
        assert "map is not multiplicative" in verdicts


@pytest.mark.parametrize("name", list(AUTOMAP_CASES))
def test_automap_multiplies_once_per_generator_step(name, monkeypatch):
    group = AUTOMAP_CASES[name]
    calls = []
    mul = group.mul

    def counted(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(group, "mul", counted)
    AutoMap.from_function(group, lambda a: a)
    # one product for the identity pair, two for each generator step
    assert len(calls) <= 2 * group.order * len(group.generators) + 1


def test_extend_automorphism_roundtrip(s3, d4):
    # conjugation by (23) on the generators (12), (123) extends
    images = [Perm.from_cycles(3, [(1, 3)]), Perm.from_cycles(3, [(1, 3, 2)])]
    auto = extend_automorphism(s3, images)
    assert auto.inverse().compose(auto).is_identity()
    for g in s3.elements:
        assert auto.inverse()(auto(g)) == g
    # rotation -> rotation^3, reflection fixed extends for D4
    images = [Perm.from_cycles(4, [(1, 4, 3, 2)]), Perm.from_cycles(4, [(1, 3)])]
    auto4 = extend_automorphism(d4, images)
    assert auto4.compose(auto4).is_identity()


def test_extend_automorphism_rejects_bad_images(s3):
    # transposition -> 3-cycle cannot respect relations
    with pytest.raises((NotWellDefined, NotBijective)):
        extend_automorphism(s3, [Perm.from_cycles(3, [(1, 2, 3)]),
                                 Perm.from_cycles(3, [(1, 2)])])
    assert s3.subgroup(list(s3.generators), cap=1) is s3
    a3 = s3.subgroup([Perm.from_cycles(3, [(1, 2, 3)])])
    with pytest.raises(NotInGroup):
        extend_automorphism(a3, [Perm.from_cycles(3, [(1, 2)])])


def test_extend_automorphism_rejects_repeated_generator_with_two_images():
    # s is listed twice; the identity map would be accepted while the
    # image t of the second copy is silently dropped
    s = Perm.from_cycles(3, [(1, 2)])
    t = Perm.from_cycles(3, [(1, 3)])
    group = PermGroup.from_generators([s, s, t])
    with pytest.raises(NotWellDefined, match="at generator 2"):
        extend_automorphism(group, [s, t, t])
    assert extend_automorphism(group, [s, s, t]).is_identity()
    swap = extend_automorphism(group, [t, t, s])
    assert swap(s) == t and swap(t) == s


def test_extend_automorphism_rejects_identity_generator_with_image():
    e = Perm.identity(3)
    r = Perm.from_cycles(3, [(1, 2, 3)])
    group = PermGroup.from_generators([e, r])
    with pytest.raises(NotWellDefined, match="at generator 1"):
        extend_automorphism(group, [r, r])
    assert extend_automorphism(group, [e, r.inv()])(r) == r.inv()


def full_table_generator_map(group, generator_images, target_mul, target_identity):
    """The extension checked on every product a b, followed by the same
    per-generator image check: the reference for the generator-step check."""
    if len(generator_images) != len(group.generators):
        raise ValueError("need one image per generator")
    mapping = {}
    _, words = breadth_first_by_frontier(group.generators, group.degree)
    for element, word in zip(group.elements, words):
        value = target_identity
        for gi in word:
            value = target_mul(value, generator_images[gi])
        mapping[element] = value
    for a in group.elements:
        for b in group.elements:
            if mapping[group.mul(a, b)] != target_mul(mapping[a], mapping[b]):
                raise NotWellDefined("generator assignment is not multiplicative")
    for i, (g, image) in enumerate(zip(group.generators, generator_images), start=1):
        if mapping[g] != image:
            raise NotWellDefined(
                f"generator assignment is not well defined at generator {i}")
    return mapping


def _outcome(fn, *args):
    try:
        return "map", fn(*args)
    except NotWellDefined as exc:
        return type(exc).__name__, str(exc)


S5_STAR = [Perm.from_cycles(5, [(1, k)]) for k in (2, 3, 4, 5)]


def mod3_product(a, b):
    """The product of two 2 x 2 integer matrices, entries reduced modulo 3."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) % 3 for j in range(2))
                 for i in range(2))


MOD3_IDENTITY = ((1, 0), (0, 1))
MOD3_MATRICES = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(3), repeat=4)]
# The reflection representation of S3 = <(1 2), (1 2 3)>, reduced modulo 3.
S3_MOD3 = [((0, 1), (1, 0)), ((0, 2), (1, 2))]

# name -> (group, random trials, target); a target is (the pool of images,
# target_mul, target_identity, the images of a known homomorphism), and None
# is the group itself.
GENERATOR_MAP_CASES = {
    "S3": (pg(3, [(1, 2)], [(1, 2, 3)]), 60, None),
    "D4": (pg(4, [(1, 2, 3, 4)], [(1, 3)]), 60, None),
    "S4": (pg(4, [(1, 2)], [(1, 2, 3, 4)]), 40, None),
    "S4 with a repeat and the identity": (PermGroup.from_generators(
        [Perm.from_cycles(4, [(1, 2)]), Perm.identity(4),
         Perm.from_cycles(4, [(1, 2, 3, 4)]), Perm.from_cycles(4, [(1, 2)])]), 40, None),
    "S5 star": (PermGroup.from_generators(S5_STAR), 4, None),
    "S4 with the identity first": (PermGroup.from_generators(
        [Perm.identity(4), Perm.from_cycles(4, [(1, 2)]),
         Perm.from_cycles(4, [(1, 2, 3, 4)])]), 40, None),
    "S3 into 2x2 matrices mod 3": (pg(3, [(1, 2)], [(1, 2, 3)]), 60,
                                   (MOD3_MATRICES, mod3_product, MOD3_IDENTITY, S3_MOD3)),
}


@pytest.mark.parametrize("name", list(GENERATOR_MAP_CASES))
def test_generator_steps_decide_like_the_full_table(name):
    group, trials, target = GENERATOR_MAP_CASES[name]
    if target is None:
        target = (group.elements, mul, group.identity, group.generators)
    pool, target_mul, target_identity, homomorphism = target
    rng = random.Random(name)
    n_gens = len(group.generators)
    assignments = [list(homomorphism), [target_identity] * n_gens]
    # every transposition of two generator images, then random images
    for a in range(n_gens):
        for b in range(a + 1, n_gens):
            swapped = list(homomorphism)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            assignments.append(swapped)
    assignments += [[rng.choice(pool) for _ in range(n_gens)]
                    for _ in range(trials)]
    verdicts = set()
    for images in assignments:
        got = _outcome(extend_generator_map, group, images, target_mul, target_identity)
        want = _outcome(full_table_generator_map, group, images, target_mul,
                        target_identity)
        assert got == want
        if got[0] == "map":
            assert list(got[1]) == list(group.elements)
        verdicts.add(got[1] if got[0] != "map" else "map")
    assert "map" in verdicts and len(verdicts) > 1
    if "repeat" in name or "identity first" in name:
        assert any("well defined at generator" in v for v in verdicts)


def breadth_first_by_frontier(generators, degree):
    """Breadth-first enumeration one frontier at a time, each in the order
    its elements were found: the element and word order that every report's
    point order rests on."""
    e = Perm.identity(degree)
    elements, words = [e], [()]
    index = {e: 0}
    frontier = [0]
    while frontier:
        next_frontier = []
        for i in frontier:
            for gi, g in enumerate(generators):
                y = elements[i] * g
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    words.append(words[i] + (gi,))
                    next_frontier.append(index[y])
        frontier = next_frontier
    return elements, words


@pytest.mark.parametrize("name", list(GENERATOR_MAP_CASES))
def test_enumeration_keeps_its_cayley_graph(name):
    group = GENERATOR_MAP_CASES[name][0]
    elements, cayley, index = generate(group.generators, group.degree)
    # every report's point order is this element order
    bfs_elements, words = breadth_first_by_frontier(group.generators, group.degree)
    assert list(elements) == bfs_elements
    assert (group.elements, group._cayley, group._index) == (elements, cayley, index)
    assert index == {g.images: i for i, g in enumerate(elements)}
    assert type(cayley) is tuple and len(cayley) == group.order
    reached = {0}
    for i, row in enumerate(cayley):
        assert type(row) is tuple and len(row) == len(group.generators)
        for g, j in enumerate(row):
            assert elements[j] == elements[i] * group.generators[g]
            # the edge that first reaches an element is its breadth-first
            # tree edge, the last letter of its stored word
            if j not in reached:
                assert j == len(reached) and words[j] == words[i] + (g,)
                reached.add(j)
    assert len(reached) == group.order


def test_unchecked_products_equal_validated_ones():
    rng = random.Random(5)
    for degree in (1, 2, 5, 9):
        for _ in range(20):
            s = Perm(rng.sample(range(1, degree + 1), degree))
            t = Perm(rng.sample(range(1, degree + 1), degree))
            product = s * t
            assert product == Perm(s(t(i)) for i in range(1, degree + 1))
            assert type(product.images) is tuple
            inverse = s.inv()
            assert inverse == Perm(sorted(range(1, degree + 1), key=s))
            assert type(inverse.images) is tuple
            assert (s * inverse).is_identity() and (inverse * s).is_identity()
    with pytest.raises(ValueError, match="not a permutation"):
        Perm((2, 3, 3))


def test_orbit_blocks(klein6, s3):
    assert orbit_blocks(klein6) == ((1, 2), (3, 4), (5, 6))
    assert orbit_blocks(s3) == ((1, 2, 3),)
    two = pg(4, [(1, 2)])
    assert orbit_blocks(two) == ((1, 2), (3,), (4,))


def test_abelianization(s3, d4, klein4):
    ab, proj = abelianization(s3)
    assert ab.order == 2
    assert proj[Perm.from_cycles(3, [(1, 2, 3)])] == ab.identity
    ab4, proj4 = abelianization(d4)
    assert ab4.order == 4 and ab4.exponent == 2
    abk, _ = abelianization(klein4)
    assert abk.order == 4
    # projection is a homomorphism
    for g in s3.elements:
        for h in s3.elements:
            assert proj[g * h] == ab.mul(proj[g], proj[h])


def commutator_closure(group):
    """[G, G] as the normal closure of the generator commutators,
    enumerated once per round."""
    gens = group.generators
    seeds = {a * b * a.inv() * b.inv() for a in gens for b in gens}
    while True:
        sub = PermGroup.from_generators([s for s in seeds if not s.is_identity()],
                                        group.degree)
        new = {g * h * g.inv() for g in gens for h in sub.elements} - set(sub.elements)
        if not new:
            return sub
        seeds |= new


def quotient_table(elements, sub_elements, mul):
    """The table of the quotient by a normal subgroup, on coset indices in
    order of first member, and the first member of each coset."""
    reps, coset_of = [], {}
    for g in elements:
        if g not in coset_of:
            coset_of.update((mul(g, h), len(reps)) for h in sub_elements)
            reps.append(g)
    return [[coset_of[mul(a, b)] for b in reps] for a in reps], reps


def table_power(table, a, k):
    x = 0
    for _ in range(k):
        x = table[x][a]
    return x


def table_order(table, a):
    k, x = 1, a
    while x:
        x = table[x][a]
        k += 1
    return k


def max_order_basis(table):
    """Independent generators (element, order) of an abelian table group,
    each order dividing the one before: an element of maximal order, then a
    basis of the quotient by its cyclic group, each member lifted to an
    element of its own order."""
    if len(table) == 1:
        return []
    a = max(range(len(table)), key=lambda x: table_order(table, x))
    d = table_order(table, a)
    cyclic = [table_power(table, a, i) for i in range(d)]
    quotient, reps = quotient_table(range(len(table)), cyclic, lambda x, y: table[x][y])
    a_inv = cyclic[-1]
    basis = [(a, d)]
    for qb, m in max_order_basis(quotient):
        c = reps[qb]
        # c^m lies in <a>; strip off its discrete logarithm.
        t = cyclic.index(table_power(table, c, m))
        assert t % m == 0
        b = table[c][table_power(table, a_inv, t // m)]
        assert table_order(table, b) == m
        basis.append((b, m))
    return basis


def table_route_factors(group):
    """The invariant factors of G / [G, G], largest first, along the route of
    commutator closure, coset quotient table and max-order basis lift."""
    derived = commutator_closure(group)
    table, _ = quotient_table(group.elements, derived.elements, mul)
    basis = max_order_basis(table)
    # the lifted basis spans the quotient freely
    spanned = set()
    for exps in itertools.product(*(range(m) for _, m in basis)):
        x = 0
        for (b, _), e in zip(basis, exps):
            x = table[x][table_power(table, b, e)]
        spanned.add(x)
    assert len(spanned) == len(table)
    return tuple(m for _, m in basis)


ABELIANIZATION_CASES = {
    **{name: case[0] for name, case in GENERATOR_MAP_CASES.items()},
    "G216": PermGroup.from_generators([
        Perm([2, 3, 6, 1, 4, 5, 12, 9, 10, 8, 7, 11]),
        Perm([1, 6, 3, 2, 5, 4, 11, 10, 7, 12, 9, 8])]),
    "G360": PermGroup.from_generators([
        Perm([3, 2, 6, 1, 4, 5, 8, 11, 10, 12, 9, 7]),
        Perm([1, 3, 5, 2, 6, 4, 7, 8, 9, 10, 11, 12])]),
    "trivial": PermGroup.from_generators([Perm.identity(3)]),
    "no generators": PermGroup.from_generators([], degree=3),
    # Z2 x Z3 = Z6: its relator matrix diag(2, 3) needs the Smith form's
    # step for a pivot that does not divide the rest.
    "<(1 2), (3 4 5)>": pg(5, [(1, 2)], [(3, 4, 5)]),
}


@pytest.mark.parametrize("name", list(ABELIANIZATION_CASES))
def test_abelianization_matches_the_table_route(name):
    group = ABELIANIZATION_CASES[name]
    ab, proj = abelianization(group)
    assert ab.factors == table_route_factors(group)
    assert list(proj) == list(group.elements)
    # a homomorphism on every edge of the Cayley graph, so on all of G
    for a, row in enumerate(group._cayley):
        for g, b in enumerate(row):
            image = ab.mul(proj[group.elements[a]], proj[group.generators[g]])
            assert proj[group.elements[b]] == image
    assert set(proj.values()) == set(ab.elements)
    if group.is_abelian():
        assert len(set(proj.values())) == group.order
