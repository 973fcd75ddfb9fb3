import contextlib
import io
import json

import pytest

from magicmodels.cli import dispatch
from magicmodels.groups import Perm, PermGroup


def pg(degree, *cycle_sets):
    return PermGroup.from_generators(
        [Perm.from_cycles(degree, cs) for cs in cycle_sets], degree=degree)


def first_generator_maps(group, rng, count):
    """Bijections f of the group onto itself with f(a s) = f(a) f(s) for its
    first generator s alone, which a check of fewer generator steps than all
    would accept: f permutes the left cosets a<s> at random, keeping the one
    of the identity, and sends the k-th element a s^k of a coset to the
    (k + shift)-th of its image, with no shift on the identity's coset."""
    s = group.generators[0]
    seen, cosets = set(), []
    for a in group.elements:
        if a not in seen:
            coset = [a]
            while group.mul(coset[-1], s) != a:
                coset.append(group.mul(coset[-1], s))
            seen.update(coset)
            cosets.append(coset)
    n = len(cosets[0])
    maps = []
    for _ in range(count):
        order = cosets[1:]
        rng.shuffle(order)
        shifts = [0] + [rng.randrange(n) for _ in order]
        maps.append({a: image[(k + shift) % n]
                     for coset, image, shift in zip(cosets, [cosets[0]] + order, shifts)
                     for k, a in enumerate(coset)})
    return maps


@pytest.fixture
def s3():
    return pg(3, [(1, 2)], [(1, 2, 3)])


@pytest.fixture
def d4():
    return pg(4, [(1, 2, 3, 4)], [(1, 3)])


@pytest.fixture
def z3():
    return pg(3, [(1, 2, 3)])


@pytest.fixture
def klein4():
    return pg(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)])


@pytest.fixture
def klein6():
    return pg(6, [(1, 2), (3, 4)], [(1, 2), (5, 6)])


@pytest.fixture(scope="session")
def suite_run():
    """The `suite` command at its default seed 0, run once per session:
    its exit code and its parsed JSON report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(["suite"])
    return code, json.loads(out.getvalue())
