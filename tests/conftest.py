import contextlib
import io
import json

import pytest

from magicmodels.cli import dispatch
from magicmodels.groups import Perm, PermGroup


def pg(degree, *cycle_sets):
    return PermGroup.from_generators(
        [Perm.from_cycles(degree, cs) for cs in cycle_sets], degree=degree)


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
