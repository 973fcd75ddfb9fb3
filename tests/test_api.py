"""The public surface: every exported name resolves, and removed names stay gone."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import magicmodels

MODULES = sorted(m.name for m in pkgutil.iter_modules(magicmodels.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"magicmodels.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"magicmodels.{name}.{attr}"


def test_package_imports_resolve():
    tree = ast.parse(Path(magicmodels.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    for name in names:
        assert hasattr(magicmodels, name), name


@pytest.mark.parametrize("module, name", [
    ("matrices", "FnMatrix"), ("magic", "MagicModel"), ("cyclic", "CyclicModel"),
    ("induced", "StationarityReport"), ("quasiflat", "UniformCertificate"),
    ("quasiflat", "TraceReport"), ("quasiflat", "TraceVector"),
])
def test_merged_model_types_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"magicmodels.{module}"), name)
    assert not hasattr(magicmodels, name)
    assert not hasattr(magicmodels.FiberModel, "entry_fn")


@pytest.mark.parametrize("owner, name", [
    ("AlgebraElement", "support"), ("AlgebraElement", "coefficient"),
    ("StateOnWords", "from_group"), ("StateOnWords", "from_dual"),
    ("StateOnWords", "value"),
    ("PermGroup", "index"), ("PermGroup", "__iter__"), ("TableGroup", "index"),
    ("FinAbelian", "index"), ("FinAbelian", "__contains__"),
    ("CharacterOf", "table"), ("CMatrix", "transpose"),
    ("groups", "SemidirectGroup"), ("groups", "semidirect"),
    ("CMatrix", "kron"), ("AutoMap", "order"), ("CharacterOf", "is_trivial"),
    ("CharacterOf", "conj"), ("CharacterOf", "__mul__"),
    ("SparseLatinSquare", "to_family"), ("InducedModel", "matmul"),
    ("groups", "QuotientData"), ("groups", "quotient_data"), ("groups", "_quotient"),
    ("serialize", "square_from_json"), ("serialize", "abelian_to_json"),
    ("serialize", "group_to_json"), ("induced", "_sum_alg"),
    ("induced", "_all_tuples"), ("errors", "OrderMismatch"),
    ("cyclotomic", "_poly_divmod"), ("matrices", "_scalar_div"),
    ("group_algebra", "delta"), ("InducedModel", "grid"),
    ("AlgebraElement", "__add__"), ("AlgebraElement", "__neg__"),
    ("AlgebraElement", "scale"), ("AlgebraElement", "__rmul__"),
    ("AlgebraElement", "adjoint"),
])
def test_removed_members_are_gone(owner, name):
    """A removed member of a class or of a module; a removed module member
    is gone from the package namespace too."""
    container = (getattr(magicmodels, owner) if owner[0].isupper()
                 else importlib.import_module(f"magicmodels.{owner}"))
    assert not hasattr(container, name)
    if isinstance(container, types.ModuleType):
        assert not hasattr(magicmodels, name)


def test_one_exact_row_echelon_routine():
    """Exact rank and the automaton search share the row-echelon routine of
    matrices.py."""
    from magicmodels import magic, matrices
    assert magic._enlarges_span is matrices._enlarges_span
    assert not hasattr(magic, "_minus")


def _run_child(code):
    # The child imports the package from where this process found it.
    src = str(Path(magicmodels.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)


def test_cli_import_does_not_load_numpy():
    proc = _run_child("import sys, magicmodels.cli\n"
                      "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_package_runs_without_numpy():
    proc = _run_child(
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        "import magicmodels\n"
        "for m in pkgutil.iter_modules(magicmodels.__path__):\n"
        "    importlib.import_module('magicmodels.' + m.name)\n"
        "from magicmodels.acceptance import criterion_7\n"
        "result = criterion_7(seed=0, samples=5)\n"
        "assert result['passed'], result\n"
        "print(result['details']['float_checked'])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "25\n"
