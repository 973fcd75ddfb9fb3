"""The public surface: every exported name resolves, and removed names stay gone."""
import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import magicmodels
from magicmodels.groups import Perm, PermGroup

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


# Classes removed whole, each with the module that defined it.
REMOVED_CLASSES = {"AlgebraElement": "group_algebra", "TableGroup": "groups"}


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
    ("AlgebraElement", "adjoint"), ("StateOnWords", "words_by_length"),
    ("magic", "_full_convolution"), ("magic", "_word_table"),
    ("group_algebra", "AlgebraElement"), ("magic", "haar_word_classical"),
    ("DualWordReference", "haar"), ("groups", "abelian_structure"),
    ("groups", "commutator_subgroup"), ("groups", "_abelian_basis"),
    ("groups", "_max_order_element"), ("PermGroup", "words"),
    ("PermGroup", "_members"),
])
def test_removed_members_are_gone(owner, name):
    """A removed member of a class or of a module; a removed module member
    is gone from the package namespace too.  A member of a class that is
    gone whole (REMOVED_CLASSES) is gone with its class."""
    if owner in REMOVED_CLASSES:
        owner, name = REMOVED_CLASSES[owner], owner
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


def _z4_in_d4():
    """The data of Z4 normal in D4 and the induced model of its reflection."""
    from magicmodels.induced import VirtuallyAbelianData, induce
    d4 = PermGroup.from_generators([Perm.from_cycles(4, [(1, 2, 3, 4)]),
                                    Perm.from_cycles(4, [(1, 3)])])
    z4 = d4.subgroup([Perm.from_cycles(4, [(1, 2, 3, 4)])])
    data = VirtuallyAbelianData.from_permutation_groups(d4, z4)
    reflection = Perm.from_cycles(4, [(1, 3)])
    return data, induce(data, reflection), reflection


def _z2():
    return PermGroup.from_generators([Perm([2, 1])])


def _swap_model():
    """The block model of the swap of two coordinates."""
    from magicmodels.magic import bichon_build
    from magicmodels.matrices import CMatrix
    return bichon_build([2], [CMatrix.exact([[0, 1], [1, 0]])])


# Every check of a caller's argument outside a run setting: (module, the
# call, the message).
BAD_ARGUMENTS = [
    ("cyclic", lambda m: m.cycle_fill([]), "need at least one element"),
    ("cyclic", lambda m: m.CyclicModelData(None, {}, None, 0), "K must be positive"),
    ("cyclotomic", lambda m: m.cyclotomic_poly(0), "order must be positive"),
    ("cyclotomic", lambda m: m.Cyc(0, ()), "order must be positive"),
    ("cyclotomic", lambda m: m.Cyc(2, [1]), "expected 2 coefficients, got 1"),
    ("cyclotomic", lambda m: m.zeta(3).lift(4), "can only lift to a multiple of the order"),
    ("groups", lambda m: m.Perm((1, 1)), "not a permutation of 1..2: (1, 1)"),
    ("groups", lambda m: m.generate([]), "need a degree when there are no generators"),
    ("groups", lambda m: m.PermGroup.from_generators([]),
     "need a degree when there are no generators"),
    ("groups", lambda m: m.FinAbelian([0]), "factors must be positive"),
    ("groups", lambda m: m.CharacterOf(m.FinAbelian([2]), (1, 1)),
     "exponent tuple has the wrong length"),
    ("groups", lambda m: m.extend_generator_map(_z2(), [], None, None),
     "need one image per generator"),
    ("induced", lambda m: m.AbelianWithFreePart(-1, []), "free rank cannot be negative"),
    ("induced", lambda m: m.AbelianWithFreePart(0, [0]), "factors must be positive"),
    ("induced", lambda m: m.AbelianWithFreePart(0, [2]).normalize((0, 0)),
     "wrong coordinate count"),
    ("induced", lambda m: m.VirtuallyAbelianData.split(1, [], _z2(), [[[1, 0]]]),
     "action matrices must be 1x1"),
    ("induced", lambda m: m.evaluate_at_character(
        _z4_in_d4()[1], m.CharacterOf(m.FinAbelian([2]), (1,))),
     "character does not match the subgroup structure"),
    ("induced", lambda m: m.frobenius_trace(
        _z4_in_d4()[0], m.CharacterOf(m.FinAbelian([2]), (1,)), _z4_in_d4()[2]),
     "character does not match the subgroup structure"),
    ("magic", lambda m: m.bichon_build([], []), "need at least one block"),
    ("magic", lambda m: m.DualWordReference.from_block_generators(
        magicmodels.FinAbelian([2]), [((1,), 0)]), "block sizes must be positive"),
    ("magic", lambda m: m.stationarity_check(_z2(), _swap_model(), -1),
     "word_len must be an int of at least 0"),
    ("magic", lambda m: m.shortest_difference(_z2(), _swap_model(), 2.5),
     "max_len must be an int of at least 0"),
    ("magic", lambda m: m.StateOnWords.from_model(_swap_model(), True),
     "bound must be an int of at least 0"),
    ("matrices", lambda m: m.CMatrix("bogus", [[1]]), "unknown mode 'bogus'"),
]


@pytest.mark.parametrize("module, call, message", BAD_ARGUMENTS,
                         ids=[f"{m}-{msg}" for m, _, msg in BAD_ARGUMENTS])
def test_bad_library_arguments_raise_bad_argument(module, call, message):
    """A bad argument raises BadArgument, which is still a ValueError, with
    its message."""
    with pytest.raises(magicmodels.BadArgument) as info:
        call(importlib.import_module(f"magicmodels.{module}"))
    assert type(info.value) is magicmodels.BadArgument
    assert isinstance(info.value, ValueError) and str(info.value) == message


def test_no_bare_value_error_is_raised():
    """Every input error of the library is a ModelInputError."""
    for path in Path(magicmodels.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        raised = [node.exc.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                  and isinstance(node.exc.func, ast.Name)]
        assert "ValueError" not in raised, path.name


# -- the names the benchmark reads ------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_tracing():
    """bench/tracing.py, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _program_chains(path):
    """The attribute chains read off the program in a benchmark file, as
    tuples of names after their root, mm or ctx.mm."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if not names or not isinstance(node, ast.Name):
            continue
        full = [node.id] + names[::-1]
        if full[0] == "mm":
            chains.add(tuple(full[1:]))
        elif full[:2] == ["ctx", "mm"]:
            chains.add(tuple(full[2:]))
    return chains


def test_every_name_the_benchmark_reads_resolves():
    """The benchmark imports every module of tracing.LAYERS and passes them
    to its jobs as mm; every mm.<module>.<name>... chain of bench/jobs.py
    must resolve there, so that a removed name fails here, not in a run."""
    _, modules = _bench_tracing().load_layers()
    mm = types.SimpleNamespace(**modules)
    chains = _program_chains(BENCH / "jobs.py")
    assert ("magic", "DualWordReference", "from_block_generators") in chains
    assert ("cli", "dispatch") in chains
    for chain in sorted(chains):
        obj = mm
        for name in chain:
            assert hasattr(obj, name), "mm." + ".".join(chain)
            obj = getattr(obj, name)
