"""Command-line behavior: reports, artifacts, and exit codes."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magicmodels
from magicmodels import cli, serialize as sz
from magicmodels.cli import _CYCLIC_K_MAX, _DUAL_N_MAX, _WORD_LEN_MAX, dispatch
from magicmodels.cyclotomic import zeta
from magicmodels.groups import Perm, PermGroup
from magicmodels.magic import single_fiber
from magicmodels.matrices import CMatrix
from magicmodels.quasiflat import classical_model_from_family, latin_family_search


def _group_payload(degree, *cycle_sets):
    gens = [Perm.from_cycles(degree, cs) for cs in cycle_sets]
    return {"degree": degree, "generators": [list(p.images) for p in gens]}


# Generators of the classical benchmark groups, unrelabelled: G216 and G360
# have no Latin family of size 6, and the four star transpositions of S5 are
# uniform.
G216 = [[2, 3, 6, 1, 4, 5, 12, 9, 10, 8, 7, 11],
        [1, 6, 3, 2, 5, 4, 11, 10, 7, 12, 9, 8]]
G360 = [[3, 2, 6, 1, 4, 5, 8, 11, 10, 12, 9, 7],
        [1, 3, 5, 2, 6, 4, 7, 8, 9, 10, 11, 12]]
S5_STAR = [[2, 1, 3, 4, 5], [3, 2, 1, 4, 5], [4, 2, 3, 1, 5], [5, 2, 3, 4, 1]]


def _scalar_model(scalar):
    """A one-point 1 x 1 model of dimension 1 whose entry is the scalar."""
    return {"n": 1, "dim": 1, "points": [
        {"label": "a", "weight": "1", "entries": [[{"rows": [[scalar]]}]]}]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def put(name, payload):
        path = root / name
        path.write_text(sz.render_json(payload))
        return str(path)

    z5m = CMatrix.exact([[zeta(5, 1), 0], [0, zeta(5, 4)]])
    z3 = PermGroup.from_generators([Perm.from_cycles(3, [(1, 2, 3)])])
    fam3 = latin_family_search(z3, 3)
    model3 = classical_model_from_family(z3, fam3)
    d4 = PermGroup.from_generators([Perm.from_cycles(4, [(1, 2, 3, 4)]),
                                    Perm.from_cycles(4, [(1, 3)])])
    famd = latin_family_search(d4, 4)
    modeld = classical_model_from_family(d4, famd)
    fiber = single_fiber(modeld, list(d4.elements).index(d4.identity))

    paths = {
        "s3": put("s3.json", _group_payload(3, [(1, 2)], [(1, 2, 3)])),
        "s3_marked": put("s3_marked.json", _group_payload(3, [(1, 2)], [(1, 3)])),
        "a3": put("a3.json", _group_payload(3, [(1, 2, 3)])),
        "z3": put("z3.json", _group_payload(3, [(1, 2, 3)])),
        "d4": put("d4.json", _group_payload(4, [(1, 2, 3, 4)], [(1, 3)])),
        "d4_t13": put("d4_t13.json", _group_payload(4, [(1, 3)])),
        "z2z2": put("z2z2.json", _group_payload(4, [(1, 2)], [(3, 4)])),
        "klein6": put("klein6.json",
                      _group_payload(6, [(1, 2), (3, 4)], [(1, 2), (5, 6)])),
        "s3z2": put("s3z2.json",
                    _group_payload(5, [(1, 2)], [(1, 3)], [(4, 5)])),
        "t12": put("t12.json", _group_payload(3, [(1, 2)])),
        "g216": put("g216.json", {"degree": 12, "generators": G216}),
        "g360": put("g360.json", {"degree": 12, "generators": G360}),
        "s5star": put("s5star.json", {"degree": 5, "generators": S5_STAR}),
        "dual_z2": put("dual_z2.json", {
            "sizes": [2],
            "generators": [sz.matrix_to_json(CMatrix.exact([[0, 1], [1, 0]]))],
        }),
        "dual_bad": put("dual_bad.json", {
            "sizes": [2],
            "generators": [{"mode": "exact",
                            "rows": [["1", "1"], ["0", "1"]]}],
        }),
        "cyclic_d5": put("cyclic_d5.json", {
            "factors": [5],
            "rep_generators": [sz.matrix_to_json(z5m)],
            "auto_images": [[4]],
            "k": 2,
        }),
        "cyclic_d5_float": put("cyclic_d5_float.json", {
            "factors": [5],
            "rep_generators": [sz.matrix_to_json(z5m.to_float())],
            "auto_images": [[4]],
            "k": 2,
        }),
        "flat_ok": put("flat_ok.json", {
            "k": 2,
            "generators": [
                [sz.matrix_to_json(CMatrix.exact([[0, 1], [1, 0]]))],
                [sz.matrix_to_json(CMatrix.exact(
                    [[0, zeta(3, 2)], [zeta(3, 1), 0]]))],
            ],
        }),
        "flat_bad": put("flat_bad.json", {
            "k": 2,
            "generators": [
                [sz.matrix_to_json(CMatrix.exact([[0, 1], [1, 0]]))],
                [sz.matrix_to_json(CMatrix.identity(2))],
            ],
        }),
        "flat_non_unitary": put("flat_non_unitary.json", {
            "k": 2,
            "generators": [[{"mode": "exact", "rows": [["1", "1"], ["0", "1"]]}]],
        }),
        "flat_wide": put("flat_wide.json", {
            "k": 2,
            "generators": [[{"mode": "exact",
                             "rows": [["1", "0", "0"], ["0", "1", "0"]]}]],
        }),
        "flat_too_big": put("flat_too_big.json", {
            "k": 2,
            "generators": [[sz.matrix_to_json(CMatrix.identity(3))]],
        }),
        "model_z3": put("model_z3.json", sz.model_to_json(model3)),
        "fiber_d4": put("fiber_d4.json", sz.model_to_json(fiber)),
        "model_d4": put("model_d4.json", sz.model_to_json(modeld)),
        "broken_model": put("broken_model.json", {
            "n": 2, "dim": 1, "points": [{
                "label": "pt", "weight": "1",
                "entries": [[{"rows": [["1/2"]]}, {"rows": [["1/2"]]}],
                            [{"rows": [["1/2"]]}, {"rows": [["1/2"]]}]],
            }],
        }),
        "bad_weight_model": put("bad_weight_model.json", {
            "n": 1, "dim": 1, "points": [
                {"label": "a", "weight": "abc", "entries": [[{"rows": [["1"]]}]]},
            ],
        }),
        "negative_weight_model": put("negative_weight_model.json", {
            "n": 1, "dim": 1, "points": [
                {"label": "a", "weight": "3/2", "entries": [[{"rows": [["1"]]}]]},
                {"label": "b", "weight": "-1/2", "entries": [[{"rows": [["1"]]}]]},
            ],
        }),
        "bad_coeff_zero_den": put("bad_coeff_zero_den.json", _scalar_model(
            {"order": 2, "coeffs": ["1/0", "0"]})),
        "bad_coeff_text": put("bad_coeff_text.json", _scalar_model(
            {"order": 2, "coeffs": ["abc", "0"]})),
        "scalar_two": put("scalar_two.json", _scalar_model("2")),
        "not_json": str(root / "not.json"),
        "root": str(root),
    }
    (root / "not.json").write_text("{this is not json")
    return paths


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured


def test_thoma_check_passes(files, capsys):
    code, report, cap = run_cli(capsys, "thoma-check", "--group", files["s3"],
                                "--lambda", files["a3"])
    assert code == 0
    assert report["status"] == "pass"
    assert report["routes_agree"] is True
    assert report["witnesses"] == []
    assert "thoma-check: pass" in cap.err


def test_thoma_check_rejects_non_normal_subgroup(files, capsys):
    code, report, _ = run_cli(capsys, "thoma-check", "--group", files["s3"],
                              "--lambda", files["t12"])
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "NotNormal"
    assert report["error"]["message"] == "subgroup is not normal"


def test_dual_build_artifact_feeds_magic_verify(files, capsys, tmp_path):
    out = str(tmp_path / "model.json")
    code, report, _ = run_cli(capsys, "dual-build", "--input",
                              files["dual_z2"], "--out", out)
    assert code == 0
    assert report["n"] == 2 and report["dim"] == 2
    code2, rep2, _ = run_cli(capsys, "magic-verify", "--model", out)
    assert code2 == 0
    assert rep2["status"] == "pass"
    code3, rep3, _ = run_cli(capsys, "magic-verify", "--model", out,
                             "--float", "--tol", "1e-6")
    assert code3 == 0 and rep3["config"]["mode"] == "float"


def test_magic_verify_fails_on_broken_model(files, capsys):
    code, report, _ = run_cli(capsys, "magic-verify", "--model",
                              files["broken_model"])
    assert code == 1
    assert report["status"] == "fail"
    assert any(w["kind"] == "not_projection" for w in report["witnesses"])


def test_dual_build_rejects_non_unitary(files, capsys):
    code, report, _ = run_cli(capsys, "dual-build", "--input",
                              files["dual_bad"])
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "NotUnitary"
    assert report["error"]["message"] == "generator is not unitary"


def test_orbits_group_and_flag_validation(files, capsys):
    code, report, _ = run_cli(capsys, "orbits", "--group", files["klein6"])
    assert code == 0
    assert report["blocks"] == [[1, 2], [3, 4], [5, 6]]
    assert report["quasi_transitive"] is True
    code2, rep2, _ = run_cli(capsys, "orbits", "--group", files["klein6"],
                             "--model", files["model_z3"])
    assert code2 == 2 and rep2["status"] == "error"
    code3, rep3, _ = run_cli(capsys, "orbits")
    assert code3 == 2 and rep3["status"] == "error"


def test_orbits_model_source(files, capsys):
    code, report, _ = run_cli(capsys, "orbits", "--model", files["model_z3"])
    assert code == 0
    assert report["blocks"] == [[1, 2, 3]]


def test_stationarity_pass_and_fail(files, capsys):
    code, report, _ = run_cli(capsys, "stationarity", "--model",
                              files["model_z3"], "--group", files["z3"],
                              "--max-word-len", "2")
    assert code == 0 and report["status"] == "pass"
    code2, rep2, _ = run_cli(capsys, "stationarity", "--model",
                             files["fiber_d4"], "--group", files["d4"],
                             "--max-word-len", "2")
    assert code2 == 1 and rep2["status"] == "fail"
    words = [w["word"] for w in rep2["witnesses"]]
    assert "u[1,1] u[2,2]" in words


def test_cyclic_build_and_verify(files, capsys, tmp_path):
    out = str(tmp_path / "cyclic.json")
    code, report, _ = run_cli(capsys, "cyclic-build", "--input",
                              files["cyclic_d5"], "--out", out)
    assert code == 0
    assert report["k"] == 2 and report["dim"] == 2
    stored = json.loads(Path(out).read_text())
    assert stored == report["model"]
    code2, rep2, _ = run_cli(capsys, "cyclic-verify", "--input",
                             files["cyclic_d5"])
    assert code2 == 0
    assert all(rep2["checks"].values())
    assert len(rep2["checks"]) == 3
    code3, rep3, _ = run_cli(capsys, "cyclic-verify", "--input",
                             files["cyclic_d5"], "--float", "--tol", "1e-8")
    assert code3 == 0
    assert len(rep3["checks"]) == 3
    code4, rep4, _ = run_cli(capsys, "cyclic-verify", "--input",
                             files["cyclic_d5_float"], "--tol", "1e-8")
    assert code4 == 0
    assert len(rep4["checks"]) == 2
    assert "semidirect_stationarity" not in rep4["checks"]


def test_latin_search_family_and_no_family(files, capsys, tmp_path):
    out = str(tmp_path / "family.json")
    code, report, _ = run_cli(capsys, "latin-search", "--group", files["z3"],
                              "--out", out)
    assert code == 0
    assert report["family"]["size"] == 3
    assert json.loads(Path(out).read_text())["family"] == report["family"]
    code2, rep2, _ = run_cli(capsys, "latin-search", "--group",
                             files["klein6"], "--out", out)
    assert code2 == 1
    assert rep2["status"] == "no-family"
    assert rep2["explored"] == 3 and rep2["exhaustive"] is True
    assert json.loads(Path(out).read_text()) == {
        k: rep2[k] for k in ("group_order", "size", "explored", "exhaustive", "witnesses")}


def test_latin_search_cap_exceeded(files, capsys, tmp_path):
    out = tmp_path / "error.json"
    code = dispatch(["latin-search", "--group", files["d4"], "--cap", "1", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 2
    assert json.loads(stdout)["error"]["type"] == "CapExceeded"
    # An error report is written to --out as it is to standard output.
    assert out.read_text() == stdout


@pytest.mark.parametrize("argv", [
    ("dual-build", "--input", "dual_z2"),
    ("latin-search", "--group", "d4"),
    ("latin-search", "--group", "klein6"),
    ("latin-search", "--group", "t12"),
], ids=["model", "family", "no-family", "error"])
def test_an_out_that_cannot_be_written_is_an_error_report(files, capsys, tmp_path,
                                                          monkeypatch, argv):
    """A build, a search with and without a family, and an input error whose
    report cannot be written: the error report goes to standard output, and
    the --out path is tried once."""
    command, flag, name = argv
    out = tmp_path / "missing" / "out.json"
    writes = []
    real_dump = sz.dump_json

    def dump_json(value, path):
        writes.append(path)
        return real_dump(value, path)

    monkeypatch.setattr(sz, "dump_json", dump_json)
    code, report, cap = run_cli(capsys, command, flag, files[name], "--out", str(out))
    assert code == 2 and report["status"] == "error"
    assert report["error"]["type"] == "BadInput"
    assert report["error"]["message"].startswith(f"cannot write {out}: ")
    assert report["witnesses"] == [] and report["config"]["out"] == str(out)
    assert cap.err == f"{command}: error\n"
    assert writes == [str(out)]
    assert not out.parent.exists()


def test_uniform_check_pass_and_fail(files, capsys):
    code, report, _ = run_cli(capsys, "uniform-check", "--group",
                              files["s3_marked"])
    assert code == 0
    assert report["uniform"] is True and report["order"] == 2
    code2, rep2, _ = run_cli(capsys, "uniform-check", "--group",
                             files["s3z2"])
    assert code2 == 1
    assert rep2["first_failing"] == 4


def test_uniform_check_keeps_to_the_cap_it_was_given(tmp_path, capsys):
    """S8 from a transposition and an 8-cycle is enumerated under --cap
    40320 once; the check does not enumerate it again under the default."""
    path = tmp_path / "s8.json"
    path.write_text(sz.render_json(_group_payload(8, [(1, 2)], [(1, 2, 3, 4, 5, 6, 7, 8)])))
    code, report, _ = run_cli(capsys, "uniform-check", "--group", str(path),
                              "--cap", "40320")
    assert code == 1 and report["status"] == "fail"
    assert report["first_failing"] == 2 and report["abelian_factors"] == [2]


def test_dual_flat_check_pass_and_fail(files, capsys):
    code, report, _ = run_cli(capsys, "dual-flat-check", "--input",
                              files["flat_ok"])
    assert code == 0 and report["status"] == "pass"
    code2, rep2, _ = run_cli(capsys, "dual-flat-check", "--input",
                             files["flat_bad"])
    assert code2 == 1
    assert rep2["witnesses"][0]["generator"] == 2


@pytest.mark.parametrize("name, error, message", [
    ("flat_non_unitary", "NotUnitary", "matrix is not unitary"),
    ("flat_wide", "NotUnitary", "matrix is not unitary"),
    ("flat_too_big", "ShapeMismatch", "need a 2 x 2 matrix for order 2"),
])
def test_dual_flat_check_rejects_bad_fibers(files, capsys, name, error, message):
    code, report, cap = run_cli(capsys, "dual-flat-check", "--input", files[name])
    assert code == 2 and report["status"] == "error"
    assert report["error"] == {"type": error, "message": message}
    assert "Traceback" not in cap.err


def test_usage_errors(files, capsys):
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert dispatch(["orbits", "--group", files["z3"], "--exact",
                     "--float"]) == 2
    capsys.readouterr()
    assert dispatch(["latin-search", "--group", files["z3"],
                     "--tol", "-1"]) == 2
    capsys.readouterr()
    # The 1 x 1 model with entry 2 is not magic; a tolerance that is not
    # finite would certify it.
    assert dispatch(["magic-verify", "--model", files["scalar_two"],
                     "--float"]) == 1
    capsys.readouterr()
    for tol in ("inf", "nan"):
        code, report, _ = run_cli(capsys, "magic-verify", "--model",
                                  files["scalar_two"], "--float", "--tol", tol)
        assert code == 2
        assert report["error"] == {"type": "BadSetting",
                                   "message": "tolerance must be positive and finite"}
    for seed in ("-1", "4294967296"):
        code, report, _ = run_cli(capsys, "suite", "--seed", seed)
        assert code == 2
        assert report["error"] == {"type": "BadSetting",
                                   "message": "seed must be in [0, 2**32)"}
    # At 3600 the word count of the report had more digits than Python
    # converts to a string, and the command ended in a raw ValueError.
    for argv in (["stationarity", "--model", files["model_d4"], "--group", files["d4"]],
                 ["thoma-check", "--group", files["s3"], "--lambda", files["z3"]]):
        for length in ("0", str(_WORD_LEN_MAX + 1), "3600"):
            code, report, _ = run_cli(capsys, *argv, "--max-word-len", length)
            assert code == 2
            assert report["error"] == {
                "type": "BadSetting",
                "message": f"max word length must be in [1, {_WORD_LEN_MAX}]"}


@pytest.mark.parametrize("setting, value, message", [
    ("--tol", "nan", "tolerance must be positive and finite"),
    ("--seed", "-1", "seed must be in [0, 2**32)"),
    ("--cap", "0", "cap must be at least 1"),
    ("--max-word-len", "0", f"max word length must be in [1, {_WORD_LEN_MAX}]"),
])
def test_bad_setting_gives_the_error_report_and_writes_no_out(
        files, capsys, tmp_path, setting, value, message):
    out = tmp_path / "out.json"
    code, report, cap = run_cli(capsys, "magic-verify", "--model", files["scalar_two"],
                                "--float", setting, value, "--out", str(out))
    assert code == 2
    assert report == {"command": "magic-verify", "config": None, "status": "error",
                      "witnesses": [],
                      "error": {"type": "BadSetting", "message": message}}
    assert cap.err == "magic-verify: error\n"
    assert not out.exists()


def test_one_parser_serves_every_call(files, capsys, monkeypatch):
    """Consecutive calls on the parser built once give the exit codes and
    output bytes of calls that each build a fresh parser."""
    monkeypatch.chdir(files["root"])
    calls = [["orbits", "--group", "z3.json"],
             ["orbits", "--group", "z3.json", "--exact", "--float"],
             ["--help"], ["stationarity", "--help"], ["no-such-command"],
             ["latin-search", "--group", "z3.json", "--tol", "-1"],
             ["magic-verify"],
             ["orbits", "--group", "z3.json", "--float"]]
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())

    def run(argv):
        code = dispatch(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._parser.cache_clear()
    once = [run(argv) for argv in calls]
    assert len(builds) == 1
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert len(builds) == 1 + len(calls)
    assert once == fresh
    assert [code for code, _, _ in once] == [0, 2, 0, 0, 2, 2, 2, 0]
    assert once[2][1].startswith("usage: magicmodels")


def test_missing_and_malformed_files(files, capsys):
    code, report, _ = run_cli(capsys, "orbits", "--group",
                              files["root"] + "/absent.json")
    assert code == 2 and report["error"]["type"] == "BadInput"
    code2, rep2, _ = run_cli(capsys, "orbits", "--group", files["not_json"])
    assert code2 == 2 and rep2["error"]["type"] == "BadInput"


@pytest.mark.parametrize("model", ["bad_weight_model", "negative_weight_model"])
def test_bad_point_weight_is_input_error(files, capsys, model):
    code, report, cap = run_cli(capsys, "magic-verify", "--model", files[model])
    assert code == 2 and report["status"] == "error"
    assert report["error"]["type"] == "BadInput"
    assert "Traceback" not in cap.err


@pytest.mark.parametrize("model, text", [("bad_coeff_zero_den", "1/0"),
                                         ("bad_coeff_text", "abc")])
def test_bad_cyclotomic_coefficient_is_input_error(files, capsys, model, text):
    code, report, cap = run_cli(capsys, "magic-verify", "--model", files[model])
    assert code == 2 and report["status"] == "error"
    assert report["error"] == {"type": "BadInput",
                               "message": f"bad rational string {text!r}"}
    assert "Traceback" not in cap.err


def _fuzz_model(entry):
    return ('{"n": 1, "dim": 1, "points": [{"label": "a", "weight": "1", '
            '"entries": [[{"mode": "float", "rows": [[%s]]}]]}]}' % entry)


def _dual_sizes_payload(sizes):
    return json.dumps({"sizes": sizes, "generators": [{"rows": [["1"]]}] * len(sizes)})


def _cyclic_k_payload(k):
    return ('{"factors": [1], "rep_generators": [{"rows": [["1"]]}], '
            '"auto_images": [[0]], "k": %d}' % k)


def _z127_payload(multiplier, k):
    """Z127 with v(1) = zeta_127 and the automorphism a -> multiplier a."""
    generator = {"order": 127, "coeffs": ["0", "1"] + ["0"] * 125}
    return json.dumps({"factors": [127], "rep_generators": [{"rows": [[generator]]}],
                       "auto_images": [[multiplier]], "k": k})


# 25 has order 21 modulo 127: six orbits of 21 and {0}, so the semidirect
# certificate needs 24,505,047 comparisons.
Z127_K21 = _z127_payload(25, 21)


# Malformed inputs, one file each: (command, flag, file text).  thoma-check
# and stationarity take a second file, the Z3 group.
FUZZ_PAYLOADS = [
    ("magic-verify", "--model", _fuzz_model("NaN")),
    ("magic-verify", "--model", _fuzz_model("Infinity")),
    ("magic-verify", "--model", _fuzz_model("-Infinity")),
    ("magic-verify", "--model", _fuzz_model('{"re": NaN, "im": 0}')),
    ("magic-verify", "--model", _fuzz_model('{"re": 0, "im": -Infinity}')),
    ("magic-verify", "--model", _fuzz_model("1" + "0" * 400)),
    ("magic-verify", "--model", _fuzz_model("1" + "0" * 5000)),
    ("magic-verify", "--model", "[" * 100000),
    ("magic-verify", "--model", ""),
    ("magic-verify", "--model", '{"n": 1, "dim": 1, "points": "abc"}'),
    ("magic-verify", "--model", '{"n": 1, "dim": 2, "points": [{"weight": "1", '
                                '"entries": [[{"rows": [["1"]]}]]}]}'),
    ("orbits", "--group", '{"generators": 5}'),
    ("orbits", "--group", "[]"),
    ("orbits", "--group", '{"generators": [[2, 1], [2, 3, 1]]}'),
    ("latin-search", "--group", '{"generators": [[1, 1]]}'),
    ("uniform-check", "--group", '{"generators": [], "degree": 3}'),
    ("dual-build", "--input", '{"sizes": [2], "generators": 7}'),
    ("cyclic-build", "--input", '{"factors": [5], "rep_generators": 3, '
                                '"auto_images": [[4]], "k": 2}'),
    ("cyclic-build", "--input", '{"factors": [5], "rep_generators": [{"rows": [["1"]]}], '
                                '"auto_images": [["x"]], "k": 2}'),
    ("cyclic-verify", "--input", '{"factors": [5], "rep_generators": [{"rows": [["1"]]}], '
                                 '"auto_images": 4, "k": 2}'),
    ("dual-flat-check", "--input", '{"k": 2, "generators": [5]}'),
    ("dual-flat-check", "--input", '{"k": 2, "generators": [[{"rows": [["1", "0"], '
                                   '["0", "1"]]}]], "labels": 5}'),
    ("thoma-check", "--group", '{"generators": [[2, 3, 1]], "degree": 0}'),
    ("stationarity", "--model", _fuzz_model("NaN")),
    ("cyclic-build", "--input", '{"factors": [], "rep_generators": [], '
                                '"auto_images": [], "k": 1}'),
    ("cyclic-verify", "--input", '{"factors": [], "rep_generators": [], '
                                 '"auto_images": [], "k": 1}'),
    ("cyclic-build", "--input", _cyclic_k_payload(_CYCLIC_K_MAX + 1)),
    ("cyclic-verify", "--input", _cyclic_k_payload(_CYCLIC_K_MAX + 1)),
    # A huge k stops at the fiber shape check, before any work.
    ("dual-flat-check", "--input", '{"k": 1000000000, "generators": [[{"rows": [["1"]]}]]}'),
    ("dual-build", "--input", _dual_sizes_payload([_DUAL_N_MAX - 1, 2])),
    # A declared degree above the bound stops before any permutation is built.
    ("orbits", "--group", '{"degree": 3000000, "generators": []}'),
    # A semidirect certificate above its budget stops before any model is built.
    ("cyclic-verify", "--input", Z127_K21),
]

# JSON booleans where an integer or a number belongs, and a degree-0 group:
# each must be BadInput.
BAD_INTEGER_PAYLOADS = [
    ("magic-verify", "--model", '{"n": true, "dim": true, "points": [{"weight": "1", '
                                '"entries": [[{"rows": [["1"]]}]]}]}'),
    ("magic-verify", "--model", '{"n": 1, "dim": true, "points": [{"weight": "1", '
                                '"entries": [[{"rows": [["1"]]}]]}]}'),
    ("magic-verify", "--model", _fuzz_model('{"order": true, "coeffs": ["1"]}')),
    ("magic-verify", "--model", _fuzz_model('{"re": true, "im": 0}')),
    ("dual-build", "--input", '{"sizes": [true, true], "generators": '
                              '[{"rows": [["1"]]}, {"rows": [["1"]]}]}'),
    ("dual-flat-check", "--input", '{"k": true, "generators": [[{"rows": [["1"]]}]]}'),
    ("cyclic-build", "--input", '{"factors": [true], "rep_generators": [{"rows": [["1"]]}], '
                                '"auto_images": [[0]], "k": 1}'),
    ("cyclic-build", "--input", '{"factors": [1], "rep_generators": [{"rows": [["1"]]}], '
                                '"auto_images": [[0]], "k": true}'),
    ("cyclic-build", "--input", '{"factors": [1], "rep_generators": [{"rows": [["1"]]}], '
                                '"auto_images": [[true]], "k": 1}'),
    ("orbits", "--group", '{"generators": [[true]]}'),
    ("orbits", "--group", '{"generators": [[1]], "degree": true}'),
    ("orbits", "--group", '{"generators": [[]]}'),
]
FUZZ_PAYLOADS += BAD_INTEGER_PAYLOADS
# A list of images that is no permutation: Perm raises BadArgument, and the
# reader reports it as BadInput.
FUZZ_PAYLOADS.append(("orbits", "--group", '{"generators": [[1, 1]]}'))

# Run settings out of range on a valid input: (command, flag, file text,
# setting flag, value).  Each must be BadSetting.
BAD_SETTING_PAYLOADS = [
    ("magic-verify", "--model", _fuzz_model("1"), "--tol", "nan"),
    ("magic-verify", "--model", _fuzz_model("1"), "--seed", "-1"),
    ("magic-verify", "--model", _fuzz_model("1"), "--cap", "0"),
    ("magic-verify", "--model", _fuzz_model("1"), "--max-word-len", "0"),
]
FUZZ_PAYLOADS += BAD_SETTING_PAYLOADS
# Groups above the default cap of 20,160 elements.
FUZZ_PAYLOADS += [
    ("cyclic-build", "--input", '{"factors": [1000000], "rep_generators": [], '
                                '"auto_images": [], "k": 1}'),
    ("cyclic-verify", "--input", '{"factors": [1000000000000], "rep_generators": [], '
                                 '"auto_images": [], "k": 1}'),
]


def test_malformed_json_never_escapes_as_an_exception(files, capsys, tmp_path):
    # In process, a raw exception would leave dispatch and fail the test
    # where the command line would print a traceback.
    second = {"thoma-check": ["--lambda", files["z3"]],
              "stationarity": ["--group", files["z3"]]}
    for i, (command, flag, text, *settings) in enumerate(FUZZ_PAYLOADS):
        path = tmp_path / f"fuzz{i}.json"
        path.write_text(text)
        argv = [command, flag, str(path), *second.get(command, []), *settings]
        code, report, cap = run_cli(capsys, *argv)
        assert code == 2 and report["status"] == "error", argv
        assert "Traceback" not in cap.err, argv
        if "NaN" in text or "Infinity" in text or (command, flag, text) in BAD_INTEGER_PAYLOADS:
            assert report["error"]["type"] == "BadInput", argv
        if settings:
            assert report["error"]["type"] == "BadSetting", argv


def test_a_group_file_that_is_no_permutation_is_bad_input(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text('{"generators": [[1, 1]]}')
    code, report, _ = run_cli(capsys, "orbits", "--group", str(path))
    assert code == 2
    assert report["error"] == {"type": "BadInput",
                               "message": "not a permutation of 1..2: (1, 1)"}


_S3 = '{"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}'
_Z3 = '{"degree": 3, "generators": [[2, 3, 1]]}'
_T12 = '{"degree": 3, "generators": [[2, 1, 3]]}'

# The error contract: for each ModelInputError class a command can raise,
# one command line that exits 2 with that class as error.type.  An argument
# that starts with "{" or "[" is the text of an input file.
ERROR_CONTRACT = {
    "ModelInputError": ("thoma-check",
                        "--group", '{"degree": 4, "generators": [[2, 1, 3, 4], [2, 3, 4, 1]]}',
                        "--lambda", '{"degree": 4, "generators": [[2, 3, 1, 4], [1, 3, 4, 2]]}'),
    "BadInput": ("dual-build", "--input", "[]"),
    "BadSetting": ("magic-verify", "--model", _fuzz_model("1"), "--tol", "nan"),
    "CapExceeded": ("orbits", "--group", _S3, "--cap", "2"),
    "BudgetExceeded": ("cyclic-verify", "--input", Z127_K21),
    "DegreeMismatch": ("thoma-check", "--group", '{"degree": 4, "generators": [[2, 3, 4, 1]]}',
                       "--lambda", _Z3),
    "NotSubgroup": ("thoma-check", "--group", _T12, "--lambda", _Z3),
    "NotNormal": ("thoma-check", "--group", _S3, "--lambda", _T12),
    "NotWellDefined": ("cyclic-build", "--input",
                       '{"factors": [2, 4], "rep_generators": [{"rows": [["1"]]}, '
                       '{"rows": [["1"]]}], "auto_images": [[0, 1], [1, 1]], "k": 2}'),
    "NotBijective": ("cyclic-build", "--input",
                     '{"factors": [5], "rep_generators": [{"rows": [["1"]]}], '
                     '"auto_images": [[0]], "k": 2}'),
    "ShapeMismatch": ("magic-verify", "--model",
                      '{"n": 1, "dim": 1, "points": [{"label": "a", "weight": "1/2", '
                      '"entries": [[{"rows": [["1"]]}]]}]}'),
    "ModeMismatch": ("magic-verify", "--model",
                     '{"n": 2, "dim": 1, "points": [{"label": "a", "weight": "1", "entries": '
                     '[[{"rows": [["1"]]}, {"mode": "float", "rows": [[0]]}], '
                     '[{"rows": [["0"]]}, {"rows": [["1"]]}]]}]}'),
    "NotFiniteOrder": ("dual-build", "--input",
                       '{"sizes": [2], "generators": [{"rows": [["0", "1"], ["-1", "0"]]}]}'),
    "NotUnitary": ("dual-flat-check", "--input",
                   '{"k": 2, "generators": [[{"rows": [["1", "1"], ["0", "1"]]}]]}'),
    "NotQuasiTransitive": ("latin-search", "--group", _T12),
    "InvalidAutomorphism": ("cyclic-build", "--input",
                            '{"factors": [5], "rep_generators": [{"rows": [["1"]]}], '
                            '"auto_images": [[2]], "k": 2}'),
    "NotRepresentation": ("cyclic-build", "--input",
                          '{"factors": [3], "rep_generators": [{"rows": [["0", "1"], '
                          '["1", "0"]]}], "auto_images": [[1]], "k": 1}'),
}
FUZZ_PAYLOADS += [argv for argv in ERROR_CONTRACT.values() if len(argv) == 3]


def _raise_library_only(name):
    """Raise a ModelInputError class that no command can raise: the CLI
    builds only finite permutation data, extends swaps only over the group
    the marked set generates, marks or searches families inside the group,
    and checks every order and block size before the library sees it."""
    from magicmodels.groups import extend_automorphism
    from magicmodels.induced import VirtuallyAbelianData
    from magicmodels.quasiflat import uniform_check
    z3 = PermGroup.from_generators([Perm([2, 3, 1])])
    t12 = Perm([2, 1, 3])
    if name == "NotInGroup":
        extend_automorphism(z3, [t12])
    elif name == "FreePartPresent":
        z2 = PermGroup.from_generators([Perm([2, 1])])
        VirtuallyAbelianData.split(1, [], z2, [[[-1]]]).char_structure()
    elif name == "InvalidFamily":
        uniform_check(z3, [t12])
    elif name == "BadArgument":
        CMatrix.identity(2).power(-1)


LIBRARY_ONLY_ERRORS = ("NotInGroup", "FreePartPresent", "InvalidFamily", "BadArgument")


def _input_error_classes():
    classes, todo = [], [magicmodels.ModelInputError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return {cls.__name__: cls for cls in classes}


def test_error_contract_covers_every_input_error(capsys, tmp_path):
    """Every ModelInputError class is raised by a command that exits 2 and
    names it, or, if no command can raise it, by a library call."""
    classes = _input_error_classes()
    assert sorted(classes) == sorted([*ERROR_CONTRACT, *LIBRARY_ONLY_ERRORS])
    for i, (name, argv) in enumerate(ERROR_CONTRACT.items()):
        args = []
        for j, arg in enumerate(argv):
            if arg.startswith(("{", "[")):
                path = tmp_path / f"contract{i}_{j}.json"
                path.write_text(arg)
                arg = str(path)
            args.append(arg)
        code, report, cap = run_cli(capsys, *args)
        assert code == 2 and report["error"]["type"] == name, (name, report)
        assert "Traceback" not in cap.err
    for name in LIBRARY_ONLY_ERRORS:
        with pytest.raises(classes[name]) as info:
            _raise_library_only(name)
        assert type(info.value) is classes[name]


@pytest.mark.parametrize("command", ["cyclic-build", "cyclic-verify"])
def test_cyclic_k_above_the_bound_is_input_error(capsys, tmp_path, command):
    path = tmp_path / "cyclic.json"
    path.write_text(_cyclic_k_payload(_CYCLIC_K_MAX + 1))
    code, report, cap = run_cli(capsys, command, "--input", str(path))
    assert code == 2
    assert report["error"] == {"type": "BadInput",
                               "message": f"k must be at most {_CYCLIC_K_MAX}"}
    assert "Traceback" not in cap.err


def test_cyclic_verify_over_the_budget_builds_no_model(capsys, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("build_cyclic_model ran")

    monkeypatch.setattr(cli, "build_cyclic_model", refuse)
    path = tmp_path / "cyclic.json"
    path.write_text(Z127_K21)
    code, report, cap = run_cli(capsys, "cyclic-verify", "--input", str(path))
    assert code == 2
    assert report["error"] == {
        "type": "BudgetExceeded",
        "message": "semidirect certificate needs 24505047 comparisons, more than 1000000"}
    assert "Traceback" not in cap.err


@pytest.mark.parametrize("multiplier, k", [(126, 2), (2, 7)])
def test_cyclic_verify_inside_the_budget_passes(capsys, tmp_path, multiplier, k):
    path = tmp_path / "cyclic.json"
    path.write_text(_z127_payload(multiplier, k))
    code, report, _ = run_cli(capsys, "cyclic-verify", "--input", str(path))
    assert code == 0
    assert report["checks"] == {"half_liberation": True, "k_symmetry": True,
                                "semidirect_stationarity": True}


@pytest.mark.parametrize("command", ["cyclic-build", "cyclic-verify"])
@pytest.mark.parametrize("factors", [[10 ** 6], [10 ** 12], [2] * 10 ** 5])
def test_cyclic_group_above_the_cap_lists_no_element(capsys, tmp_path, monkeypatch,
                                                     command, factors):
    def refuse(*args):
        raise AssertionError("FinAbelian ran")

    monkeypatch.setattr(sz, "FinAbelian", refuse)
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({"factors": factors, "rep_generators": [], "auto_images": [],
                                "k": 1}))
    code, report, cap = run_cli(capsys, command, "--input", str(path))
    assert code == 2
    assert report["error"] == {"type": "CapExceeded", "message": "more than 20160 elements"}
    assert "Traceback" not in cap.err


@pytest.mark.parametrize("cap, error", [("5", None), ("4", "CapExceeded")])
def test_cyclic_group_of_the_cap_order_builds(capsys, tmp_path, cap, error):
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({"factors": [5], "rep_generators": [{"rows": [["1"]]}],
                                "auto_images": [[4]], "k": 2}))
    code, report, _ = run_cli(capsys, "cyclic-build", "--input", str(path), "--cap", cap)
    assert report.get("error", {}).get("type") == error
    assert code == (0 if error is None else 2)


@pytest.mark.parametrize("sizes", [[_DUAL_N_MAX + 1], [_DUAL_N_MAX - 1, 2]])
def test_dual_sizes_above_the_bound_are_input_error(capsys, tmp_path, monkeypatch, sizes):
    def refuse(*args):
        raise AssertionError("bichon_build ran")

    monkeypatch.setattr(cli, "bichon_build", refuse)
    path = tmp_path / "dual.json"
    path.write_text(_dual_sizes_payload(sizes))
    code, report, cap = run_cli(capsys, "dual-build", "--input", str(path))
    assert code == 2
    assert report["error"] == {"type": "BadInput",
                               "message": f"sizes must total at most {_DUAL_N_MAX}"}
    assert "Traceback" not in cap.err


@pytest.mark.parametrize("command", ["orbits", "uniform-check", "latin-search"])
@pytest.mark.parametrize("degree", [sz._DEGREE_MAX + 1, 3 * 10 ** 6, 10 ** 12])
def test_group_degree_above_the_bound_builds_no_permutation(capsys, tmp_path, monkeypatch,
                                                            command, degree):
    def refuse(*args, **kwargs):
        raise AssertionError("a permutation was built")

    monkeypatch.setattr(Perm, "identity", refuse)
    monkeypatch.setattr(sz, "Perm", refuse)
    monkeypatch.setattr(sz.PermGroup, "from_generators", refuse)
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": degree, "generators": [[2, 1]]}))
    code, report, cap = run_cli(capsys, command, "--group", str(path))
    assert code == 2
    assert report["error"] == {"type": "BadInput",
                               "message": f"degree must be at most {sz._DEGREE_MAX}"}
    assert "Traceback" not in cap.err


def test_group_degree_at_the_bound_runs(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": sz._DEGREE_MAX, "generators": []}))
    code, report, _ = run_cli(capsys, "orbits", "--group", str(path))
    assert code == 0 and len(report["blocks"]) == sz._DEGREE_MAX


@pytest.mark.parametrize("mode", ["--exact", "--float"])
def test_max_word_len_at_the_bound_runs(files, capsys, mode):
    code, report, _ = run_cli(capsys, "stationarity", "--model", files["model_d4"],
                              "--group", files["d4"], "--max-word-len",
                              str(_WORD_LEN_MAX), mode)
    assert code == 0 and report["status"] == "pass"
    assert report["checked"] == sum(16 ** m for m in range(_WORD_LEN_MAX + 1))


def test_cyclic_k_at_the_bound_builds(capsys, tmp_path):
    path = tmp_path / "cyclic.json"
    path.write_text(_cyclic_k_payload(_CYCLIC_K_MAX))
    code, report, _ = run_cli(capsys, "cyclic-build", "--input", str(path))
    assert code == 0 and report["k"] == _CYCLIC_K_MAX


def test_config_echo_is_the_run_config(files, capsys):
    _, report, _ = run_cli(capsys, "orbits", "--group", files["s3"], "--seed", "7")
    assert report["config"] == {"mode": "exact", "tolerance": 1e-09, "max_word_len": 3,
                                "cap": cli.DEFAULT_CAP, "seed": 7,
                                "inputs": {"group": files["s3"]}, "out": None}
    assert not hasattr(cli.RunConfig, "echo")


def test_reports_are_byte_identical(files, capsys):
    _, _, first = run_cli(capsys, "uniform-check", "--group", files["s3z2"])
    _, _, second = run_cli(capsys, "uniform-check", "--group", files["s3z2"])
    assert first.out == second.out
    _, _, third = run_cli(capsys, "latin-search", "--group", files["klein6"])
    _, _, fourth = run_cli(capsys, "latin-search", "--group", files["klein6"])
    assert third.out == fourth.out


def test_suite_command_passes(suite_run):
    code, report = suite_run
    assert code == 0
    assert report["status"] == "pass"
    assert len(report["criteria"]) == 11
    assert all(c["passed"] for c in report["criteria"])


def test_module_entry_point(files):
    # The child imports the package from where this process found it.
    src = str(Path(magicmodels.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-m", "magicmodels.cli", "orbits", "--group",
         files["klein6"]],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["status"] == "pass"
    assert "orbits: pass" in proc.stderr


# sha256 of two build artifacts, pinned when Cyc stored Fraction coefficient
# vectors: a change of the scalar representation must not renormalise the
# serialized coefficient vectors.
GOLDEN_ARTIFACTS = {
    "dual-build": "04a12c44ecf5d2ac9f5dd9c6b862930007b3b6c56173fd3217f04a35dc108c5e",
    "cyclic-build": "a7f5b0ea02ea30c94f3b3e25c8c8b3f59fb0a8915e91bfbd54f9e569efe24b7c",
}


@pytest.fixture
def rendered(monkeypatch):
    """Records, for each value rendered through serialize.render_json, its
    text and the text of json.dumps with indent=2 and sorted keys, taken
    when it is rendered (the suite extends its payload afterwards).  A
    report that embeds a written artifact is rendered with a memo that holds
    the artifact's text, and is compared whole all the same."""
    calls = []
    real = sz.render_json

    def spy(value, memo=None):
        text = real(value, memo)
        calls.append((text, json.dumps(value, indent=2, sort_keys=True) + "\n"))
        return text

    monkeypatch.setattr(sz, "render_json", spy)
    return calls


def assert_rendered_as_json_dumps(calls):
    assert calls
    for text, want in calls:
        assert text == want


def _build_inputs():
    shift = [[1 if r == (c + 1) % 4 else 0 for c in range(4)] for r in range(4)]
    return {
        "dual-build": {"sizes": [4],
                       "generators": [sz.matrix_to_json(CMatrix.exact(shift))]},
        "cyclic-build": {"factors": [7],
                         "rep_generators": [sz.matrix_to_json(CMatrix.exact([[zeta(7)]]))],
                         "auto_images": [[2]], "k": 3},
    }


def test_build_artifacts_keep_their_bytes(capsys, tmp_path, rendered):
    for command, payload in _build_inputs().items():
        src, out = tmp_path / f"{command}.json", tmp_path / f"{command}-model.json"
        src.write_text(sz.render_json(payload))
        code, _, _ = run_cli(capsys, command, "--input", str(src), "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ARTIFACTS[command]
    assert_rendered_as_json_dumps(rendered)


@pytest.mark.parametrize("command", ["dual-build", "cyclic-build"])
def test_build_with_out_renders_its_artifact_once(capsys, tmp_path, monkeypatch,
                                                  rendered, command):
    src, out = tmp_path / "input.json", tmp_path / "model.json"
    src.write_text(sz.render_json(_build_inputs()[command]))
    artifacts = []
    real_model_to_json = sz.model_to_json

    def model_to_json(model):
        artifacts.append(real_model_to_json(model))
        return artifacts[-1]

    visits = []
    real_render = sz._render

    def render(v, *args):
        visits.append(v)
        return real_render(v, *args)

    monkeypatch.setattr(sz, "model_to_json", model_to_json)
    monkeypatch.setattr(sz, "_render", render)
    assert dispatch([command, "--input", str(src), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    [artifact] = artifacts
    fiber = artifact["points"][0]["entries"][0][0]
    places = sum(c is fiber for pt in artifact["points"] for row in pt["entries"] for c in row)
    # One render of the artifact meets each of the fiber's places once; the
    # report takes the artifact's text without walking into it.
    assert sum(v is artifact["points"] for v in visits) == 1
    assert sum(v is fiber for v in visits) == places
    text = out.read_text()
    assert '\n  "model": ' + text[:-1].replace("\n", "\n  ") + ",\n" in stdout
    assert_rendered_as_json_dumps(rendered)


# sha256 of the stdout of check commands: a change to the result types or to
# the CLI code that renders them must keep every report's bytes.  The commands
# run in the input directory, so the config echo holds bare file names.
GOLDEN_REPORTS = {
    ("thoma-check", "--group", "s3.json", "--lambda", "a3.json"):
        "2025ea0522ebb15a2c27af16bc447529f81fba8db3499c94019831bc651c0f14",
    ("thoma-check", "--group", "d4.json", "--lambda", "d4_t13.json"):
        "73b7f0371bf188cf3e93eb0d8b3cd60e6511a23020b31b9ed77ff5faf9ee6144",
    ("uniform-check", "--group", "z2z2.json"):
        "f9595037abb26a3e337f109e6fa0001c2a8a21058e8fee66b86bb1260a528377",
    ("uniform-check", "--group", "s3z2.json"):
        "f839fade72e588bdf6ef9871e5c20a35563cdb13121a6f8cb03b426576e8a08f",
    ("latin-search", "--group", "klein6.json"):
        "807dcc3869d07c854ae21886eb8189c196f943bd755ba03d282207c2172fd864",
    ("magic-verify", "--model", "broken_model.json"):
        "92820ed3bfde362b0923de495232430e01cac5feb35e189aa81d498e881ec0fc",
    ("dual-flat-check", "--input", "flat_bad.json"):
        "7e3ede6a1dbc62ed94921fd82a58b9ae75adb58424679dc8e323702e234ec784",
    ("dual-flat-check", "--input", "flat_bad.json", "--float"):
        "0630d3980ece225845e26ac07255cc7b644bf58a4a68deca6f3ac26a35420131",
    ("stationarity", "--model", "model_z3.json", "--group", "z3.json",
     "--max-word-len", "3"):
        "ed91f005cc2e8cff21de2f5e248d1fff0fa7e1ecad365a69e9313a33bd3b6ba3",
    ("stationarity", "--model", "fiber_d4.json", "--group", "d4.json",
     "--max-word-len", "3"):
        "24a019837a5ecf42d891c0696774ab78892e88bb58bd1042732dc7e4e4bcdd2b",
    ("stationarity", "--model", "model_d4.json", "--group", "d4.json",
     "--max-word-len", "4"):
        "dde255c653e3174187bdca95e9f9c48dd1900ff48d7a7e2a1ff866d366b4d6b4",
    ("stationarity", "--model", "model_z3.json", "--group", "z3.json",
     "--max-word-len", "3", "--float"):
        "426a9d405b5ab0a68e73af2ea5387816f100d0af7164bbe91534949f581f5d3f",
    ("stationarity", "--model", "fiber_d4.json", "--group", "d4.json",
     "--max-word-len", "3", "--float"):
        "c0708847750f69aa3e5d29688ff6e7803aced4202f5103c6730ceee275d54945",
    # A failing float check deep enough that the walk reuses the differing
    # suffixes of joint states reached by more than one word.
    ("stationarity", "--model", "fiber_d4.json", "--group", "d4.json",
     "--max-word-len", "4", "--float"):
        "a934101d903f7a211cd8f3878edffdb225d7c638cb9ad1599d76e645e8551f53",
    ("latin-search", "--group", "g216.json", "--size", "6"):
        "2685608da053e8a92d5f801b42ea38d1b0eafaa65509b7db7c423bd0aef6892f",
    ("latin-search", "--group", "g360.json", "--size", "6"):
        "4908fc98f09928de5c6a8de58d4964c675393a31aeb54445d7d8110d8969827d",
    ("uniform-check", "--group", "s5star.json"):
        "4247592537140944a303e9c6b7356e727196db915e81a94f71c70c1c341ddbe6",
    ("cyclic-verify", "--input", "cyclic_d5.json"):
        "543bd1be20346abfab014ef617def3f4291fb1a948322f6eba20f0f1a071b1d6",
    ("cyclic-verify", "--input", "cyclic_d5.json", "--float", "--tol", "1e-8"):
        "598f2c620adad7c8cbd5120b56ed75e6b2f0edd15095e87b2eb79ca723777271",
    ("cyclic-verify", "--input", "cyclic_d5_float.json"):
        "f49a53a92aaec326aca117ddc0ac3bf87ee615f7b5cc4525ba85d94dabcf4950",
    # The suite reads no input; its payload and criterion 11's determinism
    # check are pinned together.
    ("suite", "--seed", "1"):
        "3e4240f11f92bf9ec62ccb5f123ce6d83268ea948c0b8d95682fdbd549156e65",
    ("suite", "--seed", "3"):
        "c886a03de5736b5f0759e8828c40928d986c572aa6346ba2f9a19a429d666825",
}


@pytest.mark.parametrize("argv", list(GOLDEN_REPORTS), ids=" ".join)
def test_reports_keep_their_bytes(files, capsys, monkeypatch, rendered, argv):
    monkeypatch.chdir(files["root"])
    dispatch(list(argv))
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORTS[argv], out
    assert_rendered_as_json_dumps(rendered)
