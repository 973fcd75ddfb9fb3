"""The job lists of the three workloads.

A job calls the program once, through `magicmodels.cli.dispatch` in-process
or, where no subcommand exists, through the public library.  Each declares
its kind (which end-to-end time it counts toward), its expected status, and a
check that compares its output with the reference computations in
`refcheck`.  Jobs look program names up on the modules at call time, so a
traced run sees every call.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import refcheck as rc

EXIT = {"pass": 0, "fail": 1, "no-family": 1, "error": 2}
SUITE_SAMPLES = 200          # run_suite's default sample count per K
CLASSICAL_L = 4              # stationarity word length on the family models
CONTROL_L = 3                # word length of the controls and float checks


@dataclass
class Outcome:
    status: str
    report: dict | None
    text: str                # canonical bytes, compared across passes


@dataclass
class Job:
    name: str
    kind: str                # "build", "exact", "float" or "suite"
    expect: str              # status the job must report
    call: Callable           # ctx -> raw result; the only timed part
    check: Callable          # (ctx, outcome) -> list of problems
    outcome: Callable = None     # raw result -> Outcome; default reads a CLI report
    words: bool = False      # stationarity job counted in words_per_s
    known_fault: str | None = None   # exception type the program raises today
    artifacts: list = field(default_factory=list)   # files the job writes

    def __post_init__(self):
        if self.outcome is None:
            self.outcome = cli_outcome


class Context:
    """Program modules (mm.cli, mm.serialize, ...), input paths and the
    working directory of one run."""

    def __init__(self, mm, inputs: dict, workdir: Path):
        self.mm = mm
        self.inputs = inputs
        self.workdir = workdir

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def load(self, path: str):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


# -- calling the program ------------------------------------------------------

def dispatch(ctx, *argv):
    """Run one CLI command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ctx.mm.cli.dispatch([str(a) for a in argv])
    return code, out.getvalue()


def cli_outcome(raw) -> Outcome:
    code, text = raw
    report = json.loads(text)
    status = report["status"]
    if EXIT[status] != code:
        status = f"exit {code} with status {status}"
    return Outcome(status, report, text)


def report_outcome(rep) -> Outcome:
    """Outcome of a library CheckReport, in a canonical text form."""
    body = {"name": rep.name, "passed": rep.passed, "checked": rep.checked,
            "witnesses": [dict(w) for w in rep.witnesses]}
    return Outcome("pass" if rep.passed else "fail", body,
                   json.dumps(body, sort_keys=True, default=str))


# -- shared checks --------------------------------------------------------------

def expect_checked(n, max_len):
    def check(ctx, out):
        want = rc.word_count(n, max_len)
        problems = []
        if out.report["checked"] != want:
            problems.append(f"checked {out.report['checked']} words, expected {want}")
        if out.status == "pass" and out.report["witnesses"]:
            problems.append("a passing report carries witnesses")
        return problems
    return check


def family_of(ctx, stem):
    return ctx.load(ctx.path(f"fam_{stem}.json"))["family"]["members"]


def group_gens(ctx, stem):
    return ctx.load(ctx.inputs[stem])["generators"]


def check_family_search(stem, size):
    def check(ctx, out):
        gens = group_gens(ctx, f"group_{stem}")
        fam = out.report["family"]
        problems = rc.check_family(gens, fam["members"], size)
        cells = out.report["square"]["cells"]
        for k, m in enumerate(fam["members"], start=1):
            for j, v in enumerate(m):
                if cells[v - 1][j] != k:
                    problems.append(f"square cell ({v}, {j + 1}) is not symbol {k}")
        artifact = ctx.load(ctx.path(f"fam_{stem}.json"))
        if artifact != {"family": fam, "square": out.report["square"]}:
            problems.append("written artifact differs from the reported family")
        return problems
    return check


def build_family_model(stem, with_identity_fiber=False):
    def call(ctx):
        mm = ctx.mm
        sz = mm.serialize
        group = sz.group_from_json(sz.load_json(ctx.inputs[f"group_{stem}"]))
        fam_json = sz.load_json(ctx.path(f"fam_{stem}.json"))["family"]
        fam = mm.quasiflat.LatinFamily(
            group, fam_json["size"],
            tuple(sz.perm_from_json(p) for p in fam_json["members"]))
        model = mm.quasiflat.classical_model_from_family(group, fam)
        sz.dump_json(sz.model_to_json(model), ctx.path(f"model_{stem}.json"))
        if with_identity_fiber:
            ident = list(group.elements).index(group.identity)
            sz.dump_json(sz.model_to_json(mm.magic.single_fiber(model, ident)),
                         ctx.path(f"ident_{stem}.json"))
        return model.n, model.n_points

    def check(ctx, out):
        gens = group_gens(ctx, f"group_{stem}")
        members = family_of(ctx, stem)
        problems = rc.check_family_model(ctx.load(ctx.path(f"model_{stem}.json")),
                                         gens, members)
        if with_identity_fiber:
            ident = ctx.load(ctx.path(f"ident_{stem}.json"))
            model = rc.read_model(ident)
            degree = len(gens[0])
            want = rc.family_fibers(tuple(range(1, degree + 1)),
                                    [tuple(m) for m in members], degree)
            if model["weights"] != [1] or not rc.close(model["fibers"][0], want):
                problems.append("identity fiber differs from the family construction")
        return problems

    files = [f"model_{stem}.json"] + ([f"ident_{stem}.json"] if with_identity_fiber else [])
    return Job(f"model-{stem}", "build", "pass", call, check,
               outcome=lambda raw: Outcome("pass", {"n": raw[0], "points": raw[1]},
                                           json.dumps(raw)),
               artifacts=files)


def stationarity_job(name, kind, stem, model_file, max_len, expect, extra=(),
                     check=None):
    def call(ctx):
        return dispatch(ctx, "stationarity", "--model", ctx.path(model_file),
                        "--group", ctx.inputs[f"group_{stem}"],
                        "--max-word-len", max_len, *extra)

    def check_words(ctx, out):
        degree = len(group_gens(ctx, f"group_{stem}")[0])
        return expect_checked(degree, max_len)(ctx, out)

    return Job(name, kind, expect, call, check or check_words, words=True)


# -- workloads ----------------------------------------------------------------

def suite_jobs(seed):
    def check_suite(ctx, out):
        problems = []
        crits = out.report["criteria"]
        if [c["criterion"] for c in crits] != list(range(1, 12)):
            problems.append("suite does not list criteria 1..11 in order")
        problems += [f"criterion {c['criterion']} failed" for c in crits if not c["passed"]]
        c7 = crits[6]["details"]
        want_exact = sum(2 ** k for k in range(1, 7))
        want_float = len(range(2, 7)) * SUITE_SAMPLES
        if c7["exact_checked"] != want_exact:
            problems.append(f"criterion 7 exact_checked {c7['exact_checked']} != {want_exact}")
        if c7["float_checked"] != want_float:
            problems.append(f"criterion 7 float_checked {c7['float_checked']} != {want_float}")
        if c7["disagreements"]:
            problems.append("criterion 7 reports disagreements")
        klein6 = [[2, 1, 4, 3, 5, 6], [2, 1, 3, 4, 6, 5]]
        c1 = crits[0]["details"]
        if rc.family_exists(klein6, 2) or not c1["exhaustive"]:
            problems.append("criterion 1 no-family verdict is not confirmed")
        if c1["orbits"] != [list(b) for b in rc.orbits(klein6)]:
            problems.append("criterion 1 orbits differ from the reference")
        pairs = {"S3/A3": ([[2, 1, 3], [2, 3, 1]], 3), "D4/Z4": ([[2, 3, 4, 1], [3, 2, 1, 4]], 4),
                 "Z6/Z6": ([[2, 3, 4, 5, 6, 1]], 6)}
        for case in crits[1]["details"]["cases"]:
            gens, lam_order = pairs[case["pair"]]
            want = len(rc.enumerate_group(gens)) * lam_order
            if case["character_pairs"] != want:
                problems.append(f"criterion 2 {case['pair']}: {case['character_pairs']} character pairs, expected {want}")
        if not crits[10]["details"]["byte_identical"]:
            problems.append("criterion 11 saw different bytes")
        return problems

    jobs = [Job("suite", "suite", "pass", lambda ctx: dispatch(ctx, "suite", "--seed", seed), check_suite)]
    # criterion 3 replayed through the CLI on relabelled groups, so that the
    # build, verify and word-rate metrics have a value on this workload too
    for stem, size in (("z3", 3), ("v4", 4), ("d4", 4)):
        jobs.append(_latin_job(stem, size))
        jobs.append(build_family_model(stem))
        jobs.append(stationarity_job(f"stationarity-{stem}", "exact", stem,
                                     f"model_{stem}.json", CONTROL_L, "pass"))
        jobs.append(stationarity_job(f"stationarity-float-{stem}", "float", stem,
                                     f"model_{stem}.json", CONTROL_L, "pass", ["--float"]))
    return jobs


def _latin_job(stem, size):
    def call(ctx):
        return dispatch(ctx, "latin-search", "--group", ctx.inputs[f"group_{stem}"],
                        "--size", size, "--out", ctx.path(f"fam_{stem}.json"))

    return Job(f"latin-search-{stem}", "build", "pass", call,
               check_family_search(stem, size), artifacts=[f"fam_{stem}.json"])


def _no_family_job(stem, size):
    def call(ctx):
        return dispatch(ctx, "latin-search", "--group", ctx.inputs[f"group_{stem}"],
                        "--size", size)

    def check(ctx, out):
        gens = group_gens(ctx, f"group_{stem}")
        rep = out.report
        problems = []
        if rep["group_order"] != len(rc.enumerate_group(gens)) or rep["size"] != size:
            problems.append("no-family certificate has the wrong order or size")
        if not rep["exhaustive"]:
            problems.append("no-family search is not exhaustive")
        if rc.family_exists(gens, size):
            problems.append("the reference search finds a family")
        return problems

    return Job(f"latin-search-{stem}", "build", "no-family", call, check)


def _identity_witness_check(ctx, out):
    gens = group_gens(ctx, "group_d4")
    degree = len(gens[0])
    members = [tuple(m) for m in family_of(ctx, "d4")]
    fibers = rc.family_fibers(tuple(range(1, degree + 1)), members, degree)
    want = rc.expected_witnesses(gens, fibers, CONTROL_L)
    got = out.report["witnesses"]
    problems = expect_checked(degree, CONTROL_L)(ctx, out)
    if not want or not got or got[0] != want[0]:
        problems.append(f"first witness {got[:1]} differs from the reference {want[:1]}")
    elif got != want:
        problems.append(f"{len(got)} witnesses, the reference finds {len(want)}")
    return problems


def _thoma_job(stem):
    def call(ctx):
        return dispatch(ctx, "thoma-check", "--group", ctx.inputs[f"thoma_{stem}_gamma"],
                        "--lambda", ctx.inputs[f"thoma_{stem}_lambda"])

    def check(ctx, out):
        order = len(rc.enumerate_group(ctx.load(ctx.inputs[f"thoma_{stem}_gamma"])["generators"]))
        problems = []
        if out.report["checked"] != order:
            problems.append(f"checked {out.report['checked']} elements, the group has {order}")
        if not out.report["routes_agree"] or out.report["witnesses"]:
            problems.append("character routes disagree or witnesses reported")
        return problems

    return Job(f"thoma-{stem}", "exact", "pass", call, check)


def _uniform_job(stem, expect):
    def call(ctx):
        return dispatch(ctx, "uniform-check", "--group", ctx.inputs[f"group_{stem}"])

    def check(ctx, out):
        gens = group_gens(ctx, f"group_{stem}")
        rep = out.report
        problems = []
        orders = {rc.perm_order(g) for g in gens}
        if rep["count"] != len(gens) or rep["order"] != (orders.pop() if len(orders) == 1 else None):
            problems.append("generator count or common order differs from the reference")
        pairs = [(a, b) for a in range(len(gens)) for b in range(a + 1, len(gens))]
        first_bad = None
        for a, b in pairs:
            evidence = rc.swap_evidence(gens, a, b)
            if evidence is None:
                problems.append(f"no reference evidence for the swap {a + 1},{b + 1}")
            elif evidence[0] == "obstructed":
                first_bad = [a + 1, b + 1]
                break
        if first_bad is None:
            if rep["first_failing"] is not None:
                problems.append("every swap is inner, yet a condition fails")
        elif rep["first_failing"] != 4 or rep["witnesses"][-1].get("pair") != first_bad:
            problems.append(f"reference obstructs swap {first_bad}, report says {rep['witnesses']}")
        return problems

    return Job(f"uniform-{stem}", "exact", expect, call, check)


def _idempotency_job():
    def call(ctx):
        mm = ctx.mm
        model = mm.serialize.model_from_json(mm.serialize.load_json(ctx.path("model_d4.json")))
        state = mm.magic.StateOnWords.from_model(model, CONTROL_L)
        return mm.magic.convolution_idempotency(state)

    return Job("idempotency-d4", "exact", "pass", call, expect_checked(4, CONTROL_L),
               outcome=report_outcome)


def classical_jobs(seed):
    return [
        _latin_job("d4", 4),
        _latin_job("s4", 4),
        build_family_model("d4", with_identity_fiber=True),
        build_family_model("s4"),
        _no_family_job("g216", 6),
        _no_family_job("g360", 6),
        stationarity_job("stationarity-d4", "exact", "d4", "model_d4.json",
                         CLASSICAL_L, "pass"),
        stationarity_job("stationarity-s4", "exact", "s4", "model_s4.json",
                         CLASSICAL_L, "pass"),
        stationarity_job("stationarity-identity-fiber-d4", "exact", "d4",
                         "ident_d4.json", CONTROL_L, "fail",
                         check=_identity_witness_check),
        stationarity_job("stationarity-float-d4", "float", "d4", "model_d4.json",
                         CONTROL_L, "pass", ["--float"]),
        # S4 as well, so that verify_float_s rests on more than 0.4 s of work
        stationarity_job("stationarity-float-s4", "float", "s4", "model_s4.json",
                         CONTROL_L, "pass", ["--float"]),
        _idempotency_job(),
        _thoma_job("s4v4"),
        _thoma_job("d4z4"),
        _uniform_job("s5star", "pass"),
        _uniform_job("s3z2", "fail"),
    ]


# -- cyclotomic -----------------------------------------------------------------

def _dual_build_job(stem):
    def call(ctx):
        return dispatch(ctx, "dual-build", "--input", ctx.inputs[stem],
                        "--out", ctx.path(f"{stem}_model.json"))

    def check(ctx, out):
        artifact = ctx.load(ctx.path(f"{stem}_model.json"))
        problems = rc.check_dual_model(artifact, ctx.load(ctx.inputs[stem]))
        if out.report["model"] != artifact:
            problems.append("written artifact differs from the reported model")
        return problems

    return Job(f"dual-build-{stem}", "build", "pass", call, check,
               artifacts=[f"{stem}_model.json"])


def _magic_verify_job(stem, kind):
    extra = ["--float"] if kind == "float" else []

    def call(ctx):
        return dispatch(ctx, "magic-verify", "--model", ctx.path(f"{stem}_model.json"), *extra)

    def check(ctx, out):
        model = rc.read_model(ctx.load(ctx.path(f"{stem}_model.json")))
        n, points = model["n"], len(model["labels"])
        problems = rc.check_magic(model)
        if out.report["checked"] != points * (n * n + 2 * n) or out.report["witnesses"]:
            problems.append("magic-verify checked count or witnesses differ")
        return problems

    return Job(f"magic-verify-{'float-' if extra else ''}{stem}", kind, "pass", call, check)


def _orbits_job(stem):
    def call(ctx):
        return dispatch(ctx, "orbits", "--model", ctx.path(f"{stem}_model.json"))

    def check(ctx, out):
        sizes = ctx.load(ctx.inputs[stem])["sizes"]
        blocks = rc.support_blocks(rc.read_model(ctx.load(ctx.path(f"{stem}_model.json"))))
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        want = [list(range(s + 1, s + k + 1)) for s, k in zip(starts, sizes)]
        problems = []
        if out.report["blocks"] != blocks or blocks != want:
            problems.append(f"orbit blocks {out.report['blocks']} differ from {want}")
        if out.report["quasi_transitive"] != (len(set(sizes)) == 1):
            problems.append("quasi-transitivity verdict differs")
        return problems

    return Job(f"orbits-{stem}", "exact", "pass", call, check)


def _cyclic_build_job(stem):
    def call(ctx):
        return dispatch(ctx, "cyclic-build", "--input", ctx.inputs[stem],
                        "--out", ctx.path(f"{stem}_model.json"))

    def check(ctx, out):
        artifact = ctx.load(ctx.path(f"{stem}_model.json"))
        problems = rc.check_cyclic_model(artifact, ctx.load(ctx.inputs[stem]))
        if out.report["model"] != artifact:
            problems.append("written artifact differs from the reported model")
        return problems

    return Job(f"cyclic-build-{stem}", "build", "pass", call, check,
               artifacts=[f"{stem}_model.json"])


def _cyclic_verify_job(stem, kind):
    extra = ["--float"] if kind == "float" else []

    def call(ctx):
        return dispatch(ctx, "cyclic-verify", "--input", ctx.inputs[stem], *extra)

    def check(ctx, out):
        problems = rc.check_cyclic_relations(ctx.load(ctx.inputs[stem]))
        want = {"half_liberation": True, "k_symmetry": True,
                "semidirect_stationarity": True}
        if out.report["checks"] != want:
            problems.append(f"cyclic checks {out.report['checks']} != {want}")
        return problems

    return Job(f"cyclic-verify-{'float-' if extra else ''}{stem}", kind, "pass", call, check)


def _dual_flat_job():
    def call(ctx):
        return dispatch(ctx, "dual-flat-check", "--input", ctx.inputs["flat_k8"])

    def check(ctx, out):
        payload = ctx.load(ctx.inputs["flat_k8"])
        want = rc.nonflat_fibers(payload)
        got = [(w["generator"], w["point"]) for w in out.report["witnesses"]]
        problems = []
        if got != want:
            problems.append(f"non-flat fibers {got} differ from eigenvalue reference {want}")
        total = sum(len(per) for per in payload["generators"])
        if out.report["checked"] != total:
            problems.append(f"checked {out.report['checked']} fibers of {total}")
        return problems

    # one fiber repeats an eigenvalue, so the honest verdict is fail
    return Job("dual-flat-check-k8", "exact", "fail", call, check)


def _dual_reference_job(stem, factors, kind):
    def call(ctx):
        mm = ctx.mm
        model = mm.serialize.model_from_json(
            mm.serialize.load_json(ctx.path(f"{stem}_model.json")))
        group = mm.groups.FinAbelian(factors)
        ref = mm.magic.DualWordReference.from_block_generators(
            group, [(group.generator(i), k) for i, k in enumerate(factors)])
        if kind == "float":
            return mm.magic.stationarity_check(ref, model.to_float(), CONTROL_L, tol=1e-9)
        return mm.magic.stationarity_check(ref, model, CONTROL_L)

    def check(ctx, out):
        problems = expect_checked(sum(factors), CONTROL_L)(ctx, out)
        problems += rc.check_dual_stationary(ctx.load(ctx.path(f"{stem}_model.json")),
                                             factors, factors, CONTROL_L)
        return problems

    # Float mode against a DualWordReference compares complex values with
    # Cyc values through complex(), which raises TypeError today.
    return Job(f"dual-reference-{kind}-{stem}", kind, "pass", call, check,
               outcome=report_outcome, words=True,
               known_fault="TypeError" if kind == "float" else None)


def cyclotomic_jobs(seed):
    jobs = [_dual_build_job(s) for s in ("dual_z8", "dual_z3z4", "dual_z2z2", "dual_z4")]
    for stem in ("dual_z8", "dual_z3z4"):
        jobs += [_magic_verify_job(stem, "exact"), _magic_verify_job(stem, "float"),
                 _orbits_job(stem)]
    jobs += [_cyclic_build_job(s) for s in ("cyclic_d5", "cyclic_z7", "cyclic_z13")]
    jobs += [_cyclic_verify_job(s, "exact") for s in ("cyclic_d5", "cyclic_z7", "cyclic_z13")]
    jobs += [_cyclic_verify_job(s, "float") for s in ("cyclic_d5", "cyclic_z7")]
    jobs += [_dual_flat_job(),
             _dual_reference_job("dual_z2z2", [2, 2], "exact"),
             _dual_reference_job("dual_z4", [4], "exact"),
             _dual_reference_job("dual_z2z2", [2, 2], "float")]
    return jobs


WORKLOADS = {"suite": suite_jobs, "classical": classical_jobs,
             "cyclotomic": cyclotomic_jobs}
