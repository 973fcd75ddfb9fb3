"""Command-line front end.

One subcommand per check or construction.  Reports are JSON on standard
output (no timing fields, so identical configurations render byte-identical
bytes); a one-line human summary goes to standard error.  Exit codes: 0 pass,
1 honest failure or no family found, 2 usage or input errors.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache

from . import serialize as sz
from .acceptance import run_suite
from .cyclic import (
    CyclicModelData, abelian_rep, build_cyclic_model, check_semidirect_budget,
    semidirect_stationarity, verify_half_liberation, verify_k_symmetry,
)
from .errors import BadSetting, Inconsistent, ModelInputError
from .groups import DEFAULT_CAP
from .induced import VirtuallyAbelianData, check_stationarity
from .magic import (
    bichon_build, orbits_from_source, stationarity_check, verify_magic,
)
from .quasiflat import (
    LatinFamily, SparseLatinSquare, latin_family_search, quasiflat_dual_check,
    uniform_check,
)

EXIT_CODES = {"pass": 0, "fail": 1, "no-family": 1, "error": 2}

# A cyclic model holds one dense K x K fiber per entry and point.
_CYCLIC_K_MAX = 64

# A dual-build model is n x n for n the total of the block sizes, and a block
# of size K takes K powers and K Fourier sums of K terms per entry.
_DUAL_N_MAX = 64

# A stationarity check counts (n^2)^m words of each length m up to the bound,
# and a failing check may list most of them.
_WORD_LEN_MAX = 64


@dataclass(frozen=True)
class RunConfig:
    mode: str = "exact"
    tolerance: float = 1e-9
    max_word_len: int = 3
    cap: int = DEFAULT_CAP
    seed: int = 0
    inputs: dict = field(default_factory=dict)
    out: str | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise BadSetting(f"unknown mode {self.mode!r}")
        if not 0 < self.tolerance < math.inf:
            raise BadSetting("tolerance must be positive and finite")
        if not 1 <= self.max_word_len <= _WORD_LEN_MAX:
            raise BadSetting(f"max word length must be in [1, {_WORD_LEN_MAX}]")
        if self.cap < 1:
            raise BadSetting("cap must be at least 1")
        if not 0 <= self.seed < 2 ** 32:
            raise BadSetting("seed must be in [0, 2**32)")


def _common_flags(p: argparse.ArgumentParser):
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const",
                      const="exact", help="exact arithmetic (default)")
    mode.add_argument("--float", dest="mode", action="store_const",
                      const="float", help="floating arithmetic at --tol")
    p.set_defaults(mode="exact")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="comparison tolerance in float mode")
    p.add_argument("--max-word-len", type=int, default=3,
                   help=f"longest word checked by stationarity states "
                        f"(at most {_WORD_LEN_MAX})")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="largest group enumeration allowed")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized float sweeps")
    p.add_argument("--out", default=None,
                   help="also write the artifact (or report) to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magicmodels",
        description="Build and certify finite matrix models exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, **arguments):
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments.items():
            p.add_argument(flag, **kwargs)
        _common_flags(p)
        return p

    cmd("thoma-check", "stationarity of the induced model over a subgroup",
        **{"--group": {"required": True, "help": "ambient group JSON"},
           "--lambda": {"required": True, "dest": "lam",
                        "help": "abelian subgroup JSON"}})
    cmd("magic-verify", "projection and row/column sum checks on a model",
        **{"--model": {"required": True, "help": "model JSON"}})
    cmd("orbits", "orbit blocks of a model or permutation group",
        **{"--model": {"help": "model JSON"},
           "--group": {"help": "group JSON"}})
    cmd("stationarity", "word-state comparison against the group average",
        **{"--model": {"required": True, "help": "model JSON"},
           "--group": {"required": True, "help": "reference group JSON"}})
    cmd("dual-build", "spectral block model from unitary generators",
        **{"--input": {"required": True,
                       "help": "JSON with sizes and generators"}})
    cmd("cyclic-build", "cycle-filled model from a twisted abelian datum",
        **{"--input": {"required": True,
                       "help": "JSON with factors, rep_generators, auto_images, k"}})
    cmd("cyclic-verify", "relation, stationarity and symmetry checks",
        **{"--input": {"required": True,
                       "help": "same input as cyclic-build"}})
    cmd("latin-search", "smallest family of disjoint block permutations",
        **{"--group": {"required": True, "help": "group JSON"},
           "--size": {"type": int, "default": None,
                      "help": "block size (default: common orbit size)"}})
    cmd("uniform-check", "uniformity certificate for a marked generating set",
        **{"--group": {"required": True,
                       "help": "group JSON; its generator list is the marked set"}})
    cmd("dual-flat-check", "trace-vector flatness of generator fibers",
        **{"--input": {"required": True,
                       "help": "JSON with k and per-generator fiber lists"}})
    cmd("suite", "run every acceptance criterion in order")
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parsing leaves a parser as it
    found it, and each call of dispatch would otherwise pay for building it."""
    return build_parser()


# -- handlers ---------------------------------------------------------------
# Each handler returns (status, body, artifact): body goes into the report,
# and artifact is what --out writes, or None.

def _maybe_float(model, config: RunConfig):
    if config.mode == "float" and model.mode == "exact":
        return model.to_float()
    return model


def _tol(config: RunConfig, *inputs):
    """Comparison tolerance: config.tolerance under --float or when any input
    model or matrix is float, else None (exact equality)."""
    if config.mode == "float" or any(m.mode == "float" for m in inputs):
        return config.tolerance
    return None


def _status(rep) -> str:
    return "pass" if rep.passed else "fail"


def _handle_thoma(args, config):
    gamma = sz.group_from_json(sz.load_json(args.group), cap=config.cap)
    lam = sz.group_from_json(sz.load_json(args.lam), cap=config.cap)
    data = VirtuallyAbelianData.from_permutation_groups(gamma, lam)
    rep = check_stationarity(data, word_len=config.max_word_len)
    return _status(rep), {"checked": rep.checked, **rep.details,
                          "witnesses": list(rep.witnesses)}, None


def _handle_magic_verify(args, config):
    model = sz.model_from_json(sz.load_json(args.model))
    rep = verify_magic(_maybe_float(model, config), _tol(config, model))
    return _status(rep), sz.check_to_json(rep), None


def _handle_orbits(args, config):
    if (args.model is None) == (args.group is None):
        raise sz.BadInput("orbits needs exactly one of --model or --group")
    if args.model is not None:
        source = sz.model_from_json(sz.load_json(args.model))
        orb = orbits_from_source(_maybe_float(source, config), _tol(config, source))
    else:
        orb = orbits_from_source(
            sz.group_from_json(sz.load_json(args.group), cap=config.cap))
    body = {
        "blocks": [list(b) for b in orb.blocks],
        "sizes": list(orb.sizes),
        "quasi_transitive": orb.quasi_transitive,
        "lower_bound": orb.lower_bound,
        "witnesses": [],
    }
    return "pass", body, None


def _handle_stationarity(args, config):
    model = sz.model_from_json(sz.load_json(args.model))
    group = sz.group_from_json(sz.load_json(args.group), cap=config.cap)
    rep = stationarity_check(group, _maybe_float(model, config),
                             word_len=config.max_word_len, tol=_tol(config, model))
    return _status(rep), sz.check_to_json(rep), None


def _parse_dual_input(payload):
    if not isinstance(payload, dict) or "sizes" not in payload or "generators" not in payload:
        raise sz.BadInput("dual-build input needs sizes and generators")
    sizes = payload["sizes"]
    if not (isinstance(sizes, list) and sizes
            and all(sz._is_int(s) and s >= 1 for s in sizes)):
        raise sz.BadInput("sizes must be a nonempty list of positive integers")
    if sum(sizes) > _DUAL_N_MAX:
        raise sz.BadInput(f"sizes must total at most {_DUAL_N_MAX}")
    if not isinstance(payload["generators"], list):
        raise sz.BadInput("generators must be a list of matrices")
    gens = [sz.matrix_from_json(m) for m in payload["generators"]]
    return sizes, gens


def _handle_dual_build(args, config):
    sizes, gens = _parse_dual_input(sz.load_json(args.input))
    model = bichon_build(sizes, gens, _tol(config, *gens))
    artifact = sz.model_to_json(model)
    return "pass", {"n": model.n, "dim": model.dim, "model": artifact,
                    "witnesses": []}, artifact


def _parse_cyclic_input(payload, cap):
    if not isinstance(payload, dict):
        raise sz.BadInput("cyclic input must be an object")
    for fieldname in ("factors", "rep_generators", "auto_images", "k"):
        if fieldname not in payload:
            raise sz.BadInput(f"cyclic input needs a {fieldname} field")
    if not isinstance(payload["rep_generators"], list):
        raise sz.BadInput("rep_generators must be a list of matrices")
    group = sz.abelian_from_json({"factors": payload["factors"]}, cap=cap)
    gens = [sz.matrix_from_json(m) for m in payload["rep_generators"]]
    auto = sz.abelian_auto_from_images(group, payload["auto_images"])
    k = payload["k"]
    if not (sz._is_int(k) and k >= 1):
        raise sz.BadInput("k must be a positive integer")
    if k > _CYCLIC_K_MAX:
        raise sz.BadInput(f"k must be at most {_CYCLIC_K_MAX}")
    return CyclicModelData(group, abelian_rep(group, gens), auto, k)


def _handle_cyclic_build(args, config):
    data = _parse_cyclic_input(sz.load_json(args.input), config.cap)
    model = build_cyclic_model(data)
    artifact = sz.model_to_json(model)
    return "pass", {"n": model.n, "dim": model.dim, "k": data.k,
                    "model": artifact, "witnesses": []}, artifact


def _handle_cyclic_verify(args, config):
    data = _parse_cyclic_input(sz.load_json(args.input), config.cap)
    # The certificate runs on exact data; its budget is checked before any
    # model is built.
    if data.mode == "exact":
        check_semidirect_budget(data)
    model = build_cyclic_model(data)
    tol = _tol(config, model)
    checked = _maybe_float(model, config)
    reports = [verify_half_liberation(checked, tol),
               verify_k_symmetry(checked, tol)]
    if model.mode == "exact":
        reports.append(semidirect_stationarity(data))
    witnesses = []
    for rep in reports:
        for w in rep.witnesses:
            witnesses.append({"check": rep.name, **w})
    passed = all(rep.passed for rep in reports)
    return ("pass" if passed else "fail"), {
        "checks": {rep.name: rep.passed for rep in reports},
        "witnesses": witnesses,
    }, None


def _handle_latin_search(args, config):
    group = sz.group_from_json(sz.load_json(args.group), cap=config.cap)
    size = args.size
    if size is None:
        size = orbits_from_source(group).block_size
    res = latin_family_search(group, size)
    if isinstance(res, LatinFamily):
        square = SparseLatinSquare.from_family(res)
        artifact = {"family": sz.family_to_json(res),
                    "square": sz.square_to_json(square)}
        return "pass", {**artifact, "witnesses": []}, artifact
    body = {"group_order": res.group_order, "size": res.size,
            "explored": res.explored, "exhaustive": res.exhaustive,
            "witnesses": []}
    return "no-family", body, body


def _handle_uniform_check(args, config):
    payload = sz.load_json(args.group)
    group = sz.group_from_json(payload, cap=config.cap)
    gens = [sz.perm_from_json(p) for p in payload["generators"]]
    if not gens:
        raise sz.BadInput("uniform-check needs a nonempty marked generating set")
    rep = uniform_check(group, gens)
    # The int condition keys render as the strings "1" ... "4" in key order.
    return _status(rep), {**rep.details, "uniform": rep.passed,
                          "witnesses": list(rep.witnesses)}, None


def _parse_flat_input(payload):
    if not isinstance(payload, dict) or "k" not in payload or "generators" not in payload:
        raise sz.BadInput("dual-flat-check input needs k and generators")
    k = payload["k"]
    if not (sz._is_int(k) and k >= 1):
        raise sz.BadInput("k must be a positive integer")
    gens = payload["generators"]
    if not (isinstance(gens, list) and gens
            and all(isinstance(per_gen, list) and per_gen for per_gen in gens)):
        raise sz.BadInput("generators must be nonempty fiber lists")
    fibers = [[sz.matrix_from_json(m) for m in per_gen] for per_gen in gens]
    labels = payload.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and len(labels) == len(fibers[0])):
        raise sz.BadInput("labels must be a list with one label per point")
    return fibers, k, labels


def _handle_dual_flat(args, config):
    fibers, k, labels = _parse_flat_input(sz.load_json(args.input))
    tol = _tol(config, *(m for per in fibers for m in per))
    if config.mode == "float":
        fibers = [[m.to_float() for m in per] for per in fibers]
    rep = quasiflat_dual_check(fibers, k, labels=labels, tol=tol)
    return _status(rep), sz.check_to_json(rep), None


def _handle_suite(args, config):
    res = run_suite(cap=config.cap, seed=config.seed,
                    tol=config.tolerance if config.mode == "float" else 1e-9)
    witnesses = [{"criterion": r["criterion"], "name": r["name"]}
                 for r in res["criteria"] if not r["passed"]]
    status = "pass" if res["passed"] else "fail"
    return status, {"criteria": res["criteria"], "witnesses": witnesses}, None


HANDLERS = {
    "thoma-check": _handle_thoma,
    "magic-verify": _handle_magic_verify,
    "orbits": _handle_orbits,
    "stationarity": _handle_stationarity,
    "dual-build": _handle_dual_build,
    "cyclic-build": _handle_cyclic_build,
    "cyclic-verify": _handle_cyclic_verify,
    "latin-search": _handle_latin_search,
    "uniform-check": _handle_uniform_check,
    "dual-flat-check": _handle_dual_flat,
    "suite": _handle_suite,
}

_INPUT_FLAGS = ("group", "lam", "model", "input")


def _config_from_args(args) -> RunConfig:
    inputs = {name: getattr(args, name) for name in _INPUT_FLAGS
              if getattr(args, name, None) is not None}
    return RunConfig(mode=args.mode, tolerance=args.tol,
                     max_word_len=args.max_word_len, cap=args.cap,
                     seed=args.seed, inputs=inputs, out=args.out)


def _report_text(report: dict, config: RunConfig | None, artifact) -> str:
    """The report's text, once the artifact, if any, is written to --out.
    An error report is its own artifact, and a report that embeds its
    artifact reuses the written text, so each is rendered once."""
    if artifact is None or not (config and config.out):
        return sz.render_json(report)
    if artifact is report:
        return sz.dump_json(report, config.out)
    return sz.render_json(report, sz.embedded(artifact, sz.dump_json(artifact, config.out)))


def _emit(report: dict, text: str):
    sys.stdout.write(text)
    summary = f"{report['command']}: {report['status']}"
    witnesses = report.get("witnesses", [])
    if witnesses:
        summary += f" ({len(witnesses)} witness{'es' if len(witnesses) != 1 else ''})"
    print(summary, file=sys.stderr)


def _error_report(head: dict, exc: Exception) -> dict:
    return {**head, "status": "error", "witnesses": [],
            "error": {"type": type(exc).__name__, "message": str(exc)}}


def dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # A setting out of range leaves no config to echo, and no --out to write.
    config = None
    head = {"command": args.command, "config": None}
    try:
        config = _config_from_args(args)
        head["config"] = ({f.name: getattr(config, f.name) for f in fields(config)}
                          | {"inputs": dict(config.inputs)})
        status, body, artifact = HANDLERS[args.command](args, config)
        report = {**head, "status": status, "witnesses": [], **body}
    except (ModelInputError, Inconsistent) as exc:
        status = "error"
        report = artifact = _error_report(head, exc)
    try:
        text = _report_text(report, config, artifact)
    except sz.BadInput as exc:
        # --out cannot be written: the error goes to stdout alone.
        status = "error"
        report = _error_report(head, exc)
        text = sz.render_json(report)
    _emit(report, text)
    return EXIT_CODES[status]


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
