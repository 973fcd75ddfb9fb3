"""Self-test of the reference checks: each must accept the program's real
output and reject a deliberately corrupted copy of it.

    python3 bench/selftest.py

Runs a few jobs once on seed 0 (the Z2 x Z2 dual build, the D4 Latin search
and family model, and the D4 identity-fiber control), then corrupts
  * one entry of the dual-build model,
  * the model value of the first stationarity witness,
  * one member of the Latin family (swapped for a colliding group element),
  * the verdict of a search (a no-family claim for a group that has one),
and checks that the corresponding reference check reports a problem.  It also
checks that the per_layer list of BENCHMARK.json names the metrics of
tracing.PER_LAYER, with their units, in order.
Exits 0 when every case behaves, 1 otherwise.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import jobs
import refcheck as rc
import run
import seeded
import tracing


def main() -> int:
    if not (run.SRC / "magicmodels" / "cli.py").is_file():
        print(f"error: no program source at {run.SRC}", file=sys.stderr)
        return 2
    package, modules = run.load_program()
    work = run.WORK / f"selftest-{os.getpid()}"
    failures = []

    def expect(case, problems, want_rejected):
        ok = bool(problems) == want_rejected
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {case}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
        if not ok:
            failures.append(case)

    try:
        inputs = {**seeded.write_inputs("classical", 0, work / "inputs"),
                  **seeded.write_inputs("cyclotomic", 0, work / "inputs")}
        ctx = jobs.Context(SimpleNamespace(**modules), inputs, work)
        by_name = {j.name: j for j in jobs.classical_jobs(0) + jobs.cyclotomic_jobs(0)}

        def outcome(name):
            job = by_name[name]
            return job, job.outcome(job.call(ctx))

        # 1. one model entry changed
        job, out = outcome("dual-build-dual_z2z2")
        expect("dual-build model as built", job.check(ctx, out), False)
        path = ctx.path("dual_z2z2_model.json")
        model = json.loads(Path(path).read_text())
        bad = copy.deepcopy(model)
        bad["points"][0]["entries"][0][0]["rows"][0][0] = "1/3"
        Path(path).write_text(json.dumps(bad))
        out.report["model"] = bad
        expect("dual-build model with one entry changed", job.check(ctx, out), True)
        Path(path).write_text(json.dumps(model))

        # 2. a witness value altered
        for name in ("latin-search-d4", "model-d4"):
            job, out = outcome(name)
            expect(f"{name} as built", job.check(ctx, out), False)
        job, out = outcome("stationarity-identity-fiber-d4")
        expect("identity-fiber witnesses as reported", job.check(ctx, out), False)
        out.report["witnesses"][0]["model"] = "1/3"
        expect("identity-fiber first witness altered", job.check(ctx, out), True)

        # 3. a family member swapped for a colliding group element
        gens = ctx.load(inputs["group_d4"])["generators"]
        members = [tuple(m) for m in ctx.load(ctx.path("fam_d4.json"))["family"]["members"]]
        expect("D4 family as found", rc.check_family(gens, members, 4), False)
        kept = members[:1] + members[2:]
        colliding = next(g for g in rc.enumerate_group(gens) if g not in members
                         and any(g[p] == m[p] for m in kept for p in range(len(g))))
        swapped = kept[:1] + [colliding] + kept[1:]
        expect("D4 family with a member swapped", rc.check_family(gens, swapped, 4), True)

        # 4. a no-family verdict for a group that has a family
        expect("no-family claim for D4 at size 4",
               ["reference search finds a family"] if rc.family_exists(gens, 4) else [], True)
        expect("no-family claim for the order-216 group",
               ["reference search finds a family"]
               if rc.family_exists(ctx.load(inputs["group_g216"])["generators"], 6) else [],
               False)

        # 5. BENCHMARK.json lists the tracer's per-layer metrics
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        expect("BENCHMARK.json per_layer against tracing.PER_LAYER",
               [] if listed == list(tracing.PER_LAYER.items())
               else ["per_layer names or units differ"], False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("self-test", "passed" if not failures else f"FAILED: {failures}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
