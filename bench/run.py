"""Benchmark runner: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload classical --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  The runner writes the seeded inputs, then starts whole passes over
the workload's job list until the passes have taken --seconds reference
seconds (clock.py), so a run lasts --seconds plus at most one pass.  Counting
in reference seconds keeps the number of passes from depending on the host's
speed at the time.  The first pass of a
run is checked against the reference computations in refcheck.py; every
later pass must reproduce the first pass's reports and artifacts byte for
byte.  End-to-end metrics are medians over the passes.

With --trace 1 the run makes one untraced pass, installs the layer tracer
(tracing.py) and repeats traced passes; it reports the per-layer metrics
(medians over traced passes) and the tracing overhead against the untraced
pass, and writes every span to .bench_work/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Progress and problems go to standard error.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import clock
import jobs as jobdefs
import seeded
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "build_s": "s",
              "verify_exact_s": "s", "verify_float_s": "s",
              "words_per_s": "words/s", "peak_rss_mb": "MiB"}
KIND_METRIC = {"build": "build_s", "exact": "verify_exact_s",
               "float": "verify_float_s"}

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import clock; "
                "a = clock.probe_mean(); t = time.perf_counter(); import magicmodels.cli; "
                "t = time.perf_counter() - t; print(t, (a + clock.probe_mean()) / 2)")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def measure_setup(workload, seed, workdir):
    """Median over repeats of a fresh-process import of the CLI plus writing
    the seeded inputs, in reference seconds.  The import is timed inside a
    child interpreter, so interpreter start-up is not counted; the child also
    times the speed probe just before and after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    samples, inputs = [], None
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(BENCH)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing the program failed:\n{proc.stderr}")
        import_s, probe_s = (float(x) for x in proc.stdout.split()[-2:])
        t0 = time.perf_counter()
        inputs = seeded.write_inputs(workload, seed, workdir / "inputs")
        samples.append((import_s + time.perf_counter() - t0) * clock.P_REF / probe_s)
    return statistics.median(samples), inputs


def load_program():
    sys.path.insert(0, str(SRC))
    package, modules = tracing.load_layers()
    if Path(package.__file__).resolve().parent != SRC / "magicmodels":
        raise RuntimeError(f"imported magicmodels from {package.__file__}, not {SRC}")
    return package, modules


def run_pass(jobs, ctx, tracer=None):
    """One pass over the job list; rows of (job, reference seconds, result,
    exception)."""
    timed = []
    with clock.SpeedSampler() as sampler:
        for job in jobs:
            gc.collect()
            if tracer is not None:
                tracer.job = job.name
            t0 = time.perf_counter()
            try:
                raw, err = job.call(ctx), None
            except Exception as exc:  # a job's failure is counted, never fatal
                raw, err = None, exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.job = None
            timed.append((job, t0, t1, raw, err))
    whole = sampler.mean_between(timed[0][1], timed[-1][2]) or clock.P_REF
    return [(job, sampler.reference_seconds(t0, t1, whole), raw, err)
            for job, t0, t1, raw, err in timed]


class Ledger:
    """Operation accounting and output checks across the passes of a run."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}          # job name -> (text, artifact digests)

    def digest(self, job):
        return [hashlib.sha256(Path(self.ctx.path(a)).read_bytes()).hexdigest()
                for a in job.artifacts]

    def settle(self, rows) -> dict:
        """Account one pass and return its end-to-end timings."""
        times = {"wall_s": 0.0, "build_s": 0.0, "verify_exact_s": 0.0,
                 "verify_float_s": 0.0}
        words, words_s = 0, 0.0
        for job, dt, raw, err in rows:
            self.attempted += 1
            if err is not None:
                self.failed += 1
                if type(err).__name__ != job.known_fault:
                    self.problems.append(f"{job.name} raised {type(err).__name__}: {err}")
                continue
            try:
                out = job.outcome(raw)
                if out.status != job.expect:
                    self.failed += 1
                    self.problems.append(f"{job.name}: status {out.status}, expected {job.expect}")
                    continue
                seen = (out.text, self.digest(job))
                if job.name not in self.first:
                    self.first[job.name] = seen
                    self.problems += [f"{job.name}: {p}" for p in job.check(self.ctx, out)]
                elif seen != self.first[job.name]:
                    self.problems.append(f"{job.name}: output differs from the first pass")
            except Exception as exc:  # a malformed output is a wrong output
                self.problems.append(f"{job.name}: unreadable output ({type(exc).__name__}: {exc})")
                continue
            times["wall_s"] += dt
            if job.kind in KIND_METRIC:
                times[KIND_METRIC[job.kind]] += dt
            if job.words:
                words += out.report["checked"]
                words_s += dt
        times["words_per_s"] = words / words_s if words_s else 0.0
        return times


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "classical", "cyclotomic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "magicmodels" / "cli.py").is_file():
        log(f"error: no program source at {SRC / 'magicmodels'}; run from a source checkout")
        return 2

    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, inputs = measure_setup(args.workload, args.seed, workdir)
        package, modules = load_program()
        ctx = jobdefs.Context(SimpleNamespace(**modules), inputs, workdir)
        job_list = jobdefs.WORKLOADS[args.workload](args.seed)
        ledger = Ledger(ctx)

        measured = 0.0
        passes = []
        tracer = None
        if args.trace:
            untraced = ledger.settle(run_pass(job_list, ctx))
            tracer = tracing.Tracer(modules)
            tracer.install(package)
        traced = []
        while True:
            rows = run_pass(job_list, ctx, tracer)
            if tracer is not None:
                tracer.paused = True
                per_job = tracer.take()
                traced.append({"per_job": per_job, "totals": tracing.totals(per_job),
                               "spans": len(tracer.spans)})
            if not passes:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            passes.append(ledger.settle(rows))
            if tracer is not None:
                tracer.paused = False
            log(f"pass {len(passes)}: wall {passes[-1]['wall_s']:.3f} s  "
                + " ".join(f"{job.name}={dt:.3f}" for job, dt, _, _ in rows))
            measured += sum(dt for _, dt, _, _ in rows)
            if measured >= args.seconds:
                break

        if args.trace:
            metrics = trace_metrics(traced, passes, untraced)
            write_trace(args, tracer, traced, passes, untraced)
        else:
            values = {k: median_of(passes, k) for k in
                      ("wall_s", "build_s", "verify_exact_s", "verify_float_s", "words_per_s")}
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = peak_rss_mb
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in ledger.problems:
        log("PROBLEM:", p)
    print(json.dumps({"correct": not ledger.problems, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def trace_metrics(traced, passes, untraced):
    values = {}
    for name in tracing.PER_LAYER:
        if name not in ("trace.spans", "trace.overhead_share"):
            values[name] = statistics.median(t["totals"][name] for t in traced)
    counts = [t["spans"] for t in traced]
    values["trace.spans"] = statistics.median(b - a for a, b in zip([0] + counts, counts))
    values["trace.overhead_share"] = median_of(passes, "wall_s") / untraced["wall_s"] - 1
    return {k: {"value": values[k], "unit": u} for k, u in tracing.PER_LAYER.items()}


def write_trace(args, tracer, traced, passes, untraced):
    """Spans and per-job layer metrics of every traced pass, as JSON."""
    path = WORK / f"trace-{args.workload}-{args.seed}.json"
    WORK.mkdir(parents=True, exist_ok=True)
    body = {
        "workload": args.workload, "seed": args.seed,
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": [p["wall_s"] for p in passes],
        "passes": [{"per_job": t["per_job"], "totals": t["totals"]} for t in traced],
        "span_fields": ["name", "start", "end", "parent", "job"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(body), encoding="utf-8")
    last = traced[-1]["per_job"]
    log(f"trace written to {path}")
    for job, vals in last.items():
        top = sorted(((v, k) for k, v in vals.items() if k.endswith("self_s")), reverse=True)[:3]
        log(f"  {job:32s} " + ", ".join(f"{k} {v:.3f}" for v, k in top))


if __name__ == "__main__":
    sys.exit(main())
