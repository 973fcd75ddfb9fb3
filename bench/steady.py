"""Steadiness command: run one workload repeatedly and summarise the spread.

    python3 bench/steady.py --workload classical --runs 10 --first-seed 1

Each run is a separate `bench/run.py` process with its own seed (first-seed,
first-seed + 1, ...), made one after another.  For every metric the command
prints the median, the first and third quartiles (statistics.quantiles with
n=4) and the spread, (q3 - q1) / median, which is what the bounds in
BENCHMARK.json are set against.  It also prints the share of failed
operations of every run, which must be identical across runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for r in range(args.runs):
        seed = args.first_seed + r
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} share={share:.6f} elapsed={elapsed:.1f}s", flush=True)

    print(f"\n{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"\nfailed shares: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
