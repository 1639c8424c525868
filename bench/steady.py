#!/usr/bin/env python3
"""Steadiness check of the benchmark: spreads over seeds, exact counts.

    python3 bench/steady.py --seeds 10
    python3 bench/steady.py --workloads infer-frappe --seeds 5 --sets 1 --trace-runs 0

For each workload, runs `run.py --trace 0` once per seed, `--sets` times
over (two by default), and prints for every end-to-end metric the median
and the spread: the distance between the first and third quartile of its
values, as a share of their median. A spread at or above the metric's
bound fails, and so does a later set's median that is worse than the
first set's by more than the bound. Then runs `--trace 1` `--trace-runs`
times on seed 0 and fails if any count metric differs between the runs.
Any run with a failed operation fails the check. Exits 1 on failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--trace-runs", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--values", action="store_true", help="print every run's value")
    args = ap.parse_args()

    ok = True
    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            runs = [bench(workload, seed, args.seconds, 0) for seed in range(args.seeds)]
            failed = sum(r["failed"] for r in runs)
            if failed or not all(r["correct"] for r in runs):
                print(f"{workload}: {failed} failed operations")
                ok = False
            sets.append(runs)
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            verdict = "ok"
            drift = max(worse_by(medians[0], later, m["better"]) for later in medians)
            if max(spreads) >= bound:
                verdict, ok = "SPREAD", False
            if drift > bound:
                verdict, ok = "DRIFT", False
            print(f"{workload:15s} {name:24s} median {medians[-1]:12.5g} {m['unit']:4s} "
                  f"spread {max(spreads):7.2%} drift {drift:7.2%} bound {bound:5.0%} {verdict}")
            if args.values:
                print("    " + " ".join(f"{r['metrics'][name]['value']:.5g}"
                                      for runs in sets for r in runs))
        if args.trace_runs:
            counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
            traced = [bench(workload, 0, args.seconds, 1) for _ in range(args.trace_runs)]
            seen = [{k: r["metrics"][k]["value"] for k in counts} for r in traced]
            same = all(s == seen[0] for s in seen)
            failed = sum(r["failed"] for r in traced)
            ok = ok and same and failed == 0
            print(f"{workload:15s} counts {'equal' if same else 'DIFFER'} over "
                  f"{len(traced)} traced runs, {failed} failed operations; "
                  f"overhead ratios {[r['metrics']['trace.overhead_ratio']['value'] for r in traced]}")
            print(json.dumps({workload: {k: v["value"] for k, v in traced[0]["metrics"].items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
