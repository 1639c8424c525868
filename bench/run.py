#!/usr/bin/env python3
"""Benchmark of the l0sign library: one workload, one seed, one run.

    python3 bench/run.py --workload train-planted --seed 0 --seconds 20 --trace 0

Run from the repository root. The library is imported from `src/`. With
`--trace 0` the workload's pipeline repeats for `--seconds` seconds and the
end-to-end metrics named in BENCHMARK.json are the medians over those
rounds. With `--trace 1` one untraced round is followed by one traced
round, which gives the per-layer metrics; the two rounds must agree bit for
bit. Earlier lines of standard output carry the environment, per-round
details and, when traced, the span table; the last line is the result.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported: batch-sized
# matmuls are far slower under default OpenBLAS threading on small boxes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    """Import l0sign from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import l0sign
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import l0sign from {src}: {exc}")
    if Path(l0sign.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench: l0sign imported from {l0sign.__file__}, not {src}")


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, seeds: dict, quality_seeds: dict) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        **seeds,
        "quality_seeds": quality_seeds,
    }


def _median_rate(rounds, stage: str) -> float:
    rates = [w / s for r in rounds for s, w in r.samples.get(stage, ()) if s > 0]
    return statistics.median(rates) if rates else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else float("nan")


def end_to_end(setup_times, rounds, rss_mb: float, quality) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "train_instances_per_s": _median_rate(rounds, "fit"),
        "eval_instances_per_s": _median_rate(rounds, "eval"),
        "explain_instances_per_s": _median_rate(rounds, "explain"),
        "edge_report_pairs_per_s": _median_rate(rounds, "edge_report"),
        "peak_rss_mb": rss_mb,
        "train_risk_final": _mean(quality.risks),
        "test_auc": _mean(quality.aucs),
    }


def per_layer(setup_trace, trace, rnd, lines: int, units: int, overhead: float) -> dict:
    instances = sum(rnd.work(s) for s in ("fit", "eval", "explain")) or math.nan
    c = trace.counters
    load_s = setup_trace.total("data.load_dataset")
    return {
        "data.generate_s": setup_trace.total("data.generate_synthetic"),
        "data.load_s": load_s,
        "data.lines_per_s": lines / load_s if load_s else 0.0,
        "data.split_s": setup_trace.total("data.split"),
        "numcore.calls_per_instance": trace.layer_calls("numcore") / instances,
        "numcore.op_units_per_instance": units / instances,
        "numcore.self_s": trace.layer_self("numcore"),
        "gates.noise_calls": trace.calls("gates.pair_uniforms"),
        "gates.noise_s": trace.total("gates.pair_uniforms"),
        "gates.sample_s": trace.total("gates.sample_array"),
        "gates.penalty_s": trace.total("gates.open_probability", "train.risk")
        + trace.total("gates.open_probability_grad", "train.risk"),
        "gates.open_fraction": c.det_open / c.det_gates if c.det_gates else 0.0,
        "gates.exact_zero_fraction": c.det_zero / c.det_gates if c.det_gates else 0.0,
        "model.forward_calls": trace.calls("model.forward"),
        "model.forward_self_s": trace.self_time("model.forward"),
        "model.backward_self_s": trace.self_time("model.backward"),
        "model.slots": c.slots,
        "model.useful_slot_ratio": c.useful_slots / c.slots if c.slots else 0.0,
        "model.edges_for_instance_s": trace.total("model.edges_for_instance"),
        "model.edge_logit_calls": trace.calls("model.edge_logit"),
        "model.edge_logit_s": trace.total("model.edge_logit"),
        "train.fit_s": trace.total("train.fit"),
        "train.risk_self_s": trace.self_time("train.risk"),
        "train.adagrad_step_s": trace.total("train.adagrad_step"),
        "train.validation_s": trace.total("model.forward", "train.fit")
        + trace.total("model.score_only", "train.fit"),
        "evaluate.score_dataset_s": trace.total("evaluate.score_dataset"),
        "evaluate.explain_self_s": trace.self_time("evaluate.explain"),
        "evaluate.co_occurring_pairs_s": trace.total("evaluate.co_occurring_pairs"),
        "evaluate.edge_report_self_s": trace.self_time("evaluate.edge_report"),
        "evaluate.auc_s": trace.total("evaluate.auc"),
        "trace.overhead_ratio": overhead,
    }


def _emit(key: str, value) -> None:
    print(json.dumps({key: value}), flush=True)


def run(args, workdir: Path) -> dict:
    from l0sign import numcore

    from spans import Tracer
    from workloads import QUALITY_SEED, SIZES, WORKLOADS, Checks, seeds_for

    sizes = SIZES[args.workload][args.size]
    workload = WORKLOADS[args.workload](sizes)
    checks = Checks()
    _emit("environment", environment(args, seeds_for(args.seed), seeds_for(QUALITY_SEED)))

    def setup(seed=args.seed):
        return checks.call("setup", workload.setup, seed, workdir)

    def agree(reference, rnd, label: str) -> None:
        checks.expect(reference.same_outputs(rnd), f"{label} differs from the first round")

    if args.trace:
        with Tracer() as setup_trace:
            state = setup()
        if state is None:
            return {"checks": checks, "metrics": None}
        started = time.perf_counter()
        plain = workload.round(state, checks)
        plain_s = time.perf_counter() - started
        numcore.reset_op_units()
        started = time.perf_counter()
        with Tracer() as trace:
            traced = workload.round(state, checks)
        traced_s = time.perf_counter() - started
        units = numcore.op_units()
        agree(plain, traced, "traced round")
        _emit("spans", trace.table())
        _emit("counters", vars(trace.counters))
        metrics = per_layer(setup_trace, trace, traced, state.rows, units, traced_s / plain_s)
        return {"checks": checks, "metrics": metrics}

    setup_times = []
    for _ in range(sizes.setup_repeats):
        started = time.perf_counter()
        state = setup()
        setup_times.append(time.perf_counter() - started)
        if state is None:
            return {"checks": checks, "metrics": None}
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < args.seconds:
        rnd = workload.round(state, checks)
        if rounds:
            agree(rounds[0], rnd, f"round {len(rounds) + 1}")
        rounds.append(rnd)
    _emit("rounds", [{"samples": r.samples, "risks": r.risks, "aucs": r.aucs} for r in rounds])
    _emit("setup_s", setup_times)
    # The quality metrics come from one untimed round on fixed inputs, so
    # they read the same on every run of the same code, whatever the seed.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del state
    state = setup(QUALITY_SEED)
    if state is None:
        return {"checks": checks, "metrics": None}
    quality = workload.round(state, checks)
    if args.seed == QUALITY_SEED:
        agree(rounds[0], quality, "quality round")
    _emit("quality", {"risks": quality.risks, "aucs": quality.aucs})
    return {"checks": checks, "metrics": end_to_end(setup_times, rounds, rss_mb, quality)}


def main(argv=None) -> int:
    spec = _load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own test")
    args = ap.parse_args(argv)
    _import_library()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    checks = out["checks"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = out["metrics"]
    if checks.notes:
        _emit("failures", checks.notes)
    if metrics is None:
        metrics = {m["name"]: math.nan for m in wanted}
    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json")
    measured = all(math.isfinite(v) for v in metrics.values())
    if not measured:  # a failed stage left a metric unmeasured; report it as 0
        metrics = {k: v if math.isfinite(v) else 0.0 for k, v in metrics.items()}
    result = {
        "correct": checks.failed == 0 and measured,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
