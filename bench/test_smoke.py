"""Smoke test of the benchmark itself, on tiny inputs.

    python -m pytest bench/test_smoke.py -q

Every workload runs untraced and traced at the `smoke` size. The result
line must carry exactly the metrics BENCHMARK.json names, with no failed
operation, and the tracer must leave every wrapped function as it found it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (sets the BLAS thread variables, harmless here)

run._import_library()

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _originals():
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _ in spans.TRACED}


def _result(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "2", "--seconds", "0",
            "--trace", str(trace), "--size", "smoke"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    result = _result(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_unwraps(capsys, workload):
    before = _originals()
    result = _result(capsys, workload, 1)
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["model.forward_calls"] > 0 and metrics["train.fit_s"] > 0
    assert _originals() == before


def test_tracer_restores_functions_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert _originals() != before
            raise RuntimeError("stage failed")
    assert _originals() == before


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    outer = tracer._wrap("outer", lambda f: f())
    inner = tracer._wrap("inner", lambda: sum(range(20000)))
    outer(inner)
    (o,) = [s for (n, _), s in tracer.stats.items() if n == "outer"]
    assert tracer.stats[("inner", "outer")].calls == 1
    assert o.self_s == pytest.approx(o.total_s - tracer.total("inner"), abs=1e-12)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
