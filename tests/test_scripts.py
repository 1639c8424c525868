"""Smoke test of the README's one-command run, `scripts/run_synthetic_experiment.py`."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiment.py"


def test_synthetic_experiment_writes_its_reports(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "run"
    rc = script.main(["--out", str(out), "--samples", "300", "--epochs", "2", "--skip-ablation"])
    assert rc == 0
    recovery = json.loads((out / "recovery.json").read_text())
    assert set(recovery) == {"precision", "recall", "f1", "predicted", "planted"}
    assert len(recovery["planted"]) == 5
    explanations = json.loads((out / "explanations.json").read_text())
    assert explanations and all("pairs" in e for e in explanations)
    assert not (out / "ablation.csv").exists()
    assert "planted-pair recovery" in capsys.readouterr().out
