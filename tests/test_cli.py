"""End-to-end checks of the command-line surface.

Every test drives `cli.main` directly with argv lists, so argument parsing,
config-file precedence, artifact writing, and exit codes are all exercised
exactly as a shell invocation would.
"""

import json

import numpy as np
import pytest

from l0sign import cli, data, model, train
from l0sign.model import ModelConfig, ModelParams


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = cli.main(
        [
            "synth", "--out", str(out), "--vocab", "10", "--samples", "160",
            "--nodes-per-sample", "4", "--pairs", "2", "--noise", "0.05",
            "--seed", "3",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    rc = cli.main(
        [
            "train", "--data", str(synth_dir / "data.txt"), "--out", str(out),
            "--epochs", "3", "--batch", "64", "--edge-dim", "4",
            "--interaction-dim", "4", "--hidden-dim", "8", "--seed", "3",
        ]
    )
    assert rc == 0
    return out


def train_argv(synth_dir, out) -> list[str]:
    return [
        "train", "--data", str(synth_dir / "data.txt"), "--out", str(out),
        "--epochs", "3", "--batch", "64", "--edge-dim", "4",
        "--interaction-dim", "4", "--hidden-dim", "8", "--seed", "3",
    ]


def test_synth_writes_dataset_and_truth(synth_dir, capsys):
    text = (synth_dir / "data.txt").read_text()
    assert text.startswith("vocab_size=10\n")
    assert len(text.strip().splitlines()) == 161
    truth = json.loads((synth_dir / "truth.json").read_text())
    assert len(truth["pairs"]) == 2
    assert len(truth["weights"]) == 2


def test_synth_is_deterministic(synth_dir, tmp_path, capsys):
    rc = cli.main(
        [
            "synth", "--out", str(tmp_path), "--vocab", "10", "--samples", "160",
            "--nodes-per-sample", "4", "--pairs", "2", "--noise", "0.05",
            "--seed", "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote 160 instances" in out
    assert (tmp_path / "data.txt").read_bytes() == (synth_dir / "data.txt").read_bytes()
    assert (tmp_path / "truth.json").read_bytes() == (synth_dir / "truth.json").read_bytes()


def test_train_writes_artifacts(trained_dir):
    assert (trained_dir / "model.ckpt").exists()
    assert (trained_dir / "training_log.csv").exists()
    summary = json.loads((trained_dir / "run_summary.json").read_text())
    assert summary["epochs_run"] == 3
    assert summary["mode"] == "l0sign"
    assert summary["train"]["batch_size"] == 64
    assert 1 <= summary["selected_epoch"] <= 3
    assert 0.0 <= summary["valid_auc"] <= 1.0
    records = train.load_training_log(trained_dir / "training_log.csv")
    assert [r.epoch for r in records] == [1, 2, 3]


def test_train_log_is_deterministic(synth_dir, trained_dir, tmp_path):
    rc = cli.main(train_argv(synth_dir, tmp_path))
    assert rc == 0
    assert (
        (tmp_path / "training_log.csv").read_bytes()
        == (trained_dir / "training_log.csv").read_bytes()
    )
    assert (
        (tmp_path / "model.ckpt").read_bytes()
        == (trained_dir / "model.ckpt").read_bytes()
    )


def test_eval_reproduces_selected_validation_auc(synth_dir, trained_dir, tmp_path, capsys):
    # the checkpoint is the selected epoch's parameters, so re-scoring the
    # validation split must reproduce the logged AUC bit for bit
    rc = cli.main(
        [
            "eval", "--data", str(synth_dir / "data.txt"),
            "--checkpoint", str(trained_dir / "model.ckpt"),
            "--split-name", "valid", "--seed", "3", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "auc" in out and "open-gate fraction" in out
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    summary = json.loads((trained_dir / "run_summary.json").read_text())
    assert metrics["auc"] == summary["valid_auc"]
    assert metrics["n"] == 24


def test_eval_rejects_unknown_split_name(synth_dir, trained_dir):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            [
                "eval", "--data", str(synth_dir / "data.txt"),
                "--checkpoint", str(trained_dir / "model.ckpt"),
                "--split-name", "bogus",
            ]
        )
    assert exc.value.code == 2


def test_explain_writes_exact_decomposition(synth_dir, trained_dir, tmp_path, capsys):
    rc = cli.main(
        [
            "explain", "--data", str(synth_dir / "data.txt"),
            "--checkpoint", str(trained_dir / "model.ckpt"),
            "--split-name", "test", "--count", "3", "--seed", "3",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    assert "instance 0: score" in capsys.readouterr().out
    payload = json.loads((tmp_path / "explanations.json").read_text())
    assert len(payload) == 3
    for entry in payload:
        total = sum(e["contribution"] for e in entry["pairs"])
        assert total == pytest.approx(entry["score"], abs=1e-9)


def test_explain_with_all_gates_closed(synth_dir, tmp_path, capsys):
    mcfg = ModelConfig(vocab_size=10, edge_dim=4, interaction_dim=4, hidden_dim=8)
    params = ModelParams.init(mcfg, seed=0)
    params.value("edge_out_b")[:] = -50.0
    ckpt = tmp_path / "closed.ckpt"
    model.save_checkpoint(ckpt, params, 0)
    out = tmp_path / "explained"
    rc = cli.main(
        [
            "explain", "--data", str(synth_dir / "data.txt"),
            "--checkpoint", str(ckpt), "--count", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    assert "0 open pair(s)" in capsys.readouterr().out
    payload = json.loads((out / "explanations.json").read_text())
    assert all(e["pairs"] == [] and e["score"] == 0.0 for e in payload)


def test_ablate_writes_rows_and_prints_means(synth_dir, trained_dir, tmp_path, capsys):
    rc = cli.main(
        [
            "ablate", "--data", str(synth_dir / "data.txt"),
            "--checkpoint", str(trained_dir / "model.ckpt"),
            "--out", str(tmp_path), "--ratios", "0.5,1.0", "--repeats", "2",
            "--ablate-epochs", "2", "--seed", "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "predicted ratio 1.0" in out
    assert "reversed" in out
    rows = train.load_ablation(tmp_path / "ablation.csv")
    assert len(rows) == 12  # 2 sources x 2 ratios x (2 repeats + mean)
    means = [r for r in rows if r.repeat is None]
    assert {(r.source, r.ratio) for r in means} == {
        ("predicted", 0.5), ("predicted", 1.0), ("reversed", 0.5), ("reversed", 1.0),
    }


def test_train_accepts_fixed_edges_from_truth_json(synth_dir, tmp_path, capsys):
    rc = cli.main(
        [
            "train", "--data", str(synth_dir / "data.txt"), "--out", str(tmp_path),
            "--mode", "sign-fixed", "--edges", str(synth_dir / "truth.json"),
            "--epochs", "2", "--batch", "64", "--edge-dim", "4",
            "--interaction-dim", "4", "--hidden-dim", "8", "--seed", "3",
        ]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["mode"] == "sign-fixed"


def test_gradcheck_passes_at_default_tolerance(capsys):
    rc = cli.main(["gradcheck", "--instances", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max relative error" in out and "ok" in out


def test_gradcheck_fails_at_impossible_tolerance(capsys):
    rc = cli.main(["gradcheck", "--instances", "3", "--seed", "1", "--tol", "1e-15"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("vocab=9\nsamples=50\n# comment\n\nnodes-per-sample=3\npairs=2\n")
    out_a = tmp_path / "a"
    rc = cli.main(["synth", "--out", str(out_a), "--config", str(cfg)])
    assert rc == 0
    assert (out_a / "data.txt").read_text().startswith("vocab_size=9\n")

    out_b = tmp_path / "b"
    rc = cli.main(["synth", "--out", str(out_b), "--config", str(cfg), "--vocab", "11"])
    assert rc == 0
    assert (out_b / "data.txt").read_text().startswith("vocab_size=11\n")


def test_config_file_bad_line_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("vocab=9\nnot a pair\n")
    rc = cli.main(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "line 2" in err


def test_config_value_of_the_wrong_type_names_key_and_file(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=3.5\n")
    rc = cli.main(["train", "--data", str(synth_dir / "data.txt"),
                   "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "epochs" in err and str(cfg) in err and "'3.5'" in err


def test_bad_data_header_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "data.txt"
    path.write_text("vocab_size=abc\n1 0 1\n0 1 2\n")
    rc = cli.main(["train", "--data", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err and "line 1" in err


def test_feature_beyond_declared_vocab_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "data.txt"
    path.write_text("vocab_size=3\n1 0 5\n")
    rc = cli.main(["train", "--data", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err and "line 2" in err and "feature index 5" in err


def test_missing_data_file_reports_error(tmp_path, capsys):
    rc = cli.main(
        ["train", "--data", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["eval", "explain", "ablate"])
def test_checkpoint_with_smaller_vocabulary_is_one_error_line(tmp_path, capsys, command):
    params = ModelParams.random(
        ModelConfig(vocab_size=5, edge_dim=2, interaction_dim=2, hidden_dim=2), seed=0
    )
    model.save_checkpoint(tmp_path / "small.ckpt", params, seed=0)
    lines = ["vocab_size=10"] + [f"{n % 2} {n % 4} 9" for n in range(40)]
    (tmp_path / "data.txt").write_text("\n".join(lines) + "\n")
    argv = [command, "--data", str(tmp_path / "data.txt"),
            "--checkpoint", str(tmp_path / "small.ckpt")]
    if command != "eval":
        argv += ["--out", str(tmp_path / "out")]
    rc = cli.main(argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "feature id 9" in err and "5 features" in err


def _drop_model(header: bytes) -> bytes:
    payload = json.loads(header)
    del payload["model"]
    return json.dumps(payload).encode()


def _embedding_shape(shape):
    def edit(header: bytes) -> bytes:
        payload = json.loads(header)
        payload["params"][0]["shape"] = shape
        return json.dumps(payload).encode()
    return edit


@pytest.mark.parametrize("edit, names", [
    (_embedding_shape([4, 10]), "'node_embed' has shape [4, 10]"),
    (_embedding_shape([40]), "'node_embed' has shape [40]"),
    (_embedding_shape([-10, 4]), "'node_embed' has shape [-10, 4]"),
    (lambda header: b"not a header", "Expecting value"),
    (lambda header: b"\xff\xfe" + header, "decode"),
    (_drop_model, "no 'model' entry"),
], ids=["transposed", "flattened", "negative", "not-json", "not-utf8", "no-model"])
def test_bad_checkpoint_header_is_one_error_line(synth_dir, tmp_path, capsys, edit, names):
    params = ModelParams.random(
        ModelConfig(vocab_size=10, edge_dim=4, interaction_dim=4, hidden_dim=8), seed=0
    )
    path = tmp_path / "bad.ckpt"
    model.save_checkpoint(path, params, seed=0)
    header, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(edit(header) + b"\n" + body)
    for command in ("eval", "explain"):
        argv = [command, "--data", str(synth_dir / "data.txt"), "--checkpoint", str(path)]
        if command == "explain":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert names in err


@pytest.mark.parametrize("content, names", [
    (b'{"foo": 1}', 'an object with a "pairs" list'),
    (b'[["a", 2]]', 'an object with a "pairs" list'),
    (b'{"pairs": [[1]]}', "pairs[0] is [1],"),
    (b'{"pairs": [[0, 1], ["a", 2]]}', 'pairs[1] is ["a", 2],'),
    (b'{"pairs": [[0, -1]]}', "pairs[0] is [0, -1],"),
    (b"0 1\n", "not JSON"),
    (b'\xff{"pairs": []}', "not JSON"),
], ids=["no-pairs", "top-level-list", "short-pair", "non-integer-id", "negative-id",
        "not-json", "not-utf8"])
def test_bad_edge_set_is_one_error_line(synth_dir, tmp_path, capsys, content, names):
    path = tmp_path / "edges.json"
    path.write_bytes(content)
    rc = cli.main(["train", "--data", str(synth_dir / "data.txt"), "--out", str(tmp_path / "o"),
                   "--mode", "sign-fixed", "--edges", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: edge set {path}") and err.count("\n") == 1
    assert names in err


def test_unknown_config_key_is_one_error_line(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\nepoch=1\nlambda_1=0.5\n")
    rc = cli.main(["train", "--data", str(synth_dir / "data.txt"),
                   "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(cfg) in err and "line 2" in err and "'epoch'" in err


def test_train_rejects_single_class_validation_split(tmp_path, capsys):
    lines = ["vocab_size=6"] + [f"1 {n % 5} 5" for n in range(40)]
    (tmp_path / "data.txt").write_text("\n".join(lines) + "\n")
    rc = cli.main(["train", "--data", str(tmp_path / "data.txt"),
                   "--out", str(tmp_path / "o"), "--epochs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "only label 1" in err and err.count("\n") == 1


def test_unknown_command_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_eval_binary_gates_flag_is_recorded(synth_dir, trained_dir, tmp_path, capsys):
    rc = cli.main(
        [
            "eval", "--data", str(synth_dir / "data.txt"),
            "--checkpoint", str(trained_dir / "model.ckpt"),
            "--split-name", "valid", "--seed", "3", "--binary-gates",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["binary_gates"] is True


@pytest.mark.parametrize("flags, name", [
    (["--lr", "nan"], "lr"),
    (["--lambda1", "nan"], "lambda1"),
    (["--initial-accumulator", "nan"], "initial_accumulator"),
    (["--lr", "inf"], "lr"),
    (["--threshold", "nan"], "threshold"),
])
def test_train_rejects_non_finite_float_flag(synth_dir, tmp_path, capsys, flags, name):
    out = tmp_path / "o"
    rc = cli.main(train_argv(synth_dir, out) + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be a finite number") and err.count("\n") == 1
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("flags, message", [
    (["--batch", "0"], "batch_size must be at least 1, got 0"),
    (["--epochs", "0"], "epochs must be at least 1, got 0"),
])
def test_train_names_the_setting_below_one(synth_dir, tmp_path, capsys, flags, message):
    out = tmp_path / "o"
    rc = cli.main(train_argv(synth_dir, out) + flags)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "model.ckpt").exists()


def test_non_finite_config_value_names_key_and_file(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("lr=nan\n")
    out = tmp_path / "o"
    rc = cli.main(train_argv(synth_dir, out) + ["--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: config file {cfg}: lr must be a finite number, got nan\n"
    assert not (out / "model.ckpt").exists()


def test_eval_rejects_non_finite_threshold(synth_dir, trained_dir, capsys):
    rc = cli.main(["eval", "--data", str(synth_dir / "data.txt"),
                   "--checkpoint", str(trained_dir / "model.ckpt"), "--threshold", "nan"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: threshold must be a finite number") and err.count("\n") == 1


@pytest.mark.parametrize("count", ["0", "-1"])
def test_explain_rejects_count_below_one(synth_dir, trained_dir, tmp_path, capsys, count):
    rc = cli.main(["explain", "--data", str(synth_dir / "data.txt"),
                   "--checkpoint", str(trained_dir / "model.ckpt"),
                   "--count", count, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: count must be at least 1, got {count}\n"
    assert not (tmp_path / "explanations.json").exists()


def test_gradcheck_rejects_zero_instances(capsys):
    rc = cli.main(["gradcheck", "--instances", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: instances must be at least 1, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags, message", [
    (["--repeats", "0"], "repeats must be at least 1, got 0"),
    (["--ratios", "0.2,0.4,1.5"], "ratios must lie in (0, 1], got 1.5"),
    (["--ratios", "0.5,nan"], "ratios must lie in (0, 1], got nan"),
    (["--ablate-epochs", "0"], "ablation epochs must be at least 1, got 0"),
])
def test_ablate_rejects_bad_settings_before_retraining(
    synth_dir, trained_dir, tmp_path, capsys, monkeypatch, flags, message
):
    monkeypatch.setattr(train, "fit", lambda *a, **k: pytest.fail("ablate retrained first"))
    rc = cli.main(["ablate", "--data", str(synth_dir / "data.txt"),
                   "--checkpoint", str(trained_dir / "model.ckpt"),
                   "--out", str(tmp_path), "--seed", "3"] + flags)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "ablation.csv").exists()
