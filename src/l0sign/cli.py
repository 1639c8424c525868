"""Command-line interface: synth, train, eval, ablate, explain, gradcheck.

Settings resolve in precedence order: explicit flags, then a flat
`key=value` config file (--config), then built-in defaults. Every command
exits 0 on success and 1 with a one-line reason on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data as data_mod, evaluate, model as model_mod, train as train_mod
from .data import Dataset, PlantedPairs, SplitSpec
from .model import ModelConfig, ModelParams
from .train import TrainConfig

# setting key -> the TrainConfig / ModelConfig field it sets, and whose
# default it takes
_TRAIN_KEYS = {
    "seed": "seed",
    "lr": "lr",
    "batch": "batch_size",
    "epochs": "epochs",
    "lambda1": "lambda1",
    "lambda2": "lambda2",
    "initial_accumulator": "initial_accumulator",
    "mode": "mode",
    "embedding_update": "embedding_update",
    "threshold": "gate_threshold",
}
_MODEL_KEYS = {"edge_dim": "edge_dim", "interaction_dim": "interaction_dim",
              "hidden_dim": "hidden_dim"}


def _field_defaults(cls, keys: dict[str, str]) -> dict:
    default = {f.name: f.default for f in fields(cls)}
    return {key: default[name] for key, name in keys.items()}


DEFAULTS = {
    **_field_defaults(TrainConfig, _TRAIN_KEYS),
    **_field_defaults(ModelConfig, _MODEL_KEYS),
    "split": "0.7,0.15,0.15",
    "split_name": "test",
    "ratios": "0.2,0.4,0.6,0.8,1.0",
    "vocab": 20,
    "samples": 5000,
    "nodes_per_sample": 6,
    "pairs": 5,
    "noise": 0.05,
    "repeats": 5,
    "count": 20,
    "instances": 20,
    "epsilon": 1e-5,
    "tol": 1e-4,
}


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; blank lines ignored.
    Every key must be a setting of DEFAULTS."""
    out: dict[str, str] = {}
    for n, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"config file {path} line {n}: expected key=value, got {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in DEFAULTS:
            raise ValueError(f"config file {path} line {n}: unknown key {key!r}")
        out[key] = value.strip()
    return out


class Settings:
    """Flag > config file > default, coerced to the default's type. A float
    setting must be finite, wherever it comes from."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.file_cfg = parse_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str):
        default = DEFAULTS[key]
        value, where = getattr(self.args, key, None), ""
        if value is None:
            if key not in self.file_cfg:
                return default
            raw, where = self.file_cfg[key], f"config file {self.args.config}: "
            if isinstance(default, str):
                return raw
            try:
                value = type(default)(raw)
            except ValueError:
                raise ValueError(
                    f"{where}{key}={raw!r} is not a valid {type(default).__name__}"
                ) from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{where}{key} must be a finite number, got {value}")
        return value


def _parse_floats(text: str, expect: int | None = None, name: str = "list") -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"cannot parse {name} {text!r}")
    if expect is not None and len(values) != expect:
        raise ValueError(f"{name} needs {expect} comma-separated values, got {text!r}")
    return values


def load_edge_set(path) -> frozenset[tuple[int, int]]:
    """Edge list JSON: {"pairs": [[i, j], ...]} with non-negative integer
    feature ids; extra keys are ignored, so a synthetic ground-truth file
    works directly."""
    try:
        payload = json.loads(Path(path).read_bytes())
    except ValueError as exc:  # also bad UTF-8
        raise ValueError(f"edge set {path} is not JSON: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("pairs"), list):
        raise ValueError(f'edge set {path}: expected an object with a "pairs" list')
    for n, pair in enumerate(payload["pairs"]):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(v) is int and v >= 0 for v in pair)):
            raise ValueError(
                f"edge set {path}: pairs[{n}] is {json.dumps(pair)}, not two feature ids"
            )
    return frozenset((i, j) for i, j in payload["pairs"])


def _split_spec(settings: Settings) -> SplitSpec:
    fr = _parse_floats(settings.get("split"), expect=3, name="split")
    return SplitSpec(train=fr[0], valid=fr[1], test=fr[2], seed=settings.get("seed"))


def _load_and_split(
    settings: Settings, params: ModelParams | None = None
) -> tuple[Dataset, Dataset, Dataset, Dataset]:
    """Load and split --data; with a checkpoint's `params`, first check that
    the checkpoint embeds every feature id of the data."""
    dataset = data_mod.load_dataset(settings.args.data)
    if params is not None:
        model_mod.check_vocabulary(params, dataset)
    train_ds, valid_ds, test_ds = data_mod.split(dataset, _split_spec(settings))
    return dataset, train_ds, valid_ds, test_ds


def _pick_split(settings: Settings, params: ModelParams) -> Dataset:
    dataset, train_ds, valid_ds, test_ds = _load_and_split(settings, params)
    name = settings.get("split_name")
    table = {"train": train_ds, "valid": valid_ds, "test": test_ds, "all": dataset}
    if name not in table:
        raise ValueError(f"split name must be one of {sorted(table)}, got {name!r}")
    return table[name]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _train_config(settings: Settings, fixed_edges=None) -> TrainConfig:
    return TrainConfig(
        fixed_edges=fixed_edges,
        **{name: settings.get(key) for key, name in _TRAIN_KEYS.items()},
    )


def _model_config(settings: Settings, vocab_size: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size, **{name: settings.get(key) for key, name in _MODEL_KEYS.items()}
    )


def cmd_synth(args) -> int:
    settings = Settings(args)
    out = _out_dir(args)
    seed = settings.get("seed")
    pairs = data_mod.draw_planted_pairs(settings.get("vocab"), settings.get("pairs"), seed)
    dataset = data_mod.generate_synthetic(
        vocab_size=settings.get("vocab"),
        n_samples=settings.get("samples"),
        nodes_per_sample=settings.get("nodes_per_sample"),
        planted_pairs=pairs,
        noise_rate=settings.get("noise"),
        seed=seed,
    )
    data_path = out / "data.txt"
    truth_path = out / "truth.json"
    data_mod.save_dataset(dataset, data_path)
    dataset.planted.save(truth_path)
    print(f"wrote {len(dataset)} instances to {data_path}")
    print(f"wrote ground truth ({len(pairs)} pairs) to {truth_path}")
    return 0


def cmd_train(args) -> int:
    settings = Settings(args)
    out = _out_dir(args)
    _, train_ds, valid_ds, test_ds = _load_and_split(settings)
    fixed = load_edge_set(args.edges) if getattr(args, "edges", None) else None
    tcfg = _train_config(settings, fixed_edges=fixed)
    mcfg = _model_config(settings, train_ds.vocab_size)
    started = time.perf_counter()
    result = train_mod.fit(train_ds, valid_ds, mcfg, tcfg, verbose=True)
    elapsed = time.perf_counter() - started
    if not result.records:
        raise ValueError("training diverged before finishing a single epoch")

    ckpt = out / "model.ckpt"
    model_mod.save_checkpoint(
        ckpt, result.params, tcfg.seed,
        extra={"selected_epoch": result.selected_epoch, "mode": tcfg.mode},
    )
    train_mod.save_training_log(result.records, out / "training_log.csv")
    selected = result.records[result.selected_epoch - 1]
    test_metrics = evaluate.evaluate_dataset(test_ds, result.params)
    summary = {
        "selected_epoch": result.selected_epoch,
        "steady_selection": result.steady_selection,
        "diverged": result.diverged,
        "epochs_run": len(result.records),
        "valid_auc": selected.valid_auc,
        "valid_acc": selected.valid_acc,
        "open_gate_fraction": selected.open_gate_fraction,
        "test_auc": test_metrics.auc,
        "test_acc": test_metrics.acc,
        "seconds": elapsed,
        "seed": tcfg.seed,
        "mode": tcfg.mode,
        "model": mcfg.to_json_dict(),
        "train": {
            "lr": tcfg.lr, "batch_size": tcfg.batch_size, "epochs": tcfg.epochs,
            "lambda1": tcfg.lambda1, "lambda2": tcfg.lambda2,
            "embedding_update": tcfg.embedding_update,
        },
    }
    (out / "run_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"selected epoch {result.selected_epoch} "
        f"(steady={result.steady_selection}) valid auc {selected.valid_auc:.4f} "
        f"test auc {test_metrics.auc:.4f}"
    )
    print(f"checkpoint: {ckpt}")
    return 0


def cmd_eval(args) -> int:
    settings = Settings(args)
    params, _ = model_mod.load_checkpoint(args.checkpoint)
    part = _pick_split(settings, params)
    metrics = evaluate.evaluate_dataset(part, params, binary_gates=args.binary_gates)
    report = evaluate.edge_report(part, params, threshold=settings.get("threshold"))
    print(
        f"n {metrics.n_samples}  auc {metrics.auc:.6f}  acc {metrics.acc:.6f}  "
        f"f1 {metrics.f1:.6f}{'' if metrics.f1_defined else ' (undefined)'}  "
        f"open-gate fraction {report.open_fraction:.4f}"
    )
    if getattr(args, "out", None):
        out = _out_dir(args)
        payload = {
            "n": metrics.n_samples,
            "auc": metrics.auc,
            "acc": metrics.acc,
            "f1": metrics.f1,
            "f1_defined": metrics.f1_defined,
            "binary_gates": args.binary_gates,
            "open_gate_fraction": report.open_fraction,
            "threshold": report.threshold,
        }
        (out / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out / 'metrics.json'}")
    return 0


def cmd_ablate(args) -> int:
    settings = Settings(args)
    out = _out_dir(args)
    params, _ = model_mod.load_checkpoint(args.checkpoint)
    _, train_ds, valid_ds, test_ds = _load_and_split(settings, params)
    kwargs = {}
    if getattr(args, "ablate_epochs", None) is not None:
        kwargs["epochs"] = args.ablate_epochs
    rows = train_mod.run_ablation(
        train_ds, valid_ds, test_ds, params,
        _train_config(settings),
        ratios=_parse_floats(settings.get("ratios"), name="ratios"),
        repeats=settings.get("repeats"),
        threshold=settings.get("threshold"),
        **kwargs,
    )
    path = out / "ablation.csv"
    train_mod.save_ablation(rows, path)
    for row in rows:
        if row.repeat is None:
            print(f"{row.source:9s} ratio {row.ratio:.1f}  auc {row.auc:.4f}  acc {row.acc:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_explain(args) -> int:
    settings = Settings(args)
    count = settings.get("count")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    out = _out_dir(args)
    params, _ = model_mod.load_checkpoint(args.checkpoint)
    part = _pick_split(settings, params)
    count = min(count, len(part))
    explanations = [
        evaluate.explain(part.instances[n], params, instance_id=n) for n in range(count)
    ]
    path = out / "explanations.json"
    path.write_text(
        json.dumps([e.to_json_dict() for e in explanations], indent=2) + "\n"
    )
    shown = explanations[0] if explanations else None
    if shown is not None:
        print(f"instance 0: score {shown.score:+.4f}, {len(shown.entries)} open pair(s)")
        for entry in shown.entries[:5]:
            print(
                f"  ({entry.i}, {entry.j}) gate {entry.gate:.3f} "
                f"contribution {entry.contribution:+.5f}"
            )
    print(f"wrote {path}")
    return 0


def cmd_gradcheck(args) -> int:
    settings = Settings(args)
    seed = settings.get("seed")
    n_instances = settings.get("instances")
    if n_instances < 1:
        raise ValueError(f"instances must be at least 1, got {n_instances}")
    epsilon = settings.get("epsilon")
    tol = settings.get("tol")
    tcfg = TrainConfig(
        lambda1=settings.get("lambda1"),
        lambda2=settings.get("lambda2"),
        seed=seed,
    )
    vocab = 12
    mcfg = ModelConfig(vocab_size=vocab, edge_dim=4, interaction_dim=4, hidden_dim=8)
    worst = 0.0
    started = time.perf_counter()
    for case in range(n_instances):
        attempt = 0
        while True:
            rng = np.random.default_rng([seed, case, attempt])
            k = int(rng.integers(1, 7))
            ids = np.sort(rng.choice(vocab, size=k, replace=False))
            inst = data_mod.Instance(
                nodes=tuple(int(i) for i in ids),
                values=tuple(float(v) for v in rng.uniform(0.5, 1.5, size=k)),
                label=int(rng.integers(0, 2)),
            )
            params = ModelParams.random(mcfg, seed=int(rng.integers(0, 2**31)))
            # redraw rather than probe across a ReLU kink or clamp boundary
            if not train_mod.near_gradient_kink(
                inst, params, tcfg, sample_index=case, epsilon=epsilon
            ):
                break
            attempt += 1
            if attempt > 20:
                raise RuntimeError("could not draw a kink-free gradient-check case")
        err = train_mod.instance_grad_check(
            inst, params, tcfg, sample_index=case, epsilon=epsilon
        )
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    ok = worst <= tol
    print(
        f"gradcheck: {n_instances} instances, max relative error {worst:.3e} "
        f"(tolerance {tol:.1e}) in {elapsed:.2f}s -> {'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l0sign",
        description="Gated feature-interaction classifier over feature graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, data: bool = False, out: bool = False) -> None:
        if data:
            p.add_argument("--data", required=True, help="dataset text file")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--threshold", type=float, help="gate threshold for edge counting")

    p = sub.add_parser("synth", help="generate a planted-pair synthetic dataset")
    common(p, out=True)
    p.add_argument("--vocab", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--nodes-per-sample", dest="nodes_per_sample", type=int)
    p.add_argument("--pairs", type=int)
    p.add_argument("--noise", type=float)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model and write checkpoint + log")
    common(p, data=True, out=True)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument(
        "--initial-accumulator", dest="initial_accumulator", type=float,
        help="starting value of the per-coordinate squared-gradient sum",
    )
    p.add_argument("--mode", choices=train_mod.MODES)
    p.add_argument("--edges", help="edge list JSON for sign-fixed mode")
    p.add_argument("--split", help="train,valid,test fractions")
    p.add_argument("--edge-dim", dest="edge_dim", type=int)
    p.add_argument("--interaction-dim", dest="interaction_dim", type=int)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int)
    p.add_argument(
        "--embedding-update", dest="embedding_update",
        choices=("gradient", "algorithm-literal"),
    )
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    common(p, data=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", help="train,valid,test fractions")
    p.add_argument("--split-name", dest="split_name", choices=("train", "valid", "test", "all"))
    p.add_argument(
        "--binary-gates", dest="binary_gates", action="store_true",
        help="threshold gates to 0/1 instead of using graded values",
    )
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="predicted-vs-reversed edge-ratio ablation")
    common(p, data=True, out=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", help="train,valid,test fractions")
    p.add_argument("--ratios", help="comma-separated edge ratios")
    p.add_argument("--repeats", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--ablate-epochs", dest="ablate_epochs", type=int,
                   help="override epochs for the ablation retrains only")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("explain", help="export per-instance interaction explanations")
    common(p, data=True, out=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", help="train,valid,test fractions")
    p.add_argument("--split-name", dest="split_name", choices=("train", "valid", "test", "all"))
    p.add_argument("--count", type=int, help="how many instances to explain")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradient engine")
    common(p)
    p.add_argument("--instances", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
