#!/usr/bin/env python3
"""End-to-end planted-pair experiment: generate, train, evaluate, ablate, explain.

Produces one self-contained run directory:

    data.txt, truth.json        the dataset and its hidden pair weights
    model.ckpt                  selected checkpoint
    training_log.csv            per-epoch risk / AUC / open-gate fraction
    run_summary.json            selection and test metrics
    metrics.json                test-split metrics for the checkpoint
    ablation.csv                predicted-vs-reversed edge-ratio sweep
    explanations.json           per-instance pair contributions
    recovery.json               planted-pair recovery of the learned gates

Every stage goes through the command-line entry points, so this script doubles
as a usage example; only the recovery report reaches into the library.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from l0sign import cli, data, evaluate, model

# the synth settings this script passes on; their defaults are the CLI's
SYNTH_KEYS = ("vocab", "samples", "nodes_per_sample", "pairs", "noise")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/synthetic", help="run directory")
    ap.add_argument("--data-seed", type=int, default=1087, help="generator draw")
    ap.add_argument("--seed", type=int, default=3, help="training seed")
    for key in SYNTH_KEYS:
        default = cli.DEFAULTS[key]
        ap.add_argument(cli.flag(key), dest=key, type=type(default), default=default)
    ap.add_argument("--epochs", type=int, default=None, help="override the default")
    ap.add_argument("--skip-ablation", action="store_true")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_file = out / "data.txt"
    seed = str(args.seed)

    stages: list[list[str]] = [
        ["synth", "--out", str(out)]
        + [arg for key in SYNTH_KEYS for arg in (cli.flag(key), str(getattr(args, key)))]
        + ["--seed", str(args.data_seed)],
        [
            "train", "--data", str(data_file), "--out", str(out), "--seed", seed,
        ]
        + (["--epochs", str(args.epochs)] if args.epochs is not None else []),
        [
            "eval", "--data", str(data_file), "--checkpoint", str(out / "model.ckpt"),
            "--split-name", "test", "--seed", seed, "--out", str(out),
        ],
        [
            "explain", "--data", str(data_file), "--checkpoint", str(out / "model.ckpt"),
            "--split-name", "test", "--count", "20", "--seed", seed,
            "--out", str(out),
        ],
    ]
    if not args.skip_ablation:
        stages.append(
            [
                "ablate", "--data", str(data_file),
                "--checkpoint", str(out / "model.ckpt"),
                "--out", str(out), "--seed", seed,
            ]
        )

    for argv in stages:
        print(f"+ l0sign {' '.join(argv)}", flush=True)
        rc = cli.main(argv)
        if rc != 0:
            return rc

    dataset = data.load_dataset(data_file)
    truth = data.PlantedPairs.load(out / "truth.json")
    params, _ = model.load_checkpoint(out / "model.ckpt")
    recovery = evaluate.edge_recovery(dataset, params, truth)
    payload = {
        "precision": recovery.precision,
        "recall": recovery.recall,
        "f1": recovery.f1,
        "predicted": sorted(recovery.predicted),
        "planted": [list(p) for p in truth.pairs],
    }
    (out / "recovery.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"planted-pair recovery: precision {recovery.precision:.2f} "
        f"recall {recovery.recall:.2f} F1 {recovery.f1:.3f}"
    )
    print(f"artifacts in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
