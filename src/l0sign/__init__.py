"""Gated feature-interaction models over per-sample feature graphs.

Each sample's active features become graph nodes; every unordered feature
pair carries a learned relevance gate and an interaction vector. Gates are
trained with a relaxed discrete penalty so the model keeps only pairs whose
interaction helps classification, and kept pairs double as per-prediction
explanations.
"""

from .data import (
    Dataset,
    Instance,
    PlantedPairs,
    SplitSpec,
    generate_synthetic,
    load_dataset,
    make_instance,
    save_dataset,
    split,
)
from .evaluate import (
    Explanation,
    Metrics,
    accuracy,
    auc,
    compute_metrics,
    edge_recovery,
    edge_report,
    evaluate_dataset,
    explain,
    f1,
)
from .gates import GateConfig, NoiseStream, eval_deterministic, open_probability
from .model import (
    ModelConfig,
    ModelParams,
    Prediction,
    forward,
    load_checkpoint,
    predict,
    predict_fixed,
    save_checkpoint,
)
from .train import FitResult, TrainConfig, fit, instance_grad_check, risk, run_ablation

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Explanation",
    "FitResult",
    "GateConfig",
    "Instance",
    "Metrics",
    "ModelConfig",
    "ModelParams",
    "NoiseStream",
    "PlantedPairs",
    "Prediction",
    "SplitSpec",
    "TrainConfig",
    "accuracy",
    "auc",
    "compute_metrics",
    "edge_recovery",
    "edge_report",
    "eval_deterministic",
    "evaluate_dataset",
    "explain",
    "f1",
    "fit",
    "forward",
    "generate_synthetic",
    "instance_grad_check",
    "load_checkpoint",
    "load_dataset",
    "make_instance",
    "open_probability",
    "predict",
    "predict_fixed",
    "risk",
    "run_ablation",
    "save_checkpoint",
    "save_dataset",
    "split",
]
