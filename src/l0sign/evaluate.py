"""Metrics, edge reports, planted-pair recovery, and explanations.

Raw scores are thresholded at 0 for accuracy/F1 (the model is trained on
-1/+1 targets, so 0 is the decision boundary); AUC is the exact rank-sum
statistic with midrank tie handling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gates, model as model_mod
from .data import Dataset, Instance, PlantedPairs
from .model import ModelParams


def _as_binary_labels(labels) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"labels must be a non-empty 1-d array, got shape {arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("labels must be 0/1")
    return arr.astype(np.int64)


def auc(labels, scores) -> float:
    """Area under the ROC curve via the rank-sum statistic; ties get
    midranks. Raises when only one class is present."""
    y = _as_binary_labels(labels)
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != y.shape:
        raise ValueError(f"scores shape {s.shape} does not match labels {y.shape}")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: labels contain a single class")
    order = np.argsort(s, kind="mergesort")
    sorted_scores = s[order]
    # tie blocks of the sorted scores; block [first, stop) gets the midrank
    # of ranks first + 1 .. stop (NaN equals nothing, so each NaN is a block)
    new = np.ones(y.size, dtype=bool)
    new[1:] = sorted_scores[1:] != sorted_scores[:-1]
    first = np.flatnonzero(new)
    stop = np.append(first[1:], y.size)
    ranks = np.empty(y.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + 1 + stop), stop - first)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(labels, scores, threshold: float = 0.0) -> float:
    y = _as_binary_labels(labels)
    s = np.asarray(scores, dtype=np.float64)
    return float(((s > threshold).astype(np.int64) == y).mean())


def f1_flagged(labels, scores, threshold: float = 0.0) -> tuple[float, bool]:
    """(F1, defined). Undefined (returned as 0, False) when there are no
    predicted positives and no true positives to relate."""
    y = _as_binary_labels(labels)
    pred = np.asarray(scores, dtype=np.float64) > threshold
    tp = int(np.sum(pred & (y == 1)))
    fp = int(np.sum(pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))
    if tp == 0 and fp == 0 and fn == 0:
        return 0.0, False
    if tp == 0:
        return 0.0, True
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall), True


def f1(labels, scores, threshold: float = 0.0) -> float:
    return f1_flagged(labels, scores, threshold)[0]


@dataclass(frozen=True)
class Metrics:
    auc: float
    acc: float
    f1: float
    f1_defined: bool
    n_samples: int


def compute_metrics(labels, scores, threshold: float = 0.0) -> Metrics:
    f1_value, defined = f1_flagged(labels, scores, threshold)
    return Metrics(
        auc=auc(labels, scores),
        acc=accuracy(labels, scores, threshold),
        f1=f1_value,
        f1_defined=defined,
        n_samples=len(np.asarray(labels)),
    )


def score_dataset(
    dataset: Dataset, params: ModelParams, *, binary_gates: bool = False
) -> np.ndarray:
    """Raw scores for every instance; graded deterministic gates by default,
    thresholded 0/1 gates when `binary_gates` is set."""
    return model_mod.score_many(dataset, params, binary_gates=binary_gates)


def evaluate_dataset(
    dataset: Dataset,
    params: ModelParams,
    threshold: float = 0.0,
    *,
    binary_gates: bool = False,
) -> Metrics:
    scores = score_dataset(dataset, params, binary_gates=binary_gates)
    return compute_metrics(dataset.labels(), scores, threshold)


# ---------------------------------------------------------------------------
# Edge-level reporting.

def pair_table(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, count) arrays of the unordered feature pairs that co-occur in
    the dataset, in ascending (i, j) order: count is how many instances
    contain the pair (self-pairs included: a feature co-occurs with itself
    whenever it appears).

    Each pair occurs at most once per instance, so this counts the pair
    codes of the engine's slots."""
    codes = [np.empty(0, dtype=np.int64)]
    codes.extend(layout.pair_codes() for _, layout in model_mod.chunk_layouts(dataset.columns))
    distinct, counts = np.unique(np.concatenate(codes), return_counts=True)
    i, j = model_mod.code_pairs(distinct)
    return i, j, counts


def co_occurring_pairs(dataset: Dataset) -> Counter:
    """`pair_table` as a Counter keyed by (i, j)."""
    i, j, counts = pair_table(dataset)
    return Counter(dict(zip(zip(i.tolist(), j.tolist()), counts.tolist())))


@dataclass(frozen=True)
class EdgeStat:
    i: int
    j: int
    gate: float
    count: int


@dataclass(frozen=True)
class EdgeReport:
    entries: tuple[EdgeStat, ...]
    open_fraction: float
    threshold: float


def edge_report(dataset: Dataset, params: ModelParams, threshold: float = 0.5) -> EdgeReport:
    """Deterministic gate value and instance count per co-occurring pair,
    plus the fraction counted open at `threshold`."""
    i, j, counts = pair_table(dataset)
    gate = gates.eval_deterministic(model_mod.edge_logit(i, j, params), params.config.gate)
    entries = tuple(map(EdgeStat, i.tolist(), j.tolist(), gate.tolist(), counts.tolist()))
    return EdgeReport(
        entries=entries,
        open_fraction=float(np.mean(gate > threshold)) if entries else 0.0,
        threshold=threshold,
    )


@dataclass(frozen=True)
class RecoveryReport:
    precision: float
    recall: float
    f1: float
    predicted: tuple[tuple[int, int], ...]
    universe_size: int


def edge_recovery(
    dataset: Dataset,
    params: ModelParams,
    planted: PlantedPairs | Sequence[tuple[int, int]],
    threshold: float = 0.5,
) -> RecoveryReport:
    """Score predicted edges against planted pairs.

    The universe is the dataset's co-occurring off-diagonal pairs (planted
    pairs are never self-pairs); predicted = deterministic gate > threshold.
    """
    truth_pairs = planted.pairs if isinstance(planted, PlantedPairs) else tuple(planted)
    truth = {(min(i, j), max(i, j)) for i, j in truth_pairs}
    if not truth:
        raise ValueError("edge_recovery needs a non-empty planted set")
    i, j, _ = pair_table(dataset)
    off = i != j
    i, j = i[off], j[off]
    gate = gates.eval_deterministic(model_mod.edge_logit(i, j, params), params.config.gate)
    is_open = gate > threshold
    universe = set(zip(i.tolist(), j.tolist()))
    predicted = tuple(zip(i[is_open].tolist(), j[is_open].tolist()))
    truth_in_universe = truth & universe
    tp = len(truth_in_universe.intersection(predicted))
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(truth_in_universe) if truth_in_universe else 0.0
    f1_value = (
        2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    )
    return RecoveryReport(
        precision=precision,
        recall=recall,
        f1=f1_value,
        predicted=predicted,
        universe_size=len(universe),
    )


# ---------------------------------------------------------------------------
# Per-instance explanations.

@dataclass(frozen=True)
class ExplanationEntry:
    i: int
    j: int
    gate: float
    contribution: float


@dataclass(frozen=True)
class Explanation:
    instance_id: int | None
    score: float
    entries: tuple[ExplanationEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance_id,
            "score": self.score,
            "pairs": [
                {"i": e.i, "j": e.j, "gate": e.gate, "contribution": e.contribution}
                for e in self.entries
            ],
        }


def explain(
    instance: Instance, params: ModelParams, instance_id: int | None = None
) -> Explanation:
    """Decompose the deterministic-gate score into per-pair contributions.

    Every pair with a strictly positive gate is listed, largest
    |contribution| first and ties in slot order; the contributions sum to
    the raw score exactly (pairs with gate 0 contribute exactly 0). Reads
    the pairs from one engine trace and builds objects only for the listed
    ones.
    """
    trace = model_mod.forward(instance, params)
    i, j, gate, contribution = model_mod.slot_columns(trace, params)
    kept = np.flatnonzero(gate > 0.0)
    kept = kept[np.argsort(-np.abs(contribution[kept]), kind="stable")]
    entries = tuple(map(ExplanationEntry, i[kept].tolist(), j[kept].tolist(),
                        gate[kept].tolist(), contribution[kept].tolist()))
    return Explanation(instance_id=instance_id, score=trace.score, entries=entries)
