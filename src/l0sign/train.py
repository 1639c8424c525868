"""Risk, optimizer, training loop, model selection, and the edge ablation.

The training objective over a batch is the mean per-instance risk
    loss + lambda1 * sum_pairs P(gate > 0) + lambda2 * sum_pairs sum_k z_k^2
with the logistic loss log(1 + exp(-y~ * score)), y~ in {-1, +1}. Sums run
over the instance's unordered pair universe (self-pairs included). Gates
are stochastic during gradient steps and noise-free for validation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import evaluate, gates, model as model_mod, numcore as nc
from .data import Dataset, Instance, columns_of
from .gates import NoiseStream
from .model import ModelConfig, ModelParams

MODES = ("l0sign", "sign-complete", "sign-fixed")

# Epoch selection ranks steady epochs first (see `_steady`).
STEADY_WINDOW = 3
STEADY_TOLERANCE = 0.01


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    batch_size: int = 1024
    epochs: int = 60
    lambda1: float = 1e-3
    lambda2: float = 1e-3
    initial_accumulator: float = 1e-6
    mode: str = "l0sign"
    fixed_edges: frozenset[tuple[int, int]] | None = None
    embedding_update: str = "gradient"  # or "algorithm-literal"
    seed: int = 0
    gate_threshold: float = 0.5  # open-gate counting threshold for the log

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        for name, value in (("batch_size", self.batch_size), ("epochs", self.epochs)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        for name in ("lambda1", "lambda2", "initial_accumulator"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        if not math.isfinite(self.gate_threshold):
            raise ValueError(f"gate_threshold must be finite, got {self.gate_threshold}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "sign-fixed" and self.fixed_edges is None:
            raise ValueError("sign-fixed mode needs fixed_edges")
        if self.embedding_update not in ("gradient", "algorithm-literal"):
            raise ValueError(f"unknown embedding_update {self.embedding_update!r}")


@dataclass(frozen=True)
class RiskBreakdown:
    """Batch-mean risk and its three parts."""

    total: float
    loss: float
    l0: float
    l2: float


def _pinned(layout: model_mod.PairLayout, tcfg: TrainConfig) -> np.ndarray | None:
    """Per-slot gate values of a pinned mode (all pairs for sign-complete);
    None in l0sign mode, whose gates come from the edge MLP."""
    if tcfg.mode == "l0sign":
        return None
    if tcfg.mode == "sign-complete":
        return np.ones(layout.slot_i.shape[0])
    return model_mod.pinned_edges(layout, model_mod.edge_codes(tcfg.fixed_edges))


def risk(
    instances: Dataset | Sequence[Instance],
    params: ModelParams,
    tcfg: TrainConfig,
    *,
    rows: np.ndarray | None = None,
    noise: np.ndarray | None = None,
    accumulate_grads: bool = True,
    node_update_sink: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> RiskBreakdown:
    """Mean risk over a batch, the rows `rows` of `instances` in that order
    (default: all of them); gradients are added to the parameter store when
    `accumulate_grads` is set.

    The batch's layouts are gathered from the columns of `instances` (see
    `Dataset.columns`) and run through the engine in consecutive chunks of
    at most `model.CHUNK_SLOTS` pair slots. `noise` holds the batch's
    per-slot gate uniforms in slot order (see `NoiseStream.uniforms`):
    "l0sign" gates are stochastic when it is given and noise-free
    otherwise. The pinned modes ignore it, skip the edge side entirely and
    drop the L0 term. `node_update_sink` collects (node ids, v') per
    instance, in batch order, for the literal embedding update.
    """
    columns = columns_of(instances)
    if rows is None:
        rows = np.arange(columns.counts.shape[0])
    if rows.shape[0] == 0:
        raise ValueError("risk over an empty batch")
    if noise is not None:
        n_slots = int(model_mod.pair_count(columns.counts[rows]).sum())
        if noise.shape != (n_slots,):
            raise nc.ShapeError(f"noise shape {noise.shape}, the batch has {n_slots} pair slots")
    signed_labels = 2.0 * columns.labels[rows] - 1.0
    gate_cfg = params.config.gate
    inv = 1.0 / rows.shape[0]
    first_slot = 0
    loss_sum = l0_sum = l2_sum = 0.0
    for start, layout in model_mod.chunk_layouts(columns, rows):
        n_slots = layout.slot_i.shape[0]
        u = None if noise is None else noise[first_slot : first_slot + n_slots]
        trace = model_mod.forward_batch(layout, params, noise=u, pinned_edges=_pinned(layout, tcfg))

        signed = signed_labels[start : start + layout.counts.shape[0]]
        margin = signed * trace.scores
        loss_sum += float(np.logaddexp(0.0, -margin).sum())
        l2_sum += float((trace.interactions**2).sum())
        if tcfg.mode == "l0sign":
            l0_sum += float(np.sum(gates.open_probability(trace.log_alpha, gate_cfg)))

        if node_update_sink is not None:
            bounds = np.cumsum(layout.counts)[:-1]
            node_update_sink.extend(
                zip(np.split(layout.ids, bounds), np.split(trace.node_update, bounds))
            )

        if accumulate_grads:
            d_score = -signed * nc.sigmoid(-margin) * inv
            d_inter = (2.0 * tcfg.lambda2 * inv) * trace.interactions
            d_la = None
            if tcfg.mode == "l0sign":
                d_la = (tcfg.lambda1 * inv) * gates.open_probability_grad(
                    trace.log_alpha, gate_cfg
                )
            model_mod.backward(
                trace, params, d_score, d_interactions=d_inter, d_log_alpha=d_la
            )
        first_slot += n_slots

    loss_mean = loss_sum * inv
    l0_mean = l0_sum * inv
    l2_mean = l2_sum * inv
    total = loss_mean + tcfg.lambda1 * l0_mean + tcfg.lambda2 * l2_mean
    return RiskBreakdown(total=total, loss=loss_mean, l0=l0_mean, l2=l2_mean)


class Adagrad:
    """Deterministic per-parameter accumulated-squared-gradient descent:
    G += g^2; p -= lr * g / (sqrt(G) + eps).

    G starts at `initial_accumulator` rather than zero. With a zero start
    the first step of every coordinate is +-lr regardless of its gradient
    magnitude, so any tiny-but-consistent gradient (such as the gate
    penalty) marches its coordinates as fast as the real loss signal; a
    nonzero floor keeps early steps proportional to gradient size.
    """

    def __init__(self, store: nc.ParamStore, lr: float, eps: float = 1e-10,
                 initial_accumulator: float = 1e-6,
                 frozen: Iterable[str] = ()) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        if initial_accumulator < 0:
            raise ValueError("initial_accumulator must be non-negative")
        self.store = store
        self.lr = float(lr)
        self.eps = float(eps)
        self.initial_accumulator = float(initial_accumulator)
        self.frozen = frozenset(frozen)
        self.accum = {
            name: np.full_like(store.value(name), self.initial_accumulator)
            for name in store.names()
        }

    def step(self) -> None:
        for name in self.store.names():
            if name in self.frozen:
                continue
            g = self.store.grad(name)
            acc = self.accum[name]
            acc += g * g
            self.store.value(name)[...] -= self.lr * g / (np.sqrt(acc) + self.eps)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_risk: float
    valid_auc: float
    valid_acc: float
    open_gate_fraction: float


@dataclass
class FitResult:
    params: ModelParams  # selected checkpoint
    records: list[EpochRecord]
    selected_epoch: int
    steady_selection: bool  # False when the global-best fallback fired
    diverged: bool


def _check_validation_split(valid: Dataset) -> np.ndarray:
    """Labels of the validation split, which epoch selection ranks by AUC;
    raises before any training when it cannot."""
    if len(valid) == 0:
        raise ValueError("the validation split is empty")
    labels = valid.labels()
    if labels.min() == labels.max():
        raise ValueError(
            f"the validation split holds only label {labels[0]}; "
            "epoch selection by AUC needs both classes"
        )
    return labels


def _validate(valid: Dataset, params: ModelParams, tcfg: TrainConfig) -> tuple[np.ndarray, float]:
    """Noise-free scores of the validation set and the fraction of its pair
    slots whose deterministic gate (pinned value in the pinned modes)
    exceeds the report threshold, from one engine pass per chunk."""
    scores = np.empty(len(valid))
    open_count = total = 0
    # gathered anew every epoch: the gathers are cheap, and layouts kept
    # for the whole fit would raise its peak memory
    for start, layout in model_mod.chunk_layouts(valid.columns):
        trace = model_mod.forward_batch(layout, params, pinned_edges=_pinned(layout, tcfg))
        scores[start : start + trace.scores.shape[0]] = trace.scores
        open_count += int((trace.edge_values > tcfg.gate_threshold).sum())
        total += trace.edge_values.shape[0]
    return scores, open_count / total


def _steady(records: list[EpochRecord]) -> bool:
    """The newest epoch qualifies when its open-gate fraction sits within
    STEADY_TOLERANCE of each of the previous STEADY_WINDOW epochs."""
    if len(records) < STEADY_WINDOW + 1:
        return False
    anchor = records[-1].open_gate_fraction
    return all(abs(anchor - r.open_gate_fraction) < STEADY_TOLERANCE
               for r in records[-STEADY_WINDOW - 1 : -1])


def fit(
    train_ds: Dataset,
    valid_ds: Dataset,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
    *,
    verbose: bool = False,
) -> FitResult:
    """Minibatch training with stochastic gates and noise-free validation.

    Selection: the checkpoint maximizing validation AUC among epochs whose
    open-gate fraction stayed within STEADY_TOLERANCE of the previous
    STEADY_WINDOW epochs; if no epoch is steady, the global AUC best.
    Ties pick the earlier epoch. Non-finite risk aborts the run: the
    selection is then made among the epochs that finished, and with none
    finished the initial parameters are returned.
    """
    if len(train_ds) == 0:
        raise ValueError("the training split is empty")
    labels = _check_validation_split(valid_ds)
    params = ModelParams.init(mcfg, tcfg.seed)
    frozen = ("node_embed",) if tcfg.embedding_update == "algorithm-literal" else ()
    opt = Adagrad(
        params.store, tcfg.lr,
        initial_accumulator=tcfg.initial_accumulator, frozen=frozen,
    )
    noise = NoiseStream(tcfg.seed)
    n = len(train_ds)
    slot_counts = model_mod.pair_count(train_ds.columns.counts)
    records: list[EpochRecord] = []
    best_steady: tuple[float, int, ModelParams] | None = None
    best_global: tuple[float, int, ModelParams] | None = None
    diverged = False

    for epoch in range(1, tcfg.epochs + 1):
        perm = np.random.default_rng([tcfg.seed, epoch]).permutation(n)
        risk_sum = 0.0
        seen = 0
        for start in range(0, n, tcfg.batch_size):
            idx = perm[start : start + tcfg.batch_size]
            u = noise.uniforms(epoch, idx, slot_counts[idx]) if tcfg.mode == "l0sign" else None
            params.store.zero_grads()
            sink: list | None = [] if tcfg.embedding_update == "algorithm-literal" else None
            breakdown = risk(train_ds, params, tcfg, rows=idx, noise=u, node_update_sink=sink)
            if not math.isfinite(breakdown.total):
                diverged = True
                break
            opt.step()
            if sink is not None:
                # literal scheme: write each sample's updated node vectors
                # back into the embedding table, later samples winning
                table = params.store.value("node_embed")
                for ids, updates in sink:
                    table[ids] = updates
            risk_sum += breakdown.total * len(idx)
            seen += len(idx)
        if diverged:
            break

        scores, open_fraction = _validate(valid_ds, params, tcfg)
        rec = EpochRecord(
            epoch=epoch,
            train_risk=risk_sum / seen,
            valid_auc=evaluate.auc(labels, scores),
            valid_acc=evaluate.accuracy(labels, scores),
            open_gate_fraction=open_fraction,
        )
        records.append(rec)
        if verbose:
            print(
                f"epoch {rec.epoch:4d}  risk {rec.train_risk:.5f}  "
                f"auc {rec.valid_auc:.4f}  acc {rec.valid_acc:.4f}  "
                f"open {rec.open_gate_fraction:.3f}"
            )
        if best_global is None or rec.valid_auc > best_global[0]:
            best_global = (rec.valid_auc, epoch, params.clone())
        if _steady(records):
            if best_steady is None or rec.valid_auc > best_steady[0]:
                best_steady = (rec.valid_auc, epoch, params.clone())

    if not records:
        return FitResult(
            params=ModelParams.init(mcfg, tcfg.seed), records=[], selected_epoch=0,
            steady_selection=False, diverged=diverged,
        )
    chosen = best_steady if best_steady is not None else best_global
    return FitResult(
        params=chosen[2],
        records=records,
        selected_epoch=chosen[1],
        steady_selection=best_steady is not None,
        diverged=diverged,
    )


def _frozen_noise(
    instance: Instance, tcfg: TrainConfig, sample_index: int, epoch: int
) -> np.ndarray | None:
    """The gate noise training draws for `instance` as sample `sample_index`
    of `epoch`; None in the pinned modes, which draw none."""
    if tcfg.mode != "l0sign":
        return None
    return NoiseStream(tcfg.seed).uniforms(
        epoch, [sample_index], [model_mod.pair_count(instance.n_nodes)]
    )


def instance_grad_check(
    instance: Instance,
    params: ModelParams,
    tcfg: TrainConfig,
    *,
    sample_index: int = 0,
    epoch: int = 0,
    epsilon: float = 1e-5,
) -> float:
    """Gradient check of the full single-instance risk with frozen gate noise:
    one backward pass for the analytic gradient, then the risk alone at
    each perturbation."""
    one = Dataset((instance,), params.config.vocab_size)  # its columns serve every probe
    u = _frozen_noise(instance, tcfg, sample_index, epoch)
    params.store.zero_grads()
    risk(one, params, tcfg, noise=u)
    return nc.grad_check(
        lambda: risk(one, params, tcfg, noise=u, accumulate_grads=False).total,
        params.store.grads(), params.store, epsilon=epsilon,
    )


def near_gradient_kink(
    instance: Instance,
    params: ModelParams,
    tcfg: TrainConfig,
    *,
    sample_index: int = 0,
    epoch: int = 0,
    epsilon: float = 1e-5,
    margin: float = 50.0,
) -> bool:
    """True when the frozen-noise forward pass sits close enough to a ReLU
    kink, a gate clamp boundary, or the degree floor that a +-epsilon
    finite-difference probe could cross it.

    A bias perturbation shifts its whole pre-activation column by exactly
    epsilon and weight perturbations shift it by epsilon times the input,
    so the safety margin is a multiple of epsilon, not an absolute
    tolerance.
    """
    tol = margin * epsilon
    layout = model_mod.PairLayout.of((instance,))
    u = _frozen_noise(instance, tcfg, sample_index, epoch)
    trace = model_mod.forward_batch(layout, params, noise=u, pinned_edges=_pinned(layout, tcfg))
    checks = [np.min(np.abs(trace.pair_pre)) < tol]
    if trace.edge_pre is not None:
        checks.append(np.min(np.abs(trace.edge_pre)) < tol)
    if trace.gate is not None:
        pre = trace.gate.pre_clamp
        checks.append(bool(np.any(np.abs(pre) < tol) or np.any(np.abs(pre - 1.0) < tol)))
    checks.append(bool(np.any(np.abs(trace.soft_degree - model_mod.DEGREE_EPS) < tol)))
    return any(checks)


# ---------------------------------------------------------------------------
# Training log CSV.

LOG_COLUMNS = ("epoch", "train_risk", "valid_auc", "valid_acc", "open_gate_fraction")


def save_training_log(records: Sequence[EpochRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for r in records:
            writer.writerow(
                [r.epoch, repr(r.train_risk), repr(r.valid_auc), repr(r.valid_acc),
                 repr(r.open_gate_fraction)]
            )


def load_training_log(path) -> list[EpochRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != LOG_COLUMNS:
            raise ValueError(f"unexpected training-log header {header}")
        return [
            EpochRecord(
                epoch=int(row[0]),
                train_risk=float(row[1]),
                valid_auc=float(row[2]),
                valid_acc=float(row[3]),
                open_gate_fraction=float(row[4]),
            )
            for row in reader
        ]


# ---------------------------------------------------------------------------
# Edge ablation: retrain the aggregation side on sampled subsets of the
# predicted edge set and of its complement within the co-occurring pairs.

@dataclass(frozen=True)
class AblationRow:
    source: str  # "predicted" | "reversed"
    ratio: float
    repeat: int | None  # None for the mean row
    auc: float
    acc: float


def run_ablation(
    train_ds: Dataset,
    valid_ds: Dataset,
    test_ds: Dataset,
    trained: ModelParams,
    tcfg: TrainConfig,
    *,
    ratios: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    repeats: int = 5,
    threshold: float = 0.5,
    epochs: int | None = 15,
) -> list[AblationRow]:
    """For each edge source and ratio, retrain with gates pinned to a sampled
    subset (lambda1 = 0, edge side untouched) `repeats` times and report
    test AUC/ACC per repeat plus the mean row.

    `epochs` caps each retrain (None: the full tcfg.epochs); with fixed
    gates the aggregation side converges in far fewer epochs than the gated
    model, and the study runs 2 * len(ratios) * repeats retrains."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if epochs is not None and epochs < 1:
        raise ValueError(f"ablation epochs must be at least 1, got {epochs}")
    for ratio in ratios:
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratios must lie in (0, 1], got {ratio}")
    i, j, _ = evaluate.pair_table(train_ds)
    logits = model_mod.edge_logit(i, j, trained)
    is_open = gates.eval_deterministic(logits, trained.config.gate) > threshold
    sources = {
        "predicted": list(zip(i[is_open].tolist(), j[is_open].tolist())),
        "reversed": list(zip(i[~is_open].tolist(), j[~is_open].tolist())),
    }

    rows: list[AblationRow] = []
    labels = test_ds.labels()
    for source_idx, (source, pool) in enumerate(sources.items()):
        for ratio_idx, ratio in enumerate(ratios):
            per_repeat: list[AblationRow] = []
            for rep in range(repeats):
                rng = np.random.default_rng([tcfg.seed, source_idx, ratio_idx, rep])
                if pool:
                    take = max(1, int(math.floor(ratio * len(pool))))
                    chosen = rng.choice(len(pool), size=take, replace=False)
                    subset = frozenset(pool[c] for c in chosen)
                else:
                    subset = frozenset()
                run_cfg = replace(
                    tcfg,
                    mode="sign-fixed",
                    fixed_edges=subset,
                    lambda1=0.0,
                    seed=tcfg.seed + rep,
                    epochs=epochs if epochs is not None else tcfg.epochs,
                )
                result = fit(train_ds, valid_ds, trained.config, run_cfg)
                scores = model_mod.score_many(test_ds, result.params, edges=subset)
                per_repeat.append(
                    AblationRow(
                        source=source,
                        ratio=ratio,
                        repeat=rep,
                        auc=evaluate.auc(labels, scores),
                        acc=evaluate.accuracy(labels, scores),
                    )
                )
            rows.extend(per_repeat)
            rows.append(
                AblationRow(
                    source=source,
                    ratio=ratio,
                    repeat=None,
                    auc=float(np.mean([r.auc for r in per_repeat])),
                    acc=float(np.mean([r.acc for r in per_repeat])),
                )
            )
    return rows


ABLATION_COLUMNS = ("source", "ratio", "repeat", "auc", "acc")


def save_ablation(rows: Sequence[AblationRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ABLATION_COLUMNS)
        for r in rows:
            writer.writerow(
                [r.source, repr(r.ratio), "mean" if r.repeat is None else r.repeat,
                 repr(r.auc), repr(r.acc)]
            )


def load_ablation(path) -> list[AblationRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != ABLATION_COLUMNS:
            raise ValueError(f"unexpected ablation header {header}")
        return [
            AblationRow(
                source=row[0],
                ratio=float(row[1]),
                repeat=None if row[2] == "mean" else int(row[2]),
                auc=float(row[3]),
                acc=float(row[4]),
            )
            for row in reader
        ]
