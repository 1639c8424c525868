"""Instances, datasets, text I/O, splits, and the planted-pair generator.

An instance is the set of feature indices that are active in one sample
(its graph nodes), each with a float value, plus a binary label. The text
format is one instance per line, "label idx:value idx:value ...", where a
bare "idx" means value 1 and label -1 is read as 0. An optional first line
"vocab_size=N" pins the vocabulary; otherwise max index + 1 is used.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Instance:
    nodes: tuple[int, ...]
    values: tuple[float, ...]
    label: int

    def __post_init__(self) -> None:
        if len(self.nodes) == 0:
            raise ValueError("an instance needs at least one node")
        if len(self.values) != len(self.nodes):
            raise ValueError(f"{len(self.nodes)} nodes but {len(self.values)} values")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if a >= b:
                raise ValueError(f"node ids must be strictly increasing, got {self.nodes}")
        if self.nodes[0] < 0:
            raise ValueError(f"negative node id {self.nodes[0]}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def signed_label(self) -> int:
        """Label as -1/+1 for the logistic loss."""
        return 2 * self.label - 1

    @cached_property
    def node_array(self) -> np.ndarray:
        return np.asarray(self.nodes, dtype=np.int64)

    @cached_property
    def value_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def make_instance(nodes: Iterable[int], values: Iterable[float], label: int) -> Instance:
    """Build an Instance from unsorted nodes, reordering values alongside."""
    pairs = sorted(zip((int(n) for n in nodes), (float(v) for v in values)))
    return Instance(
        nodes=tuple(n for n, _ in pairs),
        values=tuple(v for _, v in pairs),
        label=int(label),
    )


@dataclass(frozen=True)
class PlantedPairs:
    """Ground truth for synthetic data: hidden beneficial pairs and weights."""

    pairs: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.weights):
            raise ValueError("pairs and weights must align")
        for i, j in self.pairs:
            if i >= j:
                raise ValueError(f"planted pairs are stored as (i, j) with i < j, got ({i}, {j})")

    def to_json_dict(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs], "weights": list(self.weights)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PlantedPairs":
        return cls(
            pairs=tuple((int(i), int(j)) for i, j in d["pairs"]),
            weights=tuple(float(w) for w in d["weights"]),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "PlantedPairs":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True, eq=False)
class Columns:
    """Rows of instances in CSR form (compressed sparse rows): row r holds
    the `counts[r]` nodes of `ids` and `values` that start at `offsets[r]`.
    `instances` are the row objects the columns were read from."""

    instances: tuple[Instance, ...]
    counts: np.ndarray  # (B,) nodes per row
    offsets: np.ndarray  # (B,) position of each row's first node
    ids: np.ndarray  # (N,) feature id of each node
    values: np.ndarray  # (N,) feature value of each node
    labels: np.ndarray  # (B,) 0/1


def columns_of(source: Dataset | Sequence[Instance]) -> Columns:
    """The columns of a dataset (built once and kept on it) or of a
    sequence of instances (built now)."""
    if isinstance(source, Dataset):
        return source.columns
    instances = tuple(source)
    n = len(instances)
    counts = np.fromiter((len(inst.nodes) for inst in instances), np.int64, n)
    n_nodes = int(counts.sum())
    return Columns(
        instances,
        counts,
        np.cumsum(counts) - counts,
        np.fromiter(chain.from_iterable(inst.nodes for inst in instances), np.int64, n_nodes),
        np.fromiter(chain.from_iterable(inst.values for inst in instances), np.float64, n_nodes),
        np.fromiter((inst.label for inst in instances), np.int64, n),
    )


@dataclass(frozen=True)
class Dataset:
    """Instances (kept as a tuple, so they cannot change under the columns
    read from them), their vocabulary and, for synthetic data, the planted
    ground truth."""

    instances: tuple[Instance, ...]
    vocab_size: int
    planted: PlantedPairs | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "instances", tuple(self.instances))
        if self.vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        for inst in self.instances:
            if inst.nodes[-1] >= self.vocab_size:
                raise ValueError(
                    f"feature index {inst.nodes[-1]} >= declared vocab_size {self.vocab_size}"
                )

    def __len__(self) -> int:
        return len(self.instances)

    def labels(self) -> np.ndarray:
        return np.asarray([inst.label for inst in self.instances], dtype=np.int64)

    @cached_property
    def columns(self) -> Columns:
        """The instances in CSR form, read on first use: the batched engine
        callers (training, validation, scoring, pair tables) gather their
        layouts from these. Datasets that are only split, saved or
        explained never build them."""
        return columns_of(self.instances)


def parse_line(line: str, line_number: int | None = None) -> Instance:
    """Parse one "label idx:value ..." line; bare indices mean value 1."""

    def fail(msg: str):
        where = f" (line {line_number})" if line_number is not None else ""
        raise ValueError(msg + where)

    tokens = line.split()
    if len(tokens) < 2:
        fail(f"need a label and at least one feature, got {line!r}")
    try:
        raw_label = int(tokens[0])
    except ValueError:
        fail(f"bad label token {tokens[0]!r}")
    if raw_label not in (0, 1, -1):
        fail(f"label must be 0, 1, or -1, got {raw_label}")
    label = 0 if raw_label == -1 else raw_label

    nodes: list[int] = []
    values: list[float] = []
    seen: set[int] = set()
    for tok in tokens[1:]:
        idx_part, sep, val_part = tok.partition(":")
        try:
            idx = int(idx_part)
            val = float(val_part) if sep else 1.0
        except ValueError:
            fail(f"bad feature token {tok!r}")
        if idx < 0:
            fail(f"negative feature index in token {tok!r}")
        if not math.isfinite(val):
            fail(f"non-finite feature value in token {tok!r}")
        if idx in seen:
            fail(f"duplicate feature index {idx}")
        seen.add(idx)
        nodes.append(idx)
        values.append(val)
    return make_instance(nodes, values, label)


def format_line(instance: Instance) -> str:
    feats = " ".join(
        str(i) if v == 1.0 else f"{i}:{v!r}" for i, v in zip(instance.nodes, instance.values)
    )
    return f"{instance.label} {feats}"


def load_dataset(path, planted: PlantedPairs | None = None) -> Dataset:
    lines = Path(path).read_text().splitlines()
    declared: int | None = None
    start = 0
    if lines and lines[0].startswith("vocab_size="):
        try:
            declared = int(lines[0].partition("=")[2])
        except ValueError:
            declared = 0
        if declared <= 0:
            raise ValueError(
                f"{path} line 1: vocab_size must be a positive integer, got {lines[0]!r}"
            )
        start = 1
    instances = []
    for n, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        inst = parse_line(line, line_number=n)
        if declared is not None and inst.nodes[-1] >= declared:
            raise ValueError(
                f"{path} line {n}: feature index {inst.nodes[-1]} >= declared "
                f"vocab_size {declared}"
            )
        instances.append(inst)
    if not instances:
        raise ValueError(f"no instances in {path}")
    max_node = max(inst.nodes[-1] for inst in instances)
    vocab = declared if declared is not None else max_node + 1
    return Dataset(instances=instances, vocab_size=vocab, planted=planted)


def save_dataset(dataset: Dataset, path) -> None:
    lines = [f"vocab_size={dataset.vocab_size}"]
    lines.extend(format_line(inst) for inst in dataset.instances)
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class SplitSpec:
    train: float = 0.7
    valid: float = 0.15
    test: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        for name, frac in (("train", self.train), ("valid", self.valid), ("test", self.test)):
            if not 0.0 < frac < 1.0:
                raise ValueError(f"{name} fraction must lie in (0, 1), got {frac}")
        if abs(self.train + self.valid + self.test - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic shuffled partition into (train, valid, test)."""
    n = len(dataset)
    n_train = int(math.floor(spec.train * n))
    n_valid = int(math.floor(spec.valid * n))
    n_test = n - n_train - n_valid
    if min(n_train, n_valid, n_test) <= 0:
        raise ValueError(f"split of {n} instances leaves an empty part")
    perm = np.random.default_rng(spec.seed).permutation(n)
    parts = (
        perm[:n_train],
        perm[n_train : n_train + n_valid],
        perm[n_train + n_valid :],
    )
    return tuple(
        Dataset(
            instances=[dataset.instances[i] for i in idx],
            vocab_size=dataset.vocab_size,
            planted=dataset.planted,
        )
        for idx in parts
    )


def draw_planted_pairs(vocab_size: int, count: int, seed: int) -> tuple[tuple[int, int], ...]:
    """Draw `count` distinct unordered non-self pairs from the vocabulary."""
    max_pairs = vocab_size * (vocab_size - 1) // 2
    if count > max_pairs:
        raise ValueError(f"cannot draw {count} distinct pairs from {vocab_size} features")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(pairs) < count:
        a, b = rng.choice(vocab_size, size=2, replace=False)
        p = (int(min(a, b)), int(max(a, b)))
        if p not in seen:
            seen.add(p)
            pairs.append(p)
    return tuple(pairs)


def generate_synthetic(
    vocab_size: int,
    n_samples: int,
    nodes_per_sample: int,
    planted_pairs: Sequence[tuple[int, int]],
    noise_rate: float,
    seed: int,
) -> Dataset:
    """Plant pairwise interactions and label instances by their summed weight.

    Each instance holds `nodes_per_sample` distinct features drawn uniformly,
    every value 1. A hidden weight w ~ Uniform(-1, 1) with |w| >= 0.2 is
    drawn per planted pair; the label is 1 iff the summed weight of planted
    pairs fully contained in the instance is positive, then flipped with
    probability `noise_rate`. Instances containing no planted pair get a
    fair-coin label. Labels are bit-reproducible from (seed, parameters).
    """
    if not 0.0 <= noise_rate < 0.5:
        raise ValueError(f"noise_rate must lie in [0, 0.5), got {noise_rate}")
    if nodes_per_sample > vocab_size:
        raise ValueError(f"cannot draw {nodes_per_sample} distinct features from {vocab_size}")
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    norm: list[tuple[int, int]] = []
    for i, j in planted_pairs:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"planted pair ({i}, {j}) is a self-pair")
        if not (0 <= i < vocab_size and 0 <= j < vocab_size):
            raise ValueError(f"planted pair ({i}, {j}) outside vocabulary of {vocab_size}")
        norm.append((min(i, j), max(i, j)))
    if len(set(norm)) != len(norm):
        raise ValueError("planted pairs must be distinct")

    rng = np.random.default_rng(seed)
    weights: list[float] = []
    for _ in norm:
        while True:
            w = float(rng.uniform(-1.0, 1.0))
            if abs(w) >= 0.2:
                weights.append(w)
                break
    truth = PlantedPairs(pairs=tuple(norm), weights=tuple(weights))

    instances: list[Instance] = []
    for _ in range(n_samples):
        nodes = np.sort(rng.choice(vocab_size, size=nodes_per_sample, replace=False))
        present = set(nodes.tolist())
        score = 0.0
        hit = False
        for (i, j), w in zip(truth.pairs, truth.weights):
            if i in present and j in present:
                score += w
                hit = True
        if hit:
            label = 1 if score > 0 else 0
        else:
            label = int(rng.integers(0, 2))
        if rng.random() < noise_rate:
            label = 1 - label
        instances.append(
            Instance(
                nodes=tuple(int(x) for x in nodes),
                values=(1.0,) * nodes_per_sample,
                label=label,
            )
        )
    return Dataset(instances=instances, vocab_size=vocab_size, planted=truth)


# ---------------------------------------------------------------------------
# Generative-rule oracle: the best any classifier can do on synthetic data,
# used to validate recovery targets.

def oracle_score(instance: Instance, truth: PlantedPairs) -> float:
    """Summed planted weight inside the instance, the generative raw score."""
    present = set(instance.nodes)
    return sum(
        w for (i, j), w in zip(truth.pairs, truth.weights) if i in present and j in present
    )


def oracle_posteriors(dataset: Dataset, noise_rate: float) -> np.ndarray:
    """P(label = 1 | instance) under the generative rule, the AUC-optimal scorer."""
    if dataset.planted is None:
        raise ValueError("dataset has no planted ground truth")
    out = np.empty(len(dataset))
    for n, inst in enumerate(dataset.instances):
        present = set(inst.nodes)
        hit = any(i in present and j in present for i, j in dataset.planted.pairs)
        if not hit:
            out[n] = 0.5
        else:
            out[n] = 1.0 - noise_rate if oracle_score(inst, dataset.planted) > 0 else noise_rate
    return out


def oracle_accuracy(dataset: Dataset, noise_rate: float) -> float:
    """Expected accuracy of the Bayes classifier built from the ground truth."""
    post = oracle_posteriors(dataset, noise_rate)
    labels = dataset.labels()
    # Bayes predicts the majority class per instance; expected accuracy gives
    # coin-flip instances exactly 0.5 credit instead of sampling them.
    pred = post > 0.5
    correct = np.where(post == 0.5, 0.5, (pred == (labels == 1)).astype(np.float64))
    return float(correct.mean())
