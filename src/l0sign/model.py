"""Feature-graph classifier with learned pairwise interaction gates.

Each instance is a graph whose nodes are its active feature indices; no
edges are given. For every unordered node pair (self-pairs included) an
edge MLP on the product of edge-side embeddings produces the gate location
log_alpha, a hard concrete gate turns it into an edge weight in [0, 1],
and a pair MLP on the product of value-scaled node embeddings produces an
interaction vector. Each node averages the gated interaction vectors of
its pairs with soft-degree normalization, is rescaled by its feature
value, read out through a weight vector, and the node readouts are
averaged into the raw score. The gradient pass mirrors this fixed shape
in reverse using the numcore rules.

One engine (`forward_batch` / `backward`) runs both passes over a flat
pair-slot layout of many instances (`PairLayout`). A slot's gate location
depends only on its feature pair and its interaction vector only on the
two features and their values, so each MLP is one matmul over the distinct
rows of the layout, gathered back to the slots; gate noise, the gated
aggregation and the penalties stay per slot. The instances of a layout
are grouped by node count: within a group of k-node instances, slots reach
their nodes through one matmul with the (k x k(k+1)/2) incidence matrix
of a k-node instance, and back through its transpose. The per-instance
`forward` is its batch of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import gates, numcore as nc
from .data import Columns, Dataset, Instance, columns_of
from .gates import GateBatch, GateConfig

DEGREE_EPS = 1e-8  # soft-degree floor in the aggregation denominator

PARAM_ORDER = (
    "node_embed",
    "edge_embed",
    "edge_hidden_w",
    "edge_hidden_b",
    "edge_out_w",
    "edge_out_b",
    "pair_hidden_w",
    "pair_hidden_b",
    "pair_out_w",
    "pair_out_b",
    "readout",
)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    edge_dim: int = 8
    interaction_dim: int = 8
    hidden_dim: int = 32
    gate: GateConfig = field(default_factory=GateConfig)

    def __post_init__(self) -> None:
        for name in ("vocab_size", "edge_dim", "interaction_dim", "hidden_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def to_json_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "edge_dim": self.edge_dim,
            "interaction_dim": self.interaction_dim,
            "hidden_dim": self.hidden_dim,
            "gate": {
                "temperature": self.gate.temperature,
                "stretch_low": self.gate.stretch_low,
                "stretch_high": self.gate.stretch_high,
            },
        }

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each parameter block, in PARAM_ORDER."""
        j, b, d, h = self.vocab_size, self.edge_dim, self.interaction_dim, self.hidden_dim
        return {
            "node_embed": (j, d),
            "edge_embed": (j, b),
            "edge_hidden_w": (h, b),
            "edge_hidden_b": (h,),
            "edge_out_w": (1, h),
            "edge_out_b": (1,),
            "pair_hidden_w": (h, d),
            "pair_hidden_b": (h,),
            "pair_out_w": (d, h),
            "pair_out_b": (d,),
            "readout": (d,),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelConfig":
        g = d["gate"]
        return cls(
            vocab_size=int(d["vocab_size"]),
            edge_dim=int(d["edge_dim"]),
            interaction_dim=int(d["interaction_dim"]),
            hidden_dim=int(d["hidden_dim"]),
            gate=GateConfig(
                temperature=float(g["temperature"]),
                stretch_low=float(g["stretch_low"]),
                stretch_high=float(g["stretch_high"]),
            ),
        )


class ModelParams:
    """Model configuration plus its named parameter store."""

    def __init__(self, config: ModelConfig, store: nc.ParamStore) -> None:
        got = tuple(store.names())
        if got != PARAM_ORDER:
            raise ValueError(f"parameter store order {got} does not match {PARAM_ORDER}")
        self.config = config
        self.store = store

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "ModelParams":
        """Training initialization.

        Embeddings start at a working scale (Normal(0, 0.3)) so interaction
        vectors and their loss gradients are non-negligible from the first
        batch. The gate MLP starts small (quarter-scale hidden layer,
        output weights in +-0.1) with its output bias at +2.5: every gate
        begins open and nearly identical, and the location of each gate is
        then moved by per-pair evidence rather than by the shared
        initialization noise of the MLP. With the adaptive optimizer's
        scale-free first steps, a conventional full-scale gate MLP lets the
        shared component of the gate locations crash below zero within an
        epoch or two, closing all gates before the interaction side has
        learned which ones are worth protecting.
        """
        rng = np.random.default_rng(seed)
        shape = config.param_shapes()

        def kaiming(name: str) -> np.ndarray:
            bound = np.sqrt(6.0 / shape[name][-1])  # fan-in: the last axis
            return rng.uniform(-bound, bound, size=shape[name])

        store = nc.ParamStore()
        store.add("node_embed", rng.normal(0.0, 0.3, size=shape["node_embed"]))
        store.add("edge_embed", rng.normal(0.0, 0.3, size=shape["edge_embed"]))
        store.add("edge_hidden_w", 0.25 * kaiming("edge_hidden_w"))
        store.add("edge_hidden_b", np.zeros(shape["edge_hidden_b"]))
        store.add("edge_out_w", rng.uniform(-0.1, 0.1, size=shape["edge_out_w"]))
        store.add("edge_out_b", np.full(shape["edge_out_b"], 2.5))
        store.add("pair_hidden_w", kaiming("pair_hidden_w"))
        store.add("pair_hidden_b", np.zeros(shape["pair_hidden_b"]))
        store.add("pair_out_w", kaiming("pair_out_w"))
        store.add("pair_out_b", np.zeros(shape["pair_out_b"]))
        store.add("readout", kaiming("readout"))
        return cls(config, store)

    @classmethod
    def random(cls, config: ModelConfig, seed: int, scale: float = 0.7) -> "ModelParams":
        """Every parameter ~ Normal(0, scale): a generic-position model for
        gradient checks and symmetry tests. The training init keeps
        embeddings small and biases zero, which parks every ReLU
        pre-activation within ~1e-4 of its kink; finite differences need to
        probe far from such boundaries."""
        rng = np.random.default_rng(seed)
        store = nc.ParamStore()
        for name, shape in config.param_shapes().items():
            store.add(name, rng.normal(0.0, scale, size=shape))
        return cls(config, store)

    def clone(self) -> "ModelParams":
        return ModelParams(self.config, self.store.clone())

    def value(self, name: str) -> np.ndarray:
        return self.store.value(name)


@lru_cache(maxsize=256)
def pair_slots(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot index arrays (i, j) for all unordered pairs with i <= j, in
    lexicographic order; self-pairs included. k nodes give k(k+1)/2 slots."""
    pi, pj = np.triu_indices(k)
    pi.setflags(write=False)
    pj.setflags(write=False)
    return pi, pj


def pair_count(k: int) -> int:
    return k * (k + 1) // 2


@lru_cache(maxsize=256)
def _incidence(k: int) -> np.ndarray:
    """(k, pair_count(k)) matrix M_k of one instance of k nodes: entry
    (n, p) is 1 when node n is an end of slot p (a self-pair slot counts
    its node once) and 0 otherwise."""
    pi, pj = pair_slots(k)
    m = np.zeros((k, pi.shape[0]))
    slots = np.arange(pi.shape[0])
    m[pi, slots] = 1.0
    m[pj, slots] = 1.0
    m.setflags(write=False)
    return m


_PAIR_CODE_BASE = 2**31  # pair codes hold feature ids below this, in int64

# Pair slots per engine pass in the batched callers (training risk,
# validation, dataset scoring, pair tables). The MLP arrays are distinct
# rows x hidden_dim floats, so where pairs repeat, larger chunks spread the
# per-pass cost (layout, unique passes, Python overhead) over more slots;
# where they do not (uniform Frappe-shaped draws: 90% of slots distinct),
# rows and memory still grow with the chunk. Measured on 2 CPUs, numpy
# 2.4.6, one BLAS thread, layouts gathered from dataset columns and
# aggregated by node-count buckets: `train.risk` on one 1024-row
# minibatch of the acceptance shape took about 20 ms at 1024 slots, 14 ms
# at 2048 and 12 ms at 4096; of the Frappe shape 93, 81 and 78 ms. In 8 s
# benchmark runs, peak RSS against 1024 slots grew by 1.6%
# (train-planted), 0.9% (retrain-pinned) and 3.8% (infer-frappe) at 2048,
# but by 5.1%, 3.4% and 14.2% at 4096 (the benchmark's bound is 10%).
CHUNK_SLOTS = 2048


class PairRows(NamedTuple):
    """The distinct MLP inputs of a layout, in the order their first slots
    appear. Pair row r is the (id, value) pair of nodes (pair_i[r],
    pair_j[r]) and edge row r the feature pair of nodes (edge_i[r],
    edge_j[r]); slot s reads pair row pair_row_of[s] and edge row
    edge_row_of[s]. When every slot is distinct the rows are the slots
    themselves, in order. The edge fields are None for passes that run no
    edge MLP (pinned gates)."""

    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_row_of: np.ndarray  # (S,)
    edge_i: np.ndarray | None
    edge_j: np.ndarray | None
    edge_row_of: np.ndarray | None  # (S,)


class Bucket(NamedTuple):
    """The instances of a layout that have k nodes, by their positions in
    the layout's instance, node and slot arrays, instance after instance.
    Node and slot arrays read through a bucket reshape to (instances, k)
    and (instances, pair_count(k)) blocks. When every instance of the
    layout has k nodes the positions are plain slices, so those reshapes
    are views; otherwise they are index arrays."""

    k: int
    instances: slice | np.ndarray
    nodes: slice | np.ndarray
    slots: slice | np.ndarray


def _buckets(counts: np.ndarray) -> tuple[Bucket, ...]:
    """Node-count buckets of a layout with `counts` nodes per instance, in
    increasing k."""
    if counts.min() == counts.max():
        k, n = int(counts[0]), counts.shape[0]
        return (Bucket(k, slice(0, n), slice(0, n * k), slice(0, n * pair_count(k))),)
    slot_counts = counts * (counts + 1) // 2
    first_node = np.cumsum(counts) - counts
    first_slot = np.cumsum(slot_counts) - slot_counts
    buckets = []
    for k in np.unique(counts).tolist():
        inst = np.flatnonzero(counts == k)
        buckets.append(Bucket(
            k, inst,
            (first_node[inst, None] + np.arange(k)).ravel(),
            (first_slot[inst, None] + np.arange(pair_count(k))).ravel(),
        ))
    return tuple(buckets)


@dataclass(frozen=True, eq=False)
class PairLayout:
    """Flat pair-slot layout of a batch of instances.

    Nodes of all instances are concatenated; every unordered node pair of
    an instance (self-pairs included, lexicographic order within the
    instance) is one slot that addresses two global node indices
    `slot_i <= slot_j`. The instances are grouped by node count into
    `buckets`; within a bucket of k nodes, the reductions from slots to
    nodes and back are one matmul with the incidence matrix M_k, and an
    instance's score is the mean of its block of node readouts.
    `distinct_rows` finds the layout's distinct MLP inputs. Batched callers
    gather their layouts from a dataset's columns (`gather`); `of` reads
    the columns of the instances it is given, one instance through a
    cached pattern.
    """

    instances: tuple[Instance, ...]
    ids: np.ndarray  # (N,) feature id of each node
    values: np.ndarray  # (N,) feature value of each node
    counts: np.ndarray  # (B,) nodes per instance
    slot_i: np.ndarray  # (S,)
    slot_j: np.ndarray  # (S,)
    buckets: tuple[Bucket, ...]

    @classmethod
    def of(cls, instances: Iterable[Instance]) -> "PairLayout":
        instances = tuple(instances)
        if len(instances) == 1:
            inst = instances[0]
            return cls(instances, inst.node_array, inst.value_array, *_single_layout(inst.n_nodes))
        return cls.gather(columns_of(instances), np.arange(len(instances)))

    @classmethod
    def gather(cls, columns: Columns, rows: np.ndarray) -> "PairLayout":
        """Layout of the rows `rows` of `columns`, in that order (rows may
        repeat), read from the columns with numpy gathers."""
        if rows.shape[0] == 0:
            raise ValueError("a pair layout needs at least one instance")
        counts = columns.counts[rows]
        first_node = np.cumsum(counts) - counts
        buckets = _buckets(counts)
        slot_i = np.empty(int(counts @ (counts + 1)) // 2, dtype=np.int64)
        slot_j = np.empty_like(slot_i)
        for b in buckets:
            pi, pj = pair_slots(b.k)
            start = first_node[b.instances, None]
            slot_i[b.slots] = (start + pi).ravel()
            slot_j[b.slots] = (start + pj).ravel()
        # node n of the layout is node n + shift of its instance in the columns
        shift = np.repeat(columns.offsets[rows] - first_node, counts)
        source = np.arange(shift.shape[0]) + shift
        return cls(
            tuple(map(columns.instances.__getitem__, rows.tolist())),
            columns.ids[source],
            columns.values[source],
            counts,
            slot_i,
            slot_j,
            buckets,
        )

    def pair_codes(self) -> np.ndarray:
        """Code ids[i] * 2**31 + ids[j] of each slot's feature pair."""
        return self.ids[self.slot_i] * _PAIR_CODE_BASE + self.ids[self.slot_j]


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, row_of): the first position of each distinct key, in
    position order, and the row of every position."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return first[order], rank[inverse]


def distinct_rows(layout: PairLayout, edges: bool = True) -> PairRows:
    """The distinct MLP inputs of a layout.

    Nodes with equal feature id and equal value bits share a token, so a
    pair row is a distinct token pair and repeats exactly in every slot it
    stands for. Edge rows group the pair rows by feature pair; without
    `edges` (a pass with pinned gates) they are left out."""
    if layout.counts.shape[0] == 1:
        # node ids strictly increase, so every slot is its own row
        rows = _single_rows(layout.ids.shape[0])
        return rows if edges else rows._replace(edge_i=None, edge_j=None, edge_row_of=None)
    ids, slot_i, slot_j = layout.ids, layout.slot_i, layout.slot_j
    bits = layout.values.view(np.int64)
    order = np.lexsort((bits, ids))
    sorted_ids, sorted_bits = ids[order], bits[order]
    new = np.ones(ids.shape[0], dtype=bool)
    new[1:] = (sorted_ids[1:] != sorted_ids[:-1]) | (sorted_bits[1:] != sorted_bits[:-1])
    token = np.empty_like(ids)
    token[order] = np.cumsum(new) - 1
    pair_rows, pair_row_of = _first_appearance(
        token[slot_i] * int(np.count_nonzero(new)) + token[slot_j]
    )
    pair_i, pair_j = slot_i[pair_rows], slot_j[pair_rows]
    if not edges:
        return PairRows(pair_i, pair_j, pair_row_of, None, None, None)
    edge_rows, edge_of_pair_row = _first_appearance(
        ids[pair_i] * _PAIR_CODE_BASE + ids[pair_j]
    )
    return PairRows(pair_i, pair_j, pair_row_of,
                    pair_i[edge_rows], pair_j[edge_rows], edge_of_pair_row[pair_row_of])


@lru_cache(maxsize=256)
def _single_layout(k: int) -> tuple:
    """PairLayout fields after (ids, values) for one instance of k nodes."""
    counts = np.array([k])
    counts.setflags(write=False)
    slot_i, slot_j = pair_slots(k)
    return counts, slot_i, slot_j, _buckets(counts)


@lru_cache(maxsize=256)
def _single_rows(k: int) -> PairRows:
    """distinct_rows of one instance of k nodes: the slots themselves."""
    slot_i, slot_j = pair_slots(k)
    slots = np.arange(slot_i.shape[0])
    slots.setflags(write=False)
    return PairRows(slot_i, slot_j, slots, slot_i, slot_j, slots)


def chunk_layouts(
    columns: Columns, rows: np.ndarray | None = None
) -> Iterator[tuple[int, PairLayout]]:
    """Layouts of consecutive runs of `rows` (default: every row of `columns`)
    with at most CHUNK_SLOTS pair slots each (a larger instance gets a run
    of its own), with the position in `rows` of each run's first row."""
    if rows is None:
        rows = np.arange(columns.counts.shape[0])
    n = rows.shape[0]
    if n == 0:
        return
    if n == 1:  # one run, without the budget search (one-instance risk calls)
        yield 0, PairLayout.of((columns.instances[rows[0]],))
        return
    ks = columns.counts[rows]
    ends = np.cumsum(ks * (ks + 1) // 2)
    start = 0
    while start < n:
        used = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, used + CHUNK_SLOTS, side="right")), start + 1)
        yield start, PairLayout.gather(columns, rows[start:stop])
        start = stop


def edge_codes(edge_set: Iterable[tuple[int, int]]) -> np.ndarray:
    """Sorted pair codes (see `PairLayout.pair_codes`) of an edge set of
    unordered feature-id pairs; pairs with an id outside [0, 2**31) can
    never match a slot and are dropped. Self edges must be listed as (i, i).
    Frozen sets, the form training configs carry, are compiled once."""
    if isinstance(edge_set, frozenset):
        return _frozen_edge_codes(edge_set)
    pairs = np.asarray(list(edge_set), dtype=np.int64).reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    keep = (lo >= 0) & (hi < _PAIR_CODE_BASE)
    return np.unique(lo[keep] * _PAIR_CODE_BASE + hi[keep])


def code_pairs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature-id arrays (i, j) of pair codes; the inverse of the encoding."""
    return np.divmod(codes, _PAIR_CODE_BASE)


@lru_cache(maxsize=64)
def _frozen_edge_codes(edge_set: frozenset) -> np.ndarray:
    codes = edge_codes(tuple(edge_set))
    codes.setflags(write=False)
    return codes


def pinned_edges(layout: PairLayout, codes: np.ndarray) -> np.ndarray:
    """Per-slot 0/1 gate values: 1 where the slot's feature pair is in the
    edge set compiled by `edge_codes`."""
    query = layout.pair_codes()
    if codes.shape[0] == 0:
        return np.zeros(query.shape[0])
    pos = np.minimum(np.searchsorted(codes, query), codes.shape[0] - 1)
    return (codes[pos] == query).astype(np.float64)


def edges_for_instance(instance: Instance, edge_set: Iterable[tuple[int, int]]) -> np.ndarray:
    """Per-slot 0/1 gate values: slot (a, b) is 1 iff the unordered feature
    pair is in edge_set. Self edges must be listed explicitly as (i, i)."""
    return pinned_edges(PairLayout.of((instance,)), edge_codes(edge_set))


def _segment_sum(values: np.ndarray, segments: np.ndarray, n: int) -> np.ndarray:
    """Rows of `values` summed into `n` segments, each row added in order."""
    if values.ndim == 1:
        return np.bincount(segments, weights=values, minlength=n)
    d = values.shape[1]
    flat = (segments[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * d).reshape(n, d)


# Between the distinct rows of a layout and its slots. Rows are listed in
# slot order, so as many rows as slots means the rows are the slots.

def _to_slots(row_values: np.ndarray, row_of: np.ndarray) -> np.ndarray:
    """Per-row values read by every slot."""
    return row_values if row_values.shape[0] == row_of.shape[0] else row_values[row_of]


def _to_rows(slot_values: np.ndarray, row_of: np.ndarray, n_rows: int) -> np.ndarray:
    """Per-slot values summed onto their rows."""
    if n_rows == row_of.shape[0]:
        return slot_values
    return _segment_sum(slot_values, row_of, n_rows)


# Between the slots of a layout and its nodes, one incidence matmul per
# node-count bucket.

def _slots_to_nodes(layout: PairLayout, slot_values: np.ndarray) -> np.ndarray:
    """Per-slot values, (S,) or (S, d), summed into the end nodes of their
    slots: M_k times each instance's block."""
    tail = slot_values.shape[1:]
    out = np.empty(layout.ids.shape + tail)
    for b in layout.buckets:
        m = _incidence(b.k)
        block = slot_values[b.slots].reshape(-1, m.shape[1], *tail)
        out[b.nodes] = (m @ block if tail else block @ m.T).reshape(-1, *tail)
    return out


def _nodes_to_slots(layout: PairLayout, node_values: np.ndarray) -> np.ndarray:
    """Per-node values, (N,) or (N, d), summed over the end nodes of each
    slot: M_k transposed times each instance's block."""
    tail = node_values.shape[1:]
    out = np.empty(layout.slot_i.shape + tail)
    for b in layout.buckets:
        m = _incidence(b.k)
        block = node_values[b.nodes].reshape(-1, b.k, *tail)
        out[b.slots] = (m.T @ block if tail else block @ m).reshape(-1, *tail)
    return out


def _mlp(side: str, vi: np.ndarray, vj: np.ndarray, params: ModelParams):
    """(product, hidden pre-activation, hidden activation, output) of the
    two-layer MLP over the elementwise product of rows of embedding pairs.
    `side` names its parameters: "edge" (edge embeddings to one gate
    location per row) or "pair" (value-scaled node embeddings to an
    interaction vector per row)."""
    prod = nc.elementwise_product(vi, vj)
    pre = nc.linear(params.value(f"{side}_hidden_w"), prod, params.value(f"{side}_hidden_b"))
    act = nc.relu(pre)
    out = nc.linear(params.value(f"{side}_out_w"), act, params.value(f"{side}_out_b"))
    return prod, pre, act, out


def _mlp_backward(
    side: str,
    prod: np.ndarray,
    pre: np.ndarray,
    act: np.ndarray,
    g_out: np.ndarray,
    vecs: np.ndarray,
    ri: np.ndarray,
    rj: np.ndarray,
    params: ModelParams,
) -> np.ndarray:
    """Reverse of `_mlp` over rows whose inputs were vecs[ri] and vecs[rj]:
    accumulates the `side` parameter gradients from `g_out` (one row per
    MLP row) and returns the gradient at each row of `vecs`."""
    store = params.store
    g_w, g_act, g_b = nc.linear_backward(params.value(f"{side}_out_w"), act, g_out)
    store.accumulate(f"{side}_out_w", g_w)
    store.accumulate(f"{side}_out_b", g_b)
    g_pre = nc.relu_backward(pre, g_act)
    g_w, g_prod, g_b = nc.linear_backward(params.value(f"{side}_hidden_w"), prod, g_pre)
    store.accumulate(f"{side}_hidden_w", g_w)
    store.accumulate(f"{side}_hidden_b", g_b)
    g_vi, g_vj = nc.elementwise_product_backward(vecs[ri], vecs[rj], g_prod)
    return _segment_sum(np.concatenate((g_vi, g_vj)), np.concatenate((ri, rj)), vecs.shape[0])


def _aggregate(
    layout: PairLayout,
    edge_values: np.ndarray,
    interactions: np.ndarray,
    params: ModelParams,
) -> dict:
    """Gated aggregation and readout, as the `Forward` fields from
    `node_sum` on: each node averages the gated interactions of its slots
    (soft-degree denominator, floored at DEGREE_EPS), is rescaled by its
    value and read out, and each instance's score is the mean of its node
    readouts."""
    node_sum = _slots_to_nodes(layout, edge_values[:, None] * interactions)
    soft_degree = _slots_to_nodes(layout, edge_values)
    denom = np.maximum(soft_degree, DEGREE_EPS)
    node_update = node_sum / denom[:, None]
    scaled = layout.values[:, None] * node_update
    node_readout = nc.linear(params.value("readout")[None, :], scaled, np.zeros(1))[:, 0]
    scores = np.empty(layout.counts.shape[0])
    for b in layout.buckets:
        scores[b.instances] = node_readout[b.nodes].reshape(-1, b.k).sum(axis=1) / b.k
    return dict(node_sum=node_sum, soft_degree=soft_degree, denom=denom,
                node_update=node_update, node_readout=node_readout, scores=scores)


@dataclass
class Forward:
    """Every intermediate of one engine pass over a batch, kept for the
    reverse pass and for explanations. Node arrays are indexed like
    `layout.ids`, slot arrays like `layout.slot_i`, and the MLP arrays
    `edge_prod`/`edge_pre`/`edge_act` and `pair_prod`/`pair_pre`/`pair_act`
    by the distinct edge and pair rows in `rows`."""

    layout: PairLayout
    rows: PairRows
    mode: str  # "stochastic" | "deterministic" | "binary" | "pinned"
    edge_vecs: np.ndarray | None  # (N, edge_dim), None when pinned
    node_vecs: np.ndarray  # (N, d) value-scaled embeddings u_i
    edge_prod: np.ndarray | None  # (edge rows, edge_dim)
    edge_pre: np.ndarray | None  # (edge rows, hidden_dim)
    edge_act: np.ndarray | None
    log_alpha: np.ndarray | None  # (S,)
    gate: GateBatch | None  # None when pinned
    edge_values: np.ndarray  # (S,) gate values actually used
    pair_prod: np.ndarray  # (pair rows, d)
    pair_pre: np.ndarray  # (pair rows, hidden_dim)
    pair_act: np.ndarray
    interactions: np.ndarray  # (S, d) pair MLP outputs
    node_sum: np.ndarray  # (N, d) gated sums
    soft_degree: np.ndarray  # (N,)
    denom: np.ndarray  # (N,) max(soft_degree, DEGREE_EPS)
    node_update: np.ndarray  # (N, d) v'_i
    node_readout: np.ndarray  # (N,)
    scores: np.ndarray  # (B,)

    def _single(self) -> None:
        if len(self.layout.instances) != 1:
            raise ValueError(
                f"trace covers {len(self.layout.instances)} instances; use its arrays"
            )

    @property
    def instance(self) -> Instance:
        self._single()
        return self.layout.instances[0]

    @property
    def score(self) -> float:
        self._single()
        return float(self.scores[0])


def forward_batch(
    layout: PairLayout,
    params: ModelParams,
    *,
    noise: np.ndarray | None = None,
    pinned_edges: np.ndarray | None = None,
    binary_gates: bool = False,
) -> Forward:
    """Run the fixed computation shape over every pair slot of a layout,
    each MLP once per distinct row.

    Gate source: `pinned_edges` (per slot) fixes the gate values and skips
    the edge MLP entirely; otherwise gates come from the edge MLP,
    stochastic when `noise` (per-slot uniforms) is given, deterministic
    when not. `binary_gates` thresholds the deterministic gate to exact 0/1
    values, an evaluation-only variant with no gradient path.
    """
    if binary_gates and noise is not None:
        raise ValueError("binary gates are an evaluation option; drop the noise argument")
    if binary_gates and pinned_edges is not None:
        raise ValueError("binary gates need predicted logits; got pinned edges")
    cfg = params.config
    ids, n_slots = layout.ids, layout.slot_i.shape[0]
    rows = distinct_rows(layout, edges=pinned_edges is None)

    node_vecs = layout.values[:, None] * params.value("node_embed")[ids]

    if pinned_edges is not None:
        pinned = np.asarray(pinned_edges, dtype=np.float64)
        if pinned.shape != (n_slots,):
            raise nc.ShapeError(f"pinned edges shape {pinned.shape}, expected ({n_slots},)")
        mode = "pinned"
        edge_vecs = edge_prod = edge_pre = edge_act = log_alpha = None
        gate = None
        edge_values = pinned
    else:
        edge_vecs = params.value("edge_embed")[ids]
        edge_prod, edge_pre, edge_act, logits = _mlp(
            "edge", edge_vecs[rows.edge_i], edge_vecs[rows.edge_j], params
        )
        log_alpha = _to_slots(logits[:, 0], rows.edge_row_of)
        if noise is not None:
            if np.shape(noise) != (n_slots,):
                raise nc.ShapeError(f"noise shape {np.shape(noise)}, expected ({n_slots},)")
            mode = "stochastic"
            gate = gates.sample_array(log_alpha, noise, cfg.gate)
        elif binary_gates:
            mode = "binary"
            gate = gates.binary_batch(log_alpha, cfg.gate)
        else:
            mode = "deterministic"
            gate = gates.deterministic_batch(log_alpha, cfg.gate)
        edge_values = gate.value

    pair_prod, pair_pre, pair_act, pair_out = _mlp(
        "pair", node_vecs[rows.pair_i], node_vecs[rows.pair_j], params
    )
    interactions = _to_slots(pair_out, rows.pair_row_of)

    return Forward(
        layout=layout,
        rows=rows,
        mode=mode,
        edge_vecs=edge_vecs,
        node_vecs=node_vecs,
        edge_prod=edge_prod,
        edge_pre=edge_pre,
        edge_act=edge_act,
        log_alpha=log_alpha,
        gate=gate,
        edge_values=edge_values,
        pair_prod=pair_prod,
        pair_pre=pair_pre,
        pair_act=pair_act,
        interactions=interactions,
        **_aggregate(layout, edge_values, interactions, params),
    )


def forward(
    instance: Instance,
    params: ModelParams,
    *,
    noise: np.ndarray | None = None,
    pinned_edges: np.ndarray | None = None,
    binary_gates: bool = False,
) -> Forward:
    """`forward_batch` over one instance: the arrays hold one value per pair
    slot (`pair_slots` order) or per node of this instance."""
    return forward_batch(
        PairLayout.of((instance,)), params, noise=noise, pinned_edges=pinned_edges,
        binary_gates=binary_gates,
    )


def backward(
    trace: Forward,
    params: ModelParams,
    d_score,
    *,
    d_interactions: np.ndarray | None = None,
    d_log_alpha: np.ndarray | None = None,
) -> None:
    """Accumulate gradients of (sum_b d_score[b] * score[b] + extras) into
    the store; `d_score` is one value per instance, or a scalar for all.

    `d_interactions` and `d_log_alpha` are direct penalty gradients applied
    at the interaction vectors and gate locations (already scaled by the
    caller). Pinned-edge traces leave the edge side untouched.
    """
    if trace.mode == "pinned" and d_log_alpha is not None:
        raise ValueError("log_alpha gradient supplied for a pinned-edge trace")
    if trace.mode == "binary":
        raise ValueError("binary-gate traces are evaluation-only; no gradient exists")
    store = params.store
    lay = trace.layout
    ids, x = lay.ids, lay.values
    vocab = params.config.vocab_size
    rows = trace.rows

    # score = mean of its node readouts; readout row r_i = readout . (x_i v'_i)
    g_node_readout = np.repeat(np.asarray(d_score, dtype=np.float64) / lay.counts, lay.counts)
    scaled = x[:, None] * trace.node_update
    g_w, g_scaled, _ = nc.linear_backward(
        params.value("readout")[None, :], scaled, g_node_readout[:, None]
    )
    store.accumulate("readout", g_w[0])
    g_node_update = x[:, None] * g_scaled

    # node_update = node_sum / denom
    g_node_sum = g_node_update / trace.denom[:, None]
    g_denom = -(g_node_update * trace.node_sum).sum(axis=1) / trace.denom**2
    g_soft_degree = np.where(trace.soft_degree > DEGREE_EPS, g_denom, 0.0)

    # node_sum and soft_degree sum gated interactions and gates into both
    # end nodes of each slot
    g_gated = _nodes_to_slots(lay, g_node_sum)
    g_edge_values = (g_gated * trace.interactions).sum(axis=1)
    g_edge_values += _nodes_to_slots(lay, g_soft_degree)
    g_interactions = trace.edge_values[:, None] * g_gated
    if d_interactions is not None:
        g_interactions = g_interactions + d_interactions

    # pair MLP, over the distinct pair rows; u_i = x_i node_embed[id_i]
    g_node_vecs = _mlp_backward(
        "pair", trace.pair_prod, trace.pair_pre, trace.pair_act,
        _to_rows(g_interactions, rows.pair_row_of, trace.pair_act.shape[0]),
        trace.node_vecs, rows.pair_i, rows.pair_j, params,
    )
    store.accumulate("node_embed", _segment_sum(x[:, None] * g_node_vecs, ids, vocab))

    # edge side (absent for pinned gates)
    if trace.mode == "pinned":
        return
    if trace.mode == "stochastic":
        gate_grad = gates.grad_log_alpha(trace.gate, params.config.gate)
    else:
        gate_grad = gates.deterministic_grad_log_alpha(trace.log_alpha, params.config.gate)
    g_log_alpha = g_edge_values * gate_grad
    if d_log_alpha is not None:
        g_log_alpha = g_log_alpha + d_log_alpha

    g_logits = _to_rows(g_log_alpha, rows.edge_row_of, trace.edge_act.shape[0])
    g_edge_vecs = _mlp_backward(
        "edge", trace.edge_prod, trace.edge_pre, trace.edge_act, g_logits[:, None],
        trace.edge_vecs, rows.edge_i, rows.edge_j, params,
    )
    store.accumulate("edge_embed", _segment_sum(g_edge_vecs, ids, vocab))

def score_many(
    instances: Dataset | Sequence[Instance],
    params: ModelParams,
    *,
    binary_gates: bool = False,
    edges: Iterable[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Raw scores in engine chunks: deterministic (or binary) gates, or
    gates pinned to membership in `edges` (unordered feature-id pairs)."""
    codes = None if edges is None else edge_codes(edges)
    scores = np.empty(len(instances))
    for start, layout in chunk_layouts(columns_of(instances)):
        pinned = None if codes is None else pinned_edges(layout, codes)
        trace = forward_batch(layout, params, pinned_edges=pinned, binary_gates=binary_gates)
        scores[start : start + trace.scores.shape[0]] = trace.scores
    return scores


# ---------------------------------------------------------------------------
# Public prediction surface.

@dataclass(frozen=True)
class PairAnalysis:
    """One unordered feature pair of one instance: gate, interaction, and its
    additive share of the raw score."""

    i: int
    j: int
    gate: float
    log_alpha: float | None
    interaction: np.ndarray
    contribution: float


@dataclass(frozen=True)
class Prediction:
    score: float
    node_updates: np.ndarray  # (k, interaction_dim)
    pairs: tuple[PairAnalysis, ...]


def _contributions(trace: Forward, params: ModelParams) -> np.ndarray:
    """Additive per-slot shares: each instance's score equals the sum of
    its slots' shares exactly (the readout is linear and each slot enters
    both endpoint node averages)."""
    lay = trace.layout
    slot_weight = _nodes_to_slots(lay, lay.values / trace.denom)
    readout_of_z = trace.interactions @ params.value("readout")
    shares = trace.edge_values * readout_of_z * slot_weight
    for b in lay.buckets:  # a score is the mean of its instance's k node readouts
        shares[b.slots] /= b.k
    return shares


def slot_columns(
    trace: Forward, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, gate, contribution) arrays with one entry per slot: the
    slot's feature pair, its gate value and its additive share of the
    score. Explanations and predictions read their pairs from these."""
    lay = trace.layout
    return (lay.ids[lay.slot_i], lay.ids[lay.slot_j], trace.edge_values,
            _contributions(trace, params))


def _prediction_from(trace: Forward, params: ModelParams) -> Prediction:
    score = trace.score  # one instance only
    i, j, gate, contribution = slot_columns(trace, params)
    log_alpha = [None] * gate.shape[0] if trace.log_alpha is None else trace.log_alpha.tolist()
    # each pair's interaction is a row of one copy, not a view of the trace
    pairs = tuple(map(PairAnalysis, i.tolist(), j.tolist(), gate.tolist(), log_alpha,
                      trace.interactions.copy(), contribution.tolist()))
    return Prediction(score=score, node_updates=trace.node_update.copy(), pairs=pairs)


def predict(
    instance: Instance,
    params: ModelParams,
    *,
    noise: np.ndarray | None = None,
    binary_gates: bool = False,
) -> Prediction:
    """Gated prediction; deterministic gates unless per-slot noise is given."""
    return _prediction_from(
        forward(instance, params, noise=noise, binary_gates=binary_gates), params
    )


def predict_fixed(
    instance: Instance,
    params: ModelParams,
    edges: np.ndarray | Iterable[tuple[int, int]],
) -> Prediction:
    """Prediction with gates pinned to explicit values: either a per-slot
    array or a set of unordered feature-id pairs (membership = gate 1)."""
    if isinstance(edges, np.ndarray):
        pinned = edges
    else:
        pinned = edges_for_instance(instance, edges)
    return _prediction_from(forward(instance, params, pinned_edges=pinned), params)


def score_only(
    instance: Instance,
    params: ModelParams,
    *,
    pinned_edges: np.ndarray | None = None,
    binary_gates: bool = False,
) -> float:
    """Raw score with deterministic (or pinned) gates, skipping analysis."""
    return forward(
        instance, params, pinned_edges=pinned_edges, binary_gates=binary_gates
    ).score


def edge_logit(i, j, params: ModelParams):
    """Gate location for the unordered feature pair (i, j); symmetric in its
    arguments because the pair enters as an elementwise product. Scalar ids
    give a float; equal-length id arrays give one logit per pair from one
    batched pass of the edge MLP."""
    ii, jj = np.asarray(i), np.asarray(j)
    if ii.shape != jj.shape or ii.ndim > 1:
        raise ValueError(f"pair id arrays of shapes {ii.shape} and {jj.shape}")
    ii, jj, scalar = ii.reshape(-1), jj.reshape(-1), ii.ndim == 0
    vocab = params.config.vocab_size
    outside = np.flatnonzero((ii < 0) | (ii >= vocab) | (jj < 0) | (jj >= vocab))
    if outside.size:
        n = outside[0]
        raise ValueError(f"pair ({ii[n]}, {jj[n]}) outside vocabulary of {vocab}")
    table = params.value("edge_embed")
    logits = _mlp("edge", table[ii], table[jj], params)[3][:, 0]
    return float(logits[0]) if scalar else logits


def make_probe_grid(
    dim: int, n_points: int = 3, amplitude: float = 1.0, seed: int = 0
) -> list[np.ndarray]:
    """Random probe vectors for the additivity check."""
    rng = np.random.default_rng(seed)
    return [amplitude * rng.standard_normal(dim) for _ in range(n_points)]


def additivity_probe(
    instance: Instance,
    params: ModelParams,
    edge_values: np.ndarray,
    pair: tuple[int, int],
    probes_i: Sequence[np.ndarray],
    probes_j: Sequence[np.ndarray],
    interaction_fn: Callable[[np.ndarray, np.ndarray, "ModelParams"], np.ndarray] | None = None,
) -> float:
    """Max |mixed second difference| of the score over a probe grid.

    With gates fixed, D(a, b) = f(a, b) - f(a, b0) - f(a0, b) + f(a0, b0)
    where f scores the instance with node slots `pair` = (si, sj) carrying
    vectors (a, b) and (a0, b0) is the unperturbed reference. D vanishes
    identically iff the score is additive across the two nodes, i.e. iff
    their gate carries no interaction effect.
    """
    si, sj = pair
    if si == sj:
        raise ValueError("probe pair must name two distinct node slots")
    base = forward(instance, params, pinned_edges=np.asarray(edge_values, dtype=np.float64))
    layout, vecs0 = base.layout, base.node_vecs
    slots = list(zip(layout.slot_i.tolist(), layout.slot_j.tolist()))

    def f(a: np.ndarray, b: np.ndarray) -> float:
        vecs = vecs0.copy()
        vecs[si] = a
        vecs[sj] = b
        if interaction_fn is None:
            interactions = _mlp("pair", vecs[layout.slot_i], vecs[layout.slot_j], params)[3]
        else:
            interactions = np.array([interaction_fn(vecs[p], vecs[q], params) for p, q in slots])
        return float(_aggregate(layout, base.edge_values, interactions, params)["scores"][0])

    ref_i, ref_j = vecs0[si], vecs0[sj]
    f_ref = f(ref_i, ref_j)
    f_a = {idx: f(a, ref_j) for idx, a in enumerate(probes_i)}
    f_b = {idx: f(ref_i, b) for idx, b in enumerate(probes_j)}
    worst = 0.0
    for ia, a in enumerate(probes_i):
        for jb, b in enumerate(probes_j):
            d = f(a, b) - f_a[ia] - f_b[jb] + f_ref
            worst = max(worst, abs(d))
    return worst


# ---------------------------------------------------------------------------
# Checkpoints: one JSON header line, then raw little-endian float64 blocks
# in PARAM_ORDER.

CHECKPOINT_FORMAT = "l0sign-checkpoint/1"


def save_checkpoint(path, params: ModelParams, seed: int, extra: dict | None = None) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "seed": int(seed),
        "model": params.config.to_json_dict(),
        "params": [
            {"name": name, "shape": list(params.value(name).shape)} for name in PARAM_ORDER
        ],
        "extra": extra or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for name in PARAM_ORDER:
            fh.write(np.ascontiguousarray(params.value(name), dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Parameters and header of a checkpoint. Any fault in the file (a bad
    header, a block shape other than the one `ModelParams.init` gives for
    the header's config, a short or overlong body, a non-finite value)
    raises one ValueError whose message starts with the path."""
    with open(path, "rb") as fh:
        try:
            return _read_checkpoint(fh)
        except KeyError as exc:
            raise ValueError(f"{path}: checkpoint header has no {exc} entry") from None
        except (ValueError, TypeError) as exc:  # JSON and UTF-8 errors are ValueErrors
            raise ValueError(f"{path}: {exc}") from None


def _read_checkpoint(fh) -> tuple[ModelParams, dict]:
    header = json.loads(fh.readline())
    found = header.get("format") if isinstance(header, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format {found!r}")
    config = ModelConfig.from_json_dict(header["model"])
    expected = config.param_shapes()
    names = [entry["name"] for entry in header["params"]]
    if names != list(PARAM_ORDER):
        raise ValueError(f"checkpoint parameters {names}, expected {list(PARAM_ORDER)}")
    for entry in header["params"]:
        shape = tuple(int(s) for s in entry["shape"])
        if shape != expected[entry["name"]]:
            raise ValueError(
                f"checkpoint parameter {entry['name']!r} has shape {list(shape)}, "
                f"but its model config gives {list(expected[entry['name']])}"
            )
    # the body is read whole, so a header cannot make the reader allocate
    # more than the file holds
    body = fh.read()
    sizes = [int(np.prod(expected[name])) for name in PARAM_ORDER]
    need = 8 * sum(sizes)
    if len(body) < need:
        raise ValueError(f"checkpoint truncated: {len(body)} parameter bytes of {need}")
    if len(body) > need:
        raise ValueError(f"checkpoint has {len(body) - need} trailing bytes after its last parameter")
    flat = np.frombuffer(body, dtype="<f8")
    store = nc.ParamStore()
    for name, block in zip(PARAM_ORDER, np.split(flat, np.cumsum(sizes)[:-1])):
        if not np.all(np.isfinite(block)):
            raise ValueError(f"checkpoint parameter {name!r} holds non-finite values")
        store.add(name, block.reshape(expected[name]))
    return ModelParams(config, store), header


def check_vocabulary(params: ModelParams, dataset: Dataset) -> None:
    """Reject data whose feature ids have no embedding in the checkpoint."""
    top = max((inst.nodes[-1] for inst in dataset.instances), default=-1)
    if top >= params.config.vocab_size:
        raise ValueError(
            f"data holds feature id {top}, but the checkpoint's vocabulary has only "
            f"{params.config.vocab_size} features"
        )
