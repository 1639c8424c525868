"""The batched pair-slot engine against the per-instance reference loop.

`reference_forward` / `reference_backward` / `reference_risk` are the
per-instance model and risk the engine replaced, kept here in their
original form: one instance at a time, `np.add.at` scatters, and one
`np.random.Philox` generator per sample for the gate noise. The engine must
agree with them to 1e-12 on scores, contributions, node updates, risk parts
and every gradient block, for every gate source.
"""

import dataclasses
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l0sign import data, evaluate, gates, model, train
from l0sign import numcore as nc
from l0sign.gates import NOISE_EPS, NoiseStream
from l0sign.model import ModelConfig, ModelParams
from l0sign.train import TrainConfig

SMALL = ModelConfig(vocab_size=12, edge_dim=4, interaction_dim=5, hidden_dim=6)
TOL = 1e-12


# ---------------------------------------------------------------------------
# The per-instance reference.

def reference_uniforms(seed, epoch, sample_index, count):
    key = np.array([seed, epoch], dtype=np.uint64)
    counter = np.array([0, sample_index, 0, 0], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(count)
    return np.clip(u, NOISE_EPS, 1.0 - NOISE_EPS)


def reference_edges(instance, edge_set):
    normalized = {(min(i, j), max(i, j)) for i, j in edge_set}
    pi, pj = np.triu_indices(instance.n_nodes)
    ids = instance.node_array
    return np.asarray(
        [1.0 if (int(ids[a]), int(ids[b])) in normalized else 0.0 for a, b in zip(pi, pj)]
    )


@dataclass
class Ref:
    instance: data.Instance
    mode: str
    pi: np.ndarray
    pj: np.ndarray
    off: np.ndarray
    edge_vecs: np.ndarray | None
    node_vecs: np.ndarray
    edge_prod: np.ndarray | None
    edge_pre: np.ndarray | None
    edge_act: np.ndarray | None
    log_alpha: np.ndarray | None
    gate: gates.GateBatch | None
    edge_values: np.ndarray
    pair_prod: np.ndarray
    pair_pre: np.ndarray
    pair_act: np.ndarray
    interactions: np.ndarray
    node_sum: np.ndarray
    soft_degree: np.ndarray
    denom: np.ndarray
    node_update: np.ndarray
    score: float


def reference_forward(inst, params, *, noise=None, pinned=None, binary=False):
    cfg = params.config
    ids, x, k = inst.node_array, inst.value_array, inst.n_nodes
    pi, pj = np.triu_indices(k)
    off = pi != pj
    node_vecs = x[:, None] * params.value("node_embed")[ids]
    if pinned is not None:
        mode = "pinned"
        edge_vecs = edge_prod = edge_pre = edge_act = log_alpha = gate = None
        edge_values = np.asarray(pinned, dtype=np.float64)
    else:
        edge_vecs = params.value("edge_embed")[ids]
        edge_prod = edge_vecs[pi] * edge_vecs[pj]
        edge_pre = edge_prod @ params.value("edge_hidden_w").T + params.value("edge_hidden_b")
        edge_act = np.maximum(edge_pre, 0.0)
        log_alpha = (edge_act @ params.value("edge_out_w").T + params.value("edge_out_b"))[:, 0]
        if noise is not None:
            mode, gate = "stochastic", gates.sample_array(log_alpha, noise, cfg.gate)
        elif binary:
            mode, gate = "binary", gates.binary_batch(log_alpha, cfg.gate)
        else:
            mode, gate = "deterministic", gates.deterministic_batch(log_alpha, cfg.gate)
        edge_values = gate.value
    pair_prod = node_vecs[pi] * node_vecs[pj]
    pair_pre = pair_prod @ params.value("pair_hidden_w").T + params.value("pair_hidden_b")
    pair_act = np.maximum(pair_pre, 0.0)
    interactions = pair_act @ params.value("pair_out_w").T + params.value("pair_out_b")
    gated = edge_values[:, None] * interactions
    node_sum = np.zeros((k, cfg.interaction_dim))
    np.add.at(node_sum, pi, gated)
    np.add.at(node_sum, pj[off], gated[off])
    soft_degree = np.zeros(k)
    np.add.at(soft_degree, pi, edge_values)
    np.add.at(soft_degree, pj[off], edge_values[off])
    denom = np.maximum(soft_degree, model.DEGREE_EPS)
    node_update = node_sum / denom[:, None]
    node_readout = (x[:, None] * node_update) @ params.value("readout")
    return Ref(inst, mode, pi, pj, off, edge_vecs, node_vecs, edge_prod, edge_pre, edge_act,
               log_alpha, gate, edge_values, pair_prod, pair_pre, pair_act, interactions,
               node_sum, soft_degree, denom, node_update,
               float(node_readout.mean()))


def reference_contributions(ref, params):
    x, k = ref.instance.value_array, ref.instance.n_nodes
    w = x / ref.denom
    slot_weight = w[ref.pi] + np.where(ref.off, w[ref.pj], 0.0)
    return ref.edge_values * (ref.interactions @ params.value("readout")) * slot_weight / k


def reference_backward(ref, params, d_score, *, d_interactions=None, d_log_alpha=None):
    store = params.store
    ids, x, k = ref.instance.node_array, ref.instance.value_array, ref.instance.n_nodes
    pi, pj, off = ref.pi, ref.pj, ref.off
    g_node_readout = np.full(k, d_score / k)
    store.accumulate("readout", g_node_readout @ (x[:, None] * ref.node_update))
    g_node_update = x[:, None] * np.outer(g_node_readout, params.value("readout"))
    g_node_sum = g_node_update / ref.denom[:, None]
    g_denom = -(g_node_update * ref.node_sum).sum(axis=1) / ref.denom**2
    g_soft_degree = np.where(ref.soft_degree > model.DEGREE_EPS, g_denom, 0.0)
    g_gated = g_node_sum[pi] + np.where(off[:, None], g_node_sum[pj], 0.0)
    g_edge_values = (g_gated * ref.interactions).sum(axis=1)
    g_edge_values += g_soft_degree[pi] + np.where(off, g_soft_degree[pj], 0.0)
    g_inter = ref.edge_values[:, None] * g_gated
    if d_interactions is not None:
        g_inter = g_inter + d_interactions

    def linear_back(name_w, name_b, inputs, upstream):
        store.accumulate(name_w, upstream.T @ inputs)
        store.accumulate(name_b, upstream.sum(axis=0))
        return upstream @ params.value(name_w)

    g_pair_pre = linear_back("pair_out_w", "pair_out_b", ref.pair_act, g_inter) * (ref.pair_pre > 0)
    g_pair_prod = linear_back("pair_hidden_w", "pair_hidden_b", ref.pair_prod, g_pair_pre)
    g_node_vecs = np.zeros_like(ref.node_vecs)
    np.add.at(g_node_vecs, pi, g_pair_prod * ref.node_vecs[pj])
    np.add.at(g_node_vecs, pj, g_pair_prod * ref.node_vecs[pi])
    g_embed = np.zeros_like(store.value("node_embed"))
    np.add.at(g_embed, ids, x[:, None] * g_node_vecs)
    store.accumulate("node_embed", g_embed)
    if ref.mode == "pinned":
        return
    cfg = params.config.gate
    if ref.mode == "stochastic":
        gate_grad = gates.grad_log_alpha(ref.gate, cfg)
    else:
        gate_grad = gates.deterministic_grad_log_alpha(ref.log_alpha, cfg)
    g_log_alpha = g_edge_values * gate_grad
    if d_log_alpha is not None:
        g_log_alpha = g_log_alpha + d_log_alpha
    g_edge_pre = linear_back("edge_out_w", "edge_out_b", ref.edge_act, g_log_alpha[:, None])
    g_edge_prod = linear_back("edge_hidden_w", "edge_hidden_b", ref.edge_prod,
                              g_edge_pre * (ref.edge_pre > 0))
    g_edge_vecs = np.zeros_like(ref.edge_vecs)
    np.add.at(g_edge_vecs, pi, g_edge_prod * ref.edge_vecs[pj])
    np.add.at(g_edge_vecs, pj, g_edge_prod * ref.edge_vecs[pi])
    g_table = np.zeros_like(store.value("edge_embed"))
    np.add.at(g_table, ids, g_edge_vecs)
    store.accumulate("edge_embed", g_table)


def reference_risk(batch, params, tcfg, *, epoch=0, noise_seed=None, sink=None):
    """(total, loss, l0, l2) with gradients accumulated in sample order."""
    inv = 1.0 / len(batch)
    gate_cfg = params.config.gate
    loss_sum = l0_sum = l2_sum = 0.0
    for sample_index, inst in batch:
        if tcfg.mode == "l0sign":
            u = None
            if noise_seed is not None:
                u = reference_uniforms(noise_seed, epoch, sample_index,
                                       model.pair_count(inst.n_nodes))
            ref = reference_forward(inst, params, noise=u)
        elif tcfg.mode == "sign-complete":
            ref = reference_forward(inst, params, pinned=np.ones(model.pair_count(inst.n_nodes)))
        else:
            ref = reference_forward(inst, params, pinned=reference_edges(inst, tcfg.fixed_edges))
        signed = float(inst.signed_label)
        margin = signed * ref.score
        loss_sum += float(np.logaddexp(0.0, -margin))
        l2_sum += float((ref.interactions**2).sum())
        d_la = None
        if tcfg.mode == "l0sign":
            l0_sum += float(np.sum(gates.open_probability(ref.log_alpha, gate_cfg)))
            d_la = (tcfg.lambda1 * inv) * gates.open_probability_grad(ref.log_alpha, gate_cfg)
        if sink is not None:
            sink.append((inst.node_array.copy(), ref.node_update.copy()))
        d_score = -signed * float(nc.sigmoid(-margin)) * inv
        reference_backward(ref, params, d_score,
                           d_interactions=(2.0 * tcfg.lambda2 * inv) * ref.interactions,
                           d_log_alpha=d_la)
    loss, l0, l2 = loss_sum * inv, l0_sum * inv, l2_sum * inv
    return loss + tcfg.lambda1 * l0 + tcfg.lambda2 * l2, loss, l0, l2


# ---------------------------------------------------------------------------
# Helpers.

def ragged_batch(seed, sizes=(3, 1, 5, 2, 6, 1, 4, 7)):
    rng = np.random.default_rng(seed)
    out = []
    for k in sizes:
        nodes = sorted(rng.choice(SMALL.vocab_size, size=k, replace=False).tolist())
        out.append(data.make_instance(nodes, rng.uniform(0.3, 1.8, size=k).tolist(),
                                      int(rng.integers(0, 2))))
    return out


def assert_close(got, want, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, what
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    worst = float(np.max(np.abs(got - want), initial=0.0))
    assert worst <= TOL * scale, f"{what}: max |diff| {worst:.3e}"


def engine_risk(batch, params, tcfg, *, epoch=0, noise_seed=None, **kwargs):
    """`train.risk` over one of `reference_risk`'s (sample_index, instance)
    batches, with the gate noise `fit` would draw for those samples (which
    the pinned modes ignore)."""
    instances = [inst for _, inst in batch]
    noise = None
    if noise_seed is not None:
        counts = [model.pair_count(inst.n_nodes) for inst in instances]
        noise = NoiseStream(noise_seed).uniforms(epoch, [n for n, _ in batch], counts)
    return train.risk(instances, params, tcfg, noise=noise, **kwargs)


def grads_of(params, fn):
    params.store.zero_grads()
    out = fn()
    return out, params.store.grads()


def every_pair_edge_set(rng, vocab, share):
    return frozenset(
        (int(i), int(j)) for i in range(vocab) for j in range(i, vocab) if rng.random() < share
    )


SOURCES = ("stochastic", "deterministic", "binary", "pinned")
# every engine case aggregates with the soft-degree denominator
SOURCE_IDS = [f"{source}-soft-degree" for source in SOURCES]


def gate_inputs(source, batch, rng):
    """Per-instance keyword arguments of one gate source."""
    per = []
    for inst in batch:
        p = model.pair_count(inst.n_nodes)
        if source == "stochastic":
            per.append({"noise": rng.uniform(0.02, 0.98, size=p)})
        elif source == "binary":
            per.append({"binary": True})
        elif source == "pinned":
            per.append({"pinned": rng.uniform(0.0, 1.0, size=p) * (rng.random(p) < 0.7)})
        else:
            per.append({})
    return per


def engine_options(per):
    opts = {}
    if "noise" in per[0]:
        opts["noise"] = np.concatenate([o["noise"] for o in per])
    if "pinned" in per[0]:
        opts["pinned_edges"] = np.concatenate([o["pinned"] for o in per])
    if "binary" in per[0]:
        opts["binary_gates"] = True
    return opts


# ---------------------------------------------------------------------------
# Forward and backward of one batch, every gate source.

@pytest.mark.parametrize("source", SOURCES, ids=SOURCE_IDS)
def test_engine_matches_reference_loop(source):
    rng = np.random.default_rng(SOURCES.index(source))
    params = ModelParams.random(SMALL, seed=5)
    batch = ragged_batch(seed=11)
    per = gate_inputs(source, batch, rng)
    refs = [
        reference_forward(inst, params, noise=o.get("noise"), pinned=o.get("pinned"),
                          binary=o.get("binary", False))
        for inst, o in zip(batch, per)
    ]
    layout = model.PairLayout.of(batch)
    trace = model.forward_batch(layout, params, **engine_options(per))

    assert trace.mode == refs[0].mode
    assert_close(trace.scores, [r.score for r in refs], "scores")
    assert_close(trace.edge_values, np.concatenate([r.edge_values for r in refs]), "gates")
    assert_close(trace.node_update, np.concatenate([r.node_update for r in refs]), "node_update")
    assert_close(
        model._contributions(trace, params),
        np.concatenate([reference_contributions(r, params) for r in refs]),
        "contributions",
    )
    bounds = np.cumsum([r.edge_values.shape[0] for r in refs])[:-1]
    per_instance = np.split(model._contributions(trace, params), bounds)
    for r, shares in zip(refs, per_instance):  # contributions still add up per instance
        assert shares.sum() == pytest.approx(r.score, abs=1e-12)

    if source == "binary":
        with pytest.raises(ValueError, match="evaluation-only"):
            model.backward(trace, params, 1.0)
        return
    d_score = rng.standard_normal(len(batch))
    d_inter = [rng.standard_normal(r.interactions.shape) for r in refs]
    d_la = None if source == "pinned" else [rng.standard_normal(r.edge_values.shape) for r in refs]
    _, want = grads_of(params, lambda: [
        reference_backward(r, params, float(d_score[n]), d_interactions=d_inter[n],
                           d_log_alpha=None if d_la is None else d_la[n])
        for n, r in enumerate(refs)
    ])
    _, got = grads_of(params, lambda: model.backward(
        trace, params, d_score, d_interactions=np.concatenate(d_inter),
        d_log_alpha=None if d_la is None else np.concatenate(d_la),
    ))
    for name in model.PARAM_ORDER:
        assert_close(got[name], want[name], name)


def test_forward_is_the_batch_of_one():
    params = ModelParams.random(SMALL, seed=2)
    for inst in ragged_batch(seed=3):
        trace = model.forward(inst, params)
        ref = reference_forward(inst, params)
        np.testing.assert_array_equal(trace.layout.ids, inst.node_array)
        np.testing.assert_array_equal(trace.layout.values, inst.value_array)
        np.testing.assert_array_equal(trace.layout.counts, [inst.n_nodes])
        assert trace.score == pytest.approx(ref.score, abs=TOL)
        np.testing.assert_array_equal(trace.layout.slot_i, ref.pi)
        np.testing.assert_array_equal(trace.layout.slot_j, ref.pj)
    many = model.forward_batch(model.PairLayout.of(ragged_batch(seed=3)), params)
    with pytest.raises(ValueError, match="8 instances"):
        many.score


def test_layout_of_a_batch_concatenates_single_layouts():
    batch = ragged_batch(seed=4)
    layout = model.PairLayout.of(batch)
    node_start = slot_start = 0
    for b, inst in enumerate(batch):
        one = model.PairLayout.of((inst,))
        k, p = inst.n_nodes, model.pair_count(inst.n_nodes)
        np.testing.assert_array_equal(layout.slot_i[slot_start : slot_start + p],
                                      one.slot_i + node_start)
        np.testing.assert_array_equal(layout.slot_j[slot_start : slot_start + p],
                                      one.slot_j + node_start)
        np.testing.assert_array_equal(layout.ids[node_start : node_start + k], inst.node_array)
        bucket, = (bk for bk in layout.buckets if bk.k == k)
        n = bucket.instances.tolist().index(b)  # b's block in its node-count bucket
        np.testing.assert_array_equal(bucket.nodes[n * k : (n + 1) * k],
                                      np.arange(node_start, node_start + k))
        np.testing.assert_array_equal(bucket.slots[n * p : (n + 1) * p],
                                      np.arange(slot_start, slot_start + p))
        node_start += k
        slot_start += p
    assert slot_start == layout.slot_i.shape[0]


def test_pinned_lookup_matches_set_membership():
    rng = np.random.default_rng(8)
    batch = ragged_batch(seed=8)
    for share in (0.0, 0.3, 1.0):
        edges = every_pair_edge_set(rng, SMALL.vocab_size, share)
        # reversed tuples and pairs outside the vocabulary are tolerated
        outside = {(2, 40), (-1, 3), (2**31, 1)}
        messy = set(edges) | {(j, i) for i, j in list(edges)[:3]} | outside
        layout = model.PairLayout.of(batch)
        got = model.pinned_edges(layout, model.edge_codes(messy))
        np.testing.assert_array_equal(got, model.pinned_edges(layout, model.edge_codes(edges)))
        want = np.concatenate([reference_edges(inst, edges) for inst in batch])
        np.testing.assert_array_equal(got, want)
        for inst in batch:
            np.testing.assert_array_equal(model.edges_for_instance(inst, messy),
                                          reference_edges(inst, edges))


# ---------------------------------------------------------------------------
# Distinct rows: each MLP runs once per distinct input of a layout.

MIXED_FEATURE = 2


def repeating_batch(seed, n=30, vocab=5):
    """Instances over a few features, so feature pairs repeat across
    instances. Feature MIXED_FEATURE carries value 1 in some instances and
    0.5 in others; every other feature has value 1."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(1, vocab))
        nodes = sorted(rng.choice(vocab, size=k, replace=False).tolist())
        values = [rng.choice([0.5, 1.0]) if f == MIXED_FEATURE else 1.0 for f in nodes]
        out.append(data.make_instance(nodes, values, int(rng.integers(0, 2))))
    return out


def test_layout_rows_are_the_distinct_mlp_inputs():
    layout = model.PairLayout.of(repeating_batch(seed=1))
    ids, x = layout.ids, layout.values
    gi, gj = layout.slot_i, layout.slot_j
    rows = model.distinct_rows(layout)
    pi, pj = rows.pair_i, rows.pair_j
    slot_inputs = list(zip(ids[gi], x[gi], ids[gj], x[gj]))
    row_inputs = list(zip(ids[pi], x[pi], ids[pj], x[pj]))
    assert len(set(row_inputs)) == len(row_inputs)
    assert [row_inputs[r] for r in rows.pair_row_of] == slot_inputs
    edge_codes = ids[rows.edge_i] * 2**31 + ids[rows.edge_j]
    assert len(set(edge_codes)) == len(edge_codes)
    np.testing.assert_array_equal(edge_codes[rows.edge_row_of], layout.pair_codes())
    for row_of in (rows.pair_row_of, rows.edge_row_of):  # in first-slot order
        _, first_slot = np.unique(row_of, return_index=True)
        assert np.all(np.diff(first_slot) > 0)
    # pairs repeat, and the mixed feature's two values keep its pair rows
    # apart but share its edge row
    assert len(edge_codes) < len(row_inputs) < gi.shape[0] / 3
    self_rows = [r for r in row_inputs if r[0] == r[2] == MIXED_FEATURE]
    assert sorted(r[1] for r in self_rows) == [0.5, 1.0]


def test_layout_of_distinct_slots_has_identity_rows():
    batch = [data.make_instance([0, 3, 4], [1.0, 1.0, 1.0], 1),
             data.make_instance([1, 2], [1.0, 1.0], 0),
             data.make_instance([3, 4], [0.5, 2.0], 0)]  # features 3, 4 at other values
    layout = model.PairLayout.of(batch)
    rows = model.distinct_rows(layout)
    assert rows.edge_i.shape[0] < layout.slot_i.shape[0]
    np.testing.assert_array_equal(rows.pair_row_of, np.arange(layout.slot_i.shape[0]))
    np.testing.assert_array_equal(rows.pair_i, layout.slot_i)
    np.testing.assert_array_equal(rows.pair_j, layout.slot_j)


@pytest.mark.parametrize("source", SOURCES, ids=SOURCE_IDS)
def test_engine_matches_reference_on_repeated_pairs(source):
    rng = np.random.default_rng(10 + SOURCES.index(source))
    params = ModelParams.random(SMALL, seed=6)
    batch = repeating_batch(seed=2)
    per = gate_inputs(source, batch, rng)
    refs = [
        reference_forward(inst, params, noise=o.get("noise"), pinned=o.get("pinned"),
                          binary=o.get("binary", False))
        for inst, o in zip(batch, per)
    ]
    layout = model.PairLayout.of(batch)
    trace = model.forward_batch(layout, params, **engine_options(per))
    rows = trace.rows
    assert rows.pair_i.shape[0] < layout.slot_i.shape[0]
    assert trace.pair_pre.shape == (rows.pair_i.shape[0], SMALL.hidden_dim)
    if source != "pinned":
        assert trace.edge_pre.shape == (rows.edge_i.shape[0], SMALL.hidden_dim)
        assert_close(trace.log_alpha, np.concatenate([r.log_alpha for r in refs]), "log_alpha")

    assert_close(trace.scores, [r.score for r in refs], "scores")
    assert_close(trace.interactions, np.concatenate([r.interactions for r in refs]),
                 "interactions")
    assert_close(trace.edge_values, np.concatenate([r.edge_values for r in refs]), "gates")
    assert_close(trace.node_update, np.concatenate([r.node_update for r in refs]), "node_update")
    assert_close(
        model._contributions(trace, params),
        np.concatenate([reference_contributions(r, params) for r in refs]),
        "contributions",
    )
    if source == "stochastic":  # repeated pairs share a gate location, not a gate
        spread = [np.ptp(trace.edge_values[rows.edge_row_of == r])
                  for r in range(rows.edge_i.shape[0])]
        assert max(spread) > 0.1
    if source == "binary":
        return
    d_score = rng.standard_normal(len(batch))
    d_inter = [rng.standard_normal(r.interactions.shape) for r in refs]
    d_la = None if source == "pinned" else [rng.standard_normal(r.edge_values.shape) for r in refs]
    _, want = grads_of(params, lambda: [
        reference_backward(r, params, float(d_score[n]), d_interactions=d_inter[n],
                           d_log_alpha=None if d_la is None else d_la[n])
        for n, r in enumerate(refs)
    ])
    _, got = grads_of(params, lambda: model.backward(
        trace, params, d_score, d_interactions=np.concatenate(d_inter),
        d_log_alpha=None if d_la is None else np.concatenate(d_la),
    ))
    for name in model.PARAM_ORDER:
        assert_close(got[name], want[name], name)


def test_one_instance_layout_runs_its_mlps_on_exactly_its_slots(monkeypatch):
    def no_unique_pass(*args):
        raise AssertionError("a one-instance layout needs no unique pass")

    monkeypatch.setattr(model, "_first_appearance", no_unique_pass)
    params = ModelParams.random(SMALL, seed=4)
    for inst in ragged_batch(seed=5):
        k, n_slots = inst.n_nodes, model.pair_count(inst.n_nodes)
        layout = model.PairLayout.of((inst,))
        rows = model.distinct_rows(layout)
        assert rows is model._single_rows(k)
        assert rows.pair_i is rows.edge_i is layout.slot_i
        assert rows.pair_j is rows.edge_j is layout.slot_j
        assert rows.pair_row_of is rows.edge_row_of
        np.testing.assert_array_equal(rows.pair_row_of, np.arange(n_slots))
        trace = model.forward_batch(layout, params, noise=np.full(n_slots, 0.3))
        assert trace.pair_pre.shape == trace.edge_pre.shape == (n_slots, SMALL.hidden_dim)
        assert trace.interactions.shape == (n_slots, SMALL.interaction_dim)
        model.backward(trace, params, 1.0)


@pytest.mark.parametrize("batch", [repeating_batch(seed=3), ragged_batch(seed=6)[2:3]],
                         ids=["repeating", "one-instance"])
def test_pinned_trace_carries_no_edge_rows(batch, monkeypatch):
    rng = np.random.default_rng(12)
    params = ModelParams.random(SMALL, seed=7)
    per = gate_inputs("pinned", batch, rng)
    refs = [reference_forward(inst, params, pinned=o["pinned"]) for inst, o in zip(batch, per)]
    unique_passes = []
    first_appearance = model._first_appearance

    def counted(keys):
        unique_passes.append(keys.shape[0])
        return first_appearance(keys)

    monkeypatch.setattr(model, "_first_appearance", counted)
    trace = model.forward_batch(model.PairLayout.of(batch), params, **engine_options(per))
    assert trace.rows.edge_i is trace.rows.edge_j is trace.rows.edge_row_of is None
    assert len(unique_passes) == (len(batch) > 1)  # the pair rows' pass only
    assert_close(trace.scores, [r.score for r in refs], "scores")
    assert_close(trace.interactions, np.concatenate([r.interactions for r in refs]),
                 "interactions")
    d_score = rng.standard_normal(len(batch))
    d_inter = [rng.standard_normal(r.interactions.shape) for r in refs]
    _, want = grads_of(params, lambda: [
        reference_backward(r, params, float(d_score[n]), d_interactions=d_inter[n])
        for n, r in enumerate(refs)
    ])
    _, got = grads_of(params, lambda: model.backward(
        trace, params, d_score, d_interactions=np.concatenate(d_inter)))
    for name in model.PARAM_ORDER:
        assert_close(got[name], want[name], name)


@pytest.mark.parametrize("name", ["l0sign-noise", "sign-fixed"])
def test_risk_at_the_chunk_budget_matches_reference(name, monkeypatch):
    tcfg, _ = risk_modes()[name]
    params = ModelParams.random(SMALL, seed=13)
    instances = repeating_batch(seed=3, n=160, vocab=SMALL.vocab_size)
    assert sum(model.pair_count(inst.n_nodes) for inst in instances) > 2 * model.CHUNK_SLOTS
    assert len(list(model.chunk_layouts(data.columns_of(instances)))) > 2
    batch = [(3 * n + 1, inst) for n, inst in enumerate(instances)]
    want, want_grads = grads_of(params, lambda: reference_risk(batch, params, tcfg, epoch=2,
                                                               noise_seed=tcfg.seed))
    for budget in (model.CHUNK_SLOTS, 10**6):  # many chunks, then one
        monkeypatch.setattr(model, "CHUNK_SLOTS", budget)
        got, got_grads = grads_of(params, lambda: engine_risk(batch, params, tcfg, epoch=2,
                                                              noise_seed=tcfg.seed))
        assert_close([got.total, got.loss, got.l0, got.l2], want, f"risk parts, budget {budget}")
        for block in model.PARAM_ORDER:
            assert_close(got_grads[block], want_grads[block], f"{block}, budget {budget}")


def test_engine_matches_reference_on_uniform_and_mixed_chunks(monkeypatch):
    """One risk call whose first chunk holds a single node count (one
    bucket of slices) and whose second mixes three (buckets of index
    arrays)."""
    monkeypatch.setattr(model, "CHUNK_SLOTS", 28)
    instances = ragged_batch(seed=23, sizes=(3, 3, 3, 3, 5, 2, 4))
    chunks = list(model.chunk_layouts(data.columns_of(instances)))
    assert [start for start, _ in chunks] == [0, 4]
    (_, uniform), (_, mixed) = chunks
    assert [b.k for b in uniform.buckets] == [3]
    assert all(isinstance(part, slice) for part in uniform.buckets[0][1:])
    assert [b.k for b in mixed.buckets] == [2, 4, 5]
    assert not any(isinstance(part, slice) for b in mixed.buckets for part in b[1:])

    params = ModelParams.random(SMALL, seed=14)
    for start, layout in chunks:
        trace = model.forward_batch(layout, params)
        refs = [reference_forward(inst, params)
                for inst in instances[start : start + layout.counts.shape[0]]]
        assert_close(trace.scores, [r.score for r in refs], "scores")
        assert_close(model._contributions(trace, params),
                     np.concatenate([reference_contributions(r, params) for r in refs]),
                     "contributions")

    tcfg, _ = risk_modes()["l0sign-noise"]
    batch = list(enumerate(instances))
    want, want_grads = grads_of(params, lambda: reference_risk(batch, params, tcfg, epoch=1,
                                                               noise_seed=tcfg.seed))
    got, got_grads = grads_of(params, lambda: engine_risk(batch, params, tcfg, epoch=1,
                                                          noise_seed=tcfg.seed))
    assert_close([got.total, got.loss, got.l0, got.l2], want, "risk parts")
    for block in model.PARAM_ORDER:
        assert_close(got_grads[block], want_grads[block], block)


def test_buckets_above_the_incidence_cap_match_the_reference(monkeypatch):
    """Buckets of more than INCIDENCE_MAX_K nodes go through the end nodes
    of their slots, and no incidence matrix above the cap is built."""
    cap = 4
    monkeypatch.setattr(model, "INCIDENCE_MAX_K", cap)
    built, incidence = [], model._incidence
    monkeypatch.setattr(model, "_incidence", lambda k: built.append(k) or incidence(k))
    params = ModelParams.random(SMALL, seed=18)
    instances = ragged_batch(seed=24, sizes=(9, 1, 5, 7, 2, 4, 8, 3, 6, 5, 9))
    refs = [reference_forward(inst, params) for inst in instances]
    # one layout of mixed buckets (index arrays), then one per instance (slices)
    layouts = [(0, model.PairLayout.of(instances))]
    layouts += [(n, model.PairLayout.of((inst,))) for n, inst in enumerate(instances)]
    for first, layout in layouts:
        trace = model.forward_batch(layout, params)
        want = refs[first : first + layout.counts.shape[0]]
        assert_close(trace.scores, [r.score for r in want], "scores")
        assert_close(model.slot_columns(trace, params)[3],
                     np.concatenate([reference_contributions(r, params) for r in want]),
                     "contributions")

    tcfg, _ = risk_modes()["l0sign-noise"]
    batch = list(enumerate(instances))
    want, want_grads = grads_of(params, lambda: reference_risk(batch, params, tcfg, epoch=1,
                                                               noise_seed=tcfg.seed))
    for budget in (10**6, 30):  # one chunk, then many
        monkeypatch.setattr(model, "CHUNK_SLOTS", budget)
        got, got_grads = grads_of(params, lambda: engine_risk(batch, params, tcfg, epoch=1,
                                                              noise_seed=tcfg.seed))
        assert_close([got.total, got.loss, got.l0, got.l2], want, f"risk parts, budget {budget}")
        for block in model.PARAM_ORDER:
            assert_close(got_grads[block], want_grads[block], f"{block}, budget {budget}")
    assert built and max(built) <= cap


# ---------------------------------------------------------------------------
# Risk: every mode, chunking, and the literal update's sink.

def risk_modes():
    every = frozenset((i, j) for i in range(SMALL.vocab_size) for j in range(i, SMALL.vocab_size))
    some = every_pair_edge_set(np.random.default_rng(1), SMALL.vocab_size, 0.4)
    return {
        "l0sign-noise": (TrainConfig(seed=7, lambda1=0.05, lambda2=0.02), True),
        "l0sign-noise-free": (TrainConfig(seed=7, lambda1=0.05, lambda2=0.02), False),
        "sign-complete": (TrainConfig(seed=7, mode="sign-complete"), True),
        "sign-fixed": (TrainConfig(seed=7, mode="sign-fixed", fixed_edges=some), True),
        "sign-fixed-every": (TrainConfig(seed=7, mode="sign-fixed", fixed_edges=every), True),
    }


@pytest.mark.parametrize("name", list(risk_modes()))
def test_risk_matches_reference_loop(name, monkeypatch):
    tcfg, use_noise = risk_modes()[name]
    params = ModelParams.random(SMALL, seed=9)
    # sample indices out of order and beyond 2**32: noise is keyed, not positional
    batch = [(2**33 + 5 * n if n % 2 else 7 * n, inst)
             for n, inst in enumerate(ragged_batch(seed=12) * 3)]
    seed = tcfg.seed if use_noise else None
    want, want_grads = grads_of(params, lambda: reference_risk(batch, params, tcfg, epoch=4,
                                                               noise_seed=seed))
    for budget in (10**6, 10):  # one chunk, then many
        monkeypatch.setattr(model, "CHUNK_SLOTS", budget)
        got, got_grads = grads_of(params, lambda: engine_risk(batch, params, tcfg, epoch=4,
                                                              noise_seed=seed))
        assert_close([got.total, got.loss, got.l0, got.l2], want, f"risk parts, budget {budget}")
        for block in model.PARAM_ORDER:
            assert_close(got_grads[block], want_grads[block], f"{block}, budget {budget}")


def test_risk_is_the_same_in_one_chunk_or_many(monkeypatch):
    params = ModelParams.random(SMALL, seed=10)
    batch = list(enumerate(ragged_batch(seed=13, sizes=(6, 1, 4, 6, 2, 5, 3, 6, 1, 7) * 4)))
    tcfg = TrainConfig(seed=2, lambda1=0.1)
    results = []
    for budget in (10**6, 64, 21, 1):
        monkeypatch.setattr(model, "CHUNK_SLOTS", budget)
        results.append(grads_of(params, lambda: engine_risk(batch, params, tcfg, epoch=1,
                                                            noise_seed=2)))
    (one, one_grads), *rest = results
    for got, got_grads in rest:
        assert_close([got.total, got.loss, got.l0, got.l2],
                     [one.total, one.loss, one.l0, one.l2], "risk parts")
        for block in model.PARAM_ORDER:
            assert_close(got_grads[block], one_grads[block], block)


def test_node_update_sink_keeps_sample_order(monkeypatch):
    monkeypatch.setattr(model, "CHUNK_SLOTS", 12)
    params = ModelParams.random(SMALL, seed=11)
    batch = [(40 - n, inst) for n, inst in enumerate(ragged_batch(seed=14) * 2)]
    tcfg = TrainConfig(seed=3, embedding_update="algorithm-literal")
    want = []
    reference_risk(batch, params, tcfg, epoch=2, noise_seed=3, sink=want)
    got = []
    engine_risk(batch, params, tcfg, epoch=2, noise_seed=3, node_update_sink=got)
    assert len(got) == len(want) == len(batch)
    for (ids, upd), (want_ids, want_upd) in zip(got, want):
        np.testing.assert_array_equal(ids, want_ids)
        assert_close(upd, want_upd, "node_update")


def test_chunks_respect_the_slot_budget(monkeypatch):
    monkeypatch.setattr(model, "CHUNK_SLOTS", 20)
    batch = ragged_batch(seed=15, sizes=(3, 1, 5, 2, 6, 1, 4, 7, 2))  # k=6, 7 exceed 20 alone
    next_start, counts, ids, values = 0, [], [], []
    for start, layout in model.chunk_layouts(data.columns_of(batch)):
        assert start == next_start  # consecutive runs, in order
        next_start += layout.counts.shape[0]
        assert layout.slot_i.shape[0] <= 20 or layout.counts.shape[0] == 1
        counts.append(layout.counts)
        ids.append(layout.ids)
        values.append(layout.values)
    assert next_start == len(batch)  # every row once
    np.testing.assert_array_equal(np.concatenate(counts), [inst.n_nodes for inst in batch])
    np.testing.assert_array_equal(np.concatenate(ids),
                                  np.concatenate([inst.node_array for inst in batch]))
    np.testing.assert_array_equal(np.concatenate(values),
                                  np.concatenate([inst.value_array for inst in batch]))


def test_score_many_matches_per_instance_scores():
    params = ModelParams.random(SMALL, seed=12)
    batch = ragged_batch(seed=16) * 40
    edges = every_pair_edge_set(np.random.default_rng(2), SMALL.vocab_size, 0.5)
    for kwargs, one in (
        ({}, lambda inst: reference_forward(inst, params).score),
        ({"binary_gates": True}, lambda inst: reference_forward(inst, params, binary=True).score),
        ({"edges": edges},
         lambda inst: reference_forward(inst, params, pinned=reference_edges(inst, edges)).score),
    ):
        assert_close(model.score_many(batch, params, **kwargs), [one(i) for i in batch],
                     f"score_many {sorted(kwargs)}")


@pytest.mark.parametrize("rows", [[], [0, 1]], ids=["empty", "two-rows"])
def test_score_many_rejects_binary_gates_with_edges_before_its_first_chunk(rows):
    batch = ragged_batch(seed=16)
    ds = data.Dataset([batch[r] for r in rows], vocab_size=SMALL.vocab_size)
    params = ModelParams.random(SMALL, seed=12)
    with pytest.raises(ValueError, match="binary gates need predicted logits; got pinned edges"):
        model.score_many(ds, params, binary_gates=True, edges={(0, 1)})


# ---------------------------------------------------------------------------
# Open-only passes: the pair MLP runs only on the rows an open slot reads.

FRAPPE = dataclasses.replace(SMALL, vocab_size=5382)
CLOSINGS = ("none", "some", "all")


def frappe_batch(seed, n=40, k=10):
    """Frappe-shaped rows: k features of a large vocabulary, value 1 each."""
    rng = np.random.default_rng(seed)
    return [data.make_instance(rng.choice(FRAPPE.vocab_size, size=k, replace=False).tolist(),
                               [1.0] * k, int(rng.integers(0, 2)))
            for _ in range(n)]


def closing_shift(params, log_alpha, share):
    """Shift of `edge_out_b` that closes the deterministic gates of the
    `share` quantile of `log_alpha` (a gate is open exactly where
    sigmoid(log_alpha) exceeds -low / (high - low))."""
    g = params.config.gate
    s0 = -g.stretch_low / (g.stretch_high - g.stretch_low)
    return np.log(s0 / (1.0 - s0)) - np.quantile(log_alpha, share)


def gate_setting(source, closing, params, layout, rng):
    """(params, forward_batch options) of a gate source with none, some or
    all of the layout's gates closed."""
    n = layout.slot_i.shape[0]
    if source == "pinned":
        share = {"none": 0.0, "some": 0.6, "all": 1.0}[closing]
        return params, {"pinned_edges": rng.uniform(0.2, 1.0, n) * (rng.random(n) >= share)}
    shifted = params.clone()
    if closing == "some":
        log_alpha = model.forward_batch(layout, params).log_alpha
        shifted.value("edge_out_b")[...] += closing_shift(params, log_alpha, 0.6)
    else:
        shifted.value("edge_out_b")[...] += 50.0 if closing == "none" else -50.0
    return shifted, {"binary_gates": source == "binary"}


@pytest.mark.parametrize("closing", CLOSINGS)
@pytest.mark.parametrize("source", ("deterministic", "binary", "pinned"))
@pytest.mark.parametrize("shape", ("ragged", "frappe"))
def test_open_only_pass_matches_dense_pass_and_reference(shape, source, closing):
    config, batch = (SMALL, ragged_batch(seed=24)) if shape == "ragged" else (FRAPPE, frappe_batch(2))
    rng = np.random.default_rng(CLOSINGS.index(closing))
    layout = model.PairLayout.of(batch)
    params, opts = gate_setting(source, closing, ModelParams.random(config, seed=15), layout, rng)
    dense = model.forward_batch(layout, params, **opts)
    trace = model.forward_batch(layout, params, open_only=True, **opts)
    is_open = trace.edge_values != 0
    assert {"none": is_open.all(), "some": 0.2 < is_open.mean() < 0.8,
            "all": not is_open.any()}[closing]

    bounds = np.cumsum([model.pair_count(inst.n_nodes) for inst in batch])[:-1]
    pinned = np.split(opts.get("pinned_edges", np.zeros(layout.slot_i.shape[0])), bounds)
    refs = [reference_forward(inst, params, binary=source == "binary",
                              pinned=p if source == "pinned" else None)
            for inst, p in zip(batch, pinned)]
    contributions = model.slot_columns(trace, params)[3]
    assert_close(trace.scores, dense.scores, "scores against the dense pass")
    assert_close(trace.scores, [r.score for r in refs], "scores against the reference")
    assert_close(contributions, model.slot_columns(dense, params)[3],
                 "contributions against the dense pass")
    assert_close(contributions, np.concatenate([reference_contributions(r, params) for r in refs]),
                 "contributions against the reference")
    np.testing.assert_array_equal(trace.edge_values, dense.edge_values)
    # the pair MLP ran on the rows an open slot reads, and only on those
    read = np.unique(trace.rows.pair_row_of[is_open])
    assert trace.pair_pre.shape == (read.shape[0], config.hidden_dim)
    computed = np.isin(trace.rows.pair_row_of, read)  # a closed slot may share an open row
    assert not trace.interactions[~computed].any()
    assert_close(trace.interactions[computed], dense.interactions[computed], "interactions read")
    if closing == "all":
        assert trace.pair_pre.shape[0] == 0
        assert np.all(trace.scores == 0.0)
    if closing == "none":  # the dense pass, bit for bit
        for f in ("interactions", "pair_pre", "node_update", "scores"):
            assert getattr(trace, f).tobytes() == getattr(dense, f).tobytes(), f
        assert contributions.tobytes() == model.slot_columns(dense, params)[3].tobytes()
    assert trace.open_only and not dense.open_only
    with pytest.raises(ValueError, match="evaluation-only"):
        model.backward(trace, params, 1.0)


def test_open_only_pass_does_no_pair_mlp_work_for_closed_rows():
    params = ModelParams.random(SMALL, seed=16)
    layout = model.PairLayout.of(repeating_batch(seed=6, n=40, vocab=SMALL.vocab_size))
    params.value("edge_out_b")[...] += closing_shift(
        params, model.forward_batch(layout, params).log_alpha, 0.7)
    units = []
    for open_only in (False, True):
        nc.reset_op_units()
        trace = model.forward_batch(layout, params, open_only=open_only)
        units.append(nc.op_units())
    ids, x, gi, gj = layout.ids, layout.values, layout.slot_i, layout.slot_j
    is_open = trace.edge_values != 0
    inputs = set(zip(ids[gi], x[gi], ids[gj], x[gj]))
    read = set(zip(ids[gi][is_open], x[gi][is_open], ids[gj][is_open], x[gj][is_open]))
    assert 0 < len(read) < len(inputs)
    # per row: the product (d), both layers (2 h d) and the ReLU (h)
    d, h = SMALL.interaction_dim, SMALL.hidden_dim
    assert units[0] - units[1] == (len(inputs) - len(read)) * (d + 2 * h * d + h)


@pytest.mark.parametrize("mode", ["l0sign", "sign-complete", "sign-fixed"])
def test_validation_scores_are_score_many_bit_for_bit(mode, monkeypatch):
    monkeypatch.setattr(model, "CHUNK_SLOTS", 60)
    rows = ragged_batch(seed=25) * 3 + repeating_batch(seed=7, n=20, vocab=SMALL.vocab_size)
    valid = data.Dataset(rows, vocab_size=SMALL.vocab_size)
    params = ModelParams.random(SMALL, seed=17)
    params.value("edge_out_b")[...] -= 2.5  # some gates closed
    every = frozenset((i, j) for i in range(SMALL.vocab_size) for j in range(i, SMALL.vocab_size))
    some = every_pair_edge_set(np.random.default_rng(5), SMALL.vocab_size, 0.4)
    edges = {"l0sign": None, "sign-complete": every, "sign-fixed": some}[mode]
    tcfg = TrainConfig(mode=mode, fixed_edges=some if mode == "sign-fixed" else None)
    scores, _ = train._validate(valid, params, tcfg)
    assert scores.tobytes() == model.score_many(valid, params, edges=edges).tobytes()


# ---------------------------------------------------------------------------
# Columnar layouts: batched callers gather their layouts from a dataset's
# CSR columns.

def assert_same_layout(got, want):
    for f in dataclasses.fields(model.PairLayout):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "buckets":
            assert [bk.k for bk in a] == [bk.k for bk in b]
            for x, y in zip(a, b):
                for part in ("instances", "nodes", "slots"):
                    p, q = getattr(x, part), getattr(y, part)
                    assert type(p) is type(q), part
                    assert p == q if isinstance(p, slice) else np.array_equal(p, q), part
        else:
            assert a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)


def gather_cases():
    # ragged rows, non-unit values, and (repeating_batch) one feature id
    # with two different values
    rows = ragged_batch(seed=21) + repeating_batch(seed=4, n=12)
    n = len(rows)
    perm = np.random.default_rng(3).permutation(n)
    return rows, {
        "all": np.arange(n),
        "permuted": perm,
        "repeated": np.concatenate((perm[:5], perm[:5], [perm[7]] * 3)),
        "tail": np.arange(n - 6, n),
        "one-row": np.array([4]),
    }


@pytest.mark.parametrize("case", list(gather_cases()[1]))
def test_gathered_layout_equals_pair_layout_of(case):
    rows, cases = gather_cases()
    idx = cases[case]
    ds = data.Dataset(rows, vocab_size=SMALL.vocab_size)
    got = model.PairLayout.gather(ds.columns, idx)
    assert_same_layout(got, model.PairLayout.of([rows[r] for r in idx.tolist()]))


def test_one_row_dataset_and_empty_dataset():
    inst = data.make_instance([1, 4, 6], [0.5, 1.0, 2.5], 1)
    one = data.Dataset([inst], vocab_size=SMALL.vocab_size)
    assert_same_layout(model.PairLayout.gather(one.columns, np.array([0])),
                       model.PairLayout.of((inst,)))
    (start, layout), = model.chunk_layouts(one.columns)
    assert start == 0
    assert_same_layout(layout, model.PairLayout.of((inst,)))
    params = ModelParams.random(SMALL, seed=3)
    assert model.score_many(one, params).tobytes() == model.forward(inst, params).scores.tobytes()

    empty = data.Dataset([], vocab_size=3)
    assert list(model.chunk_layouts(empty.columns)) == []
    with pytest.raises(ValueError, match="at least one instance"):
        model.PairLayout.gather(empty.columns, np.arange(0))
    i, j, counts = evaluate.pair_table(empty)
    assert i.shape == j.shape == counts.shape == (0,)
    assert model.score_many(empty, params).shape == (0,)


def test_scores_and_pair_table_equal_layouts_of_each_chunk(monkeypatch):
    """score_many and pair_table over a dataset's columns give, bit for bit,
    what layouts built from the instance tuples of each run of at most
    CHUNK_SLOTS pair slots give."""
    budget = 40
    monkeypatch.setattr(model, "CHUNK_SLOTS", budget)
    rows = ragged_batch(seed=22) * 5 + repeating_batch(seed=5, n=20)
    ds = data.Dataset(rows, vocab_size=SMALL.vocab_size)
    params = ModelParams.random(SMALL, seed=8)
    edges = every_pair_edge_set(np.random.default_rng(4), SMALL.vocab_size, 0.5)
    runs, start = [], 0
    while start < len(rows):  # consecutive runs within the budget, one row at least
        stop, used = start + 1, model.pair_count(rows[start].n_nodes)
        while stop < len(rows) and used + model.pair_count(rows[stop].n_nodes) <= budget:
            used += model.pair_count(rows[stop].n_nodes)
            stop += 1
        runs.append(rows[start:stop])
        start = stop
    assert len(runs) > 5
    layouts = [model.PairLayout.of(run) for run in runs]
    for kwargs in ({}, {"binary_gates": True}, {"edges": edges}):
        want = np.concatenate([
            model.forward_batch(
                lay, params, binary_gates=kwargs.get("binary_gates", False),
                pinned_edges=None if "edges" not in kwargs
                else model.pinned_edges(lay, model.edge_codes(edges)),
            ).scores
            for lay in layouts
        ])
        for source in (ds, rows):
            assert model.score_many(source, params, **kwargs).tobytes() == want.tobytes()
    assert evaluate.score_dataset(ds, params).tobytes() == model.score_many(rows, params).tobytes()
    codes, counts = np.unique(np.concatenate([lay.pair_codes() for lay in layouts]),
                              return_counts=True)
    i, j, got_counts = evaluate.pair_table(ds)
    np.testing.assert_array_equal(i * 2**31 + j, codes)
    np.testing.assert_array_equal(got_counts, counts)


# ---------------------------------------------------------------------------
# Drawn batches: ragged node counts, colliding or distinct tokens, repeated
# rows, chunk budgets and gate sources, against the reference.

LARGE = dataclasses.replace(SMALL, vocab_size=500)
GATE_SOURCES = ("noise", "deterministic", "pinned-set", "empty-set", "complete")


def expected_layout(instances):
    """(ids, values, counts, slot_i, slot_j, buckets) of the per-instance
    layouts concatenated; buckets as (k, instance, node, slot positions)."""
    ones = [model.PairLayout.of((inst,)) for inst in instances]
    counts = np.array([inst.n_nodes for inst in instances])
    first_node = np.cumsum(counts) - counts
    first_slot = np.cumsum(model.pair_count(counts)) - model.pair_count(counts)
    buckets = []
    for k in np.unique(counts).tolist():
        members = np.flatnonzero(counts == k)
        buckets.append((k, members,
                        np.concatenate([np.arange(k) + first_node[b] for b in members]),
                        np.concatenate([np.arange(model.pair_count(k)) + first_slot[b]
                                        for b in members])))
    return (np.concatenate([one.ids for one in ones]),
            np.concatenate([one.values for one in ones]),
            counts,
            np.concatenate([one.slot_i + n for one, n in zip(ones, first_node)]),
            np.concatenate([one.slot_j + n for one, n in zip(ones, first_node)]),
            buckets)


@st.composite
def engine_cases(draw):
    """(config, instances, rows, chunk budget, incidence cap, gate source,
    closed share, seed)."""
    config = draw(st.sampled_from((SMALL, LARGE)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):  # one node count for every instance, or mixed
        ks = [draw(st.integers(1, 9))] * draw(st.integers(1, 6))
    else:
        ks = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    repeats = draw(st.booleans())  # values from two levels, so tokens collide
    instances = []
    for k in ks:
        nodes = rng.choice(config.vocab_size, size=k, replace=False).tolist()
        values = rng.choice([0.5, 1.0], size=k) if repeats else rng.uniform(0.3, 1.8, size=k)
        instances.append(data.make_instance(nodes, values.tolist(), int(rng.integers(0, 2))))
    rows = draw(st.lists(st.integers(0, len(ks) - 1), min_size=1, max_size=12))
    budget = draw(st.sampled_from((1, 12, 45, model.CHUNK_SLOTS)))
    cap = draw(st.sampled_from((0, 4, model.INCIDENCE_MAX_K)))
    source = draw(st.sampled_from(GATE_SOURCES))
    return (config, instances, np.array(rows), budget, cap, source,
            draw(st.sampled_from((None, 0.5, 1.0))), seed)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(engine_cases())
def test_drawn_batches_match_the_reference(case):
    config, instances, rows, budget, cap, source, closed, seed = case
    rng = np.random.default_rng(seed + 1)
    params = ModelParams.random(config, seed=seed)
    ds = data.Dataset(instances, vocab_size=config.vocab_size)
    batch = [instances[r] for r in rows.tolist()]
    if closed is not None:  # close that share of the batch's deterministic gates
        log_alpha = model.forward_batch(model.PairLayout.of(batch), params).log_alpha
        params.value("edge_out_b")[...] += closing_shift(params, log_alpha, closed)

    layout = model.PairLayout.gather(ds.columns, rows)
    *arrays, buckets = expected_layout(batch)
    for name, want in zip(("ids", "values", "counts", "slot_i", "slot_j"), arrays):
        np.testing.assert_array_equal(getattr(layout, name), want, err_msg=name)
    assert [b.k for b in layout.buckets] == [k for k, *_ in buckets]
    sizes = (len(batch), layout.ids.shape[0], layout.slot_i.shape[0])
    for got, (_, *want) in zip(layout.buckets, buckets):
        for part, positions, n in zip(got[1:], want, sizes):  # slices as positions
            np.testing.assert_array_equal(np.arange(n)[part], positions)

    pairs = {(int(a), int(b)) for inst in instances
             for a in inst.nodes for b in inst.nodes if a <= b}
    edges = (frozenset() if source == "empty-set" else pairs if source == "complete" else
             frozenset(p for p in sorted(pairs) if rng.random() < 0.5))
    if source in ("noise", "deterministic"):
        tcfg = TrainConfig(seed=seed, lambda1=0.05, lambda2=0.02)
    elif source == "complete":
        tcfg = TrainConfig(seed=seed, mode="sign-complete", lambda2=0.02)
    else:
        tcfg = TrainConfig(seed=seed, mode="sign-fixed", fixed_edges=edges, lambda2=0.02)
    noise_seed = seed if source == "noise" else None
    # scored with the gates of the source: deterministic for noise, binary
    # for deterministic, the edge set (every pair for complete) otherwise
    binary = source == "deterministic"
    score_edges = None if source in ("noise", "deterministic") else edges
    refs = [reference_forward(inst, params, binary=binary, pinned=None if score_edges is None
                              else reference_edges(inst, score_edges)) for inst in batch]
    codes = None if score_edges is None else model.edge_codes(score_edges)
    with mock.patch.object(model, "CHUNK_SLOTS", budget), \
            mock.patch.object(model, "INCIDENCE_MAX_K", cap):
        assert_close(model.score_many(batch, params, edges=score_edges, binary_gates=binary),
                     [r.score for r in refs], "score_many")
        chunks = [model.slot_columns(model.forward_batch(
            lay, params, binary_gates=binary,
            pinned_edges=None if codes is None else model.pinned_edges(lay, codes)), params)
            for _, lay in model.chunk_layouts(ds.columns, rows)]
        i, j, gate, contribution = (np.concatenate(col) for col in zip(*chunks))
        np.testing.assert_array_equal(
            i, np.concatenate([r.instance.node_array[r.pi] for r in refs]))
        np.testing.assert_array_equal(
            j, np.concatenate([r.instance.node_array[r.pj] for r in refs]))
        assert_close(gate, np.concatenate([r.edge_values for r in refs]), "slot gates")
        assert_close(contribution, np.concatenate([reference_contributions(r, params)
                                                   for r in refs]), "contributions")
        # rows are the sample indices, as in `fit`
        want, want_grads = grads_of(params, lambda: reference_risk(
            list(zip(rows.tolist(), batch)), params, tcfg, epoch=3, noise_seed=noise_seed))
        noise = None
        if noise_seed is not None:
            noise = NoiseStream(seed).uniforms(3, rows, model.pair_count(ds.columns.counts[rows]))
        got, got_grads = grads_of(params, lambda: train.risk(ds, params, tcfg, rows=rows,
                                                             noise=noise))
    assert_close([got.total, got.loss, got.l0, got.l2], want, "risk parts")
    for block in model.PARAM_ORDER:
        assert_close(got_grads[block], want_grads[block], block)


# ---------------------------------------------------------------------------
# Gate noise: the vectorized draw is numpy's Philox, bit for bit.

@pytest.mark.parametrize("seed", [0, 3, 2**40 + 5, 2**64 - 1])
def test_vectorized_noise_is_numpy_philox_bit_for_bit(seed):
    rng = np.random.default_rng(seed % 1000)
    # sample indices past 2**32, count 0, and counts that are not multiples of 4
    samples = [0, 17, 2**32, 2**32 + 1, 2**33 + 9, 5] + rng.integers(0, 2**40, 34).tolist()
    counts = [21, 0, 1, 7, 22, 4] + rng.integers(0, 60, 34).tolist()
    stream = NoiseStream(seed)
    for epoch in (0, 1, 2**62):
        want = [reference_uniforms(seed, epoch, n, c) for n, c in zip(samples, counts)]
        # many samples and small requests, all through the vectorized rounds
        for lo, hi in ((0, len(samples)), (0, 6), (3, 5)):
            got = stream.uniforms(epoch, samples[lo:hi], counts[lo:hi])
            assert got.tobytes() == np.concatenate(want[lo:hi]).tobytes()
        for n, c, w in zip(samples, counts, want):
            assert stream.pair_uniforms(epoch, n, c).tobytes() == w.tobytes()


def test_vectorized_noise_spans_sample_groups():
    rng = np.random.default_rng(21)
    samples = rng.integers(0, 2**40, 600)
    counts = rng.integers(0, 30, 600)
    want = [reference_uniforms(4, 2, int(n), int(c)) for n, c in zip(samples, counts)]
    assert NoiseStream(4).uniforms(2, samples, counts).tobytes() == np.concatenate(want).tobytes()


def test_vectorized_noise_edge_cases():
    stream = NoiseStream(1)
    assert stream.uniforms(0, [], []).shape == (0,)
    assert stream.pair_uniforms(0, 3, 0).shape == (0,)
    top = np.full(20, 2**64 - 1, dtype=np.uint64)
    want = reference_uniforms(1, 1, 2**64 - 1, 5)
    assert stream.uniforms(1, top, np.full(20, 5)).tobytes() == np.tile(want, 20).tobytes()
    assert stream.uniforms(1, top[:1], [5]).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        stream.uniforms(0, [1, 2], [3])
    with pytest.raises(ValueError):
        stream.uniforms(0, [1], [-3])
    with pytest.raises(ValueError):
        stream.uniforms(-1, [1], [3])
