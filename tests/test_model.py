import dataclasses
import struct

import numpy as np
import pytest

from l0sign import data, gates, model
from l0sign import numcore as nc
from l0sign.model import ModelConfig, ModelParams


SMALL = ModelConfig(vocab_size=12, edge_dim=4, interaction_dim=4, hidden_dim=6)


def random_instance(rng, vocab, k):
    nodes = sorted(rng.choice(vocab, size=k, replace=False).tolist())
    values = rng.uniform(0.2, 2.0, size=k).tolist()
    label = int(rng.integers(0, 2))
    return data.make_instance(nodes, values, label)


def reference_score(inst, params, gate_values=None):
    """Numpy-only scoring pipeline, written independently of the module."""
    cfg = params.config
    ids = np.asarray(inst.nodes)
    x = np.asarray(inst.values, dtype=np.float64)
    k = ids.shape[0]
    pi, pj = np.triu_indices(k)
    u = x[:, None] * params.value("node_embed")[ids]
    if gate_values is None:
        ev = params.value("edge_embed")[ids]
        prod = ev[pi] * ev[pj]
        hidden = np.maximum(
            prod @ params.value("edge_hidden_w").T + params.value("edge_hidden_b"), 0.0
        )
        la = hidden @ params.value("edge_out_w")[0] + params.value("edge_out_b")[0]
        g = cfg.gate
        span = g.stretch_high - g.stretch_low
        e = np.clip(span / (1.0 + np.exp(-la)) + g.stretch_low, 0.0, 1.0)
    else:
        e = np.asarray(gate_values, dtype=np.float64)
    pp = u[pi] * u[pj]
    hid = np.maximum(pp @ params.value("pair_hidden_w").T + params.value("pair_hidden_b"), 0.0)
    z = hid @ params.value("pair_out_w").T + params.value("pair_out_b")
    d = cfg.interaction_dim
    node_sum = np.zeros((k, d))
    deg = np.zeros(k)
    for p in range(e.shape[0]):
        a, b = int(pi[p]), int(pj[p])
        node_sum[a] += e[p] * z[p]
        deg[a] += e[p]
        if a != b:
            node_sum[b] += e[p] * z[p]
            deg[b] += e[p]
    vprime = node_sum / np.maximum(deg, 1e-8)[:, None]
    uprime = x[:, None] * vprime
    return float((uprime @ params.value("readout")).mean()), uprime


# ---------------------------------------------------------------------------
# pair universe helpers

def test_pair_slots_enumeration():
    pi, pj = model.pair_slots(3)
    assert list(zip(pi, pj)) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_pair_count_matches_slots(k):
    pi, _ = model.pair_slots(k)
    assert model.pair_count(k) == pi.shape[0] == k * (k + 1) // 2


def test_edges_for_instance_membership():
    inst = data.make_instance([2, 5, 9], [1.0, 1.0, 1.0], 1)
    got = model.edges_for_instance(inst, [(5, 2), (9, 9)])
    # slots: (2,2) (2,5) (2,9) (5,5) (5,9) (9,9)
    assert got.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_incidence_marks_both_ends_of_each_slot(k):
    m = model._incidence(k)
    pi, pj = model.pair_slots(k)
    assert m.shape == (k, model.pair_count(k))
    assert set(np.unique(m).tolist()) <= {0.0, 1.0}
    slots = np.arange(pi.shape[0])
    assert np.all(m[pi, slots] == 1.0) and np.all(m[pj, slots] == 1.0)
    # an off-diagonal slot has two ends, a self-pair slot one
    np.testing.assert_array_equal(m.sum(axis=0), np.where(pi == pj, 1.0, 2.0))
    np.testing.assert_array_equal(m.sum(axis=1), np.full(k, float(k)))


# ---------------------------------------------------------------------------
# edge and pair heads

def test_edge_logit_symmetric_and_matches_reference():
    params = ModelParams.random(SMALL, seed=1)
    table = params.value("edge_embed")
    w1, b1 = params.value("edge_hidden_w"), params.value("edge_hidden_b")
    w2, b2 = params.value("edge_out_w"), params.value("edge_out_b")
    for i in range(SMALL.vocab_size):
        for j in range(i, SMALL.vocab_size):
            la = model.edge_logit(i, j, params)
            assert la == model.edge_logit(j, i, params)
            hidden = np.maximum(w1 @ (table[i] * table[j]) + b1, 0.0)
            assert la == pytest.approx(float((w2 @ hidden + b2)[0]), abs=1e-12)


def test_edge_logit_batches_over_id_arrays():
    params = ModelParams.random(SMALL, seed=1)
    i, j = np.triu_indices(SMALL.vocab_size)
    batched = model.edge_logit(i, j, params)
    assert batched.shape == i.shape
    for n in range(i.shape[0]):
        assert batched[n] == pytest.approx(model.edge_logit(int(i[n]), int(j[n]), params),
                                           abs=1e-14)
    assert model.edge_logit(i[:0], j[:0], params).shape == (0,)
    with pytest.raises(ValueError, match=r"\(3, 12\)"):
        model.edge_logit([0, 3], [1, SMALL.vocab_size], params)
    with pytest.raises(ValueError):
        model.edge_logit([0, 1], [1], params)


def test_edge_logit_rejects_out_of_vocab():
    params = ModelParams.random(SMALL, seed=1)
    with pytest.raises(ValueError):
        model.edge_logit(0, SMALL.vocab_size, params)


def reference_interaction(u_i, u_j, params):
    """The pair MLP on one pair of vectors."""
    hidden = np.maximum(
        params.value("pair_hidden_w") @ (u_i * u_j) + params.value("pair_hidden_b"), 0.0
    )
    return params.value("pair_out_w") @ hidden + params.value("pair_out_b")


def test_pair_mlp_symmetric_and_matches_reference():
    params = ModelParams.random(SMALL, seed=2)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, SMALL.interaction_dim))
    b = rng.standard_normal((5, SMALL.interaction_dim))
    z = model._mlp("pair", a, b, params)[3]
    np.testing.assert_array_equal(z, model._mlp("pair", b, a, params)[3])
    for row in range(5):
        np.testing.assert_allclose(z[row], reference_interaction(a[row], b[row], params),
                                   atol=1e-14)


# ---------------------------------------------------------------------------
# hand-traced scores

def hand_config():
    return ModelConfig(vocab_size=8, edge_dim=2, interaction_dim=2, hidden_dim=2)


def hand_params():
    """Identity-shaped pair MLP so the score is computable on paper."""
    params = ModelParams.init(hand_config(), seed=0)
    params.value("pair_hidden_w")[...] = np.eye(2)
    params.value("pair_hidden_b")[...] = np.array([1.0, 1.0])
    params.value("pair_out_w")[...] = np.eye(2)
    params.value("pair_out_b")[...] = 0.0
    params.value("readout")[...] = np.array([1.0, 1.0])
    return params


def test_score_hand_traced_single_node():
    # u = 2 * [0.3, -0.2]; z = relu(u*u + 1) = [1.36, 1.16]
    # self pair pinned open: v' = z, u' = 2z, score = sum(u') = 5.04
    params = hand_params()
    params.value("node_embed")[7] = np.array([0.3, -0.2])
    inst = data.make_instance([7], [2.0], 1)
    pred = model.predict_fixed(inst, params, np.array([1.0]))
    assert pred.score == pytest.approx(5.04, abs=1e-12)
    assert pred.pairs[0].i == 7 and pred.pairs[0].j == 7
    assert pred.pairs[0].contribution == pytest.approx(5.04, abs=1e-12)


def test_score_hand_traced_two_nodes():
    # only the cross pair open: z = relu([0.5, 0] + 1) = [1.5, 1.0],
    # both nodes average it with degree 1, score = (2.5 + 2.5) / 2
    params = hand_params()
    params.value("node_embed")[0] = np.array([1.0, 0.0])
    params.value("node_embed")[1] = np.array([0.5, 0.5])
    inst = data.make_instance([0, 1], [1.0, 1.0], 1)
    pred = model.predict_fixed(inst, params, np.array([0.0, 1.0, 0.0]))
    assert pred.score == pytest.approx(2.5, abs=1e-12)
    gates_seen = [p.gate for p in pred.pairs]
    assert gates_seen == [0.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# forward against the independent reimplementation

@pytest.mark.parametrize("seed", range(5))
def test_forward_matches_reference_deterministic(seed):
    rng = np.random.default_rng(seed)
    params = ModelParams.random(SMALL, seed=seed)
    inst = random_instance(rng, SMALL.vocab_size, k=int(rng.integers(1, 7)))
    trace = model.forward(inst, params)
    want_score, want_uprime = reference_score(inst, params)
    assert trace.mode == "deterministic"
    assert trace.score == pytest.approx(want_score, abs=1e-10)
    x = inst.value_array
    np.testing.assert_allclose(x[:, None] * trace.node_update, want_uprime, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_forward_matches_reference_pinned(seed):
    rng = np.random.default_rng(100 + seed)
    params = ModelParams.random(SMALL, seed=seed)
    inst = random_instance(rng, SMALL.vocab_size, k=5)
    pinned = rng.uniform(0.0, 1.0, size=model.pair_count(5))
    trace = model.forward(inst, params, pinned_edges=pinned)
    want_score, _ = reference_score(inst, params, gate_values=pinned)
    assert trace.mode == "pinned"
    assert trace.score == pytest.approx(want_score, abs=1e-10)
    assert trace.log_alpha is None and trace.edge_vecs is None


def test_forward_stochastic_uses_sampled_gates():
    rng = np.random.default_rng(3)
    params = ModelParams.random(SMALL, seed=3)
    inst = random_instance(rng, SMALL.vocab_size, k=4)
    u = rng.uniform(0.05, 0.95, size=model.pair_count(4))
    trace = model.forward(inst, params, noise=u)
    assert trace.mode == "stochastic"
    want = gates.sample_array(trace.log_alpha, u)
    np.testing.assert_allclose(trace.edge_values, want.value, atol=1e-14)
    det = model.forward(inst, params)
    np.testing.assert_allclose(
        det.edge_values, gates.eval_deterministic(trace.log_alpha), atol=1e-14
    )


def test_zero_gates_zero_score():
    params = ModelParams.random(SMALL, seed=4)
    inst = data.make_instance([1, 2, 3], [1.0, 0.5, 2.0], 1)
    pred = model.predict_fixed(inst, params, np.zeros(6))
    assert pred.score == 0.0
    np.testing.assert_array_equal(pred.node_updates, 0.0)
    assert all(p.contribution == 0.0 for p in pred.pairs)


@pytest.mark.parametrize("seed", range(4))
def test_contributions_sum_to_score(seed):
    rng = np.random.default_rng(200 + seed)
    params = ModelParams.random(SMALL, seed=seed)
    inst = random_instance(rng, SMALL.vocab_size, k=6)
    pred = model.predict(inst, params)
    assert sum(p.contribution for p in pred.pairs) == pytest.approx(pred.score, abs=1e-9)
    pinned = rng.uniform(0.0, 1.0, size=model.pair_count(6))
    pred2 = model.predict_fixed(inst, params, pinned)
    assert sum(p.contribution for p in pred2.pairs) == pytest.approx(pred2.score, abs=1e-9)


def test_predict_fixed_accepts_pair_sets():
    params = ModelParams.random(SMALL, seed=5)
    inst = data.make_instance([2, 5, 9], [1.0, 1.5, 0.5], 0)
    by_array = model.predict_fixed(inst, params, np.array([0, 1, 0, 0, 0, 1.0]))
    by_set = model.predict_fixed(inst, params, {(5, 2), (9, 9)})
    assert by_array.score == by_set.score
    complete = model.predict_fixed(inst, params, np.ones(model.pair_count(inst.n_nodes)))
    all_pairs = {(i, j) for i in (2, 5, 9) for j in (2, 5, 9) if i <= j}
    assert complete.score == model.predict_fixed(inst, params, all_pairs).score


# ---------------------------------------------------------------------------
# Predictions read from the trace's arrays, against the per-slot build

def reference_prediction(trace, params):
    """The Prediction of a one-instance trace, one slot at a time, as it was
    built before `slot_columns`."""
    ids = trace.instance.node_array
    contrib = model._contributions(trace, params)
    pairs = tuple(
        model.PairAnalysis(
            i=int(ids[a]),
            j=int(ids[b]),
            gate=float(trace.edge_values[p]),
            log_alpha=None if trace.log_alpha is None else float(trace.log_alpha[p]),
            interaction=trace.interactions[p].copy(),
            contribution=float(contrib[p]),
        )
        for p, (a, b) in enumerate(zip(trace.layout.slot_i, trace.layout.slot_j))
    )
    return model.Prediction(score=trace.score, node_updates=trace.node_update.copy(), pairs=pairs)


def exact(value):
    """A value down to its bits: floats as IEEE bytes, arrays as dtype,
    shape and bytes, dataclasses and tuples field by field, with types."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            exact(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return (type(value).__name__, struct.pack("<d", value))
    return (type(value).__name__, value)


def closed_gate_params(seed, closed_bias):
    """Random parameters whose edge output bias pushes many (or, at a large
    negative bias, all) gates to exactly 0."""
    params = ModelParams.random(SMALL, seed=seed)
    params.value("edge_out_b")[...] = closed_bias
    return params


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("closed_bias", [None, -1.5, -60.0], ids=["random", "some-closed",
                                                                   "all-closed"])
@pytest.mark.parametrize("binary", [False, True], ids=["graded", "binary"])
def test_predict_equals_the_per_slot_build(seed, closed_bias, binary):
    rng = np.random.default_rng(300 + seed)
    params = (ModelParams.random(SMALL, seed=seed) if closed_bias is None
              else closed_gate_params(seed, closed_bias))
    inst = random_instance(rng, SMALL.vocab_size, k=int(rng.integers(1, 8)))
    got = model.predict(inst, params, binary_gates=binary)
    want = reference_prediction(model.forward(inst, params, binary_gates=binary), params)
    assert exact(got) == exact(want)
    if closed_bias == -60.0:
        assert all(p.gate == 0.0 for p in got.pairs) and got.score == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_predict_fixed_equals_the_per_slot_build(seed):
    rng = np.random.default_rng(400 + seed)
    params = ModelParams.random(SMALL, seed=seed)
    inst = random_instance(rng, SMALL.vocab_size, k=int(rng.integers(1, 8)))
    n_slots = model.pair_count(inst.n_nodes)
    pinned = rng.uniform(0.0, 1.0, size=n_slots) * (rng.random(n_slots) < 0.6)
    got = model.predict_fixed(inst, params, pinned)
    want = reference_prediction(model.forward(inst, params, pinned_edges=pinned), params)
    assert exact(got) == exact(want)
    assert all(p.log_alpha is None for p in got.pairs)
    pairs = {(i, j) for i in inst.nodes for j in inst.nodes if i <= j and rng.random() < 0.5}
    got = model.predict_fixed(inst, params, pairs)
    want = reference_prediction(
        model.forward(inst, params, pinned_edges=model.edges_for_instance(inst, pairs)), params
    )
    assert exact(got) == exact(want)


def test_prediction_interactions_are_independent():
    params = ModelParams.random(SMALL, seed=8)
    inst = data.make_instance([1, 4, 6], [0.5, 1.0, 1.5], 1)
    pred = model.predict(inst, params)
    before = [p.interaction.copy() for p in pred.pairs]
    pred.pairs[0].interaction[:] = 99.0
    for p, was in zip(pred.pairs[1:], before[1:]):
        np.testing.assert_array_equal(p.interaction, was)
    fresh = model.predict(inst, params)
    for p, was in zip(fresh.pairs, before):
        np.testing.assert_array_equal(p.interaction, was)


# ---------------------------------------------------------------------------
# additivity probe

def probe_setup(seed, gate_value):
    rng = np.random.default_rng(seed)
    params = ModelParams.random(SMALL, seed=seed)
    inst = random_instance(rng, SMALL.vocab_size, k=4)
    edges = np.ones(model.pair_count(4))
    edges[1] = gate_value  # slot (0, 1)
    probes = model.make_probe_grid(SMALL.interaction_dim, n_points=3, seed=seed)
    return inst, params, edges, probes


@pytest.mark.parametrize("seed", range(10))
def test_additivity_probe_zero_gate_is_additive(seed):
    inst, params, edges, probes = probe_setup(seed, 0.0)
    worst = model.additivity_probe(inst, params, edges, (0, 1), probes, probes)
    assert worst <= 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_additivity_probe_detects_open_interaction(seed):
    inst, params, edges, probes = probe_setup(seed, 1.0)
    worst = model.additivity_probe(inst, params, edges, (0, 1), probes, probes)
    assert worst > 1e-3


def test_additivity_probe_linear_interaction_is_additive():
    # an interaction function with no joint term is invisible to the probe
    # even through an open gate
    inst, params, edges, probes = probe_setup(0, 1.0)

    def separable(a, b, _params):
        return a + 2.0 * b

    worst = model.additivity_probe(
        inst, params, edges, (0, 1), probes, probes, interaction_fn=separable
    )
    assert worst <= 1e-9


def reference_probe_score(vecs, x, edge_values, params, interaction_fn):
    """Score from explicit value-scaled node vectors and pinned gates, one
    slot at a time: the probe's scoring as it was before it ran on the
    engine's aggregation stage."""
    k = vecs.shape[0]
    pi, pj = model.pair_slots(k)
    node_sum = np.zeros((k, params.config.interaction_dim))
    soft_degree = np.zeros(k)
    for p in range(pi.shape[0]):
        a, b = int(pi[p]), int(pj[p])
        z = interaction_fn(vecs[a], vecs[b], params)
        node_sum[a] += edge_values[p] * z
        soft_degree[a] += edge_values[p]
        if a != b:
            node_sum[b] += edge_values[p] * z
            soft_degree[b] += edge_values[p]
    node_update = node_sum / np.maximum(soft_degree, model.DEGREE_EPS)[:, None]
    return float((x[:, None] * node_update @ params.value("readout")).mean())


def reference_probe(inst, params, edge_values, pair, probes_i, probes_j, interaction_fn):
    si, sj = pair
    vecs0 = inst.value_array[:, None] * params.value("node_embed")[inst.node_array]

    def f(a, b):
        vecs = vecs0.copy()
        vecs[si], vecs[sj] = a, b
        return reference_probe_score(vecs, inst.value_array, edge_values, params, interaction_fn)

    ref_i, ref_j = vecs0[si], vecs0[sj]
    return max(abs(f(a, b) - f(a, ref_j) - f(ref_i, b) + f(ref_i, ref_j))
               for a in probes_i for b in probes_j)


@pytest.mark.parametrize("separable", [False, True], ids=["pair-mlp", "interaction-fn"])
def test_additivity_probe_matches_the_slot_loop(separable):
    def fn(a, b, _params):
        return a + 2.0 * b

    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        params = ModelParams.random(SMALL, seed=seed)
        k = int(rng.integers(2, 7))
        inst = random_instance(rng, SMALL.vocab_size, k)
        n_slots = model.pair_count(k)
        edges = rng.uniform(0.0, 1.0, size=n_slots) * (rng.random(n_slots) < 0.7)
        si, sj = sorted(rng.choice(k, size=2, replace=False).tolist())
        probes = model.make_probe_grid(SMALL.interaction_dim, n_points=3, seed=seed)
        got = model.additivity_probe(inst, params, edges, (si, sj), probes, probes,
                                     interaction_fn=fn if separable else None)
        want = reference_probe(inst, params, edges, (si, sj), probes, probes,
                               fn if separable else reference_interaction)
        assert abs(got - want) <= 1e-12
        if not separable:  # the unperturbed score, through the whole engine
            vecs = inst.value_array[:, None] * params.value("node_embed")[inst.node_array]
            want = reference_probe_score(vecs, inst.value_array, edges, params,
                                         reference_interaction)
            assert abs(model.forward(inst, params, pinned_edges=edges).score - want) <= 1e-12


def test_additivity_probe_rejects_self_slot():
    inst, params, edges, probes = probe_setup(0, 1.0)
    with pytest.raises(ValueError):
        model.additivity_probe(inst, params, edges, (1, 1), probes, probes)


# ---------------------------------------------------------------------------
# parameters and checkpoints

def test_init_shapes_and_determinism():
    a = ModelParams.init(SMALL, seed=7)
    b = ModelParams.init(SMALL, seed=7)
    c = ModelParams.init(SMALL, seed=8)
    j, e, d, h = 12, 4, 4, 6
    want_shapes = {
        "node_embed": (j, d), "edge_embed": (j, e),
        "edge_hidden_w": (h, e), "edge_hidden_b": (h,),
        "edge_out_w": (1, h), "edge_out_b": (1,),
        "pair_hidden_w": (h, d), "pair_hidden_b": (h,),
        "pair_out_w": (d, h), "pair_out_b": (d,),
        "readout": (d,),
    }
    for name, shape in want_shapes.items():
        assert a.value(name).shape == shape
        np.testing.assert_array_equal(a.value(name), b.value(name))
    assert any(
        not np.array_equal(a.value(name), c.value(name)) for name in want_shapes
    )
    assert ModelParams.random(SMALL, seed=7).value("node_embed").shape == (j, d)


def test_clone_is_independent():
    a = ModelParams.random(SMALL, seed=9)
    b = a.clone()
    b.value("readout")[...] += 1.0
    assert not np.array_equal(a.value("readout"), b.value("readout"))


def test_checkpoint_round_trip(tmp_path):
    params = ModelParams.random(SMALL, seed=10)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, params, seed=10, extra={"note": "x"})
    back, header = model.load_checkpoint(path)
    assert back.config == SMALL
    assert header["seed"] == 10 and header["extra"] == {"note": "x"}
    for name in model.PARAM_ORDER:
        np.testing.assert_array_equal(back.value(name), params.value(name))
    inst = data.make_instance([0, 1], [1.0, 1.0], 1)
    assert model.score_only(inst, back) == model.score_only(inst, params)


def test_checkpoint_rejects_truncation_and_bad_format(tmp_path):
    params = ModelParams.random(SMALL, seed=11)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, params, seed=11)
    blob = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[:-16])
    with pytest.raises(ValueError, match="truncated"):
        model.load_checkpoint(tmp_path / "cut.ckpt")
    (tmp_path / "bad.ckpt").write_bytes(b'{"format": "other/1"}\n')
    with pytest.raises(ValueError, match="format"):
        model.load_checkpoint(tmp_path / "bad.ckpt")


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    params = ModelParams.random(SMALL, seed=12)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, params, seed=12)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing bytes"):
        model.load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_values(tmp_path, bad):
    params = ModelParams.random(SMALL, seed=13)
    params.value("pair_out_b")[1] = bad
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, params, seed=13)
    with pytest.raises(ValueError, match="'pair_out_b' holds non-finite"):
        model.load_checkpoint(path)


def test_check_vocabulary_names_the_offending_id():
    params = ModelParams.random(ModelConfig(vocab_size=5, edge_dim=2, interaction_dim=2,
                                            hidden_dim=2), seed=0)
    fits = data.Dataset([data.make_instance([0, 4], [1.0, 1.0], 1)], vocab_size=9)
    model.check_vocabulary(params, fits)  # declared vocab is larger, ids still fit
    too_big = data.Dataset([data.make_instance([1, 9], [1.0, 1.0], 1)], vocab_size=10)
    with pytest.raises(ValueError, match="feature id 9.* 5 features"):
        model.check_vocabulary(params, too_big)
    model.check_vocabulary(params, data.Dataset([], vocab_size=3))  # no id to check


# ---------------------------------------------------------------------------
# cost scaling

def test_forward_cost_scales_with_pair_count():
    cfg = ModelConfig(vocab_size=40, edge_dim=4, interaction_dim=4, hidden_dim=6)
    params = ModelParams.random(cfg, seed=12)
    rng = np.random.default_rng(13)

    def units_for(k):
        inst = random_instance(rng, cfg.vocab_size, k)
        nc.reset_op_units()
        model.forward(inst, params)
        return nc.op_units()

    u8, u16 = units_for(8), units_for(16)
    grow = u16 / u8
    want = model.pair_count(16) / model.pair_count(8)
    # per-pair work dominates, so cost growth tracks slot growth
    assert 0.75 * want <= grow <= 1.25 * want


# ---------------------------------------------------------------------------
# Binary evaluation gates.

def test_binary_gates_threshold_the_deterministic_forward():
    rng = np.random.default_rng(7)
    inst = data.make_instance([1, 4, 8, 11], rng.uniform(0.5, 1.5, 4), 1)
    params = ModelParams.init(SMALL, seed=7)
    det = model.forward(inst, params)
    out = model.forward(inst, params, binary_gates=True)
    assert out.mode == "binary"
    hard = (det.edge_values > 0.0).astype(float)
    np.testing.assert_array_equal(out.edge_values, hard)
    assert out.score == pytest.approx(reference_score(inst, params, gate_values=hard)[0], abs=1e-12)


def test_binary_gate_prediction_still_decomposes_exactly():
    rng = np.random.default_rng(3)
    inst = data.make_instance([0, 2, 9], rng.uniform(0.5, 1.5, 3), 0)
    params = ModelParams.init(SMALL, seed=11)
    pred = model.predict(inst, params, binary_gates=True)
    assert sum(p.contribution for p in pred.pairs) == pytest.approx(pred.score, abs=1e-9)
    assert model.score_only(inst, params, binary_gates=True) == pred.score


def test_binary_gates_reject_noise_and_pinned_edges():
    inst = data.make_instance([0, 1], [1.0, 1.0], 1)
    params = ModelParams.init(SMALL, seed=0)
    with pytest.raises(ValueError, match="noise"):
        model.forward(inst, params, noise=np.full(3, 0.5), binary_gates=True)
    with pytest.raises(ValueError, match="pinned"):
        model.forward(inst, params, pinned_edges=np.ones(3), binary_gates=True)


def test_binary_trace_has_no_backward_pass():
    inst = data.make_instance([0, 1, 5], [1.0, 0.5, 1.0], 1)
    params = ModelParams.init(SMALL, seed=2)
    trace = model.forward(inst, params, binary_gates=True)
    params.store.zero_grads()
    with pytest.raises(ValueError, match="evaluation-only"):
        model.backward(trace, params, 1.0)
