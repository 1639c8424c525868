import math

import numpy as np
import pytest

from l0sign import data, gates, model, train
from l0sign import numcore as nc
from l0sign.model import ModelConfig, ModelParams
from l0sign.gates import NoiseStream
from l0sign.train import Adagrad, EpochRecord, TrainConfig


SMALL = ModelConfig(vocab_size=12, edge_dim=4, interaction_dim=4, hidden_dim=6)


def small_dataset(n=240, vocab=12, k=4, n_pairs=6, seed=0):
    pairs = data.draw_planted_pairs(vocab, n_pairs, seed=seed)
    return data.generate_synthetic(vocab, n, k, pairs, 0.05, seed=seed)


# ---------------------------------------------------------------------------
# configuration

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="batch_size must be at least 1, got 0"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs must be at least 1, got -2"):
        TrainConfig(epochs=-2)
    with pytest.raises(ValueError):
        TrainConfig(lambda1=-1e-3)
    with pytest.raises(ValueError):
        TrainConfig(initial_accumulator=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(mode="unknown")
    with pytest.raises(ValueError):
        TrainConfig(mode="sign-fixed")  # needs fixed_edges
    with pytest.raises(ValueError):
        TrainConfig(embedding_update="other")


@pytest.mark.parametrize("name", ["lr", "lambda1", "lambda2", "initial_accumulator",
                                  "gate_threshold"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_train_config_rejects_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=f"{name} must be"):
        TrainConfig(**{name: value})


# ---------------------------------------------------------------------------
# risk

def test_risk_loss_is_log2_at_zero_readout():
    params = ModelParams.random(SMALL, seed=0)
    params.value("readout")[...] = 0.0
    inst = data.make_instance([0, 3, 7], [1.0, 0.5, 2.0], 1)
    tcfg = TrainConfig(seed=0)
    breakdown = train.risk([inst], params, tcfg, accumulate_grads=False)
    assert breakdown.loss == math.log(2.0)
    assert breakdown.total == breakdown.loss + tcfg.lambda1 * breakdown.l0 + (
        tcfg.lambda2 * breakdown.l2
    )


def test_risk_parts_match_traces():
    params = ModelParams.random(SMALL, seed=1)
    insts = [
        data.make_instance([0, 1, 2], [1.0, 1.0, 1.0], 1),
        data.make_instance([4, 9], [0.5, 2.0], 0),
    ]
    tcfg = TrainConfig(seed=0)
    breakdown = train.risk(insts, params, tcfg, accumulate_grads=False)
    loss = l0 = l2 = 0.0
    for inst in insts:
        trace = model.forward(inst, params)  # noise-free, same as risk here
        loss += float(np.logaddexp(0.0, -inst.signed_label * trace.score))
        l0 += float(gates.open_probability(trace.log_alpha).sum())
        l2 += float((trace.interactions**2).sum())
    assert breakdown.loss == pytest.approx(loss / 2, abs=1e-12)
    assert breakdown.l0 == pytest.approx(l0 / 2, abs=1e-12)
    assert breakdown.l2 == pytest.approx(l2 / 2, abs=1e-12)


def test_risk_pinned_modes_have_no_l0_term():
    params = ModelParams.random(SMALL, seed=2)
    inst = data.make_instance([0, 1], [1.0, 1.0], 1)
    tcfg = TrainConfig(mode="sign-complete", seed=0)
    breakdown = train.risk([inst], params, tcfg, accumulate_grads=False)
    assert breakdown.l0 == 0.0


def test_risk_rejects_empty_batch():
    params = ModelParams.random(SMALL, seed=3)
    with pytest.raises(ValueError):
        train.risk([], params, TrainConfig())


@pytest.mark.parametrize("mode", ["l0sign", "sign-complete"])
@pytest.mark.parametrize("n_slots", [8, 10])  # the batch has 9 pair slots
def test_risk_rejects_noise_of_the_wrong_length(mode, n_slots):
    params = ModelParams.random(SMALL, seed=3)
    insts = [data.make_instance([0, 1], [1.0, 1.0], 1), data.make_instance([2, 4, 5], [1.0] * 3, 0)]
    params.store.zero_grads()
    with pytest.raises(nc.ShapeError, match="9 pair slots"):
        train.risk(insts, params, TrainConfig(mode=mode), noise=np.full(n_slots, 0.5))
    assert all(not params.store.grad(n).any() for n in params.store.names())


def test_batch_gradient_is_mean_of_instance_gradients():
    params = ModelParams.random(SMALL, seed=4)
    insts = [
        data.make_instance([0, 1, 5], [1.0, 1.0, 1.0], 1),
        data.make_instance([2, 7], [2.0, 0.5], 0),
        data.make_instance([3], [1.0], 1),
    ]
    tcfg = TrainConfig(seed=0)
    counts = [model.pair_count(inst.n_nodes) for inst in insts]
    noise = gates.NoiseStream(0).uniforms(1, range(len(insts)), counts)

    params.store.zero_grads()
    train.risk(insts, params, tcfg, noise=noise)
    batch_grads = {n: params.store.grad(n).copy() for n in params.store.names()}

    mean_grads = {n: np.zeros_like(g) for n, g in batch_grads.items()}
    bounds = np.cumsum(counts)[:-1]
    for inst, u in zip(insts, np.split(noise, bounds)):
        params.store.zero_grads()
        train.risk([inst], params, tcfg, noise=u)
        for n in mean_grads:
            mean_grads[n] += params.store.grad(n) / len(insts)

    for n in batch_grads:
        np.testing.assert_allclose(batch_grads[n], mean_grads[n], atol=1e-12)


# ---------------------------------------------------------------------------
# optimizer

def constant_gradient_store(v0, n=1):
    store = nc.ParamStore()
    store.add("p", np.full(n, v0))
    return store


def test_adagrad_zero_gradient_is_a_no_op():
    store = constant_gradient_store(1.5, n=3)
    opt = Adagrad(store, lr=0.1, initial_accumulator=1e-6)
    store.zero_grads()
    opt.step()
    np.testing.assert_array_equal(store.value("p"), [1.5, 1.5, 1.5])


def test_adagrad_constant_gradient_closed_form():
    g, lr, g0, eps = 0.25, 0.05, 1e-3, 1e-10
    store = constant_gradient_store(2.0)
    opt = Adagrad(store, lr=lr, eps=eps, initial_accumulator=g0)
    want = 2.0
    for t in range(1, 8):
        store.zero_grads()
        store.grad("p")[...] = g
        opt.step()
        want -= lr * g / (math.sqrt(g0 + t * g * g) + eps)
        assert store.value("p")[0] == pytest.approx(want, abs=1e-15)


def test_adagrad_accumulator_floor_damps_small_gradients():
    # the first step of a coordinate is lr * g / sqrt(g0 + g^2): with a
    # zero floor that is sign(g) * lr for every g, erasing magnitudes
    def first_step(g, g0):
        opt = Adagrad(constant_gradient_store(0.0), lr=0.05, initial_accumulator=g0)
        opt.store.zero_grads()
        opt.store.grad("p")[...] = g
        opt.step()
        return float(np.abs(opt.store.value("p"))[0])

    assert first_step(1e-4, g0=1e-3) < first_step(1e-1, g0=1e-3) / 100
    assert first_step(1e-4, g0=0.0) == pytest.approx(0.05, rel=1e-6)


def test_adagrad_respects_frozen_names():
    store = nc.ParamStore()
    store.add("a", np.ones(2))
    store.add("b", np.ones(2))
    opt = Adagrad(store, lr=0.1, frozen=("b",))
    store.zero_grads()
    store.grad("a")[...] = 1.0
    store.grad("b")[...] = 1.0
    opt.step()
    assert not np.array_equal(store.value("a"), np.ones(2))
    np.testing.assert_array_equal(store.value("b"), np.ones(2))


def test_adagrad_validation():
    store = constant_gradient_store(0.0)
    with pytest.raises(ValueError):
        Adagrad(store, lr=0.0)
    with pytest.raises(ValueError):
        Adagrad(store, lr=0.1, initial_accumulator=-1e-3)


# ---------------------------------------------------------------------------
# training loop

def dataset_risk(ds, params, tcfg):
    return train.risk(ds.instances, params, tcfg, accumulate_grads=False).total


def test_first_epoch_decreases_risk():
    ds = small_dataset(n=300)
    tr, va, _ = data.split(ds, data.SplitSpec(seed=0))
    tcfg = TrainConfig(epochs=1, batch_size=64, seed=0)
    before = dataset_risk(tr, ModelParams.init(SMALL, tcfg.seed), tcfg)
    result = train.fit(tr, va, SMALL, tcfg)
    after = dataset_risk(tr, result.params, tcfg)
    assert after < before


def test_fit_is_deterministic():
    ds = small_dataset(n=200)
    tr, va, _ = data.split(ds, data.SplitSpec(seed=0))
    tcfg = TrainConfig(epochs=3, batch_size=64, seed=1)
    a = train.fit(tr, va, SMALL, tcfg)
    b = train.fit(tr, va, SMALL, tcfg)
    assert a.records == b.records
    assert a.selected_epoch == b.selected_epoch
    for name in model.PARAM_ORDER:
        np.testing.assert_array_equal(a.params.value(name), b.params.value(name))


def test_sign_complete_keeps_gates_open_and_edge_params_frozen():
    ds = small_dataset(n=200)
    tr, va, _ = data.split(ds, data.SplitSpec(seed=0))
    tcfg = TrainConfig(epochs=2, batch_size=64, seed=2, mode="sign-complete")
    result = train.fit(tr, va, SMALL, tcfg)
    assert all(r.open_gate_fraction == 1.0 for r in result.records)
    init = ModelParams.init(SMALL, tcfg.seed)
    for name in ("edge_embed", "edge_hidden_w", "edge_hidden_b", "edge_out_w", "edge_out_b"):
        np.testing.assert_array_equal(result.params.value(name), init.value(name))
    assert not np.array_equal(result.params.value("readout"), init.value("readout"))


def test_sign_fixed_all_pairs_equals_sign_complete():
    ds = small_dataset(n=200)
    tr, va, _ = data.split(ds, data.SplitSpec(seed=0))
    every_pair = frozenset(
        (i, j) for i in range(SMALL.vocab_size) for j in range(i, SMALL.vocab_size)
    )
    a = train.fit(
        tr, va, SMALL,
        TrainConfig(epochs=2, batch_size=64, seed=3, mode="sign-complete", lambda1=0.0),
    )
    b = train.fit(
        tr, va, SMALL,
        TrainConfig(
            epochs=2, batch_size=64, seed=3, mode="sign-fixed",
            fixed_edges=every_pair, lambda1=0.0,
        ),
    )
    assert a.records == b.records
    for name in model.PARAM_ORDER:
        np.testing.assert_array_equal(a.params.value(name), b.params.value(name))


def test_fit_aborts_on_non_finite_risk():
    ds = data.Dataset(
        instances=[
            data.make_instance([0, 1], [1e200, 1e200], 1),
            data.make_instance([2, 3], [1.0, 1.0], 0),
        ],
        vocab_size=12,
    )
    va = data.Dataset(
        instances=[
            data.make_instance([0], [1.0], 1),
            data.make_instance([1], [1.0], 0),
        ],
        vocab_size=12,
    )
    tcfg = TrainConfig(epochs=3, batch_size=4, seed=4)
    with np.errstate(all="ignore"):
        result = train.fit(ds, va, SMALL, tcfg)
    assert result.diverged
    assert result.records == [] and result.selected_epoch == 0
    init = ModelParams.init(SMALL, tcfg.seed)
    for name in model.PARAM_ORDER:
        np.testing.assert_array_equal(result.params.value(name), init.value(name))


def test_fit_rejects_single_class_validation_split_before_training(monkeypatch):
    ds = small_dataset(n=200)
    tr, va, _ = data.split(ds, data.SplitSpec(seed=0))
    ones = data.Dataset([i for i in va.instances if i.label == 1], va.vocab_size)
    monkeypatch.setattr(train, "risk", lambda *a, **k: pytest.fail("fit trained first"))
    with pytest.raises(ValueError, match="only label 1"):
        train.fit(tr, ones, SMALL, TrainConfig(epochs=1, seed=0))
    with pytest.raises(ValueError, match="empty"):
        train.fit(tr, data.Dataset([], va.vocab_size), SMALL, TrainConfig(epochs=1, seed=0))


@pytest.mark.parametrize("mode", ["l0sign", "sign-fixed"])
def test_risk_over_dataset_rows_equals_risk_over_those_instances(mode, monkeypatch):
    monkeypatch.setattr(model, "CHUNK_SLOTS", 40)  # many chunks
    ds = small_dataset(n=120)
    rows = np.random.default_rng(3).permutation(len(ds))[:50]
    rows = np.concatenate((rows, rows[:7]))  # fit never repeats a row, but risk allows it
    tcfg = TrainConfig(seed=5, mode=mode, lambda1=0.05, lambda2=0.02,
                       fixed_edges=frozenset({(0, 1), (2, 2), (3, 7)}))
    params = ModelParams.random(SMALL, seed=6)
    counts = ds.columns.counts[rows]
    u = NoiseStream(5).uniforms(2, rows, counts * (counts + 1) // 2)
    results = []
    for batch, kwargs in ((ds, {"rows": rows}), ([ds.instances[r] for r in rows], {})):
        params.store.zero_grads()
        sink = []
        parts = train.risk(batch, params, tcfg, noise=u, node_update_sink=sink, **kwargs)
        results.append((parts, params.store.grads(), sink))
    (got, got_grads, got_sink), (want, want_grads, want_sink) = results
    assert got == want
    for name in model.PARAM_ORDER:
        assert got_grads[name].tobytes() == want_grads[name].tobytes()
    assert all(a[1].tobytes() == b[1].tobytes() for a, b in zip(got_sink, want_sink))


def test_fit_rejects_empty_training_split_before_any_work(monkeypatch):
    _, va, _ = data.split(small_dataset(n=200), data.SplitSpec(seed=0))
    monkeypatch.setattr(train, "_validate", lambda *a, **k: pytest.fail("fit validated first"))
    with pytest.raises(ValueError, match="^the training split is empty$"):
        train.fit(data.Dataset([], va.vocab_size), va, SMALL, TrainConfig(epochs=1, seed=0))


def test_literal_embedding_update_overwrites_table():
    ds = small_dataset(n=200)
    tr, va, _ = data.split(ds, data.SplitSpec(seed=0))
    tcfg = TrainConfig(epochs=2, batch_size=64, seed=5, embedding_update="algorithm-literal")
    result = train.fit(tr, va, SMALL, tcfg)
    init = ModelParams.init(SMALL, tcfg.seed)
    assert not np.array_equal(result.params.value("node_embed"), init.value("node_embed"))
    assert all(math.isfinite(r.train_risk) for r in result.records)


def test_overwhelming_l0_weight_collapses_gates_and_ranking():
    ds = small_dataset(n=300)
    tr, va, _ = data.split(ds, data.SplitSpec(seed=0))
    # the accumulator floor caps each step at lr, so the march to closed
    # logits takes a few dozen epochs even at this weight; the reported
    # fraction (threshold 0.5) hits zero ~12 epochs before the deterministic
    # gates reach the clamp at 0 and the scores die
    tcfg = TrainConfig(epochs=40, batch_size=64, seed=0, lambda1=10.0)
    result = train.fit(tr, va, SMALL, tcfg)
    last = result.records[-1]
    assert last.open_gate_fraction == 0.0
    # every score is 0 once all gates close, so ranking is chance
    assert last.valid_auc == pytest.approx(0.5, abs=1e-12)


@pytest.mark.slow
def test_stronger_l0_weight_closes_more_gates():
    ds = small_dataset(n=1200, vocab=12, k=4, n_pairs=6, seed=1)
    tr, va, _ = data.split(ds, data.SplitSpec(seed=0))
    fractions = []
    for lam1 in (1e-4, 1e-3, 1e-2, 1e-1):
        tcfg = TrainConfig(epochs=12, batch_size=128, seed=0, lambda1=lam1)
        result = train.fit(tr, va, SMALL, tcfg)
        fractions.append(result.records[-1].open_gate_fraction)
    inversions = [
        max(0.0, b - a) for a, b in zip(fractions, fractions[1:])
    ]
    assert sum(v > 0 for v in inversions) <= 1, fractions
    assert max(inversions, default=0.0) <= 0.02, fractions
    assert fractions[-1] < fractions[0], fractions


# ---------------------------------------------------------------------------
# gradient checking helpers

def kink_free_case(seed0=0):
    tcfg = TrainConfig(seed=0)
    rng = np.random.default_rng(seed0)
    for attempt in range(30):
        seed = seed0 + attempt
        params = ModelParams.random(SMALL, seed=seed)
        nodes = sorted(rng.choice(SMALL.vocab_size, size=4, replace=False).tolist())
        inst = data.make_instance(nodes, rng.uniform(0.3, 1.5, size=4).tolist(), 1)
        if not train.near_gradient_kink(inst, params, tcfg):
            return inst, params, tcfg
    raise AssertionError("no kink-free draw in 30 attempts")


def test_instance_grad_check_passes_at_generic_position():
    inst, params, tcfg = kink_free_case()
    err = train.instance_grad_check(inst, params, tcfg)
    assert err < 1e-4


def test_instance_grad_check_runs_one_backward_pass(monkeypatch):
    inst, params, tcfg = kink_free_case()
    passes = []
    backward = model.backward

    def counted(*args, **kwargs):
        passes.append(1)
        return backward(*args, **kwargs)

    monkeypatch.setattr(model, "backward", counted)
    for case in range(2):
        train.instance_grad_check(inst, params, tcfg, sample_index=case)
        assert len(passes) == case + 1


def test_near_gradient_kink_flags_zero_preactivation():
    params = ModelParams.random(SMALL, seed=0)
    params.value("node_embed")[...] = 0.0
    params.value("pair_hidden_b")[...] = 0.2
    params.value("pair_hidden_b")[2] = 0.0  # pre-activation exactly at the kink
    inst = data.make_instance([0, 1], [1.0, 1.0], 1)
    assert train.near_gradient_kink(inst, params, TrainConfig(seed=0))


def test_near_gradient_kink_margin_scales_with_epsilon():
    params = ModelParams.random(SMALL, seed=0)
    params.value("node_embed")[...] = 0.0
    params.value("pair_hidden_b")[...] = 0.2
    params.value("pair_hidden_b")[2] = 3e-4  # inside 50 * 1e-5, outside 50 * 1e-7
    inst = data.make_instance([0, 1], [1.0, 1.0], 1)
    tcfg = TrainConfig(seed=0)
    assert train.near_gradient_kink(inst, params, tcfg, epsilon=1e-5)
    assert not train.near_gradient_kink(inst, params, tcfg, epsilon=1e-7)


# ---------------------------------------------------------------------------
# logs

def test_training_log_round_trip(tmp_path):
    records = [
        EpochRecord(1, 0.6931471805599453, 0.51234567891, 0.5, 1.0),
        EpochRecord(2, 0.653218, 0.6000000000000001, 0.55, 0.875),
    ]
    path = tmp_path / "log.csv"
    train.save_training_log(records, path)
    assert train.load_training_log(path) == records


def test_training_log_rejects_foreign_header(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        train.load_training_log(path)


# ---------------------------------------------------------------------------
# ablation study

def test_ablation_rows_and_round_trip(tmp_path):
    ds = small_dataset(n=160, vocab=8, k=3, n_pairs=4, seed=2)
    tr, va, te = data.split(ds, data.SplitSpec(seed=0))
    cfg = ModelConfig(vocab_size=8, edge_dim=4, interaction_dim=4, hidden_dim=6)
    trained = ModelParams.random(cfg, seed=6)
    tcfg = TrainConfig(epochs=2, batch_size=64, seed=0)
    rows = train.run_ablation(
        tr, va, te, trained, tcfg, ratios=(0.5, 1.0), repeats=2, epochs=2
    )
    # 2 sources x 2 ratios x (2 repeats + 1 mean)
    assert len(rows) == 12
    for source in ("predicted", "reversed"):
        for ratio in (0.5, 1.0):
            group = [r for r in rows if r.source == source and r.ratio == ratio]
            per_rep = [r for r in group if r.repeat is not None]
            mean_row = [r for r in group if r.repeat is None]
            assert len(per_rep) == 2 and len(mean_row) == 1
            assert mean_row[0].auc == pytest.approx(np.mean([r.auc for r in per_rep]))
            assert mean_row[0].acc == pytest.approx(np.mean([r.acc for r in per_rep]))
    path = tmp_path / "ablation.csv"
    train.save_ablation(rows, path)
    assert train.load_ablation(path) == rows


def test_ablation_rejects_bad_ratio():
    ds = small_dataset(n=160, vocab=8, k=3, n_pairs=4, seed=2)
    tr, va, te = data.split(ds, data.SplitSpec(seed=0))
    cfg = ModelConfig(vocab_size=8, edge_dim=4, interaction_dim=4, hidden_dim=6)
    trained = ModelParams.random(cfg, seed=7)
    with pytest.raises(ValueError):
        train.run_ablation(
            tr, va, te, trained, TrainConfig(seed=0), ratios=(0.0,), repeats=1, epochs=1
        )
