import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l0sign import data, evaluate, model
from l0sign.model import ModelConfig, ModelParams


# ---------------------------------------------------------------------------
# ranking metrics

def exhaustive_auc(labels, scores):
    """Pair-counting definition: P(score_pos > score_neg) + 0.5 P(tie)."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_auc_hand_value():
    labels = [1, 0, 1, 0]
    scores = [0.9, 0.8, 0.1, 0.3]
    # pairs: (0.9 vs 0.8) win, (0.9 vs 0.3) win, (0.1 vs 0.8) loss,
    # (0.1 vs 0.3) loss -> 2/4
    assert evaluate.auc(labels, scores) == pytest.approx(0.5, abs=1e-15)


def test_auc_perfect_and_inverted():
    labels = [0, 0, 1, 1]
    assert evaluate.auc(labels, [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert evaluate.auc(labels, [0.9, 0.8, 0.2, 0.1]) == 0.0


def test_auc_ties_get_midranks():
    labels = [1, 0, 1, 0]
    scores = [0.5, 0.5, 0.5, 0.5]
    assert evaluate.auc(labels, scores) == pytest.approx(0.5, abs=1e-15)
    labels2 = [1, 1, 0, 0, 1]
    scores2 = [0.7, 0.7, 0.7, 0.2, 0.4]
    assert evaluate.auc(labels2, scores2) == pytest.approx(
        exhaustive_auc(labels2, scores2), abs=1e-12
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_auc_matches_exhaustive_count(draw):
    n = draw.draw(st.integers(min_value=2, max_value=12))
    labels = draw.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda ls: 0 < sum(ls) < len(ls)
        )
    )
    scores = draw.draw(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False) | st.sampled_from([0.0, 1.0]),
            min_size=n,
            max_size=n,
        )
    )
    assert evaluate.auc(labels, scores) == pytest.approx(
        exhaustive_auc(labels, scores), abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_auc_invariant_under_monotone_transform(draw):
    n = draw.draw(st.integers(min_value=3, max_value=15))
    labels = draw.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda ls: 0 < sum(ls) < len(ls)
        )
    )
    # grid-spaced scores keep ties exact under the transforms below
    scores = (
        np.array(draw.draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)))
        / 100.0
    )
    base = evaluate.auc(labels, scores)
    assert evaluate.auc(labels, 3.0 * scores + 7.0) == pytest.approx(base, abs=1e-12)
    assert evaluate.auc(labels, np.tanh(scores)) == pytest.approx(base, abs=1e-9)


def test_auc_rejects_single_class_and_bad_shapes():
    with pytest.raises(ValueError, match="single class"):
        evaluate.auc([1, 1], [0.2, 0.3])
    with pytest.raises(ValueError):
        evaluate.auc([0, 1], [0.2, 0.3, 0.4])
    with pytest.raises(ValueError):
        evaluate.auc([0, 2], [0.2, 0.3])


# ---------------------------------------------------------------------------
# thresholded metrics

def test_accuracy_hand_confusion():
    labels = [1, 1, 0, 0, 1]
    scores = [0.5, -0.5, -0.5, 0.5, 0.5]
    # predictions at 0: [1, 0, 0, 1, 1] -> 3 correct out of 5
    assert evaluate.accuracy(labels, scores) == pytest.approx(0.6)


def test_f1_hand_confusion():
    labels = [1, 1, 0, 0, 1, 0]
    scores = [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]
    # tp=2 fp=1 fn=1 -> precision 2/3, recall 2/3, f1 2/3
    assert evaluate.f1(labels, scores) == pytest.approx(2.0 / 3.0)


def test_f1_degenerate_cases():
    value, defined = evaluate.f1_flagged([0, 0, 1], [-1.0, -1.0, -1.0])
    assert (value, defined) == (0.0, True)  # a miss exists, F1 is truly 0
    value, defined = evaluate.f1_flagged([0, 0, 0], [-1.0, -1.0, -1.0])
    assert (value, defined) == (0.0, False)  # nothing to relate


def test_compute_metrics_bundle():
    labels = [1, 0, 1, 0]
    scores = [0.9, -0.8, 0.1, 0.3]
    m = evaluate.compute_metrics(labels, scores)
    assert m.auc == evaluate.auc(labels, scores)
    assert m.acc == evaluate.accuracy(labels, scores)
    assert m.f1 == evaluate.f1(labels, scores)
    assert m.f1_defined and m.n_samples == 4


def test_score_dataset_uses_deterministic_gates():
    cfg = ModelConfig(vocab_size=8, edge_dim=3, interaction_dim=3, hidden_dim=4)
    params = ModelParams.random(cfg, seed=0)
    ds = data.Dataset(
        instances=[
            data.make_instance([0, 1], [1.0, 1.0], 1),
            data.make_instance([2, 5], [0.5, 2.0], 0),
        ],
        vocab_size=8,
    )
    scores = evaluate.score_dataset(ds, params)
    want = [model.score_only(inst, params) for inst in ds.instances]
    np.testing.assert_allclose(scores, want, atol=0)


# ---------------------------------------------------------------------------
# edge-level reporting

def tiny_dataset():
    return data.Dataset(
        instances=[
            data.make_instance([0, 1, 2], [1.0, 1.0, 1.0], 1),
            data.make_instance([0, 1], [1.0, 1.0], 0),
        ],
        vocab_size=6,
    )


def test_co_occurring_pairs_counts_include_self():
    counts = evaluate.co_occurring_pairs(tiny_dataset())
    assert counts[(0, 1)] == 2
    assert counts[(0, 2)] == 1
    assert counts[(0, 0)] == 2
    assert counts[(2, 2)] == 1
    assert (3, 4) not in counts


def test_co_occurring_pairs_matches_a_pair_loop():
    """Across engine chunks, with feature ids far above the chunk budget."""
    rng = np.random.default_rng(5)
    vocab = 70_000
    pool = rng.choice(vocab, size=30, replace=False)
    instances = [
        data.make_instance(rng.choice(pool, size=k, replace=False).tolist(), [1.0] * k, 0)
        for k in rng.integers(1, 9, size=200)
    ]
    ds = data.Dataset(instances=instances, vocab_size=vocab)
    assert sum(model.pair_count(inst.n_nodes) for inst in instances) > model.CHUNK_SLOTS
    want = Counter()
    for inst in instances:
        for a in range(inst.n_nodes):
            for b in range(a, inst.n_nodes):
                want[(inst.nodes[a], inst.nodes[b])] += 1
    got = evaluate.co_occurring_pairs(ds)
    assert got == want
    assert all(type(i) is int and type(j) is int for i, j in got)
    assert evaluate.co_occurring_pairs(data.Dataset(instances=[], vocab_size=3)) == Counter()


def test_edge_report_gates_and_fraction():
    cfg = ModelConfig(vocab_size=6, edge_dim=3, interaction_dim=3, hidden_dim=4)
    params = ModelParams.random(cfg, seed=1)
    report = evaluate.edge_report(tiny_dataset(), params, threshold=0.5)
    assert report.threshold == 0.5
    assert len(report.entries) == 6  # (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)
    open_count = 0
    for entry in report.entries:
        la = model.edge_logit(entry.i, entry.j, params)
        from l0sign import gates

        assert entry.gate == pytest.approx(
            float(gates.eval_deterministic(la)), abs=1e-14
        )
        open_count += entry.gate > 0.5
    assert report.open_fraction == pytest.approx(open_count / 6)


def force_gate_logits(params, open_pairs, vocab):
    """Rewire the edge MLP into a lookup: bias drives everything closed,
    then a dedicated hidden unit reopens each chosen cross pair.

    Opposite-signed endpoint entries make the cross product negative while
    both self products stay positive, so a negated hidden weight fires only
    for the cross pair. Needs len(open_pairs) <= edge_dim and hidden_dim,
    and one distinct dim per pair when pairs share a feature."""
    params.value("edge_embed")[...] = 0.0
    params.value("edge_hidden_w")[...] = 0.0
    params.value("edge_hidden_b")[...] = 0.0
    params.value("edge_out_w")[...] = 0.0
    params.value("edge_out_b")[...] = -6.0
    w1 = params.value("edge_hidden_w")
    w2 = params.value("edge_out_w")
    for slot, (i, j) in enumerate(open_pairs):
        params.value("edge_embed")[i, slot] = 2.0
        params.value("edge_embed")[j, slot] = -2.0
        w1[slot, slot] = -1.0
        w2[0, slot] = 2.0
    return params


def test_edge_recovery_identity_when_gates_match_truth():
    cfg = ModelConfig(vocab_size=6, edge_dim=4, interaction_dim=3, hidden_dim=4)
    params = ModelParams.random(cfg, seed=2)
    # dataset where pairs (0,1) and (0,2) co-occur
    ds = tiny_dataset()
    planted = data.PlantedPairs(pairs=((0, 1),), weights=(0.5,))
    force_gate_logits(params, [(0, 1)], 6)
    report = evaluate.edge_recovery(ds, params, planted, threshold=0.5)
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
    assert report.predicted == ((0, 1),)
    assert report.universe_size == 3  # (0,1) (0,2) (1,2)


def test_edge_recovery_partial_overlap():
    cfg = ModelConfig(vocab_size=6, edge_dim=4, interaction_dim=3, hidden_dim=4)
    params = ModelParams.random(cfg, seed=3)
    ds = tiny_dataset()
    planted = data.PlantedPairs(pairs=((0, 1), (1, 2)), weights=(0.5, -0.5))
    force_gate_logits(params, [(0, 1), (0, 2)], 6)
    report = evaluate.edge_recovery(ds, params, planted, threshold=0.5)
    # predicted {(0,1), (0,2)}, truth {(0,1), (1,2)} -> P=R=0.5
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(0.5)
    assert report.f1 == pytest.approx(0.5)


def test_edge_recovery_requires_planted():
    cfg = ModelConfig(vocab_size=6, edge_dim=3, interaction_dim=3, hidden_dim=4)
    params = ModelParams.random(cfg, seed=4)
    with pytest.raises(ValueError):
        evaluate.edge_recovery(tiny_dataset(), params, ())


# ---------------------------------------------------------------------------
# explanations

def test_explain_sums_to_score_and_sorts():
    cfg = ModelConfig(vocab_size=10, edge_dim=4, interaction_dim=4, hidden_dim=6)
    params = ModelParams.random(cfg, seed=5)
    inst = data.make_instance([1, 4, 7, 9], [1.0, 0.5, 2.0, 1.0], 1)
    explanation = evaluate.explain(inst, params, instance_id=3)
    assert explanation.instance_id == 3
    total = sum(e.contribution for e in explanation.entries)
    assert total == pytest.approx(explanation.score, abs=1e-9)
    mags = [abs(e.contribution) for e in explanation.entries]
    assert mags == sorted(mags, reverse=True)
    payload = explanation.to_json_dict()
    assert payload["score"] == explanation.score
    assert len(payload["pairs"]) == len(explanation.entries)


def test_explain_drops_closed_gates():
    cfg = ModelConfig(vocab_size=6, edge_dim=4, interaction_dim=3, hidden_dim=4)
    params = ModelParams.random(cfg, seed=6)
    force_gate_logits(params, [(0, 1)], 6)
    inst = data.make_instance([0, 1, 2], [1.0, 1.0, 1.0], 1)
    explanation = evaluate.explain(inst, params)
    kept = {(e.i, e.j) for e in explanation.entries}
    assert kept == {(0, 1)}
    assert all(e.gate > 0.0 for e in explanation.entries)


def test_explain_all_closed_gives_empty_entries():
    cfg = ModelConfig(vocab_size=6, edge_dim=4, interaction_dim=3, hidden_dim=4)
    params = ModelParams.random(cfg, seed=7)
    force_gate_logits(params, [], 6)
    inst = data.make_instance([0, 1], [1.0, 1.0], 1)
    explanation = evaluate.explain(inst, params)
    assert explanation.entries == ()
    assert explanation.score == 0.0


def reference_explanation(inst, params, instance_id=None):
    """explain as it was built before it read the trace's arrays: one record
    per slot, the open ones kept, then a stable Python sort."""
    trace = model.forward(inst, params)
    ids = inst.node_array
    contrib = model._contributions(trace, params)
    entries = [
        evaluate.ExplanationEntry(i=int(ids[a]), j=int(ids[b]), gate=float(trace.edge_values[p]),
                                  contribution=float(contrib[p]))
        for p, (a, b) in enumerate(zip(trace.layout.slot_i, trace.layout.slot_j))
    ]
    entries = [e for e in entries if e.gate > 0.0]
    entries.sort(key=lambda e: abs(e.contribution), reverse=True)
    return evaluate.Explanation(instance_id=instance_id, score=trace.score, entries=tuple(entries))


def exact(explanation):
    """Every field of an explanation with its type, floats as IEEE bytes."""
    def bits(x):
        return type(x).__name__, struct.pack("<d", x)

    return (
        explanation.instance_id,
        bits(explanation.score),
        [(type(e.i).__name__, e.i, type(e.j).__name__, e.j, bits(e.gate), bits(e.contribution))
         for e in explanation.entries],
    )


EXPLAIN_CFG = ModelConfig(vocab_size=10, edge_dim=4, interaction_dim=4, hidden_dim=6)


def explain_case(name, seed):
    """(instance, params) of one equivalence case."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 8))
    nodes = sorted(rng.choice(EXPLAIN_CFG.vocab_size, size=k, replace=False).tolist())
    inst = data.make_instance(nodes, rng.uniform(0.2, 2.0, size=k).tolist(), 1)
    params = ModelParams.random(EXPLAIN_CFG, seed=seed)
    if name == "some-closed":
        params.value("edge_out_b")[...] = -1.5
    elif name == "all-closed":
        params.value("edge_out_b")[...] = -60.0
    elif name == "ties":  # every contribution is 0: entries come in slot order
        params.value("readout")[...] = 0.0
    return inst, params


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["random", "some-closed", "all-closed", "ties"])
def test_explain_equals_the_per_slot_build(name, seed):
    inst, params = explain_case(name, seed)
    for instance_id in (None, seed):
        got = evaluate.explain(inst, params, instance_id=instance_id)
        want = reference_explanation(inst, params, instance_id=instance_id)
        assert exact(got) == exact(want)
        assert got.instance_id == instance_id
    if name == "all-closed":
        assert got.entries == ()
    if name == "ties":
        assert all(e.contribution == 0.0 for e in got.entries)
        slots = [(i, j) for n, i in enumerate(inst.nodes) for j in inst.nodes[n:]]
        positions = [slots.index((e.i, e.j)) for e in got.entries]
        assert positions == sorted(positions)


def test_explain_builds_no_prediction_and_runs_one_forward(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("explain built a Prediction or PairAnalysis")

    calls = []
    forward = model.forward

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "PairAnalysis", refuse)
    monkeypatch.setattr(model, "Prediction", refuse)
    monkeypatch.setattr(model, "forward", counted)
    for seed in range(3):
        inst, params = explain_case("some-closed", seed)
        explanation = evaluate.explain(inst, params, instance_id=seed)
        assert len(calls) == seed + 1 and explanation.entries
        assert sum(e.contribution for e in explanation.entries) == pytest.approx(
            explanation.score, abs=1e-12)
