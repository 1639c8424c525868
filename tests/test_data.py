import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l0sign import data
from l0sign.data import Dataset, Instance, PlantedPairs, SplitSpec


# ---------------------------------------------------------------------------
# instances

def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(nodes=(), values=(), label=0)
    with pytest.raises(ValueError):
        Instance(nodes=(2, 1), values=(1.0, 1.0), label=0)
    with pytest.raises(ValueError):
        Instance(nodes=(1, 1), values=(1.0, 1.0), label=0)
    with pytest.raises(ValueError):
        Instance(nodes=(-1,), values=(1.0,), label=0)
    with pytest.raises(ValueError):
        Instance(nodes=(0, 1), values=(1.0,), label=0)
    with pytest.raises(ValueError):
        Instance(nodes=(0,), values=(1.0,), label=2)


def test_signed_label():
    assert Instance(nodes=(0,), values=(1.0,), label=0).signed_label == -1
    assert Instance(nodes=(0,), values=(1.0,), label=1).signed_label == 1


def test_make_instance_sorts_nodes_with_values():
    inst = data.make_instance([5, 2, 9], [0.5, 0.2, 0.9], 1)
    assert inst.nodes == (2, 5, 9)
    assert inst.values == (0.2, 0.5, 0.9)


# ---------------------------------------------------------------------------
# text format

def test_parse_line_forms():
    inst = data.parse_line("1 3:0.5 7:2.0")
    assert inst.label == 1 and inst.nodes == (3, 7) and inst.values == (0.5, 2.0)
    bare = data.parse_line("0 2 5 11")
    assert bare.values == (1.0, 1.0, 1.0)
    neg = data.parse_line("-1 4")
    assert neg.label == 0


@pytest.mark.parametrize(
    "line",
    ["2 1:1.0", "x 1", "1", "1 a:2", "1 3:zz", "1 -2:1.0", "1 4 4"],
)
def test_parse_line_rejects_malformed(line):
    with pytest.raises(ValueError):
        data.parse_line(line)


@pytest.mark.parametrize("token", ["0:nan", "3:inf", "3:-inf", "5:NaN"])
def test_parse_line_rejects_non_finite_values(token, tmp_path):
    with pytest.raises(ValueError, match="non-finite"):
        data.parse_line(f"1 {token}")
    path = tmp_path / "bad.txt"
    path.write_text(f"vocab_size=8\n1 2 3\n0 1 {token}\n")
    with pytest.raises(ValueError) as exc:
        data.load_dataset(path)
    message = str(exc.value)
    assert "line 3" in message and token in message and "\n" not in message


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n1 4 4\n")
    with pytest.raises(ValueError) as exc:
        data.load_dataset(path)
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize(
    "header", ["vocab_size=abc", "vocab_size=", "vocab_size=2.5", "vocab_size=0", "vocab_size=-3"]
)
def test_bad_vocab_size_header_names_file_and_line(header, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(f"{header}\n1 2 3\n")
    with pytest.raises(ValueError) as exc:
        data.load_dataset(path)
    message = str(exc.value)
    assert str(path) in message and "line 1" in message and repr(header) in message


def test_feature_index_beyond_declared_vocab_names_file_and_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vocab_size=3\n1 0 2\n\n0 1 5\n1 0\n")
    with pytest.raises(ValueError) as exc:
        data.load_dataset(path)
    message = str(exc.value)
    assert str(path) in message and "line 4" in message and "5 >= declared vocab_size 3" in message


def test_format_line_round_trips_and_uses_bare_indices():
    inst = data.make_instance([3, 7], [1.0, 2.5], 1)
    line = data.format_line(inst)
    assert line == "1 3 7:2.5"
    assert data.parse_line(line) == inst


def test_dataset_file_round_trip(tmp_path):
    ds = Dataset(
        instances=[
            data.make_instance([0, 2], [1.0, 0.5], 1),
            data.make_instance([1], [3.0], 0),
        ],
        vocab_size=10,
    )
    path = tmp_path / "data.txt"
    data.save_dataset(ds, path)
    assert path.read_text().startswith("vocab_size=10\n")
    back = data.load_dataset(path)
    assert back.vocab_size == 10
    assert back.instances == ds.instances


def test_load_dataset_infers_vocab_without_header(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1 3 17\n0 2\n")
    assert data.load_dataset(path).vocab_size == 18


def test_load_dataset_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n")
    with pytest.raises(ValueError):
        data.load_dataset(path)


def test_dataset_rejects_out_of_vocab():
    with pytest.raises(ValueError):
        Dataset(instances=[data.make_instance([5], [1.0], 0)], vocab_size=5)


def test_dataset_columns_are_its_rows_in_csr_form():
    rows = [data.make_instance([3, 1], [0.5, 2.0], 1), data.make_instance([4], [1.0], 0),
            data.make_instance([0, 2, 4], [1.0, -3.0, 1.0], 1)]
    cols = Dataset(rows, vocab_size=5).columns
    assert cols.instances == tuple(rows)
    np.testing.assert_array_equal(cols.counts, [2, 1, 3])
    np.testing.assert_array_equal(cols.offsets, [0, 2, 3])
    np.testing.assert_array_equal(cols.ids, [1, 3, 4, 0, 2, 4])
    np.testing.assert_array_equal(cols.values, [2.0, 0.5, 1.0, 1.0, -3.0, 1.0])
    np.testing.assert_array_equal(cols.labels, [1, 0, 1])
    assert [a.dtype for a in (cols.counts, cols.offsets, cols.ids, cols.values, cols.labels)] == [
        np.int64, np.int64, np.int64, np.float64, np.int64]
    empty = Dataset([], vocab_size=3).columns
    assert empty.instances == () and all(
        a.shape == (0,) for a in (empty.counts, empty.offsets, empty.ids, empty.values))


def test_dataset_columns_never_go_stale():
    rows = [data.make_instance([0, 1], [1.0, 1.0], 1), data.make_instance([2], [1.0], 0)]
    ds = Dataset(rows, vocab_size=4)
    cols = ds.columns
    assert ds.columns is cols  # built once
    rows.append(data.make_instance([3], [1.0], 1))  # the caller's list is not the dataset's
    rows[0] = data.make_instance([3], [2.0], 0)
    assert len(ds) == 2 and ds.columns is cols
    np.testing.assert_array_equal(cols.ids, [0, 1, 2])
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.instances = rows
    other = dataclasses.replace(ds, instances=rows)
    np.testing.assert_array_equal(other.columns.ids, [3, 2, 3])
    np.testing.assert_array_equal(other.columns.values, [2.0, 1.0, 1.0])
    assert data.columns_of(ds) is cols
    assert data.columns_of(rows).instances == tuple(rows)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=8, unique=True),
    st.data(),
)
def test_text_format_fixed_point(nodes, draw):
    values = draw.draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=len(nodes),
            max_size=len(nodes),
        )
    )
    label = draw.draw(st.integers(min_value=0, max_value=1))
    inst = data.make_instance(nodes, values, label)
    once = data.parse_line(data.format_line(inst))
    assert once == inst  # repr round-trips floats exactly
    assert data.parse_line(data.format_line(once)) == once


# ---------------------------------------------------------------------------
# planted pairs

def test_planted_pairs_json_round_trip(tmp_path):
    truth = PlantedPairs(pairs=((0, 3), (2, 5)), weights=(0.4, -0.9))
    path = tmp_path / "truth.json"
    truth.save(path)
    assert PlantedPairs.load(path) == truth
    payload = truth.to_json_dict()
    assert set(payload) == {"pairs", "weights"}


def test_planted_pairs_validation():
    with pytest.raises(ValueError):
        PlantedPairs(pairs=((0, 1),), weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        PlantedPairs(pairs=((3, 1),), weights=(0.5,))


def test_draw_planted_pairs_distinct_and_bounded():
    pairs = data.draw_planted_pairs(10, 12, seed=3)
    assert len(set(pairs)) == 12
    for i, j in pairs:
        assert 0 <= i < j < 10
    with pytest.raises(ValueError):
        data.draw_planted_pairs(3, 10, seed=0)


# ---------------------------------------------------------------------------
# splits

def make_indexed_dataset(n):
    return Dataset(
        instances=[data.make_instance([i], [1.0], i % 2) for i in range(n)],
        vocab_size=n,
    )


def test_split_sizes_and_partition():
    ds = make_indexed_dataset(100)
    tr, va, te = data.split(ds, SplitSpec(seed=0))
    assert (len(tr), len(va), len(te)) == (70, 15, 15)
    seen = [inst.nodes[0] for part in (tr, va, te) for inst in part.instances]
    assert sorted(seen) == list(range(100))


def test_split_deterministic_and_seed_sensitive():
    ds = make_indexed_dataset(40)
    a = data.split(ds, SplitSpec(seed=5))
    b = data.split(ds, SplitSpec(seed=5))
    c = data.split(ds, SplitSpec(seed=6))
    assert [p.instances for p in a] == [p.instances for p in b]
    assert [p.instances for p in a] != [p.instances for p in c]


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(train=0.5, valid=0.2, test=0.2)
    with pytest.raises(ValueError):
        SplitSpec(train=1.0, valid=0.15, test=0.15)


def test_split_rejects_empty_part():
    with pytest.raises(ValueError):
        data.split(make_indexed_dataset(3), SplitSpec())


# ---------------------------------------------------------------------------
# synthetic generator

def test_generate_synthetic_deterministic():
    pairs = data.draw_planted_pairs(12, 4, seed=1)
    a = data.generate_synthetic(12, 200, 5, pairs, 0.1, seed=9)
    b = data.generate_synthetic(12, 200, 5, pairs, 0.1, seed=9)
    assert a.instances == b.instances
    assert a.planted == b.planted


def test_generate_synthetic_weights_bounded_away_from_zero():
    pairs = data.draw_planted_pairs(15, 8, seed=2)
    ds = data.generate_synthetic(15, 50, 4, pairs, 0.0, seed=4)
    for w in ds.planted.weights:
        assert 0.2 <= abs(w) <= 1.0


def test_generate_synthetic_noiseless_labels_match_rule():
    pairs = data.draw_planted_pairs(10, 6, seed=3)
    ds = data.generate_synthetic(10, 400, 5, pairs, 0.0, seed=5)
    informative = 0
    for inst in ds.instances:
        score = data.oracle_score(inst, ds.planted)
        present = set(inst.nodes)
        hit = any(i in present and j in present for i, j in ds.planted.pairs)
        if hit:
            informative += 1
            assert inst.label == (1 if score > 0 else 0)
    assert informative > 0


def test_generate_synthetic_without_pairs_gives_coin_labels():
    ds = data.generate_synthetic(10, 2000, 4, (), 0.0, seed=6)
    mean = ds.labels().mean()
    assert 0.45 < mean < 0.55
    assert data.oracle_accuracy(ds, 0.0) == 0.5


def test_generate_synthetic_validation():
    with pytest.raises(ValueError):
        data.generate_synthetic(5, 10, 6, (), 0.0, seed=0)
    with pytest.raises(ValueError):
        data.generate_synthetic(5, 10, 3, ((1, 1),), 0.0, seed=0)
    with pytest.raises(ValueError):
        data.generate_synthetic(5, 10, 3, ((0, 7),), 0.0, seed=0)
    with pytest.raises(ValueError):
        data.generate_synthetic(5, 10, 3, ((0, 1), (1, 0)), 0.0, seed=0)
    with pytest.raises(ValueError):
        data.generate_synthetic(5, 10, 3, (), 0.6, seed=0)


def test_oracle_accuracy_matches_independent_recomputation():
    pairs = data.draw_planted_pairs(12, 5, seed=7)
    ds = data.generate_synthetic(12, 500, 5, pairs, 0.05, seed=8)
    total = 0.0
    for inst in ds.instances:
        present = set(inst.nodes)
        hit = any(i in present and j in present for i, j in ds.planted.pairs)
        if not hit:
            total += 0.5
        else:
            want = 1 if data.oracle_score(inst, ds.planted) > 0 else 0
            total += 1.0 if inst.label == want else 0.0
    assert abs(data.oracle_accuracy(ds, 0.05) - total / len(ds)) < 1e-12


def test_pair_containment_probability_is_combinatorial():
    # P(a fixed pair is inside a uniform 6-of-20 subset) = C(18,4)/C(20,6);
    # with 5 planted pairs the informative fraction is bounded by 5x that,
    # which caps what any classifier can do on this configuration
    p_pair = math.comb(18, 4) / math.comb(20, 6)
    assert abs(p_pair - 0.07894736842105263) < 1e-15
    pairs = data.draw_planted_pairs(20, 5, seed=0)
    ds = data.generate_synthetic(20, 5000, 6, pairs, 0.05, seed=0)
    informative = sum(
        1
        for inst in ds.instances
        if any(
            i in set(inst.nodes) and j in set(inst.nodes) for i, j in ds.planted.pairs
        )
    )
    assert informative / len(ds) <= 5 * p_pair
    # the Bayes ceiling that follows from sparse coverage
    assert data.oracle_accuracy(ds, 0.05) < 0.75


def test_denser_configuration_has_high_oracle_accuracy():
    # smaller vocabulary + more planted pairs: nearly every instance is
    # informative, so learnability targets are meaningful here
    pairs = data.draw_planted_pairs(12, 10, seed=0)
    ds = data.generate_synthetic(12, 600, 6, pairs, 0.05, seed=0)
    assert data.oracle_accuracy(ds, 0.05) > 0.9
