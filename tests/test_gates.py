import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l0sign import gates
from l0sign.gates import GateConfig, NoiseStream


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


CFG = GateConfig()


def draw(log_alpha, u, config=CFG):
    """One gate drawn through a one-element `sample_array` call."""
    return gates.sample_array(np.array([log_alpha]), np.array([u]), config)


def test_config_validation():
    with pytest.raises(ValueError):
        GateConfig(temperature=0.0)
    with pytest.raises(ValueError):
        GateConfig(stretch_low=0.1)
    with pytest.raises(ValueError):
        GateConfig(stretch_high=0.9)


def test_l0_shift_closed_form():
    # temperature * log(-low/high) with the default stretch
    assert abs(CFG.l0_shift - (2.0 / 3.0) * math.log(0.1 / 1.1)) < 1e-15


def test_sample_midpoint_noise_hand_value():
    # u=0.5 makes the logistic noise vanish; at log_alpha=0 the sigmoid is
    # 0.5, stretched to 0.5*1.2 - 0.1 = 0.5
    drawn = draw(0.0, 0.5)
    assert abs(drawn.value[0] - 0.5) < 1e-12
    assert abs(drawn.pre_clamp[0] - 0.5) < 1e-12


def test_sample_gradient_hand_value():
    # interior point: d value / d log_alpha = span * s(1-s) / temperature
    drawn = draw(0.0, 0.5)
    expected = 1.2 * 0.25 / (2.0 / 3.0)
    assert abs(gates.grad_log_alpha(drawn, CFG)[0] - expected) < 1e-12
    assert abs(expected - 0.45) < 1e-12


def test_sample_clamps_and_kills_gradient():
    high = draw(50.0, 0.9)
    assert high.value[0] == 1.0 and high.pre_clamp[0] > 1.0
    assert gates.grad_log_alpha(high, CFG)[0] == 0.0
    low = draw(-50.0, 0.1)
    assert low.value[0] == 0.0 and low.pre_clamp[0] < 0.0
    assert gates.grad_log_alpha(low, CFG)[0] == 0.0


def test_sample_rejects_boundary_noise():
    with pytest.raises(ValueError):
        draw(0.0, 0.0)
    with pytest.raises(ValueError):
        draw(0.0, 1.0)


def test_sample_array_shape_mismatch():
    from l0sign import numcore as nc

    with pytest.raises(nc.ShapeError):
        gates.sample_array(np.zeros(3), np.full(4, 0.5), CFG)


def test_eval_deterministic_hand_values():
    assert abs(gates.eval_deterministic(0.0, CFG) - 0.5) < 1e-12
    assert gates.eval_deterministic(50.0, CFG) == 1.0
    assert gates.eval_deterministic(-50.0, CFG) == 0.0
    arr = gates.eval_deterministic(np.array([0.0, 50.0]), CFG)
    assert arr.shape == (2,) and abs(arr[0] - 0.5) < 1e-12


def test_eval_deterministic_equals_midpoint_noise_only_at_temperature_one():
    # the noise-free estimator sigmoids the raw location; the u=0.5 draw
    # sigmoids location/temperature, so they agree iff temperature == 1
    cfg1 = GateConfig(temperature=1.0)
    for la in (-1.2, -0.3, 0.0, 0.4, 2.0):
        drawn = draw(la, 0.5, cfg1)
        assert abs(drawn.value[0] - gates.eval_deterministic(la, cfg1)) < 1e-12
    assert abs(draw(1.0, 0.5).value[0] - gates.eval_deterministic(1.0, CFG)) > 1e-3


def test_open_probability_reference_value():
    # sigmoid((2/3) ln 11), evaluated independently
    want = logistic((2.0 / 3.0) * math.log(11.0))
    got = gates.open_probability(0.0, CFG)
    assert abs(got - want) < 1e-15
    assert abs(got - 0.8318) < 1e-4


def test_open_probability_grad_matches_finite_difference():
    h = 1e-6
    for la in (-2.0, -0.5, 0.0, 1.0, 3.0):
        numeric = (
            gates.open_probability(la + h, CFG) - gates.open_probability(la - h, CFG)
        ) / (2 * h)
        assert abs(gates.open_probability_grad(la, CFG) - numeric) < 1e-8


def test_monte_carlo_open_probability():
    rng = np.random.default_rng(7)
    n = 100_000
    for la in (-2.0, 0.0, 2.0):
        u = np.clip(rng.random(n), gates.NOISE_EPS, 1 - gates.NOISE_EPS)
        drawn = gates.sample_array(np.full(n, la), u, CFG)
        mc = float(np.mean(drawn.value > 0.0))
        assert abs(mc - gates.open_probability(la, CFG)) < 0.01


def test_stochastic_gradient_matches_finite_difference():
    h = 1e-7
    for la, u in [(-1.0, 0.3), (0.0, 0.7), (1.5, 0.45), (0.2, 0.9)]:
        drawn = draw(la, u)
        plus = draw(la + h, u).value[0]
        minus = draw(la - h, u).value[0]
        numeric = (plus - minus) / (2 * h)
        if 0.0 < drawn.pre_clamp[0] < 1.0:
            assert abs(gates.grad_log_alpha(drawn, CFG)[0] - numeric) < 1e-6


def test_deterministic_gradient_matches_finite_difference():
    h = 1e-7
    for la in (-2.0, -0.5, 0.3, 1.0):
        numeric = (
            gates.eval_deterministic(la + h, CFG) - gates.eval_deterministic(la - h, CFG)
        ) / (2 * h)
        assert abs(gates.deterministic_grad_log_alpha(la, CFG) - numeric) < 1e-6
    assert gates.deterministic_grad_log_alpha(50.0, CFG) == 0.0


def test_edge_exists_boundary():
    # deterministic gate > 0 iff sigmoid(la) * 1.2 > 0.1, i.e. la > -ln 11
    boundary = -math.log(11.0)
    assert gates.eval_deterministic(boundary + 1e-6, CFG) > 0.0
    assert not gates.eval_deterministic(boundary - 1e-6, CFG) > 0.0


# ---------------------------------------------------------------------------
# noise stream

def test_noise_stream_deterministic_and_clamped():
    a = NoiseStream(3).pair_uniforms(5, 17, 64)
    b = NoiseStream(3).pair_uniforms(5, 17, 64)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= gates.NOISE_EPS) and np.all(a <= 1 - gates.NOISE_EPS)


def test_noise_stream_varies_by_key():
    base = NoiseStream(3).pair_uniforms(5, 17, 32)
    assert not np.array_equal(base, NoiseStream(4).pair_uniforms(5, 17, 32))
    assert not np.array_equal(base, NoiseStream(3).pair_uniforms(6, 17, 32))
    assert not np.array_equal(base, NoiseStream(3).pair_uniforms(5, 18, 32))


def test_noise_stream_independent_of_other_samples():
    # sample 17's draws are the same whether or not other samples drew first
    stream = NoiseStream(9)
    stream.pair_uniforms(0, 0, 21)
    stream.pair_uniforms(0, 5, 21)
    direct = NoiseStream(9).pair_uniforms(0, 17, 21)
    np.testing.assert_array_equal(stream.pair_uniforms(0, 17, 21), direct)


def test_noise_stream_rejects_bad_arguments():
    with pytest.raises(ValueError):
        NoiseStream(-1)
    with pytest.raises(ValueError, match="seed must lie in"):
        NoiseStream(2**64)  # past the uint64 key word
    with pytest.raises(ValueError):
        NoiseStream(0).pair_uniforms(-1, 0, 4)
    with pytest.raises(ValueError):
        NoiseStream(0).pair_uniforms(0, -1, 4)


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-30, max_value=30),
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_sample_always_in_unit_interval(la, u):
    assert 0.0 <= draw(la, u).value[0] <= 1.0


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_sample_monotone_in_log_alpha(la1, la2, u):
    lo, hi = min(la1, la2), max(la1, la2)
    assert draw(lo, u).value[0] <= draw(hi, u).value[0]


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-10, max_value=10))
def test_open_probability_strictly_inside_unit_interval(la):
    p = gates.open_probability(la, CFG)
    assert 0.0 < p < 1.0
    assert gates.open_probability(la + 1.0, CFG) > p


def test_binary_batch_is_the_thresholded_deterministic_gate():
    la = np.array([-5.0, -0.5, 0.0, 3.0])
    binary = gates.binary_batch(la, CFG)
    det = gates.deterministic_batch(la, CFG)
    np.testing.assert_array_equal(binary.value, (det.value > 0.0).astype(float))
    np.testing.assert_array_equal(binary.value.astype(bool), gates.eval_deterministic(la, CFG) > 0.0)
    np.testing.assert_array_equal(binary.pre_clamp, det.pre_clamp)
    assert set(np.unique(binary.value)) <= {0.0, 1.0}
    assert binary.value[0] == 0.0 and binary.value[3] == 1.0
