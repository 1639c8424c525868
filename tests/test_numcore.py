import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l0sign import numcore as nc


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        plus = f(x)
        flat[i] = keep - eps
        minus = f(x)
        flat[i] = keep
        gflat[i] = (plus - minus) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# forward primitives

def test_linear_vector_hand_oracle():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.array([[5.0, 6.0]])
    b = np.array([0.5, -0.5])
    out = nc.linear(w, x, b)
    assert out.tolist() == [[17.5, 38.5]]


def test_linear_matrix_matches_row_loop(rng):
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    xs = rng.standard_normal((7, 4))
    batched = nc.linear(w, xs, b)
    for row in range(7):
        np.testing.assert_allclose(batched[row], w @ xs[row] + b, rtol=1e-12)


def test_linear_shape_error_names_both_shapes():
    w = np.ones((2, 3))
    with pytest.raises(nc.ShapeError) as exc:
        nc.linear(w, np.ones((1, 4)), np.zeros(2))
    assert "(2, 3)" in str(exc.value) and "(1, 4)" in str(exc.value)
    with pytest.raises(nc.ShapeError):
        nc.linear(w, np.ones((1, 3)), np.zeros(5))
    with pytest.raises(nc.ShapeError):
        nc.linear(w, np.ones((2, 2, 2)), np.zeros(2))
    with pytest.raises(nc.ShapeError):
        nc.linear(w, np.ones(3), np.zeros(2))  # inputs are rows of a matrix


def test_elementwise_product_matches_loop(rng):
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((4, 5))
    out = nc.elementwise_product(a, b)
    for i in range(4):
        for j in range(5):
            assert out[i, j] == a[i, j] * b[i, j]
    with pytest.raises(nc.ShapeError):
        nc.elementwise_product(a, b[:, :3])


def test_relu_hand_values():
    out = nc.relu(np.array([-2.0, -0.0, 0.0, 3.5]))
    assert out.tolist() == [0.0, 0.0, 0.0, 3.5]


def test_sigmoid_matches_reference_and_is_stable():
    xs = np.array([-800.0, -20.0, -1.0, 0.0, 1.0, 20.0, 800.0])
    out = nc.sigmoid(xs)
    for x, y in zip(xs, out):
        if abs(x) < 700:  # reference overflows beyond this
            ref = 1.0 / (1.0 + math.exp(-x))
            assert abs(y - ref) < 1e-15
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[-1] == 1.0
    assert nc.sigmoid(np.array([0.0]))[0] == 0.5


# ---------------------------------------------------------------------------
# backward rules vs central differences

def test_linear_backward_vector_vs_numeric(rng):
    w = rng.standard_normal((3, 4))
    x = rng.standard_normal((1, 4))
    b = rng.standard_normal(3)
    probe = rng.standard_normal((1, 3))
    gw, gx, gb = nc.linear_backward(w, x, probe)
    np.testing.assert_allclose(
        gw, numeric_grad(lambda m: float((nc.linear(m, x, b) * probe).sum()), w), atol=1e-8
    )
    np.testing.assert_allclose(
        gx, numeric_grad(lambda v: float((nc.linear(w, v, b) * probe).sum()), x), atol=1e-8
    )
    np.testing.assert_allclose(
        gb, numeric_grad(lambda v: float((nc.linear(w, x, v) * probe).sum()), b), atol=1e-8
    )


def test_linear_backward_matrix_vs_numeric(rng):
    w = rng.standard_normal((2, 3))
    xs = rng.standard_normal((5, 3))
    b = rng.standard_normal(2)
    probe = rng.standard_normal((5, 2))
    gw, gx, gb = nc.linear_backward(w, xs, probe)
    np.testing.assert_allclose(
        gw, numeric_grad(lambda m: float((nc.linear(m, xs, b) * probe).sum()), w), atol=1e-7
    )
    np.testing.assert_allclose(
        gx, numeric_grad(lambda v: float((nc.linear(w, v, b) * probe).sum()), xs), atol=1e-7
    )
    np.testing.assert_allclose(
        gb, numeric_grad(lambda v: float((nc.linear(w, xs, v) * probe).sum()), b), atol=1e-7
    )


def test_linear_backward_rejects_bad_upstream(rng):
    w = rng.standard_normal((2, 3))
    with pytest.raises(nc.ShapeError):
        nc.linear_backward(w, np.ones((1, 3)), np.ones((1, 3)))
    with pytest.raises(nc.ShapeError):
        nc.linear_backward(w, np.ones((4, 3)), np.ones((4, 3)))


def test_elementwise_product_backward_vs_numeric(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    probe = rng.standard_normal((3, 4))
    ga, gb = nc.elementwise_product_backward(a, b, probe)
    np.testing.assert_allclose(
        ga,
        numeric_grad(lambda m: float((nc.elementwise_product(m, b) * probe).sum()), a),
        atol=1e-8,
    )
    np.testing.assert_allclose(
        gb,
        numeric_grad(lambda m: float((nc.elementwise_product(a, m) * probe).sum()), b),
        atol=1e-8,
    )


def test_relu_backward_vs_numeric_away_from_kink():
    x = np.array([-1.5, -0.3, 0.4, 2.0])
    probe = np.array([1.0, -2.0, 0.5, 3.0])
    g = nc.relu_backward(x, probe)
    np.testing.assert_allclose(
        g, numeric_grad(lambda v: float(nc.relu(v) @ probe), x), atol=1e-8
    )


def test_relu_backward_zero_subgradient_at_kink():
    assert nc.relu_backward(np.array([0.0]), np.array([5.0]))[0] == 0.0


def test_sigmoid_backward_vs_numeric(rng):
    x = rng.standard_normal(6)
    probe = rng.standard_normal(6)
    y = nc.sigmoid(x)
    g = nc.sigmoid_backward(y, probe)
    np.testing.assert_allclose(
        g, numeric_grad(lambda v: float(nc.sigmoid(v) @ probe), x), atol=1e-8
    )


# ---------------------------------------------------------------------------
# op accounting

def test_op_units_count_scalar_work():
    nc.reset_op_units()
    nc.linear(np.ones((2, 3)), np.ones((1, 3)), np.zeros(2))
    assert nc.op_units() == 6
    nc.linear(np.ones((2, 3)), np.ones((4, 3)), np.zeros(2))
    assert nc.op_units() == 6 + 24
    nc.elementwise_product(np.ones(5), np.ones(5))
    assert nc.op_units() == 6 + 24 + 5


# ---------------------------------------------------------------------------
# parameter store

def test_param_store_basic_lifecycle():
    store = nc.ParamStore()
    store.add("a", np.ones((2, 2)))
    store.add("scalar", 3.0)
    assert store.names() == ["a", "scalar"]
    assert store.value("scalar").shape == (1,)
    with pytest.raises(ValueError):
        store.add("a", np.zeros(1))

    store.accumulate("a", np.full((2, 2), 2.0))
    store.accumulate("a", np.full((2, 2), 0.5))
    np.testing.assert_array_equal(store.grad("a"), np.full((2, 2), 2.5))
    with pytest.raises(nc.ShapeError):
        store.accumulate("a", np.ones(4))

    copies = store.grads()
    copies["a"][0, 0] = 99.0
    assert store.grad("a")[0, 0] == 2.5

    store.zero_grads()
    assert not store.grad("a").any()


def test_param_store_clone_and_copy_are_independent():
    store = nc.ParamStore()
    store.add("w", np.arange(4.0))
    other = store.clone()
    other.value("w")[0] = -7.0
    assert store.value("w")[0] == 0.0


# ---------------------------------------------------------------------------
# gradient checker

def test_grad_check_empty_store_returns_zero():
    assert nc.grad_check(lambda: 0.0, {}, nc.ParamStore()) == 0.0


def test_grad_check_quadratic_is_tight():
    store = nc.ParamStore()
    store.add("p", np.array([1.0, -2.0, 0.5]))

    def value():
        return float((store.value("p") ** 2).sum())

    assert nc.grad_check(value, {"p": 2.0 * store.value("p")}, store) < 1e-8


def test_grad_check_reports_wrong_gradient():
    store = nc.ParamStore()
    store.add("p", np.array([1.0, 2.0]))

    def value():
        return float((store.value("p") ** 2).sum())

    err = nc.grad_check(value, {"p": 3.0 * store.value("p")}, store)  # off by 1.5x
    assert abs(err - 1.0 / 3.0) < 1e-6


def test_grad_check_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        nc.grad_check(lambda: 0.0, {}, nc.ParamStore(), epsilon=0.0)


# ---------------------------------------------------------------------------
# algebraic properties

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=8), finite_floats, finite_floats)
def test_linear_is_linear_in_input(xs, a, b):
    x = np.asarray(xs)[None, :]
    w = np.linspace(-1.0, 1.0, 2 * len(xs)).reshape(2, len(xs))
    lhs = nc.linear(w, a * x + b * x, np.zeros(2))
    rhs = a * nc.linear(w, x, np.zeros(2)) + b * nc.linear(w, x, np.zeros(2))
    np.testing.assert_allclose(lhs, rhs, atol=1e-9 * max(1.0, abs(a) + abs(b)) * 60)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-700, max_value=700), st.floats(min_value=-700, max_value=700))
def test_sigmoid_bounded_and_monotone(x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    y_lo, y_hi = nc.sigmoid(np.array([lo]))[0], nc.sigmoid(np.array([hi]))[0]
    assert 0.0 <= y_lo <= 1.0 and 0.0 <= y_hi <= 1.0
    assert y_lo <= y_hi


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=10))
def test_relu_idempotent_and_nonnegative(xs):
    x = np.asarray(xs)
    once = nc.relu(x)
    assert np.all(once >= 0.0)
    np.testing.assert_array_equal(nc.relu(once), once)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=6), st.lists(finite_floats, min_size=1, max_size=6))
def test_elementwise_product_commutes(a_list, b_list):
    n = min(len(a_list), len(b_list))
    a = np.asarray(a_list[:n])
    b = np.asarray(b_list[:n])
    np.testing.assert_array_equal(nc.elementwise_product(a, b), nc.elementwise_product(b, a))
