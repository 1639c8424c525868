"""Dense numeric core: validated float64 array ops with paired backward rules.

The classifier differentiates through a fixed computation shape, so this
module only needs a handful of forward primitives plus their
vector-Jacobian rules; the model walks its own structure in reverse and
calls the rule of each primitive directly. There is no tape.

Conventions: `linear` maps the rows of a 2-d float64 array, each an
independent input (the model batches one row per distinct MLP input); the
elementwise primitives take arrays of any shape.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested primitive."""


_op_units = 0


def reset_op_units() -> None:
    """Zero the scalar-work counter (used by complexity tests)."""
    global _op_units
    _op_units = 0


def op_units() -> int:
    """Scalar multiply/apply count accumulated since the last reset."""
    return _op_units


def _count(units: int) -> None:
    global _op_units
    _op_units += int(units)


def as_vector(x) -> Vector:
    out = np.ascontiguousarray(x, dtype=np.float64)
    if out.ndim != 1:
        raise ShapeError(f"expected a vector, got shape {out.shape}")
    return out


def as_matrix(x) -> Matrix:
    out = np.ascontiguousarray(x, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {out.shape}")
    return out


def linear(weights: Matrix, x: Matrix, bias: Vector) -> Matrix:
    """weights @ row + bias for every row of x."""
    w = as_matrix(weights)
    b = as_vector(bias)
    if w.shape[0] != b.shape[0]:
        raise ShapeError(f"weights {w.shape} incompatible with bias {b.shape}")
    x = as_matrix(x)
    if w.shape[1] != x.shape[1]:
        raise ShapeError(f"weights {w.shape} incompatible with input rows {x.shape}")
    _count(w.size * x.shape[0])
    out = x @ w.T
    out += b
    return out


def elementwise_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"elementwise_product operands differ: {a.shape} vs {b.shape}")
    _count(a.size)
    return a * b


def relu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    _count(x.size)
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated on the stable side of zero per element."""
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    ex = np.exp(np.where(pos, -x, x))
    out = np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    _count(x.size)
    return out


# ---------------------------------------------------------------------------
# Backward rules. Each forward primitive has a rule taking the values it
# needs from the forward pass plus the upstream gradient.

def linear_backward(weights: Matrix, x: Matrix, upstream: Matrix):
    """Gradients of `linear` w.r.t. (weights, x, bias)."""
    w = as_matrix(weights)
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(upstream, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"linear input must be 2-d, got shape {x.shape}")
    if g.shape != (x.shape[0], w.shape[0]):
        raise ShapeError(f"upstream {g.shape} does not match output {(x.shape[0], w.shape[0])}")
    _count(w.size * x.shape[0] * 2)
    return g.T @ x, g @ w, g.sum(axis=0)


def elementwise_product_backward(a: np.ndarray, b: np.ndarray, upstream: np.ndarray):
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != np.shape(a):
        raise ShapeError(f"upstream {g.shape} does not match operands {np.shape(a)}")
    _count(g.size * 2)
    return g * b, g * a


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    # subgradient 0 at the kink
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != np.shape(x):
        raise ShapeError(f"upstream {g.shape} does not match input {np.shape(x)}")
    _count(g.size)
    return g * (np.asarray(x) > 0.0)


def sigmoid_backward(output: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Rule in terms of the forward output y: dy/dx = y (1 - y)."""
    y = np.asarray(output, dtype=np.float64)
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != y.shape:
        raise ShapeError(f"upstream {g.shape} does not match output {y.shape}")
    _count(g.size)
    return g * y * (1.0 - y)


# ---------------------------------------------------------------------------
# Parameter storage.

class ParamStore:
    """Named float64 parameter blocks with same-shaped gradient buffers.

    `value` returns the live array (optimizers and gradient checks mutate it
    in place); `grad` returns the live accumulator. Names keep insertion
    order, which doubles as the serialization order.
    """

    def __init__(self) -> None:
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> np.ndarray:
        if name in self._values:
            raise ValueError(f"parameter {name!r} already registered")
        arr = np.array(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self._values[name] = arr
        self._grads[name] = np.zeros_like(arr)
        return arr

    def names(self) -> list[str]:
        return list(self._values)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def accumulate(self, name: str, g) -> None:
        buf = self._grads[name]
        g = np.asarray(g, dtype=np.float64)
        if g.shape != buf.shape:
            raise ShapeError(f"gradient for {name!r} has shape {g.shape}, expected {buf.shape}")
        buf += g

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g.fill(0.0)

    def grads(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._grads.items()}

    def clone(self) -> "ParamStore":
        other = ParamStore()
        for name, v in self._values.items():
            other.add(name, v.copy())
        return other


def grad_check(
    value: Callable[[], float],
    analytic: Mapping[str, np.ndarray],
    params: ParamStore,
    epsilon: float = 1e-5,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    `analytic` maps each parameter name to its gradient at the store's
    current values; `value()` returns the scalar at the store's current
    values and is re-invoked after each +-epsilon perturbation of every
    parameter scalar. Returns 0.0 for an empty store. The caller is
    responsible for keeping any stochastic inputs frozen across invocations.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    worst = 0.0
    for name in params.names():
        flat = params.value(name).reshape(-1)
        gflat = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + epsilon
            plus = value()
            flat[idx] = keep - epsilon
            minus = value()
            flat[idx] = keep
            numeric = (plus - minus) / (2.0 * epsilon)
            err = abs(gflat[idx] - numeric) / max(abs(gflat[idx]), abs(numeric), 1e-6)
            worst = max(worst, err)
    return worst
