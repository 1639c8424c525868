"""Hard concrete gates: stretched, clamped binary concrete variables.

A gate turns a learned location `log_alpha` into an edge weight in [0, 1].
During training uniform noise u is pushed through a sigmoid at temperature
`temperature`, stretched to (stretch_low, stretch_high), and clamped, which
leaves point mass at exactly 0 and 1 while staying differentiable in
between. At evaluation time the noise-free estimator
clamp(sigmoid(log_alpha) * (high - low) + low, 0, 1) is used. The expected
L0 cost of a gate has the closed form
P(gate > 0) = sigmoid(log_alpha - temperature * log(-low / high)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc

NOISE_EPS = 1e-8  # uniform draws are clamped to [NOISE_EPS, 1 - NOISE_EPS]


@dataclass(frozen=True)
class GateConfig:
    temperature: float = 2.0 / 3.0
    stretch_low: float = -0.1
    stretch_high: float = 1.1

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not (self.stretch_low < 0.0 < 1.0 < self.stretch_high):
            raise ValueError(
                "stretch interval must satisfy low < 0 < 1 < high, got "
                f"({self.stretch_low}, {self.stretch_high})"
            )

    @property
    def l0_shift(self) -> float:
        """temperature * log(-low / high); open_probability(x) = sigmoid(x - shift)."""
        return self.temperature * math.log(-self.stretch_low / self.stretch_high)


DEFAULT_GATE = GateConfig()


@dataclass(frozen=True)
class GateBatch:
    """Gate values of a batch of pair slots and their stretched values
    before the clamp, which the gradient reads."""

    value: np.ndarray
    pre_clamp: np.ndarray


def _clamped(s: np.ndarray, config: GateConfig) -> tuple[np.ndarray, np.ndarray]:
    """(pre_clamp, value) of a gate whose concrete sample is s in (0, 1):
    s stretched to (low, high), then clamped to [0, 1]."""
    pre = s * (config.stretch_high - config.stretch_low) + config.stretch_low
    return pre, np.clip(pre, 0.0, 1.0)


def sample_array(log_alpha: np.ndarray, u: np.ndarray, config: GateConfig = DEFAULT_GATE) -> GateBatch:
    """Draw each gate from its hard concrete distribution at its noise u."""
    log_alpha = np.asarray(log_alpha, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != log_alpha.shape:
        raise nc.ShapeError(f"noise shape {u.shape} does not match log_alpha {log_alpha.shape}")
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("gate noise must lie strictly inside (0, 1)")
    s = nc.sigmoid((np.log(u) - np.log1p(-u) + log_alpha) / config.temperature)
    pre, value = _clamped(s, config)
    return GateBatch(value=value, pre_clamp=pre)


def eval_deterministic(log_alpha, config: GateConfig = DEFAULT_GATE):
    """Noise-free gate estimate; scalar in, float out; array in, array out."""
    la = np.asarray(log_alpha, dtype=np.float64)
    _, out = _clamped(nc.sigmoid(la), config)
    return float(out) if np.isscalar(log_alpha) or la.ndim == 0 else out


def deterministic_batch(log_alpha: np.ndarray, config: GateConfig = DEFAULT_GATE) -> GateBatch:
    pre, value = _clamped(nc.sigmoid(np.asarray(log_alpha, dtype=np.float64)), config)
    return GateBatch(value=value, pre_clamp=pre)


def binary_batch(log_alpha: np.ndarray, config: GateConfig = DEFAULT_GATE) -> GateBatch:
    """Hard 0/1 gates: 1.0 exactly where the deterministic gate is open.

    Evaluation-only alternative to the graded deterministic gate; the step
    has no useful gradient, so training never uses it.
    """
    pre, _ = _clamped(nc.sigmoid(np.asarray(log_alpha, dtype=np.float64)), config)
    return GateBatch(value=(pre > 0.0).astype(np.float64), pre_clamp=pre)


def open_probability(log_alpha, config: GateConfig = DEFAULT_GATE):
    """P(stochastic gate > 0), the per-gate expected L0 cost."""
    la = np.asarray(log_alpha, dtype=np.float64)
    out = nc.sigmoid(la - config.l0_shift)
    return float(out) if np.isscalar(log_alpha) or la.ndim == 0 else out


def open_probability_grad(log_alpha, config: GateConfig = DEFAULT_GATE):
    """d open_probability / d log_alpha = p (1 - p)."""
    p = np.asarray(open_probability(log_alpha, config))
    out = p * (1.0 - p)
    return float(out) if out.ndim == 0 else out


def grad_log_alpha(drawn: GateBatch, config: GateConfig = DEFAULT_GATE) -> np.ndarray:
    """d gate_value / d log_alpha at the drawn noise; 0 where the clamp is active."""
    pre = np.asarray(drawn.pre_clamp, dtype=np.float64)
    span = config.stretch_high - config.stretch_low
    s = (pre - config.stretch_low) / span
    inside = (pre > 0.0) & (pre < 1.0)
    return np.where(inside, span * s * (1.0 - s) / config.temperature, 0.0)


def deterministic_grad_log_alpha(log_alpha, config: GateConfig = DEFAULT_GATE):
    """d eval_deterministic / d log_alpha; 0 where the clamp is active."""
    s = nc.sigmoid(np.asarray(log_alpha, dtype=np.float64))
    pre, _ = _clamped(s, config)
    span = config.stretch_high - config.stretch_low
    out = np.where((pre > 0.0) & (pre < 1.0), span * s * (1.0 - s), 0.0)
    return float(out) if out.ndim == 0 else out


# Philox4x64-10 (Salmon et al., SC'11), the generator behind np.random.Philox:
# round multipliers, key-schedule (Weyl) increments, and the 2**-53 scale
# numpy uses to turn the top 53 bits of a word into a double in [0, 1).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _SHIFT32
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
# The rounds run this many samples at a time, which keeps their uint64
# temporaries small.
_VECTOR_MAX_SAMPLES = 256


def _philox4x64(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of (4, n) counter words under a (2,) key; (n, 4) words.

    Each round multiplies words 0 and 2 by the round constants as 128-bit
    products, built from 32-bit halves in uint64 arithmetic:
    (w0, w1, w2, w3) -> (hi(M1 w2) ^ w1 ^ k0, lo(M1 w2), hi(M0 w0) ^ w3 ^ k1, lo(M0 w0)).
    """
    x, y = counter[0::2], counter[1::2]  # words (0, 2) and (1, 3)
    key = key.reshape(2, 1)
    with np.errstate(over="ignore"):
        for r in range(_PHILOX_ROUNDS):
            if r:
                key = key + _PHILOX_W
            x_lo, x_hi = x & _LOW32, x >> _SHIFT32
            lo_lo, hi_lo, lo_hi = x_lo * _M_LO, x_hi * _M_LO, x_lo * _M_HI
            carry = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
            hi = x_hi * _M_HI + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + (carry >> _SHIFT32)
            x, y = hi[::-1] ^ y ^ key, (x * _PHILOX_M)[::-1]
    return np.stack((x[0], y[0], x[1], y[1]), axis=1)


def _philox_uniforms(samples: np.ndarray, counts: np.ndarray, key: np.ndarray) -> np.ndarray:
    """counts[m] doubles of the stream of sample samples[m], concatenated:
    word w of a sample comes from counter (w // 4 + 1, sample, 0, 0)."""
    blocks = (counts + 3) // 4
    first_block = np.cumsum(blocks) - blocks
    owner = np.repeat(np.arange(counts.shape[0]), blocks)
    counter = np.zeros((4, owner.shape[0]), dtype=np.uint64)
    counter[0] = np.arange(owner.shape[0]) - first_block[owner] + 1
    counter[1] = samples[owner]
    words = _philox4x64(counter, key)
    # word w of sample m sits at 4 * first_block[m] + w of the flat words
    first_draw = np.cumsum(counts) - counts
    pick = np.arange(int(counts.sum())) + np.repeat(4 * first_block - first_draw, counts)
    return (words.reshape(-1)[pick] >> np.uint64(11)) * _DOUBLE_SCALE


class NoiseStream:
    """Counter-based uniform noise keyed by (seed, epoch, sample, pair).

    Pair p of sample n in epoch t always sees the same u no matter how the
    batch is composed or in which order samples are visited, so training
    runs and gradient checks are bit-reproducible. Draws are clamped to
    [NOISE_EPS, 1 - NOISE_EPS].

    The draws of sample n are those of
    `np.random.Generator(np.random.Philox(key=[seed, epoch], counter=[0, n, 0, 0])).random(count)`,
    bit for bit: that generator bumps the first counter word before each
    block of four 64-bit words, so word w of the sample comes from counter
    (w // 4 + 1, n, 0, 0), lane w % 4. `uniforms` evaluates those blocks for
    every sample in vectorized passes, whatever the request's size;
    `pair_uniforms` is its batch of one.
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(seed)

    def uniforms(self, epoch: int, sample_indices, counts) -> np.ndarray:
        """Concatenated draws: counts[m] uniforms for sample sample_indices[m], in order."""
        samples = np.asarray(sample_indices)
        counts = np.asarray(counts, dtype=np.int64)
        if samples.size == 0:
            samples = samples.astype(np.int64)
        if samples.shape != counts.shape or samples.ndim != 1 or samples.dtype.kind not in "iu":
            raise ValueError("sample_indices and counts must be 1-d integer arrays of equal length")
        if epoch < 0 or (counts.size and min(samples.min(), counts.min()) < 0):
            raise ValueError("epoch, sample_index, and count must be non-negative")
        samples = samples.astype(np.uint64)
        key = np.array([self.seed, epoch], dtype=np.uint64)
        u = np.concatenate([np.empty(0)] + [
            _philox_uniforms(samples[m : m + _VECTOR_MAX_SAMPLES],
                             counts[m : m + _VECTOR_MAX_SAMPLES], key)
            for m in range(0, samples.shape[0], _VECTOR_MAX_SAMPLES)
        ])
        return np.clip(u, NOISE_EPS, 1.0 - NOISE_EPS, out=u)

    def pair_uniforms(self, epoch: int, sample_index: int, count: int) -> np.ndarray:
        return self.uniforms(epoch, [sample_index], [count])
