"""Span tracing of the l0sign layers from outside the package.

`Tracer.install()` replaces the public functions of each layer module (and
the two class methods `NoiseStream.pair_uniforms` and `Adagrad.step`) with
wrappers that keep a span stack. Every finished span adds its duration to
its (name, parent) entry, and its self time, the duration minus the part
covered by its child spans. Callers inside the package reach these
functions through module attributes or module globals, so the wrappers see
every call. `Tracer.uninstall()` puts every original object back.

A few wrappers also count work at the boundary where it happens, for the
checkpoint under evaluation only (outside `fit`): pair slots through the
pair MLP and how many of them have a non-zero gate, and the deterministic
gate values the gates layer produced.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from l0sign import data, evaluate, gates, model, numcore, train

# (owner, attribute, span name). Owners are modules or classes; the span
# name is "<layer>.<function>".
TRACED = (
    (data, "generate_synthetic", "data.generate_synthetic"),
    (data, "save_dataset", "data.save_dataset"),
    (data, "load_dataset", "data.load_dataset"),
    (data, "split", "data.split"),
    (numcore, "linear", "numcore.linear"),
    (numcore, "elementwise_product", "numcore.elementwise_product"),
    (numcore, "relu", "numcore.relu"),
    (numcore, "sigmoid", "numcore.sigmoid"),
    (numcore, "linear_backward", "numcore.linear_backward"),
    (numcore, "elementwise_product_backward", "numcore.elementwise_product_backward"),
    (numcore, "relu_backward", "numcore.relu_backward"),
    (numcore, "sigmoid_backward", "numcore.sigmoid_backward"),
    (gates.NoiseStream, "pair_uniforms", "gates.pair_uniforms"),
    (gates, "sample_array", "gates.sample_array"),
    (gates, "deterministic_batch", "gates.deterministic_batch"),
    (gates, "eval_deterministic", "gates.eval_deterministic"),
    (gates, "open_probability", "gates.open_probability"),
    (gates, "open_probability_grad", "gates.open_probability_grad"),
    (gates, "grad_log_alpha", "gates.grad_log_alpha"),
    (gates, "deterministic_grad_log_alpha", "gates.deterministic_grad_log_alpha"),
    (model, "forward", "model.forward"),
    (model, "backward", "model.backward"),
    (model, "score_only", "model.score_only"),
    (model, "predict", "model.predict"),
    (model, "predict_fixed", "model.predict_fixed"),
    (model, "edges_for_instance", "model.edges_for_instance"),
    (model, "edge_logit", "model.edge_logit"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (train, "fit", "train.fit"),
    (train, "risk", "train.risk"),
    (train.Adagrad, "step", "train.adagrad_step"),
    (evaluate, "score_dataset", "evaluate.score_dataset"),
    (evaluate, "compute_metrics", "evaluate.compute_metrics"),
    (evaluate, "auc", "evaluate.auc"),
    (evaluate, "explain", "evaluate.explain"),
    (evaluate, "edge_report", "evaluate.edge_report"),
    (evaluate, "co_occurring_pairs", "evaluate.co_occurring_pairs"),
)

GATE_THRESHOLD = 0.5  # the open-gate threshold of fit's log and edge_report


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Counters:
    slots: int = 0  # pair slots through the pair MLP (model.forward) outside fit
    useful_slots: int = 0  # of those, slots with a non-zero gate
    det_gates: int = 0  # deterministic gate values produced outside fit
    det_open: int = 0  # of those, above GATE_THRESHOLD
    det_zero: int = 0  # of those, exactly 0


@dataclass
class Tracer:
    stats: dict[tuple[str, str | None], SpanStat] = field(default_factory=dict)
    counters: Counters = field(default_factory=Counters)
    _stack: list[list] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats
        observe = _OBSERVERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat = stats.get((name, parent))
                if stat is None:
                    stat = stats[(name, parent)] = SpanStat()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
            if observe is not None:
                observe(counters, result, stack)
            return result

        return traced

    # -- queries over the (name, parent) table --------------------------------

    def calls(self, name: str) -> int:
        return sum(s.calls for (n, _), s in self.stats.items() if n == name)

    def total(self, name: str, parent: str | None = "*") -> float:
        """Inclusive seconds of `name`, under any parent or the one given."""
        return sum(
            (s.total_s for (n, p), s in self.stats.items()
             if n == name and (parent == "*" or p == parent)),
            0.0,
        )

    def self_time(self, name: str) -> float:
        return sum((s.self_s for (n, _), s in self.stats.items() if n == name), 0.0)

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for (n, _), s in self.stats.items() if n.startswith(layer + "."))

    def layer_self(self, layer: str) -> float:
        return sum(
            (s.self_s for (n, _), s in self.stats.items() if n.startswith(layer + ".")), 0.0
        )

    def table(self) -> list[dict]:
        return [
            {"span": n, "parent": p, "calls": s.calls,
             "total_s": s.total_s, "self_s": s.self_s}
            for (n, p), s in sorted(self.stats.items(), key=lambda kv: -kv[1].self_s)
        ]


def _in_fit(stack) -> bool:
    return any(frame[0] == "train.fit" for frame in stack)


def _observe_forward(c: Counters, trace, stack) -> None:
    if _in_fit(stack):
        return  # training and validation forwards of a model still in training
    c.slots += trace.edge_values.shape[0]
    c.useful_slots += int(np.count_nonzero(trace.edge_values))


def _observe_deterministic(c: Counters, out, stack) -> None:
    if _in_fit(stack):
        return  # validation gates of a model still in training
    values = np.asarray(getattr(out, "value", out))
    c.det_gates += values.size
    c.det_open += int(np.count_nonzero(values > GATE_THRESHOLD))
    c.det_zero += int(np.count_nonzero(values == 0.0))


_OBSERVERS = {
    "model.forward": _observe_forward,
    "gates.deterministic_batch": _observe_deterministic,
    "gates.eval_deterministic": _observe_deterministic,
}
