"""The benchmark's workloads: set-up, one measured round, and output checks.

Every workload runs the user pipeline of the library: fit, score a test
split, explain instances and report gates over co-occurring pairs. The
workloads differ in data shape and training mode so that each one loads a
different layer; README.md gives each workload's reason. All inputs come
from the seed passed on the command line: the data draw is `1087 + seed`
and the training seed `3 + seed`, so seed 0 is the acceptance run's draw.
The quality metrics come from one more round on QUALITY_SEED's inputs,
the same in every run, so they move only when the arithmetic does.

Each timed library call is one sample of its stage. A throughput is the
median over all samples of a run, so a burst of load on a shared machine
moves few samples instead of a whole figure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from l0sign import data, evaluate, model, train
from l0sign.model import ModelConfig, ModelParams
from l0sign.train import TrainConfig

DATA_SEED_BASE = 1087  # the acceptance suite's screened planted-pair draw
TRAIN_SEED_BASE = 3  # the acceptance suite's training seed
QUALITY_SEED = 0  # inputs of the round that gives train_risk_final and test_auc
EXPLAIN_TOLERANCE = 1e-9  # contributions must sum to the score (acceptance 7)
SCORE_TOLERANCE = 1e-12  # explain score vs scoring-pass score
EPOCHS = 1  # work per epoch does not change with the epoch; one gives more samples


@dataclass(frozen=True)
class Sizes:
    rows: int
    eval_reps: int  # passes over the test split per round, one sample each
    explain_rows: int  # test instances explained per round
    explain_chunk: int  # instances per explain sample
    report_reps: int  # edge reports per round, one sample each
    report_rows: int  # test rows per edge report; 0 for the whole test split
    setup_repeats: int  # set-ups per untraced run; setup_s is their median
    fit_rows: int = 0  # fit on this many train rows (valid: half); 0 for all


SIZES = {
    "train-planted": {
        "full": Sizes(rows=5000, eval_reps=3, explain_rows=750, explain_chunk=150,
                      report_reps=30, report_rows=0, setup_repeats=5),
        "smoke": Sizes(rows=400, eval_reps=1, explain_rows=10, explain_chunk=5,
                       report_reps=1, report_rows=0, setup_repeats=1),
    },
    "retrain-pinned": {
        "full": Sizes(rows=5000, eval_reps=2, explain_rows=750, explain_chunk=150,
                      report_reps=15, report_rows=0, setup_repeats=5),
        "smoke": Sizes(rows=400, eval_reps=1, explain_rows=10, explain_chunk=5,
                       report_reps=1, report_rows=0, setup_repeats=1),
    },
    "infer-frappe": {
        "full": Sizes(rows=20000, eval_reps=1, explain_rows=500, explain_chunk=100,
                      report_reps=4, report_rows=100, setup_repeats=3, fit_rows=1024),
        "smoke": Sizes(rows=600, eval_reps=1, explain_rows=10, explain_chunk=5,
                       report_reps=2, report_rows=5, setup_repeats=1, fit_rows=64),
    },
}

PLANTED_SHAPE = dict(vocab_size=20, nodes_per_sample=6, noise_rate=0.05)
FRAPPE_SHAPE = dict(vocab_size=5382, nodes_per_sample=10, noise_rate=0.05)
N_PLANTED = 5
OPEN_SHARE = 0.02  # infer-frappe: share of pair slots with a non-zero gate


class Checks:
    """Operations attempted and failed over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(note)

    def call(self, label: str, fn, *args, **kwargs):
        """One operation: its result, or None after counting the exception."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any exception is a failed operation
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None


@dataclass
class Round:
    """One pass of a workload's pipeline: (seconds, work) samples per stage,
    the quality figures, and every output a later round must reproduce."""

    samples: dict[str, list[tuple[float, int]]] = field(default_factory=dict)
    risks: list[float] = field(default_factory=list)
    aucs: list[float] = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)

    def add(self, stage: str, seconds: float, work: int) -> None:
        self.samples.setdefault(stage, []).append((seconds, work))

    def work(self, stage: str) -> int:
        return sum(w for _, w in self.samples.get(stage, ()))

    def same_outputs(self, other: "Round") -> bool:
        return len(self.outputs) == len(other.outputs) and all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(self.outputs, other.outputs)
        )

    @classmethod
    def merged(cls, parts: list["Round"]) -> "Round":
        """One round whose k-th sample of a stage sums the k-th samples of
        the parts, so every sample holds the same mix of work."""
        out = cls()
        for stage in parts[0].samples:
            columns = zip(*(p.samples.get(stage, ()) for p in parts))
            out.samples[stage] = [
                (sum(s for s, _ in col), sum(w for _, w in col)) for col in columns
            ]
        for p in parts:
            out.risks += p.risks
            out.aucs += p.aucs
            out.outputs += p.outputs
        return out


# ---------------------------------------------------------------------------
# Stages shared by the workloads. Each times only the library calls; the
# checks run outside the timed region.

def _fit(rnd: Round, checks: Checks, train_ds, valid_ds, mcfg, tcfg):
    start = time.perf_counter()
    result = checks.call("fit", train.fit, train_ds, valid_ds, mcfg, tcfg)
    elapsed = time.perf_counter() - start
    if result is None:
        return None
    final = result.records[-1].train_risk if result.records else math.nan
    checks.expect(
        not result.diverged and len(result.records) == tcfg.epochs and math.isfinite(final),
        f"fit: diverged={result.diverged}, {len(result.records)} epochs, risk {final}",
    )
    rnd.add("fit", elapsed, tcfg.epochs * len(train_ds))
    rnd.risks.append(final)
    rnd.outputs.append(np.asarray([r.train_risk for r in result.records]))
    return result.params


def _scores_checked(checks: Checks, scores: np.ndarray, label: str) -> None:
    checks.attempted += scores.size
    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        checks.fail(f"{label}: {bad} non-finite scores", bad)


def _evaluate(rnd: Round, checks: Checks, test_ds, params, reps: int):
    """score_dataset then compute_metrics: evaluate_dataset's two halves,
    called apart so the scores themselves can be checked."""
    labels = test_ds.labels()
    for _ in range(reps):
        start = time.perf_counter()
        scores = checks.call("score_dataset", evaluate.score_dataset, test_ds, params)
        metrics = None if scores is None else checks.call(
            "compute_metrics", evaluate.compute_metrics, labels, scores)
        rnd.add("eval", time.perf_counter() - start, len(test_ds))
        if metrics is None:
            return None
        _scores_checked(checks, scores, "score_dataset")
    rnd.aucs.append(metrics.auc)
    rnd.outputs.append(scores)
    return scores


def _evaluate_pinned(rnd: Round, checks: Checks, test_ds, params, edges, reps: int):
    """Pinned-edge scoring of the test split, as the ablation retrain does."""
    for _ in range(reps):
        start = time.perf_counter()
        scores = checks.call("score_only", lambda: np.asarray([
            model.score_only(inst, params,
                             pinned_edges=model.edges_for_instance(inst, edges))
            for inst in test_ds.instances
        ]))
        rnd.add("eval", time.perf_counter() - start, len(test_ds))
        if scores is None:
            return None
        _scores_checked(checks, scores, "score_only")
    auc = checks.call("auc", evaluate.auc, test_ds.labels(), scores)
    if auc is None:
        return None
    rnd.aucs.append(auc)
    rnd.outputs.append(scores)
    return scores


def _explain(rnd: Round, checks: Checks, instances, chunk: int, explain_one, scores):
    """explain_one(instance) -> (score, contributions). Fails an instance
    whose contributions miss its score or whose score differs from the
    scoring pass over the same instance."""
    results = []
    for first in range(0, len(instances), chunk):
        part = instances[first : first + chunk]
        start = time.perf_counter()
        for inst in part:
            try:
                results.append(explain_one(inst))
            except Exception as exc:  # any exception is a failed operation
                results.append(exc)
        rnd.add("explain", time.perf_counter() - start, len(part))
    got = np.full(len(instances), np.nan)
    for n, res in enumerate(results):
        checks.attempted += 1
        if isinstance(res, Exception):
            checks.fail(f"explain {n}: {type(res).__name__}: {res}")
            continue
        score, contributions = res
        got[n] = score
        total = math.fsum(contributions)
        if not math.isfinite(score) or abs(total - score) > EXPLAIN_TOLERANCE:
            checks.fail(f"explain {n}: contributions sum to {total}, score {score}")
        elif abs(score - scores[n]) > SCORE_TOLERANCE:
            checks.fail(f"explain {n}: score {score} but scoring pass gave {scores[n]}")
    rnd.outputs.append(got)


def _edge_reports(rnd: Round, checks: Checks, report_sets, params) -> None:
    for report_ds in report_sets:
        start = time.perf_counter()
        report = checks.call("edge_report", evaluate.edge_report, report_ds, params)
        elapsed = time.perf_counter() - start
        if report is None:
            return
        gate_values = np.asarray([e.gate for e in report.entries])
        checks.expect(
            gate_values.size > 0 and bool(np.all((gate_values >= 0.0) & (gate_values <= 1.0))),
            "edge_report: empty or gate outside [0, 1]",
        )
        rnd.add("edge_report", elapsed, len(report.entries))
        rnd.outputs.append(gate_values)


def _explain_deterministic(params):
    def one(inst):
        e = evaluate.explain(inst, params)
        return e.score, [x.contribution for x in e.entries]
    return one


def _explain_pinned(params, edges):
    def one(inst):
        p = model.predict_fixed(inst, params, edges)
        return p.score, [x.contribution for x in p.pairs]
    return one


# ---------------------------------------------------------------------------
# Set-up: data (and checkpoint) written with the library, read back, split.

def seeds_for(seed: int) -> dict[str, int]:
    return {"data_seed": DATA_SEED_BASE + seed, "train_seed": TRAIN_SEED_BASE + seed}


@dataclass
class State:
    rows: int  # lines parsed by load_dataset
    train: data.Dataset
    valid: data.Dataset
    test: data.Dataset
    reports: list[data.Dataset]  # one edge report per entry
    mcfg: ModelConfig
    tcfg: TrainConfig
    extra: dict = field(default_factory=dict)


def _setup(shape: dict, sizes: Sizes, seed: int, workdir: Path) -> State:
    s = seeds_for(seed)
    pairs = data.draw_planted_pairs(shape["vocab_size"], N_PLANTED, s["data_seed"])
    generated = data.generate_synthetic(
        n_samples=sizes.rows, planted_pairs=pairs, seed=s["data_seed"], **shape)
    path, truth = workdir / "data.txt", workdir / "truth.json"
    data.save_dataset(generated, path)
    generated.planted.save(truth)
    ds = data.load_dataset(path, planted=data.PlantedPairs.load(truth))
    tr, va, te = data.split(ds, data.SplitSpec(seed=s["train_seed"]))
    if sizes.fit_rows:
        tr = data.Dataset(tr.instances[: sizes.fit_rows], ds.vocab_size, ds.planted)
        va = data.Dataset(va.instances[: sizes.fit_rows // 2], ds.vocab_size, ds.planted)
    if sizes.report_rows:
        n = sizes.report_rows
        reports = [data.Dataset(te.instances[k * n : (k + 1) * n], ds.vocab_size)
                   for k in range(sizes.report_reps)]
    else:
        reports = [te] * sizes.report_reps
    return State(
        rows=len(ds), train=tr, valid=va, test=te, reports=reports,
        mcfg=ModelConfig(vocab_size=ds.vocab_size),
        tcfg=TrainConfig(seed=s["train_seed"], epochs=EPOCHS),
    )


class TrainPlanted:
    name = "train-planted"

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path) -> State:
        return _setup(PLANTED_SHAPE, self.sizes, seed, workdir)

    def round(self, st: State, checks: Checks) -> Round:
        rnd = Round()
        params = _fit(rnd, checks, st.train, st.valid, st.mcfg, st.tcfg)
        if params is not None:
            _infer(rnd, checks, st, self.sizes, params)
        return rnd


def _infer(rnd: Round, checks: Checks, st: State, sizes: Sizes, params) -> None:
    scores = _evaluate(rnd, checks, st.test, params, sizes.eval_reps)
    if scores is None:
        return
    _explain(rnd, checks, st.test.instances[: sizes.explain_rows], sizes.explain_chunk,
             _explain_deterministic(params), scores)
    _edge_reports(rnd, checks, st.reports, params)


class RetrainPinned(TrainPlanted):
    """run_ablation's retraining step with the planted pairs and with their
    complement in the co-occurring universe as the two pinned edge sets."""

    name = "retrain-pinned"

    def setup(self, seed: int, workdir: Path) -> State:
        st = super().setup(seed, workdir)
        universe = {p for p in evaluate.co_occurring_pairs(st.train) if p[0] != p[1]}
        planted = frozenset(st.train.planted.pairs)
        st.extra["edge_sets"] = [planted & universe, frozenset(universe - planted)]
        return st

    def round(self, st: State, checks: Checks) -> Round:
        parts = []
        for edges in st.extra["edge_sets"]:
            part = Round()
            parts.append(part)
            tcfg = TrainConfig(seed=st.tcfg.seed, epochs=EPOCHS,
                               mode="sign-fixed", fixed_edges=edges, lambda1=0.0)
            params = _fit(part, checks, st.train, st.valid, st.mcfg, tcfg)
            if params is None:
                continue
            scores = _evaluate_pinned(part, checks, st.test, params, edges, self.sizes.eval_reps)
            if scores is None:
                continue
            _explain(part, checks, st.test.instances[: self.sizes.explain_rows],
                     self.sizes.explain_chunk, _explain_pinned(params, edges), scores)
            _edge_reports(part, checks, st.reports, params)
        return Round.merged(parts)


class InferFrappe:
    """Frappe-shaped data and a sparse checkpoint; a short fit on a slice."""

    name = "infer-frappe"

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path) -> State:
        st = _setup(FRAPPE_SHAPE, self.sizes, seed, workdir)
        params = _sparse_checkpoint(st.mcfg, st.tcfg.seed, st.train.instances[:400])
        ckpt = workdir / "model.ckpt"
        model.save_checkpoint(ckpt, params, seed=st.tcfg.seed)
        st.extra["params"], _ = model.load_checkpoint(ckpt)
        return st

    def round(self, st: State, checks: Checks) -> Round:
        rnd = Round()
        _fit(rnd, checks, st.train, st.valid, st.mcfg, st.tcfg)
        _infer(rnd, checks, st, self.sizes, st.extra["params"])
        return rnd


def _sparse_checkpoint(mcfg: ModelConfig, seed: int, sample) -> ModelParams:
    """ModelParams.random with the gate MLP's output bias shifted so that
    OPEN_SHARE of the sample's pair slots get a non-zero deterministic gate,
    about the open fraction the acceptance run ends at."""
    params = ModelParams.random(mcfg, seed=seed)
    params.value("edge_out_b")[...] = 0.0
    log_alpha = np.concatenate([model.forward(inst, params).log_alpha for inst in sample])
    g = mcfg.gate
    # the deterministic gate is > 0 exactly where sigmoid(log_alpha) > s0
    s0 = -g.stretch_low / (g.stretch_high - g.stretch_low)
    closed_below = math.log(s0 / (1.0 - s0))
    params.value("edge_out_b")[...] = closed_below - np.quantile(log_alpha, 1.0 - OPEN_SHARE)
    return params


WORKLOADS = {cls.name: cls for cls in (TrainPlanted, RetrainPinned, InferFrappe)}
