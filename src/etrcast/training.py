"""Training harness: per-prefix samples, Adam, plateau decay, linear baseline.

A split arrives as one encoded table (flat per-revision columns plus event
offsets; see ``etrcast.data``). A sample is an (event, j) index pair, one per
revision j of every event: the model trains to predict the final restoration
duration from every intermediate revision state, which mirrors how an estimate
would be re-issued as updates arrive. The sample for revision j holds
revisions max(1, j - max_seq_len + 1) to j, with time deltas restarted at its
first row, so it depends only on what was known at revision j. A batch gathers
its samples on demand (``model.token_batch``), padded to its own widest
window. Evaluation (``evaluate``) predicts every sample of a split once: the
final-revision report reads the samples at each event's last revision, and the
per-revision error curve reads all of them.

Every batch holds samples of similar window width, so little of it is padding.
Prediction visits the samples in width order (``by_width``) and cuts them into
chunks of about ``CHUNK_SLOTS`` token slots (rows x widest window,
``predict_in_chunks``); Shapley attributions cut their distinct coalition rows
by the same budget. So every chunk's temporaries are about the same size, and
a CLI process, which keeps freed memory for reuse, holds the largest chunk's
(one per thread where a pass predicts its chunks on a pool).
The pass's token front (below) adds 4 x d_model floats per distinct token of
the split for the whole pass. The (event, j)
samples of an event share their revisions: a token is one revision seen from
one window start, and every window with j <= max_seq_len starts at the
event's first revision. A set builds its tokens once
(``SampleSet.token_rows``), and every batch gathers from them. A
prediction pass binds the weights once and computes the model's row-wise
front (``model.front``) once per distinct token (``model.TokenFront``); each
chunk gathers its slots from it, with the same bits as computing them per
chunk: 8,519 tokens for 76,126 slots on 12-20-revision events.

A training epoch cuts a seeded permutation into pools of ``POOL_BATCHES``
batches, sorts each pool by width with the same rule and cuts it into
batches, then visits the batches in a seeded random order
(``epoch_batches``): the pools keep each batch a random draw of the epoch's
samples apart from its width, as in length bucketing (Krell et al. 2021,
arXiv 2107.02027). Each training step computes the front from its batch's
own slots. Optimization is Adam with bias correction; the learning rate
decays by a fixed factor when the validation WAE stops improving. An
overflow in a step or a validation pass is a ``TrainError`` naming the
epoch. Everything, dropout included, is seeded, so two runs with the same
inputs produce bit-identical histories. One progress line per epoch goes to
stderr; wall-clock figures stay out of the history.

The linear baseline fits ordinary least squares (tiny ridge jitter for rank
safety) on each event's final revision with one-hot categoricals, and is
scored by the same ``evaluate`` as the model.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .autodiff import NumericsError, Tape
from .data import (
    MAGNITUDES,
    EncodedTable,
    EventRef,
    EventTable,
    FeatureSchema,
    TransformState,
    as_event_table,
    encode_table,
    fit_transforms,
)
from .dataio import Dataset, dataset_fingerprint
from .kernels import blas_threads
from .losses import LossConfig, asymmetric_loss
from .metrics import EvalReport, PredictionSet, eval_report, wae
from .model import (
    ModelConfig,
    ModelParams,
    SequenceBatch,
    TokenFront,
    forward,
    init_params,
    predict,
    token_batch,
)


class TrainError(RuntimeError):
    """Non-finite loss or other unrecoverable failure during training."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 1024
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    plateau_factor: float = 0.7
    plateau_patience: int = 5
    min_delta: float = 1e-3  # relative improvement threshold on validation WAE
    max_epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0.0:
            raise ValueError(f"adam_eps must be > 0, got {self.adam_eps}")
        if not self.min_delta >= 0.0:
            raise ValueError(f"min_delta must be >= 0, got {self.min_delta}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValueError(f"plateau_factor must lie in (0, 1), got {self.plateau_factor}")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be >= 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# -- sample construction ------------------------------------------------------


@dataclass(frozen=True)
class SampleSet:
    """Samples as (event, j) indices into one encoded table, gathered per batch.

    Sample i predicts the target of event ``event[i]`` at its revision
    ``prefix_len[i]`` = j (1-based), from the window of its most recent
    min(j, max_seq_len) revisions, with deltas restarted at the window's
    first row. Nothing is padded up front: ``batch`` gathers the requested
    samples only, padded to the longest window among them.
    """

    events: EncodedTable
    event: np.ndarray  # [N] position in ``events``
    prefix_len: np.ndarray  # [N] revision index j
    max_seq_len: int

    @property
    def size(self) -> int:
        return self.event.size

    @cached_property
    def targets(self) -> np.ndarray:
        return self.events.targets[self.event]

    @cached_property
    def width(self) -> np.ndarray:
        """[N] window width min(j, max_seq_len): the valid slots of each sample."""
        return np.minimum(self.prefix_len, self.max_seq_len)

    @property
    def event_ids(self) -> tuple[str, ...]:
        return tuple(self.events.event_ids[i] for i in self.event.tolist())

    @property
    def mask(self) -> np.ndarray:
        """[N, L] valid slots of the whole set as one batch, L its longest window."""
        return np.arange(self.width.max(initial=0)) < self.width[:, None]

    @cached_property
    def first_row(self) -> np.ndarray:
        """[N] table row of each sample's window start."""
        return self.events.offsets[self.event] + self.prefix_len - self.width

    @cached_property
    def token_start(self) -> np.ndarray:
        """[N] each sample's first token in ``token_rows``; slot t holds token ``start + t``."""
        windowed, start = self.prefix_len > self.max_seq_len, self.first_row.copy()
        start[windowed] = self.events.deltas.size + self.max_seq_len * np.arange(windowed.sum())
        return start

    @cached_property
    def token_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The set's tokens as [T,p], [T,q] and [T] rows, built once.

        The table's rows come first (its own arrays when no window restarts);
        each window of j > max_seq_len appends max_seq_len rows, deltas restarted.
        """
        t, span = self.events, self.max_seq_len
        first = self.first_row[self.prefix_len > span]
        if not first.size:
            return t.cat_idx, t.cont, t.deltas
        own = (first[:, None] + np.arange(span)).ravel()
        rows = np.concatenate([np.arange(t.deltas.size), own])
        deltas = np.concatenate([t.deltas, t.deltas[own] - np.repeat(t.deltas[first], span)])
        return t.cat_idx[rows], t.cont[rows], deltas

    def token_front(self) -> TokenFront:
        """A fresh front over the set's tokens, for one prediction pass."""
        return TokenFront(*self.token_rows)

    def batch(self, idx: np.ndarray | slice, front: TokenFront | None = None) -> SequenceBatch:
        """The samples at ``idx``, zero-padded to the longest window among them.

        With ``front`` (from ``token_front``) each slot also names its token
        there; a padded slot names its window's first token.
        """
        width = self.width[idx]
        mask = np.arange(width.max(initial=0)) < width[:, None]
        ids = self.token_start[idx][:, None] + np.where(mask, np.arange(mask.shape[1]), 0)
        return token_batch(front or self.token_rows, ids, mask)


def _encoded(events: EncodedTable, caller: str) -> EncodedTable:
    if not len(events):
        raise ValueError(f"{caller}: no events")
    return events


def build_samples(events: EncodedTable, config: ModelConfig) -> SampleSet:
    """One sample per (event, revision j), j = 1..M, in event order."""
    table = _encoded(events, "build_samples")
    event = np.repeat(np.arange(len(table)), table.lengths)
    prefix_len = np.arange(event.size) - table.offsets[event] + 1
    return SampleSet(table, event, prefix_len, config.max_seq_len)


def build_final_samples(events: EncodedTable, config: ModelConfig) -> SampleSet:
    """Only each event's last revision: the final estimate."""
    table = _encoded(events, "build_final_samples")
    return SampleSet(table, np.arange(len(table)), table.lengths, config.max_seq_len)


def encode_events(
    events: EventTable | Sequence[EventRef], state: TransformState, schema: FeatureSchema
) -> EncodedTable:
    """Encode a table of events (a list of ``EventRef`` is selected from its table once)."""
    return encode_table(as_event_table(events), state, schema)


# -- optimizer and scheduler ---------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, tensors: Mapping[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in tensors.items()},
            v={k: np.zeros_like(a) for k, a in tensors.items()},
        )


def adam_step(
    tensors: dict[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float,
    cfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """Standard bias-corrected Adam update, in place, one call per step.

    Raises ``NumericsError`` naming the first tensor the update leaves non-finite.
    """
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for name, g in grads.items():
        if g.shape != tensors[name].shape:
            raise ValueError(f"adam_step: gradient shape mismatch for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        tensors[name] -= lr * (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)
        if not np.isfinite(tensors[name]).all():
            raise NumericsError(f"Adam update left {name} non-finite")
    return tensors, state


@dataclass(frozen=True)
class PlateauState:
    lr: float
    best: float = float("inf")
    bad_epochs: int = 0


def plateau_scheduler(value: float, state: PlateauState, cfg: TrainConfig) -> PlateauState:
    """Decay lr by plateau_factor after `patience` epochs without improvement.

    Improvement means the validation value drops below the best seen by more
    than min_delta relative to that best. The bad-epoch counter resets on
    every decay and on every improvement.
    """
    if not math.isfinite(state.best) or value < state.best - cfg.min_delta * abs(state.best):
        return PlateauState(lr=state.lr, best=value, bad_epochs=0)
    bad = state.bad_epochs + 1
    if bad >= cfg.plateau_patience:
        return PlateauState(lr=state.lr * cfg.plateau_factor, best=state.best, bad_epochs=0)
    return PlateauState(lr=state.lr, best=state.best, bad_epochs=bad)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_wae: float
    lr: float


@dataclass
class TrainResult:
    params: ModelParams
    transform_state: TransformState
    history: list[EpochRecord]
    best_epoch: int
    best_val_wae: float
    fingerprint: str


POOL_BATCHES = 8  # batches per width-sorted pool of a training epoch


def by_width(samples: SampleSet, idx: np.ndarray) -> np.ndarray:
    """``idx`` reordered by window width, narrowest first (stable)."""
    return idx[np.argsort(samples.width[idx], kind="stable")]


def epoch_batches(
    samples: SampleSet, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """One training epoch's batches of sample indices, in visiting order.

    A permutation from ``rng`` is cut into pools of ``POOL_BATCHES`` x
    ``batch_size`` samples; each pool is sorted by width (``by_width``) and
    cut into batches, so no batch spans two pools. The batches are then
    visited in an order drawn from the same ``rng``.
    """
    order = rng.permutation(samples.size)
    pool = POOL_BATCHES * batch_size
    batches = []
    for start in range(0, order.size, pool):
        ranked = by_width(samples, order[start : start + pool])
        batches += [ranked[b : b + batch_size] for b in range(0, ranked.size, batch_size)]
    return [batches[k] for k in rng.permutation(len(batches))]


CHUNK_SLOTS = 2048  # token slots (rows x widest window) per prediction chunk
# most threads a pass predicts on: each holds a chunk's temporaries, and only
# two (on 2 vCPUs) have been measured (README, "Performance")
PREDICT_THREADS = 2


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def predict_in_chunks(
    predict_fn: Callable[[SequenceBatch], np.ndarray],
    samples: SampleSet,
    slots: int = CHUNK_SLOTS,
) -> np.ndarray:
    """Predict every sample, returned in input order.

    Rows go to ``predict_fn`` narrowest window first (``by_width``), in chunks
    of as many rows as fit in ``slots`` token slots at the chunk's widest
    window; a row wider than ``slots`` is a chunk of its own. Each chunk is
    trimmed to its own width, so its temporaries take about ``slots`` token
    rows whatever the width. Every chunk's batch names its slots in the
    pass's one ``token_front``, which binds the weights once, holds the
    front of every distinct token of ``samples`` and is closed when the pass
    ends.

    While OpenBLAS runs on one thread (``eval`` sets it so; ``train`` does
    under ``OPENBLAS_NUM_THREADS=1``), the chunks after the first run on up
    to ``PREDICT_THREADS`` threads, no more than the process's CPUs, each
    writing its own rows, so ``predict_fn`` must be safe to call from several
    threads at once, as ``model.predict`` is. A product on one BLAS thread
    gives the same bits on any thread, so the predictions do not change. Over
    multi-threaded BLAS the pass stays serial, as a pool stacked on it runs
    slower than either alone. The first chunk runs on the calling
    thread, so the front is bound and computed before any other chunk reads
    it; the pool is joined before the pass returns. A chunk's error reaches
    the caller as it would serially: the first failing chunk's in chunk
    order, and chunks not started by then are not started.
    """
    order = by_width(samples, np.arange(samples.size))
    widths = samples.width[order]
    chunks, start = [], 0
    while start < samples.size:
        ahead = widths[start : start + max(1, slots // widths[start])]
        fits = np.arange(1, ahead.size + 1) * ahead <= slots  # rows x widest, rising
        stop = start + max(1, int(np.count_nonzero(fits)))
        chunks.append(order[start:stop])
        start = stop
    preds = np.empty(samples.size)
    with closing(samples.token_front()) as front:

        def run(idx: np.ndarray) -> None:
            preds[idx] = predict_fn(samples.batch(idx, front))

        for idx in chunks[:1]:  # on this thread: it binds the front and computes its states
            run(idx)
        workers = min(PREDICT_THREADS, usable_cpus(), len(chunks) - 1)
        if workers < 2 or blas_threads() != 1:
            for idx in chunks[1:]:
                run(idx)
        else:
            with ThreadPoolExecutor(workers) as pool:
                # results in chunk order: the first failing chunk raises, and
                # the chunks not yet started are cancelled
                list(pool.map(run, chunks[1:]))
    return preds


def _nonempty(dataset: Dataset, caller: str, *names: str) -> list[EventTable]:
    """The named split tables; ValueError naming the manifest's storms of an empty one."""
    splits = dataset.split_tables()
    per_class = [sum(s.magnitude == m for s in dataset.storms) for m in MAGNITUDES]
    for name in names:
        if len(splits[name]):
            continue
        n = len(getattr(dataset.split, name))
        why = f"the manifest gives it {n} storms" + (", none with events" if n else "")
        # validation and test take at least 2 storms of each class, so at most
        # 4 per class leave none to train
        if name == "train" and max(per_class) <= 4:
            counts = ", ".join(f"{c} {m}" for c, m in zip(per_class, MAGNITUDES))
            why = (
                f"too few storms per class ({counts}); validation and test take at least "
                f"2 storms of each class, so {why}"
            )
        raise ValueError(f"{caller}: empty {name} split: {why}")
    return [splits[name] for name in names]


def train_model(
    dataset: Dataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    loss_config: LossConfig = LossConfig(),
) -> TrainResult:
    """Fit transforms on the training split, then optimize the model.

    Returns the parameters from the epoch with the best validation WAE. The
    head's output bias starts at the training target mean (unless the config
    already sets one), so optimization starts from an unbiased constant
    predictor instead of zero hours.
    """
    train_events, val_events = _nonempty(dataset, "train_model", "train", "validation")
    schema = dataset.schema
    state = fit_transforms(train_events, schema)
    enc_train = encode_events(train_events, state, schema)
    enc_val = encode_events(val_events, state, schema)

    train_samples = build_samples(enc_train, model_config)
    val_samples = build_samples(enc_val, model_config)

    if model_config.head_bias_init == 0.0:
        target_mean = float(np.mean(train_samples.targets))
        model_config = replace(model_config, head_bias_init=target_mean)

    params = replace(init_params(model_config, schema, seed=train_config.seed), loss=loss_config)
    adam = AdamState.for_params(params.tensors)
    plateau = PlateauState(lr=train_config.learning_rate)
    history: list[EpochRecord] = []
    best_params, best_epoch, best_val = params.copy(), -1, float("inf")
    n = train_samples.size

    for epoch in range(train_config.max_epochs):
        t_start = time.perf_counter()
        order_rng = np.random.default_rng((train_config.seed, 1000 + epoch))
        train_rng = np.random.default_rng((train_config.seed, 2000 + epoch))
        loss_sum = 0.0
        slots = 0
        batches = epoch_batches(train_samples, train_config.batch_size, order_rng)
        for bi, idx in enumerate(batches):
            batch = train_samples.batch(idx)
            slots += batch.mask.size
            targets = train_samples.targets[idx]
            tape = Tape()
            try:  # an overflow raises from a finite check, without a RuntimeWarning
                with np.errstate(over="ignore", invalid="ignore"):
                    preds = forward(tape, params, batch, train_rng=train_rng)
                    loss = tape.scalar_op(preds, lambda p: asymmetric_loss(p, targets, loss_config))
                    grads = tape.gradients(loss)
                    adam_step(params.tensors, grads, adam, plateau.lr, train_config)
            except NumericsError as exc:
                raise TrainError(f"epoch {epoch} batch {bi}: {exc}") from exc
            loss_sum += float(loss.data) * idx.size
        train_loss = loss_sum / n

        try:  # an overflow raises NumericsError, a ValueError
            val_preds = predict_in_chunks(lambda b: predict(params, b), val_samples)
            val_wae = wae(val_preds, val_samples.targets, loss_config)
        except ValueError as exc:
            raise TrainError(f"epoch {epoch} validation: {exc}") from exc
        if val_wae < best_val:
            best_val = val_wae
            best_epoch = epoch
            best_params = params.copy()
        lr_used = plateau.lr
        plateau = plateau_scheduler(val_wae, plateau, train_config)
        seconds = time.perf_counter() - t_start
        history.append(EpochRecord(epoch, train_loss, val_wae, lr_used))
        print(
            f"epoch {epoch}: train loss {train_loss:.4f}, val WAE {val_wae:.4f}, "
            f"lr {lr_used:.3g}, {seconds:.2f} s, {n / seconds:.0f} samples/s, "
            f"valid slots {train_samples.width.sum() / slots:.3f}",
            file=sys.stderr,
        )

    return TrainResult(
        params=best_params,
        transform_state=state,
        history=history,
        best_epoch=best_epoch,
        best_val_wae=best_val,
        fingerprint=dataset_fingerprint(schema, dataset.categories),
    )


# -- linear baseline -----------------------------------------------------------


@dataclass
class LinearBaseline:
    """OLS on one-hot final-revision features; shares the model's encoding."""

    schema: FeatureSchema
    state: TransformState
    weights: np.ndarray  # [D] including the intercept as the last entry
    cat_widths: tuple[int, ...]

    @property
    def intercept(self) -> float:
        return float(self.weights[-1])


def _design_matrix(
    cat_idx: np.ndarray, cont: np.ndarray, cat_widths: Sequence[int]
) -> np.ndarray:
    n = cat_idx.shape[0]
    cols = [np.zeros((n, w)) for w in cat_widths]
    for c, w in enumerate(cat_widths):
        cols[c][np.arange(n), cat_idx[:, c]] = 1.0
    cols.append(cont)
    cols.append(np.ones((n, 1)))
    return np.concatenate(cols, axis=1)


def fit_linear_baseline(dataset: Dataset) -> LinearBaseline:
    """Least squares (ridge jitter 1e-8) on each training event's last revision."""
    (train_events,) = _nonempty(dataset, "fit_linear_baseline", "train")
    schema = dataset.schema
    state = fit_transforms(train_events, schema)
    encoded = encode_events(train_events, state, schema)
    cat_widths = tuple(state.encoded_cardinality(f) for f in schema.categorical)
    last = encoded.offsets[1:] - 1
    x = _design_matrix(encoded.cat_idx[last], encoded.cont[last], cat_widths)
    y = encoded.targets
    gram = x.T @ x + 1e-8 * np.eye(x.shape[1])
    weights = np.linalg.solve(gram, x.T @ y)
    return LinearBaseline(schema, state, weights, cat_widths)


def baseline_predict(baseline: LinearBaseline, batch: SequenceBatch) -> np.ndarray:
    """Predict from each row's last valid revision."""
    rows, last = np.arange(batch.size), batch.lengths - 1
    x = _design_matrix(batch.cat_idx[rows, last], batch.cont[rows, last], baseline.cat_widths)
    return x @ baseline.weights


# -- evaluation ----------------------------------------------------------------


def evaluate(
    predict_fn: Callable[[SequenceBatch], np.ndarray],
    samples: SampleSet,
    magnitudes: Mapping[str, str],
    loss_config: LossConfig = LossConfig(),
) -> tuple[EvalReport, dict[int, dict[str, float]]]:
    """Score every sample in one chunked pass (``predict_in_chunks``).

    Returns the report over each event's final revision (the samples whose
    ``prefix_len`` is the event's length), stratified by storm magnitude, and
    the WAE and count per revision index j over all samples.
    """
    preds = predict_in_chunks(predict_fn, samples)
    final = np.flatnonzero(samples.prefix_len == samples.events.lengths[samples.event])
    strata = tuple(magnitudes[samples.events.event_ids[i]] for i in samples.event[final].tolist())
    report = eval_report(PredictionSet(preds[final], samples.targets[final], strata), loss_config)
    per_revision = {}
    for j in np.unique(samples.prefix_len).tolist():
        rows = samples.prefix_len == j
        per_revision[j] = {
            "wae": wae(preds[rows], samples.targets[rows], loss_config),
            "count": int(rows.sum()),
        }
    return report, per_revision
