"""Training harness: per-prefix samples, Adam, plateau decay, linear baseline.

Samples are built one per (event, prefix length): the model trains to predict
the final restoration duration from every intermediate revision state, which
mirrors how an estimate would be re-issued as updates arrive. Optimization is
Adam with bias correction; the learning rate decays by a fixed factor when
the validation WAE stops improving. Everything, dropout included, is seeded,
so two runs with the same inputs produce bit-identical histories.

The linear baseline fits ordinary least squares (tiny ridge jitter for rank
safety) on each event's final revision with one-hot categoricals, and is
evaluated on exactly the same final-prefix prediction set as the model.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .autodiff import NumericsError, Tape
from .data import EncodedEvent, FeatureSchema, TransformState, apply_transforms, fit_transforms
from .dataio import Dataset, dataset_fingerprint
from .losses import LossConfig, asymmetric_loss, mse_loss
from .metrics import EvalReport, PredictionSet, eval_report, wae
from .model import ModelConfig, ModelParams, SequenceBatch, forward, init_params, predict


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
    loss: str = "asymmetric"

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValueError(f"plateau_factor must lie in (0, 1), got {self.plateau_factor}")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be >= 1")
        if self.loss not in ("asymmetric", "mse"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


# -- sample construction ------------------------------------------------------


@dataclass(frozen=True)
class SampleSet:
    """Flattened per-prefix samples ready for batching."""

    cat_idx: np.ndarray  # [N,S,p]
    cont: np.ndarray  # [N,S,q]
    deltas: np.ndarray  # [N,S]
    mask: np.ndarray  # [N,S]
    targets: np.ndarray  # [N]
    event_ids: tuple[str, ...]
    storm_ids: tuple[str, ...]
    prefix_len: np.ndarray  # [N]

    @property
    def size(self) -> int:
        return self.targets.size

    def batch(self, idx: np.ndarray | slice) -> SequenceBatch:
        return SequenceBatch(
            cat_idx=self.cat_idx[idx],
            cont=self.cont[idx],
            deltas=self.deltas[idx],
            mask=self.mask[idx],
        )


def _window(event: EncodedEvent, max_seq_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep the most recent max_seq_len revisions; deltas restart at the window."""
    m = event.deltas.shape[0]
    if m <= max_seq_len:
        return event.cat_idx, event.cont, event.deltas
    start = m - max_seq_len
    return (
        event.cat_idx[start:],
        event.cont[start:],
        event.deltas[start:] - event.deltas[start],
    )


def _assemble(
    rows: list[tuple[EncodedEvent, np.ndarray, np.ndarray, np.ndarray, int]], s: int, p: int, q: int
) -> SampleSet:
    n = len(rows)
    cat = np.zeros((n, s, p), dtype=np.int64)
    cont = np.zeros((n, s, q), dtype=np.float64)
    deltas = np.zeros((n, s), dtype=np.float64)
    mask = np.zeros((n, s), dtype=bool)
    targets = np.zeros(n)
    event_ids = []
    storm_ids = []
    prefix_len = np.zeros(n, dtype=np.int64)
    for i, (event, wcat, wcont, wdeltas, j) in enumerate(rows):
        cat[i, :j] = wcat[:j]
        cont[i, :j] = wcont[:j]
        deltas[i, :j] = wdeltas[:j]
        mask[i, :j] = True
        targets[i] = event.target_duration
        event_ids.append(event.event_id)
        storm_ids.append(event.storm_id)
        prefix_len[i] = j
    return SampleSet(
        cat, cont, deltas, mask, targets, tuple(event_ids), tuple(storm_ids), prefix_len
    )


def build_samples(events: Sequence[EncodedEvent], config: ModelConfig) -> SampleSet:
    """One sample per (event, prefix length j), j = 1..min(M, max_seq_len)."""
    if not events:
        raise ValueError("build_samples: no events")
    p = events[0].cat_idx.shape[1]
    q = events[0].cont.shape[1]
    rows = []
    for event in events:
        wcat, wcont, wdeltas = _window(event, config.max_seq_len)
        for j in range(1, wdeltas.shape[0] + 1):
            rows.append((event, wcat, wcont, wdeltas, j))
    return _assemble(rows, config.max_seq_len, p, q)


def build_final_samples(events: Sequence[EncodedEvent], config: ModelConfig) -> SampleSet:
    """Only the full (windowed) sequence per event: the last-revision estimate."""
    if not events:
        raise ValueError("build_final_samples: no events")
    p = events[0].cat_idx.shape[1]
    q = events[0].cont.shape[1]
    rows = []
    for event in events:
        wcat, wcont, wdeltas = _window(event, config.max_seq_len)
        rows.append((event, wcat, wcont, wdeltas, wdeltas.shape[0]))
    return _assemble(rows, config.max_seq_len, p, q)


def encode_events(
    events: Sequence, state: TransformState, schema: FeatureSchema
) -> list[EncodedEvent]:
    return [apply_transforms(e, state, schema) for e in events]


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
    """Standard bias-corrected Adam update, in place, one call per step."""
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
    wall_time: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)

    def to_doc(self) -> list[dict]:
        """Serialization omits wall_time so history files are run-reproducible."""
        return [
            {"epoch": r.epoch, "train_loss": r.train_loss, "val_wae": r.val_wae, "lr": r.lr}
            for r in self.epochs
        ]


@dataclass
class TrainResult:
    params: ModelParams
    transform_state: TransformState
    history: TrainHistory
    best_epoch: int
    best_val_wae: float
    fingerprint: str


def predict_in_chunks(
    predict_fn: Callable[[SequenceBatch], np.ndarray], samples: SampleSet, chunk: int = 512
) -> np.ndarray:
    """Predict every sample, returned in input order.

    Rows go to ``predict_fn`` in chunks of ``chunk``, shortest prefix first
    (stable order), so each chunk is trimmed to about its own length.
    """
    order = np.argsort(samples.prefix_len, kind="stable")
    preds = np.empty(samples.size)
    for start in range(0, samples.size, chunk):
        idx = order[start : start + chunk]
        preds[idx] = predict_fn(samples.batch(idx))
    return preds


def _loss_fn(name: str, targets: np.ndarray, cfg: LossConfig):
    if name == "asymmetric":
        return lambda p: asymmetric_loss(p, targets, cfg)
    return lambda p: mse_loss(p, targets)


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
    splits = dataset.split_events()
    train_events, val_events = splits["train"], splits["validation"]
    if not train_events or not val_events:
        raise ValueError("train_model: empty train or validation split")
    schema = dataset.schema
    state = fit_transforms(train_events, schema)
    enc_train = encode_events(train_events, state, schema)
    enc_val = encode_events(val_events, state, schema)

    train_samples = build_samples(enc_train, model_config)
    val_samples = build_samples(enc_val, model_config)

    if model_config.head_bias_init == 0.0:
        target_mean = float(np.mean(train_samples.targets))
        model_config = replace(model_config, head_bias_init=target_mean)

    params = init_params(model_config, schema, seed=train_config.seed)
    adam = AdamState.for_params(params.tensors)
    plateau = PlateauState(lr=train_config.learning_rate)
    history = TrainHistory()
    best_params = params.copy()
    best_epoch = -1
    best_val = float("inf")
    n = train_samples.size

    for epoch in range(train_config.max_epochs):
        t_start = time.perf_counter()
        order = np.random.default_rng((train_config.seed, 1000 + epoch)).permutation(n)
        dropout_rng = np.random.default_rng((train_config.seed, 2000 + epoch))
        loss_sum = 0.0
        for bi, start in enumerate(range(0, n, train_config.batch_size)):
            idx = order[start : start + train_config.batch_size]
            batch = train_samples.batch(idx)
            targets = train_samples.targets[idx]
            tape = Tape()
            try:
                preds = forward(tape, params, batch, as_params=True, dropout_rng=dropout_rng)
                loss = tape.scalar_op(preds, _loss_fn(train_config.loss, targets, loss_config))
                grads = tape.gradients(loss)
            except NumericsError as exc:
                raise TrainError(f"epoch {epoch} batch {bi}: {exc}") from exc
            loss_sum += float(loss.data) * idx.size
            adam_step(params.tensors, grads, adam, plateau.lr, train_config)
        train_loss = loss_sum / n

        val_preds = predict_in_chunks(lambda b: predict(params, b), val_samples)
        val_wae = wae(val_preds, val_samples.targets, loss_config)
        if val_wae < best_val:
            best_val = val_wae
            best_epoch = epoch
            best_params = params.copy()
        lr_used = plateau.lr
        plateau = plateau_scheduler(val_wae, plateau, train_config)
        history.epochs.append(
            EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                val_wae=val_wae,
                lr=lr_used,
                wall_time=time.perf_counter() - t_start,
            )
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
    train_events = dataset.split_events()["train"]
    if not train_events:
        raise ValueError("fit_linear_baseline: empty training split")
    schema = dataset.schema
    state = fit_transforms(train_events, schema)
    encoded = encode_events(train_events, state, schema)
    cat_widths = tuple(state.encoded_cardinality(f) for f in schema.categorical)
    cat_last = np.stack([e.cat_idx[-1] for e in encoded])
    cont_last = np.stack([e.cont[-1] for e in encoded])
    y = np.asarray([e.target_duration for e in encoded])
    x = _design_matrix(cat_last, cont_last, cat_widths)
    gram = x.T @ x + 1e-8 * np.eye(x.shape[1])
    weights = np.linalg.solve(gram, x.T @ y)
    return LinearBaseline(schema, state, weights, cat_widths)


def baseline_predict_features(
    baseline: LinearBaseline, cat_idx: np.ndarray, cont: np.ndarray
) -> np.ndarray:
    """Predict from raw encoded final-revision features [N,p] and [N,q]."""
    x = _design_matrix(cat_idx, cont, baseline.cat_widths)
    return x @ baseline.weights


def baseline_predict(baseline: LinearBaseline, batch: SequenceBatch) -> np.ndarray:
    """SequenceBatch interface: reads each row's last valid revision."""
    last = batch.mask.astype(bool).sum(axis=1) - 1
    rows = np.arange(batch.size)
    return baseline_predict_features(
        baseline, batch.cat_idx[rows, last], batch.cont[rows, last]
    )


# -- evaluation ----------------------------------------------------------------


def evaluate_model(
    predict_fn: Callable[[SequenceBatch], np.ndarray],
    events: Sequence[EncodedEvent],
    magnitudes: Mapping[str, str],
    model_config: ModelConfig,
    loss_config: LossConfig = LossConfig(),
) -> EvalReport:
    """Metrics over one prediction per event at its final revision, stratified."""
    if not events:
        raise ValueError("evaluate_model: empty split")
    samples = build_final_samples(events, model_config)
    preds = predict_in_chunks(predict_fn, samples)
    strata = tuple(magnitudes[eid] for eid in samples.event_ids)
    pset = PredictionSet(preds, samples.targets, strata)
    return eval_report(pset, loss_config)


def evaluate_per_revision(
    predict_fn: Callable[[SequenceBatch], np.ndarray],
    events: Sequence[EncodedEvent],
    model_config: ModelConfig,
    loss_config: LossConfig = LossConfig(),
) -> dict[int, dict[str, float]]:
    """WAE and count per prefix length j over all (event, j) samples."""
    samples = build_samples(events, model_config)
    preds = predict_in_chunks(predict_fn, samples)
    out: dict[int, dict[str, float]] = {}
    for j in sorted(set(samples.prefix_len.tolist())):
        mask = samples.prefix_len == j
        out[j] = {
            "wae": wae(preds[mask], samples.targets[mask], loss_config),
            "count": int(mask.sum()),
        }
    return out
