"""Sequence regression model over revision sequences.

Forward pipeline per event prefix: per-feature categorical embeddings are
concatenated with the continuous values and linearly projected to d_model;
a continuous-time sinusoidal encoding of the time delta since the first
revision is added; a stack of post-norm transformer encoder layers with a
key-padding mask mixes the positions, its last layer at the readout row (the
last valid position) only; a small fully connected head reads that row and
emits the predicted restoration duration in hours.

Padded positions are sanitized to neutral values on entry and excluded from
attention by the mask, so their contents can never influence a prediction
(exact equality, not just approximately).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .autodiff import Tape, Tensor
from .data import FeatureSchema, TransformState
from .dataio import check_end, read_array, read_header, write_container
from .losses import LossConfig

CHECKPOINT_MAGIC = b"ETRCKPT1"


@dataclass(frozen=True)
class ModelConfig:
    max_seq_len: int = 20
    d_model: int = 128
    n_layers: int = 6
    n_heads: int = 16
    ffn_hidden: int | None = None  # defaults to 4 * d_model
    head_hidden: int | None = None  # defaults to d_model
    embed_dim_cap: int = 16
    dropout: float = 0.0
    activation: str = "relu"
    pe_base: float = 10000.0
    head_bias_init: float = 0.0

    def __post_init__(self):
        if self.ffn_hidden is None:
            object.__setattr__(self, "ffn_hidden", 4 * self.d_model)
        if self.head_hidden is None:
            object.__setattr__(self, "head_hidden", self.d_model)
        # sizes first: the divisibility check below divides by n_heads
        for name in ("max_seq_len", "d_model", "n_heads", "ffn_hidden", "head_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be >= 0, got {self.n_layers}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.embed_dim_cap < 1 or not self.pe_base > 1.0:
            raise ValueError("bad embed_dim_cap or pe_base")


def embed_dim(cardinality: int, cap: int = 16) -> int:
    """Embedding width for one categorical feature: ceil(sqrt(card)), capped."""
    return min(math.ceil(math.sqrt(cardinality)), cap)


@dataclass
class ModelParams:
    """All learnable tensors, keyed by stable slash-separated names.

    ``loss`` is the loss the tensors were trained with; evaluation scores
    WAE and CSI with its alpha, beta and tau.
    """

    config: ModelConfig
    schema: FeatureSchema
    tensors: dict[str, np.ndarray]
    loss: LossConfig = LossConfig()

    def copy(self) -> "ModelParams":
        tensors = {k: v.copy() for k, v in self.tensors.items()}
        return ModelParams(self.config, self.schema, tensors, self.loss)


@dataclass(frozen=True)
class SequenceBatch:
    """Right-padded revision sequences: [B,S,p] ints, [B,S,q] floats, deltas, mask."""

    cat_idx: np.ndarray
    cont: np.ndarray
    deltas: np.ndarray
    mask: np.ndarray

    @property
    def size(self) -> int:
        return self.cat_idx.shape[0]

    @property
    def seq_len(self) -> int:
        return self.cat_idx.shape[1]

    @property
    def lengths(self) -> np.ndarray:  # [B] valid revisions; row i reads out at lengths[i] - 1
        return self.mask.astype(bool).sum(axis=1)


def validate_batch(batch: SequenceBatch, config: ModelConfig, schema: FeatureSchema) -> None:
    b, s, p = batch.cat_idx.shape
    if batch.cont.shape != (b, s, schema.q) or p != schema.p:
        raise ValueError(
            f"batch shapes {batch.cat_idx.shape}/{batch.cont.shape} do not match schema"
        )
    if batch.deltas.shape != (b, s) or batch.mask.shape != (b, s):
        raise ValueError("deltas/mask shape mismatch")
    if s > config.max_seq_len:
        raise ValueError(f"sequence length {s} exceeds max_seq_len {config.max_seq_len}")
    mask = batch.mask.astype(bool)
    if not mask[:, 0].all():
        raise ValueError("every row needs at least one valid revision")
    if s > 1 and np.any(mask[:, 1:] & ~mask[:, :-1]):
        raise ValueError("valid positions must form a prefix of each row")
    if np.any(batch.deltas[mask] < 0):
        raise ValueError("negative time delta at a valid position")


def sanitize_batch(batch: SequenceBatch) -> SequenceBatch:
    """Zero out padded positions so padding contents cannot reach the model."""
    mask = batch.mask.astype(bool)
    m3 = mask[:, :, None]
    return SequenceBatch(
        cat_idx=np.where(m3, batch.cat_idx, 0).astype(np.int64),
        cont=np.where(m3, batch.cont, 0.0).astype(np.float64),
        deltas=np.where(mask, batch.deltas, 0.0).astype(np.float64),
        mask=mask,
    )


def init_params(config: ModelConfig, schema: FeatureSchema, seed: int = 0) -> ModelParams:
    """Seeded initialization: 1/sqrt(fan_in) linear weights, small uniform embeddings.

    Embedding tables get cardinality + 1 rows; the extra row serves the
    reserved index for categories unseen during transform fitting.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}

    def lin(name: str, fan_in: int, fan_out: int) -> None:
        tensors[f"{name}/W"] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out))
        tensors[f"{name}/b"] = np.zeros(fan_out)

    d_in = 0
    for feat in schema.categorical:
        dk = embed_dim(schema.cardinalities[feat], config.embed_dim_cap)
        tensors[f"embed/{feat}"] = rng.uniform(
            -0.05, 0.05, size=(schema.cardinalities[feat] + 1, dk)
        )
        d_in += dk
    d_in += schema.q

    d = config.d_model
    lin("proj", d_in, d)
    for layer in range(config.n_layers):
        for part in ("q", "k", "v", "o"):
            lin(f"layer{layer}/attn/{part}", d, d)
        tensors[f"layer{layer}/ln1/g"] = np.ones(d)
        tensors[f"layer{layer}/ln1/b"] = np.zeros(d)
        lin(f"layer{layer}/ffn/1", d, config.ffn_hidden)
        lin(f"layer{layer}/ffn/2", config.ffn_hidden, d)
        tensors[f"layer{layer}/ln2/g"] = np.ones(d)
        tensors[f"layer{layer}/ln2/b"] = np.zeros(d)
    lin("head/1", d, config.head_hidden)
    lin("head/2", config.head_hidden, 1)
    tensors["head/2/b"] = np.full(1, float(config.head_bias_init))
    return ModelParams(config, schema, tensors)


def positional_encode(deltas: np.ndarray, d_model: int, pe_base: float = 10000.0) -> np.ndarray:
    """Continuous-time sinusoidal encoding of time deltas (hours).

    Dimension 2k carries sin(dt / base^(2k/d_model)); dimension 2k+1 carries
    the matching cosine. Deltas must be non-negative.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if np.any(deltas < 0):
        raise ValueError("positional_encode: negative time delta")
    n_sin = (d_model + 1) // 2
    k = np.arange(n_sin, dtype=np.float64)
    inv_freq = pe_base ** (-(2.0 * k) / d_model)
    angles = deltas[..., None] * inv_freq  # [..., n_sin]
    pe = np.zeros(deltas.shape + (d_model,))
    pe[..., 0::2] = np.sin(angles)
    pe[..., 1::2] = np.cos(angles[..., : d_model // 2])
    return pe


def _activation(tape: Tape, config: ModelConfig, x: Tensor) -> Tensor:
    return tape.relu(x) if config.activation == "relu" else tape.tanh(x)


Weights = dict[str, Tensor]  # every tensor of a ModelParams, bound to one tape


def _bind(tape: Tape, params: ModelParams, train: bool) -> Weights:
    """Every tensor of ``params`` on ``tape``: parameters when training, else constants."""
    bind = tape.param if train else lambda _, arr: tape.constant(arr)
    return {name: bind(name, arr) for name, arr in params.tensors.items()}


def _linear(tape: Tape, w: Weights, x: Tensor, name: str) -> Tensor:
    """``x @ {name}/W + {name}/b``."""
    return tape.linear(x, w[f"{name}/W"], w[f"{name}/b"])


def embed_revision(tape: Tape, batch: SequenceBatch, params: ModelParams, w: Weights) -> Tensor:
    """Embed + concatenate + project each revision to d_model; returns [B·S,d_model]."""
    parts = [
        tape.embedding(w[f"embed/{feat}"], batch.cat_idx[:, :, c])
        for c, feat in enumerate(params.schema.categorical)
    ]
    parts.append(tape.constant(batch.cont))
    stacked = tape.concat_last(parts)  # [B,S,d_in]
    b, s, d_in = stacked.shape
    return _linear(tape, w, tape.reshape(stacked, (b * s, d_in)), "proj")


def encode_sequence(
    tape: Tape,
    x: Tensor,
    mask: np.ndarray,
    last_idx: np.ndarray,
    params: ModelParams,
    w: Weights,
    capture: list | None = None,
    train_rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the encoder stack on x [B·L,d_model]; returns the readout rows [B,d_model].

    ``last_idx`` [B] names each row's readout position. The last layer takes
    keys and values at all L positions but computes its query, attention
    output, layer norms and FFN at the readout row only; its full attention map
    is captured as plain data, so capturing never alters the computation.
    ``capture`` and ``train_rng`` are as in ``forward``.
    """
    cfg = params.config
    b, s = mask.shape
    d, n_heads = cfg.d_model, cfg.n_heads
    dh = d // n_heads
    inv_sqrt_dh = 1.0 / math.sqrt(dh)
    if cfg.n_layers == 0:
        return tape.gather_rows(tape.reshape(x, (b, s, d)), last_idx)

    def add_norm(x: Tensor, y: Tensor, ln: str) -> Tensor:  # post-norm residual, dropout on y
        if train_rng is not None and cfg.dropout > 0.0:
            keep = (train_rng.random(y.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            y = tape.mul(y, tape.constant(keep))
        return tape.layer_norm(tape.add(x, y), w[f"{ln}/g"], w[f"{ln}/b"])

    def heads(src: Tensor, n: int, prefix: str, axes: tuple) -> Tensor:  # [B·n,d] -> 4-D
        y = _linear(tape, w, src, prefix)
        return tape.transpose(tape.reshape(y, (b, n, n_heads, dh)), axes)

    for layer in range(cfg.n_layers):
        name = f"layer{layer}"
        kv, rows = x, s
        if layer == cfg.n_layers - 1:
            x, rows = tape.gather_rows(tape.reshape(x, (b, s, d)), last_idx), 1
        q = heads(x, rows, f"{name}/attn/q", (0, 2, 1, 3))  # [B,H,rows,dh]
        k_t = heads(kv, s, f"{name}/attn/k", (0, 2, 3, 1))  # [B,H,dh,S]
        v = heads(kv, s, f"{name}/attn/v", (0, 2, 1, 3))
        scores = tape.scale(tape.matmul(q, k_t), inv_sqrt_dh)
        weights = tape.masked_softmax(scores, mask)  # [B,H,rows,S]
        if capture is not None and rows < s:  # queries at every row, off the tape
            q_all = kv.data @ w[f"{name}/attn/q/W"].data
            q_all += w[f"{name}/attn/q/b"].data
            q_all = np.ascontiguousarray(q_all.reshape(b, s, n_heads, dh).transpose(0, 2, 1, 3))
            capture.append(kernels.masked_softmax((q_all @ k_t.data) * inv_sqrt_dh, mask))
        elif capture is not None:
            capture.append(weights.data.copy())
        ctx = tape.matmul(weights, v)  # [B,H,rows,dh]
        ctx = tape.reshape(tape.transpose(ctx, (0, 2, 1, 3)), (b * rows, d))
        attn_out = _linear(tape, w, ctx, f"{name}/attn/o")
        x = add_norm(x, attn_out, f"{name}/ln1")
        hidden = _activation(tape, cfg, _linear(tape, w, x, f"{name}/ffn/1"))
        ffn_out = _linear(tape, w, hidden, f"{name}/ffn/2")
        x = add_norm(x, ffn_out, f"{name}/ln2")
    return x


def forward(
    tape: Tape,
    params: ModelParams,
    batch: SequenceBatch,
    train_rng: np.random.Generator | None = None,
    capture: list | None = None,
) -> Tensor:
    """Full forward pass to predicted durations; returns Tensor [B].

    With ``train_rng`` the pass trains: the tensors are tape parameters, and
    when config.dropout > 0 each sublayer output gets inverted dropout drawn
    from ``train_rng`` before its residual add. Without it the tensors are
    constants and the tape records nothing. ``capture`` collects each layer's
    attention weights [B,H,L,L], L being the longest valid prefix: columns
    past it are cut first.
    """
    validate_batch(batch, params.config, params.schema)
    lengths = batch.lengths
    used = int(lengths.max(initial=1))
    trimmed = (a[:, :used] for a in (batch.cat_idx, batch.cont, batch.deltas, batch.mask))
    batch = sanitize_batch(SequenceBatch(*trimmed))
    w = _bind(tape, params, train_rng is not None)
    h = embed_revision(tape, batch, params, w)
    pe = positional_encode(batch.deltas, params.config.d_model, params.config.pe_base)
    h = tape.add(h, tape.constant(pe.reshape(h.shape)))
    rep = encode_sequence(tape, h, batch.mask, lengths - 1, params, w, capture, train_rng)
    hidden = _activation(tape, params.config, _linear(tape, w, rep, "head/1"))
    return tape.reshape(_linear(tape, w, hidden, "head/2"), (batch.size,))


def predict(params: ModelParams, batch: SequenceBatch, capture: list | None = None) -> np.ndarray:
    """Inference entry point: predicted durations as a plain [B] array."""
    tape = Tape()
    # an overflow raises NumericsError from the tape's finite checks, not a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        return forward(tape, params, batch, capture=capture).data.copy()


# -- checkpoint container ----------------------------------------------------
#
# The container layout of ``dataio.write_container``: magic, header length,
# canonical-JSON header, then each tensor's raw little-endian float64 bytes in
# sorted name order. (A zip-based container would embed timestamps; this one is
# byte-reproducible.) Format version 2 adds the "loss" block; a version-1 file
# reads as trained with the default LossConfig.

CHECKPOINT_VERSION = 2


def _transform_state_doc(state: TransformState | None) -> dict | None:
    if state is None:
        return None
    return {
        "cont_mean": dict(state.cont_mean),
        "cont_std": dict(state.cont_std),
        "cat_maps": {
            name: {str(raw): dense for raw, dense in mapping.items()}
            for name, mapping in state.cat_maps.items()
        },
        "cat_modes": dict(state.cat_modes),
    }


def _transform_state_from_doc(doc: dict | None, schema: FeatureSchema) -> TransformState | None:
    """The stored transform state; ValueError unless it fits ``schema``.

    It must hold statistics for exactly the schema's features, finite means
    and positive finite deviations, and category maps whose dense indices
    (and the UNKNOWN index after them) fit the embedding tables.
    """
    if doc is None:
        return None
    state = TransformState(
        cont_mean={k: float(v) for k, v in doc["cont_mean"].items()},
        cont_std={k: float(v) for k, v in doc["cont_std"].items()},
        cat_maps={
            name: {int(raw): int(dense) for raw, dense in mapping.items()}
            for name, mapping in doc["cat_maps"].items()
        },
        cat_modes={k: int(v) for k, v in doc["cat_modes"].items()},
    )
    continuous, categorical = set(schema.continuous), set(schema.categorical)
    if not set(state.cont_mean) == set(state.cont_std) == continuous:
        raise ValueError("transform_state does not match the continuous features")
    if not set(state.cat_maps) == set(state.cat_modes) == categorical:
        raise ValueError("transform_state does not match the categorical features")
    stats = [*state.cont_mean.values(), *state.cont_std.values()]
    if not all(map(math.isfinite, stats)) or min(state.cont_std.values(), default=1.0) <= 0.0:
        raise ValueError("transform_state needs finite means and positive deviations")
    for name, mapping in state.cat_maps.items():
        card = schema.cardinalities[name]
        if (
            sorted(mapping.values()) != list(range(len(mapping)))
            or not all(0 <= raw < card for raw in mapping)
            or not 0 <= state.cat_modes[name] < len(mapping)
        ):
            raise ValueError(f"transform_state has a bad category map for {name!r}")
    return state


def save_checkpoint(
    path: str,
    params: ModelParams,
    transform_state: TransformState | None = None,
    schema_fingerprint: str = "",
) -> None:
    names = sorted(params.tensors)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": asdict(params.config),
        "loss": asdict(params.loss),
        "schema": {
            "features": [[n, k] for n, k in params.schema.features],
            "cardinalities": dict(params.schema.cardinalities),
        },
        "schema_fingerprint": schema_fingerprint,
        "transform_state": _transform_state_doc(transform_state),
        "tensors": [{"name": n, "shape": list(params.tensors[n].shape)} for n in names],
    }
    tensors = (np.asarray(params.tensors[name], dtype="<f8") for name in names)
    write_container(path, CHECKPOINT_MAGIC, header, tensors)


def load_checkpoint(
    path: str, expect_fingerprint: str | None = None
) -> tuple[ModelParams, TransformState | None, str]:
    """Read a checkpoint; any mismatch with its own config raises ValueError.

    The tensor list must name exactly the tensors ``init_params`` builds for
    the stored config and schema, with the same shapes and finite values, and
    the file must end right after the last tensor.
    """
    with open(path, "rb") as fh:
        header = read_header(fh, path, CHECKPOINT_MAGIC, "checkpoint")
        version = header.get("format_version") if isinstance(header, dict) else None
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"{path}: unsupported checkpoint version")
        try:
            fingerprint = header["schema_fingerprint"]
            config = ModelConfig(**header["model_config"])
            schema = FeatureSchema(
                tuple((n, k) for n, k in header["schema"]["features"]),
                {k: int(v) for k, v in header["schema"]["cardinalities"].items()},
            )
            state = _transform_state_from_doc(header.get("transform_state"), schema)
            loss = LossConfig(**header["loss"]) if version > 1 else LossConfig()
            entries = [(e["name"], tuple(e["shape"])) for e in header["tensors"]]
            expected = init_params(config, schema).tensors
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from exc
        if expect_fingerprint is not None and fingerprint != expect_fingerprint:
            raise ValueError(
                "schema fingerprint mismatch: checkpoint "
                f"{fingerprint} vs dataset {expect_fingerprint}"
            )
        names = [name for name, _ in entries]
        if names != sorted(expected):
            missing = sorted(set(expected) - set(names))
            extra = sorted(set(names) - set(expected))
            raise ValueError(
                f"{path}: tensor list does not match the model config "
                f"(missing {missing}, unexpected {extra})"
            )
        tensors: dict[str, np.ndarray] = {}
        for name, shape in entries:
            if shape != expected[name].shape:
                raise ValueError(
                    f"{path}: tensor {name} has shape {shape}, "
                    f"the model config needs {expected[name].shape}"
                )
            tensors[name] = read_array(fh, path, "<f8", shape, f"tensor {name}")
            if not np.isfinite(tensors[name]).all():
                raise ValueError(f"{path}: tensor {name} holds NaN or Inf")
        check_end(fh, path, "tensor")
    return ModelParams(config, schema, tensors, loss), state, fingerprint
