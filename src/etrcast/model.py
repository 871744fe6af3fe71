"""Sequence regression model over revision sequences.

Forward pipeline per event prefix: per-feature categorical embeddings are
concatenated with the continuous values and linearly projected to d_model;
a continuous-time sinusoidal encoding of the time delta since the first
revision is added; a stack of post-norm transformer encoder layers with a
key-padding mask mixes the positions; the representation at the last valid
position feeds a small fully connected head that emits the predicted
restoration duration in hours.

Padded positions are sanitized to neutral values on entry and excluded from
attention by the mask, so their contents can never influence a prediction
(exact equality, not just approximately).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tape, Tensor
from .data import FeatureSchema, TransformState
from .dataio import canonical_json
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
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_seq_len < 1 or self.n_layers < 0 or self.n_heads < 1:
            raise ValueError("bad size fields in ModelConfig")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.embed_dim_cap < 1 or self.pe_base <= 1.0:
            raise ValueError("bad embed_dim_cap or pe_base")

    def to_dict(self) -> dict:
        return asdict(self)


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


def _get(tape: Tape, params: ModelParams, name: str, as_params: bool) -> Tensor:
    arr = params.tensors[name]
    return tape.param(name, arr) if as_params else tape.constant(arr)


def _linear(tape: Tape, params: ModelParams, x: Tensor, name: str, as_params: bool) -> Tensor:
    """``x @ {name}/W + {name}/b``; W is fetched before b, which fixes the tape order."""
    w = _get(tape, params, f"{name}/W", as_params)
    return tape.linear(x, w, _get(tape, params, f"{name}/b", as_params))


def embed_revision(
    tape: Tape, batch: SequenceBatch, params: ModelParams, as_params: bool = False
) -> Tensor:
    """Embed + concatenate + project each revision to d_model; returns [B,S,d_model]."""
    schema = params.schema
    parts = []
    for c, feat in enumerate(schema.categorical):
        table = _get(tape, params, f"embed/{feat}", as_params)
        parts.append(tape.embedding(table, batch.cat_idx[:, :, c]))
    parts.append(tape.constant(batch.cont))
    stacked = tape.concat_last(parts)  # [B,S,d_in]
    b, s, d_in = stacked.shape
    flat = tape.reshape(stacked, (b * s, d_in))
    proj = _linear(tape, params, flat, "proj", as_params)
    return tape.reshape(proj, (b, s, params.config.d_model))


def encode_sequence(
    tape: Tape,
    h: Tensor,
    mask: np.ndarray,
    params: ModelParams,
    as_params: bool = False,
    capture: list | None = None,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the transformer encoder stack on h [B,L,d_model]; returns [B,L,d_model].

    When ``capture`` is a list, each layer's attention weights [B,H,L,L] are
    appended to it, L being the batch's longest valid prefix (data only;
    capturing never alters the computation). With ``dropout_rng`` set and
    config.dropout > 0, inverted dropout is applied to each sublayer output
    before its residual add (training only).
    """
    cfg = params.config
    b, s, d = h.shape
    n_heads = cfg.n_heads
    dh = d // n_heads
    x = tape.reshape(h, (b * s, d))

    def maybe_dropout(t: Tensor) -> Tensor:
        if dropout_rng is None or cfg.dropout == 0.0:
            return t
        keep = (dropout_rng.random(t.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
        return tape.mul(t, tape.constant(keep))

    for layer in range(cfg.n_layers):
        name = f"layer{layer}"

        def heads(part: str) -> Tensor:
            y = _linear(tape, params, x, f"{name}/attn/{part}", as_params)
            return tape.transpose(tape.reshape(y, (b, s, n_heads, dh)), (0, 2, 1, 3))

        q, k, v = heads("q"), heads("k"), heads("v")
        scores = tape.scale(
            tape.matmul(q, tape.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh)
        )
        weights = tape.masked_softmax(scores, mask)
        if capture is not None:
            capture.append(weights.data.copy())
        ctx = tape.matmul(weights, v)  # [B,H,S,dh]
        ctx = tape.reshape(tape.transpose(ctx, (0, 2, 1, 3)), (b * s, d))
        attn_out = _linear(tape, params, ctx, f"{name}/attn/o", as_params)
        x = tape.layer_norm(
            tape.add(x, maybe_dropout(attn_out)),
            _get(tape, params, f"{name}/ln1/g", as_params),
            _get(tape, params, f"{name}/ln1/b", as_params),
        )
        hidden = _activation(tape, cfg, _linear(tape, params, x, f"{name}/ffn/1", as_params))
        ffn_out = _linear(tape, params, hidden, f"{name}/ffn/2", as_params)
        x = tape.layer_norm(
            tape.add(x, maybe_dropout(ffn_out)),
            _get(tape, params, f"{name}/ln2/g", as_params),
            _get(tape, params, f"{name}/ln2/b", as_params),
        )
    return tape.reshape(x, (b, s, d))


def forward(
    tape: Tape,
    params: ModelParams,
    batch: SequenceBatch,
    as_params: bool = False,
    capture: list | None = None,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """Full forward pass to predicted durations; returns Tensor [B].

    Columns past the longest valid prefix L are cut first; captured attention
    is [B,H,L,L].
    """
    validate_batch(batch, params.config, params.schema)
    used = int(batch.mask.astype(bool).sum(axis=1).max(initial=1))
    trimmed = (a[:, :used] for a in (batch.cat_idx, batch.cont, batch.deltas, batch.mask))
    batch = sanitize_batch(SequenceBatch(*trimmed))
    h = embed_revision(tape, batch, params, as_params)
    pe = positional_encode(batch.deltas, params.config.d_model, params.config.pe_base)
    h = tape.add(h, tape.constant(pe))
    h = encode_sequence(tape, h, batch.mask, params, as_params, capture, dropout_rng)
    last_idx = batch.mask.sum(axis=1) - 1
    rep = tape.gather_rows(h, last_idx)
    hidden = _activation(tape, params.config, _linear(tape, params, rep, "head/1", as_params))
    out = _linear(tape, params, hidden, "head/2", as_params)
    return tape.reshape(out, (batch.size,))


def predict(params: ModelParams, batch: SequenceBatch, capture: list | None = None) -> np.ndarray:
    """Inference entry point: predicted durations as a plain [B] array."""
    tape = Tape()
    return forward(tape, params, batch, as_params=False, capture=capture).data.copy()


# -- checkpoint container ----------------------------------------------------
#
# Layout: magic, uint64 little-endian header length, canonical-JSON header,
# then each tensor's raw little-endian float64 bytes in sorted name order.
# (A zip-based container would embed timestamps; this one is byte-reproducible.)
# Format version 2 adds the "loss" block; a version-1 file reads as trained
# with the default LossConfig.

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


def _transform_state_from_doc(doc: dict | None) -> TransformState | None:
    if doc is None:
        return None
    return TransformState(
        cont_mean={k: float(v) for k, v in doc["cont_mean"].items()},
        cont_std={k: float(v) for k, v in doc["cont_std"].items()},
        cat_maps={
            name: {int(raw): int(dense) for raw, dense in mapping.items()}
            for name, mapping in doc["cat_maps"].items()
        },
        cat_modes={k: int(v) for k, v in doc["cat_modes"].items()},
    )


def save_checkpoint(
    path: str,
    params: ModelParams,
    transform_state: TransformState | None = None,
    schema_fingerprint: str = "",
) -> None:
    names = sorted(params.tensors)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": params.config.to_dict(),
        "loss": asdict(params.loss),
        "schema": {
            "features": [[n, k] for n, k in params.schema.features],
            "cardinalities": dict(params.schema.cardinalities),
        },
        "schema_fingerprint": schema_fingerprint,
        "transform_state": _transform_state_doc(transform_state),
        "tensors": [{"name": n, "shape": list(params.tensors[n].shape)} for n in names],
    }
    blob = canonical_json(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(params.tensors[name], dtype="<f8").tobytes())


def load_checkpoint(
    path: str, expect_fingerprint: str | None = None
) -> tuple[ModelParams, TransformState | None, str]:
    """Read a checkpoint; any mismatch with its own config raises ValueError.

    The tensor list must name exactly the tensors ``init_params`` builds for
    the stored config and schema, with the same shapes, and the file must end
    right after the last tensor.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise ValueError(f"{path}: truncated header")
        (hlen,) = struct.unpack("<Q", raw_len)
        header = json.loads(fh.read(hlen).decode("utf-8"))
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
            state = _transform_state_from_doc(header.get("transform_state"))
            loss = LossConfig(**header["loss"]) if version > 1 else LossConfig()
            entries = [(e["name"], tuple(e["shape"])) for e in header["tensors"]]
            expected = init_params(config, schema).tensors
        except (AttributeError, KeyError, TypeError) as exc:
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
            raw = fh.read(expected[name].nbytes)
            if len(raw) != expected[name].nbytes:
                raise ValueError(f"{path}: truncated tensor {name}")
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last tensor")
    return ModelParams(config, schema, tensors, loss), state, fingerprint
