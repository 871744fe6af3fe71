"""Sequence regression model over revision sequences.

Forward pipeline per event prefix: per-feature categorical embeddings are
concatenated with the continuous values and linearly projected to d_model;
a continuous-time sinusoidal encoding of the time delta since the first
revision is added; a stack of post-norm transformer encoder layers with a
key-padding mask mixes the positions, its last layer at the readout row (the
last valid position) only; a small fully connected head reads that row and
emits the predicted restoration duration in hours.

Padded positions are zeroed by ``token_batch``, through which ``forward`` also
gathers a batch's own slots, and excluded from attention by the mask, so their
contents can never influence a prediction (exact equality, not approximately).

The front of the model (embeddings, projection, positional encoding and the
first layer's query, key and value projections) works row by row: ``front``
takes flat revision rows. Training, attention capture and single batches run
it on a batch's own slots. Many samples share a revision seen from one window
start: an event's prefixes, or a Shapley attribution's coalition rows. So a
prediction pass binds its weights once, runs the front once on its distinct
tokens (``TokenFront``), and layer 0 of each batch gathers its slots from
there (``SequenceBatch.tokens``). Both routes apply the same operations to
each row, and the tests require equal bits. One constructor builds every
chunk from token rows, ids and a mask (``token_batch``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

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
        if not math.isfinite(self.head_bias_init):
            raise ValueError(f"head_bias_init must be finite, got {self.head_bias_init}")


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
    """Right-padded revision sequences: [B,S,p] ints, [B,S,q] floats, deltas, mask.

    ``tokens``, when set, names each slot's token in a prediction pass's
    ``TokenFront``: inference gathers the front from there instead of
    computing it from the batch's own slots.
    """

    cat_idx: np.ndarray
    cont: np.ndarray
    deltas: np.ndarray
    mask: np.ndarray
    tokens: "TokenSlots | None" = None

    @property
    def size(self) -> int:
        return self.cat_idx.shape[0]

    @property
    def lengths(self) -> np.ndarray:  # [B] valid revisions; row i reads out at lengths[i] - 1
        return np.asarray(self.mask, dtype=bool).sum(axis=1)


def validate_batch(batch: SequenceBatch, config: ModelConfig, schema: FeatureSchema) -> None:
    b, s, p = batch.cat_idx.shape
    if batch.cont.shape != (b, s, schema.q) or p != schema.p:
        raise ValueError(
            f"batch shapes {batch.cat_idx.shape}/{batch.cont.shape} do not match schema"
        )
    if batch.deltas.shape != (b, s) or batch.mask.shape != (b, s):
        raise ValueError("deltas/mask shape mismatch")
    if not np.issubdtype(batch.cat_idx.dtype, np.integer):
        raise ValueError(f"cat_idx must hold integers, got {batch.cat_idx.dtype}")
    if s > config.max_seq_len:
        raise ValueError(f"sequence length {s} exceeds max_seq_len {config.max_seq_len}")
    mask = np.asarray(batch.mask, dtype=bool)
    if not mask[:, 0].all():
        raise ValueError("every row needs at least one valid revision")
    if s > 1 and np.any(mask[:, 1:] & ~mask[:, :-1]):
        raise ValueError("valid positions must form a prefix of each row")
    if np.any(batch.deltas[mask] < 0):
        raise ValueError("negative time delta at a valid position")


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


def front(
    tape: Tape,
    params: ModelParams,
    w: Weights,
    cat_idx: np.ndarray,
    cont: np.ndarray,
    deltas: np.ndarray,
) -> dict[str, Tensor]:
    """The model's row-wise front at N revision rows: [N,p] ints, [N,q] floats, [N] deltas.

    ``x`` [N,d_model] is layer 0's input: the embedded, concatenated and
    projected revisions plus their positional encoding. Unless layer 0 is the
    last layer (or there is none), ``q``, ``k`` and ``v`` are its projections.
    """
    cfg = params.config
    parts = [
        tape.embedding(w[f"embed/{feat}"], cat_idx[:, c])
        for c, feat in enumerate(params.schema.categorical)
    ]
    parts.append(tape.constant(cont))
    x = _linear(tape, w, tape.concat_last(parts), "proj")
    x = tape.add(x, tape.constant(positional_encode(deltas, cfg.d_model, cfg.pe_base)))
    qkv = "qkv" if cfg.n_layers > 1 else ""  # a last layer projects its own
    return {"x": x, **{p: _linear(tape, w, x, f"layer0/attn/{p}") for p in qkv}}


class TokenFront:
    """The front of the model at each distinct token of one prediction pass.

    A token is one revision as a window sees it: its features and its time
    delta since the window's first row, given here as [T,p], [T,q] and [T]
    arrays. ``states`` binds every tensor of a ``params`` as a checked
    constant once per pass and computes the ``front`` of all T tokens on
    first use; both are kept until ``close`` or until another ``params``
    object asks. ``extend`` gives a front over more tokens of the same pass,
    with the same bound weights. A pass closes its front when it ends, so no
    state outlives the pass: a training loop may then update the tensors in
    place.
    """

    def __init__(self, cat_idx: np.ndarray, cont: np.ndarray, deltas: np.ndarray, root=None):
        self.rows = (cat_idx, cont, deltas)
        self._root: TokenFront | None = root  # the pass's first front, which holds the weights
        self.close()

    @property
    def size(self) -> int:
        return self.rows[2].shape[0]

    def states(self, tape: Tape, params: ModelParams) -> tuple[Weights, dict[str, np.ndarray]]:
        """The pass's bound weights, and ``front`` of every token as plain [T,d_model] arrays."""
        root = self._root or self  # an inference tape records nothing, so later tapes can use them
        if root._bound[0] is not params:
            root._bound = (params, _bind(tape, params, train=False))
        w = root._bound[1]
        if self._states[0] is not w:  # computed with another binding
            self._states = (w, {k: t.data for k, t in front(tape, params, w, *self.rows).items()})
        return self._states

    def extend(self, cat_idx: np.ndarray, cont: np.ndarray, deltas: np.ndarray) -> "TokenFront":
        """A front over this front's tokens and then the given ones, closed with this pass."""
        rows = (np.concatenate(pair) for pair in zip(self.rows, (cat_idx, cont, deltas)))
        return TokenFront(*rows, root=self._root or self)

    def close(self) -> None:
        self._bound: tuple = (None, {})  # (params, their bound weights)
        self._states: tuple = (None, {})  # (the weights used, the front's states)


@dataclass(frozen=True)
class TokenSlots:
    """Each slot's token in ``front``, [B,S]; a padded slot may name any token."""

    front: TokenFront
    ids: np.ndarray


def token_batch(tokens: TokenFront | tuple, ids: np.ndarray, mask: np.ndarray) -> SequenceBatch:
    """The chunk whose slot (b, s) holds token ``ids[b, s]``; padded slots (``~mask``) are zeroed.

    ``tokens`` holds the token rows ([T,p], [T,q], [T]), or is a pass's
    ``TokenFront``, whose tokens each slot then also names.
    """
    front = tokens if isinstance(tokens, TokenFront) else None
    cat_idx, cont, deltas = (a[ids] for a in (tokens if front is None else front.rows))
    cat_idx[~mask], cont[~mask], deltas[~mask] = 0, 0.0, 0.0
    return SequenceBatch(cat_idx, cont, deltas, mask, front and TokenSlots(front, ids))


def encode_sequence(
    tape: Tape,
    states: dict,
    mask: np.ndarray,
    last_idx: np.ndarray,
    params: ModelParams,
    w: Weights,
    capture: list | None = None,
    train_rng: np.random.Generator | None = None,
    ids: np.ndarray | None = None,
) -> Tensor:
    """Run the encoder stack from the ``front`` ``states``; returns the readout rows [B,d_model].

    ``states`` holds the front at the batch's own B·L slots or, with ``ids``
    [B,L], at a pass's tokens (``TokenFront.states``): then layer 0 gathers x
    at each slot's token, and q and v straight into head layout. ``last_idx``
    [B] names each row's readout position. The last layer takes keys and
    values at all L positions but computes its query, attention output, layer
    norms and FFN at the readout row only; its full attention map is captured
    as plain data, so capturing never alters the computation. ``capture`` and
    ``train_rng`` are as in ``forward``. Each sublayer runs in its own call, so
    at inference its temporaries are freed when it returns.
    """
    cfg = params.config
    b, s = mask.shape
    d, n_heads = cfg.d_model, cfg.n_heads
    dh = d // n_heads
    inv_sqrt_dh = 1.0 / math.sqrt(dh)
    x = states["x"] if ids is None else tape.constant(np.take(states["x"], ids.ravel(), axis=0))
    if cfg.n_layers == 0:
        return tape.gather_rows(tape.reshape(x, (b, s, d)), last_idx)

    def add_norm(x: Tensor, y: Tensor, ln: str) -> Tensor:  # post-norm residual, dropout on y
        if train_rng is not None and cfg.dropout > 0.0:
            keep = (train_rng.random(y.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            y = tape.mul(y, tape.constant(keep))
        return tape.layer_norm(tape.add(x, y), w[f"{ln}/g"], w[f"{ln}/b"])

    def heads(y: Tensor, n: int, axes: tuple) -> Tensor:  # [B·n,d] -> 4-D
        return tape.transpose(tape.reshape(y, (b, n, n_heads, dh)), axes)

    def gather_heads(token_states: np.ndarray) -> Tensor:  # [B,H,S,dh]; row t·H + h is (t, h)
        rows = (ids[:, None, :] * n_heads + np.arange(n_heads)[:, None]).ravel()
        per_head = np.take(token_states.reshape(-1, dh), rows, axis=0)
        return tape.constant(per_head.reshape(b, n_heads, s, dh))

    def attention(x: Tensor, kv: Tensor, rows: int, layer: int) -> Tensor:  # before the residual
        name = f"layer{layer}/attn"
        from_front = layer == 0 and "q" in states
        if from_front and ids is not None:
            k = np.take(states["k"], ids.ravel(), axis=0).reshape(b, s, n_heads, dh)
            k_t = tape.constant(np.ascontiguousarray(k.transpose(0, 2, 3, 1)))
            q, v = gather_heads(states["q"]), gather_heads(states["v"])
        else:
            proj = lambda src, p: states[p] if from_front else _linear(tape, w, src, f"{name}/{p}")
            q = heads(proj(x, "q"), rows, (0, 2, 1, 3))  # [B,H,rows,dh]
            k_t = heads(proj(kv, "k"), s, (0, 2, 3, 1))  # [B,H,dh,S]
            v = heads(proj(kv, "v"), s, (0, 2, 1, 3))
        weights = tape.masked_softmax(tape.scale(tape.matmul(q, k_t), inv_sqrt_dh), mask)
        if capture is not None and rows < s:  # queries at every row, off the tape
            q_all = kv.data @ w[f"{name}/q/W"].data
            q_all += w[f"{name}/q/b"].data
            q_all = np.ascontiguousarray(q_all.reshape(b, s, n_heads, dh).transpose(0, 2, 1, 3))
            capture.append(kernels.masked_softmax((q_all @ k_t.data) * inv_sqrt_dh, mask))
        elif capture is not None:
            capture.append(weights.data.copy())
        ctx = tape.matmul(weights, v)  # weights [B,H,rows,S], ctx [B,H,rows,dh]
        ctx = tape.reshape(tape.transpose(ctx, (0, 2, 1, 3)), (b * rows, d))
        return _linear(tape, w, ctx, f"{name}/o")

    def ffn(x: Tensor, layer: int) -> Tensor:
        hidden = _activation(tape, cfg, _linear(tape, w, x, f"layer{layer}/ffn/1"))
        return _linear(tape, w, hidden, f"layer{layer}/ffn/2")

    for layer in range(cfg.n_layers):
        kv, rows = x, s
        if layer == cfg.n_layers - 1:
            x, rows = tape.gather_rows(tape.reshape(x, (b, s, d)), last_idx), 1
        x = add_norm(x, attention(x, kv, rows, layer), f"layer{layer}/ln1")
        x = add_norm(x, ffn(x, layer), f"layer{layer}/ln2")
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
    past it are cut first. A batch with ``tokens`` takes its front from
    them, unless the pass trains; ValueError unless each of its slots names a
    token of the pass.
    """
    batch = replace(batch, mask=np.asarray(batch.mask, dtype=bool))  # converted once
    validate_batch(batch, params.config, params.schema)
    lengths = batch.lengths
    used = int(lengths.max(initial=1))
    mask = batch.mask[:, :used]
    tokens = None if train_rng is not None else batch.tokens
    if tokens is None:
        w = _bind(tape, params, train_rng is not None)
        n = batch.mask.size
        slots = tuple(a.reshape(n, *a.shape[2:]) for a in (batch.cat_idx, batch.cont, batch.deltas))
        own = token_batch(slots, np.arange(n).reshape(batch.mask.shape)[:, :used], mask)
        rows = (a.reshape(mask.size, *a.shape[2:]) for a in (own.cat_idx, own.cont, own.deltas))
        states, ids = front(tape, params, w, *rows), None
    else:
        ids = np.asarray(tokens.ids)[:, :used]
        if ids.shape != mask.shape or ids.min() < 0 or ids.max() >= tokens.front.size:
            raise ValueError(f"token ids {np.shape(tokens.ids)} do not fit the batch or its pass")
        w, states = tokens.front.states(tape, params)
    rep = encode_sequence(tape, states, mask, lengths - 1, params, w, capture, train_rng, ids)
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


def _transform_state_doc(state: TransformState) -> dict:
    return {
        "cont_mean": dict(state.cont_mean),
        "cont_std": dict(state.cont_std),
        "cat_maps": {
            name: {str(raw): dense for raw, dense in mapping.items()}
            for name, mapping in state.cat_maps.items()
        },
        "cat_modes": dict(state.cat_modes),
    }


def _transform_state_from_doc(doc: dict, schema: FeatureSchema) -> TransformState:
    """The stored transform state; ValueError unless it fits ``schema``.

    It must hold statistics for exactly the schema's features, finite means
    and positive finite deviations, and category maps whose dense indices
    (and the UNKNOWN index after them) fit the embedding tables.
    """
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
    path: str, params: ModelParams, transform_state: TransformState, schema_fingerprint: str
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
) -> tuple[ModelParams, TransformState, str]:
    """Read a checkpoint; any mismatch with its own config raises ValueError.

    A checkpoint without a transform state cannot encode inputs, so it is refused.

    The tensor list must name exactly the tensors ``init_params`` builds for
    the stored config and schema, with the same shapes and finite values, and
    the file must end right after the last tensor.
    """
    with open(path, "rb") as fh:
        header = read_header(fh, path, CHECKPOINT_MAGIC, "checkpoint")
        version = header.get("format_version") if isinstance(header, dict) else None
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"{path}: unsupported checkpoint version")
        if header.get("transform_state") is None:
            raise ValueError(f"{path}: carries no transform state")
        try:
            fingerprint = header["schema_fingerprint"]
            config = ModelConfig(**header["model_config"])
            schema = FeatureSchema(
                tuple((n, k) for n, k in header["schema"]["features"]),
                {k: int(v) for k, v in header["schema"]["cardinalities"].items()},
            )
            state = _transform_state_from_doc(header["transform_state"], schema)
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
