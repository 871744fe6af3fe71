"""Full-layer encoder plus head, kept as a test oracle for ``etrcast.model.forward``.

This is the encoder that the readout-only last layer replaced: every layer,
the last one included, computes its queries, attention output, layer norms and
FFN at all B·L positions, and the head then gathers each row's last valid
position. The model's forward must agree with it to rounding: its last layer
multiplies one query row per sequence, which BLAS may sum in another order.
"""

from __future__ import annotations

import math

import numpy as np

from etrcast.autodiff import Tape, Tensor
from etrcast.model import (
    ModelParams,
    SequenceBatch,
    _activation,
    _get,
    _linear,
    embed_revision,
    positional_encode,
    sanitize_batch,
    validate_batch,
)


def encode_sequence(
    tape: Tape,
    h: Tensor,
    mask: np.ndarray,
    params: ModelParams,
    as_params: bool = False,
    capture: list | None = None,
) -> Tensor:
    """Encoder stack over every position: [B,L,d_model] -> [B,L,d_model].

    ``capture`` collects each layer's attention weights [B,H,L,L].
    """
    cfg = params.config
    b, s, d = h.shape
    n_heads = cfg.n_heads
    dh = d // n_heads
    x = tape.reshape(h, (b * s, d))
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
        ctx = tape.matmul(weights, v)
        ctx = tape.reshape(tape.transpose(ctx, (0, 2, 1, 3)), (b * s, d))
        attn_out = _linear(tape, params, ctx, f"{name}/attn/o", as_params)
        x = tape.layer_norm(
            tape.add(x, attn_out),
            _get(tape, params, f"{name}/ln1/g", as_params),
            _get(tape, params, f"{name}/ln1/b", as_params),
        )
        hidden = _activation(tape, cfg, _linear(tape, params, x, f"{name}/ffn/1", as_params))
        ffn_out = _linear(tape, params, hidden, f"{name}/ffn/2", as_params)
        x = tape.layer_norm(
            tape.add(x, ffn_out),
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
) -> Tensor:
    """Predicted durations [B] through the full-layer encoder (no dropout)."""
    validate_batch(batch, params.config, params.schema)
    used = int(batch.mask.astype(bool).sum(axis=1).max(initial=1))
    trimmed = (a[:, :used] for a in (batch.cat_idx, batch.cont, batch.deltas, batch.mask))
    batch = sanitize_batch(SequenceBatch(*trimmed))
    h = embed_revision(tape, batch, params, as_params)
    pe = positional_encode(batch.deltas, params.config.d_model, params.config.pe_base)
    h = tape.add(h, tape.constant(pe))
    h = encode_sequence(tape, h, batch.mask, params, as_params, capture)
    rep = tape.gather_rows(h, batch.mask.sum(axis=1) - 1)
    hidden = _activation(tape, params.config, _linear(tape, params, rep, "head/1", as_params))
    out = _linear(tape, params, hidden, "head/2", as_params)
    return tape.reshape(out, (batch.size,))
