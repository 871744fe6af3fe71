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
    Weights,
    _bind,
    _linear,
    front,
    token_batch,
    validate_batch,
)


def encode_sequence(
    tape: Tape,
    x: Tensor,
    mask: np.ndarray,
    params: ModelParams,
    w: Weights,
    capture: list | None = None,
) -> Tensor:
    """Encoder stack over every position: [B·L,d_model] -> [B,L,d_model].

    ``capture`` collects each layer's attention weights [B,H,L,L].
    """
    cfg = params.config
    b, s = mask.shape
    d, n_heads = cfg.d_model, cfg.n_heads
    dh = d // n_heads
    for layer in range(cfg.n_layers):
        name = f"layer{layer}"

        def heads(part: str) -> Tensor:
            y = _linear(tape, w, x, f"{name}/attn/{part}")
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
        attn_out = _linear(tape, w, ctx, f"{name}/attn/o")
        x = tape.layer_norm(tape.add(x, attn_out), w[f"{name}/ln1/g"], w[f"{name}/ln1/b"])
        hidden = tape.relu(_linear(tape, w, x, f"{name}/ffn/1"))
        ffn_out = _linear(tape, w, hidden, f"{name}/ffn/2")
        x = tape.layer_norm(tape.add(x, ffn_out), w[f"{name}/ln2/g"], w[f"{name}/ln2/b"])
    return tape.reshape(x, (b, s, d))


def forward(
    tape: Tape,
    params: ModelParams,
    batch: SequenceBatch,
    train_rng: np.random.Generator | None = None,
    capture: list | None = None,
) -> Tensor:
    """Predicted durations [B] through the full-layer encoder (no dropout)."""
    validate_batch(batch, params.config, params.schema)
    used = int(batch.lengths.max(initial=1))
    n = batch.mask.size
    slots = tuple(a.reshape(n, *a.shape[2:]) for a in (batch.cat_idx, batch.cont, batch.deltas))
    ids = np.arange(n).reshape(batch.mask.shape)[:, :used]
    batch = token_batch(slots, ids, np.asarray(batch.mask, dtype=bool)[:, :used])
    w = _bind(tape, params, train_rng is not None)
    n = batch.mask.size
    rows = (a.reshape(n, *a.shape[2:]) for a in (batch.cat_idx, batch.cont, batch.deltas))
    h = front(tape, params, w, *rows)["x"]
    h = encode_sequence(tape, h, batch.mask, params, w, capture)
    rep = tape.gather_rows(h, batch.lengths - 1)
    hidden = tape.relu(_linear(tape, w, rep, "head/1"))
    out = _linear(tape, w, hidden, "head/2")
    return tape.reshape(out, (batch.size,))
