"""Out-of-place reference versions of the tape's hot primitives, kept as a test oracle.

These are the kernels that the in-place code in ``etrcast.kernels`` and
``etrcast.autodiff`` replaced: each intermediate is a fresh array, masked
scores are zeroed by a second ``np.where``, and the layer-norm backward
recomputes ``xhat`` from ``x``, ``mean`` and ``rstd``. Tests assert that the
new code gives bit-identical results, signs of zeros included.
"""

from __future__ import annotations

import numpy as np


def softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def masked_softmax(scores: np.ndarray, key_valid: np.ndarray) -> np.ndarray:
    mask = key_valid[:, None, None, :]
    shielded = np.where(mask, scores, -np.inf)
    shifted = shielded - np.max(shielded, axis=-1, keepdims=True)
    e = np.where(mask, np.exp(shifted), 0.0)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_rows_bwd(w: np.ndarray, grad_w: np.ndarray) -> np.ndarray:
    """Backward of both softmaxes: w is exactly 0 at masked keys."""
    dot = np.sum(w * grad_w, axis=-1, keepdims=True)
    return w * (grad_w - dot)


def layer_norm(x, gain, bias, eps):
    """Returns (y, mean, rstd)."""
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.mean((x - mean) ** 2, axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + eps)
    y = (x - mean) * rstd * gain + bias
    return y, mean[..., 0], rstd[..., 0]


def layer_norm_bwd(x, mean, rstd, gain, grad_y):
    xhat = (x - mean[..., None]) * rstd[..., None]
    gy = grad_y * gain
    m1 = np.mean(gy, axis=-1, keepdims=True)
    m2 = np.mean(gy * xhat, axis=-1, keepdims=True)
    gx = (gy - m1 - xhat * m2) * rstd[..., None]
    flat_hat = xhat.reshape(-1, x.shape[-1])
    flat_gy = grad_y.reshape(-1, x.shape[-1])
    ggain = np.sum(flat_gy * flat_hat, axis=0)
    gbias = np.sum(flat_gy, axis=0)
    return gx, ggain, gbias


def relu(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0.0, a, 0.0)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b
