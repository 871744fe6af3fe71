"""Hot numeric kernels: masked softmax and layer normalization, forward and backward.

One implementation: vectorized numpy, with matrix products left to
numpy/BLAS. Every kernel is sequential and bit-deterministic, and works in
place on its own temporaries so that each output costs as few passes over
memory as the arithmetic allows. The operation order is part of the
contract: ``tests/_reference_kernels.py`` keeps the earlier out-of-place
versions, and the tests require bit-identical results against them.
"""

from __future__ import annotations

import numpy as np

_NEG_INF = -np.inf


def backend_name() -> str:
    """Name of the kernel implementation, recorded in benchmark environments."""
    return "numpy"


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise (last axis) softmax with max subtraction."""
    e = x - np.max(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def softmax_rows_bwd(w: np.ndarray, grad_w: np.ndarray) -> np.ndarray:
    dot = np.sum(w * grad_w, axis=-1, keepdims=True)
    gx = grad_w - dot
    gx *= w
    return gx


def masked_softmax(scores: np.ndarray, key_valid: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of [B,H,S,S] scores with invalid keys frozen at 0.

    Invalid key columns take no part in the max or the normalizing sum, so
    their (arbitrary finite) score values cannot perturb valid weights. They
    hold -inf until the exponential maps them to exactly +0.0; every row
    needs one valid key, so its max is finite.
    """
    e = np.where(key_valid[:, None, None, :], scores, _NEG_INF)
    e -= np.max(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


# w is exactly 0 at masked keys, so masked entries get exactly 0 gradient.
masked_softmax_bwd = softmax_rows_bwd


def layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize the last axis to zero mean / unit variance, then apply affine.

    Returns (y, xhat, rstd): the normalized input ``xhat`` and the reciprocal
    standard deviation ``rstd`` (leading shape of ``x``) are what the
    backward pass needs.
    """
    xhat = x - np.mean(x, axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(np.mean(xhat * xhat, axis=-1, keepdims=True) + eps)
    xhat *= rstd
    y = xhat * gain
    y += bias
    return y, xhat, rstd[..., 0]


def layer_norm_bwd(
    xhat: np.ndarray, rstd: np.ndarray, gain: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (x, gain, bias) of :func:`layer_norm` from its cached ``xhat`` and ``rstd``."""
    d = xhat.shape[-1]
    gx = grad_y * gain
    m1 = np.mean(gx, axis=-1, keepdims=True)
    m2 = np.mean(gx * xhat, axis=-1, keepdims=True)
    gx -= m1
    gx -= xhat * m2
    gx *= rstd[..., None]
    ggain = np.sum((grad_y * xhat).reshape(-1, d), axis=0)
    gbias = np.sum(grad_y.reshape(-1, d), axis=0)
    return gx, ggain, gbias
