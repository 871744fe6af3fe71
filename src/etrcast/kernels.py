"""Hot numeric kernels: masked softmax and layer normalization, forward and backward.

One implementation: vectorized numpy, with matrix products left to
numpy/BLAS, whose thread count ``blas_threads`` reads and ``blas_threads_at``
sets for a block. Every kernel is sequential and bit-deterministic, and works in
place on its own temporaries so that each output costs as few passes over
memory as the arithmetic allows. The operation order is part of the
contract: ``tests/_reference_kernels.py`` keeps the earlier out-of-place
versions, and the tests require bit-identical results against them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from typing import Callable

import numpy as np

_NEG_INF = -np.inf
# _row_max takes numpy's own max-reduce for rows wider than this, or for fewer
# than this many rows per key column: then one ufunc call per column costs more
_COLUMN_MAX_WIDTH = 32
_COLUMN_BLOCK_ROWS = 8192  # rows per block: at 20 keys a block is 1.3 MB and stays in L2


def backend_name() -> str:
    """Name of the kernel implementation, recorded in benchmark environments."""
    return "numpy"


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """OpenBLAS's thread count getter and setter, from the library bundled with numpy."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, asked of the library bundled with numpy; None if none is found."""
    lib = _openblas()
    return None if lib is None else lib[0]()


@contextlib.contextmanager
def blas_threads_at(n: int):
    """Run the block with OpenBLAS at ``n`` threads, and restore its count however the block ends.

    ``eval`` runs at one thread, so that ``training.predict_in_chunks`` can
    run its chunks side by side. Without OpenBLAS nothing changes.
    """
    lib, before = _openblas(), blas_threads()
    if lib is None or before == n:
        yield
        return
    lib[1](n)
    try:
        yield
    finally:
        lib[1](before)


def _row_max(x: np.ndarray) -> np.ndarray:
    """``np.max(x, axis=-1, keepdims=True)``; many short rows take one ``np.maximum`` per column.

    numpy's max-reduce over a short last axis costs 4-5x as much as the
    column loop at [102,4,20,20]. Max does not depend on the order of its
    operands, so only the sign of a zero maximum can differ, and
    ``exp(x - max)`` cannot see it.
    """
    s = x.shape[-1]
    if s > _COLUMN_MAX_WIDTH or x.size < _COLUMN_MAX_WIDTH * s * s:
        return np.max(x, axis=-1, keepdims=True)
    flat = x.reshape(-1, s)
    top = flat[:, :1].copy()
    for lo in range(0, len(flat), _COLUMN_BLOCK_ROWS):
        block, block_top = flat[lo : lo + _COLUMN_BLOCK_ROWS], top[lo : lo + _COLUMN_BLOCK_ROWS]
        for j in range(1, s):
            np.maximum(block_top, block[:, j : j + 1], out=block_top)
    return top.reshape(*x.shape[:-1], 1)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise (last axis) softmax with max subtraction."""
    with np.errstate(over="ignore"):  # a finite difference past the range is -inf, exp(-inf) = 0
        e = x - _row_max(x)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def softmax_rows_bwd(w: np.ndarray, grad_w: np.ndarray) -> np.ndarray:
    dot = np.sum(w * grad_w, axis=-1, keepdims=True)
    gx = grad_w - dot
    gx *= w
    return gx


def masked_softmax(scores: np.ndarray, key_valid: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of [B,H,Sq,S] scores with invalid keys frozen at 0.

    ``key_valid`` [B,S] broadcasts over heads and query rows. Invalid key
    columns take no part in the max or the normalizing sum, so their
    (arbitrary finite) score values cannot perturb valid weights. They hold
    -inf until the exponential maps them to exactly +0.0; every row needs one
    valid key, so its max is finite.
    """
    e = np.where(key_valid[:, None, None, :], scores, _NEG_INF)
    with np.errstate(over="ignore"):  # as in softmax_rows
        e -= _row_max(e)
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
