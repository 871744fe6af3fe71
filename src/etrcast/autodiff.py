"""Dense float64 tensors, forward primitives, and reverse-mode differentiation.

A :class:`Tape` records, in topological order, every primitive application
that can reach a registered parameter: one whose inputs include a parameter
or the output of an earlier recorded primitive. :meth:`Tape.gradients`
replays that record backwards from a scalar output and returns one gradient
array per registered parameter. A primitive over constants only records
nothing, so a forward pass built from :meth:`Tape.constant` alone (inference)
keeps no backward closures and frees each intermediate as soon as the next
primitive has used it.

Primitives reject non-finite outputs outright: NaN or Inf anywhere is treated
as a bug in the caller, never silently propagated. The check costs one
reduction per output: any NaN or Inf makes the sum non-finite, so a finite
sum proves every value finite. Only a non-finite sum, which finite values can
also produce by overflowing, is confirmed by a full ``isfinite`` scan.

Gradient correctness is checked against central finite differences by
:func:`fd_check`, which every primitive and the full training objective must
pass (see the test suite).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import kernels


class NumericsError(ValueError):
    """Shape mismatch, non-finite value, or misuse of a primitive."""


def _as_f64(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


def _require_finite(arr: np.ndarray, op: str) -> None:
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(arr, axis=None)
    if not math.isfinite(total) and not np.isfinite(arr).all():
        raise NumericsError(f"{op}: non-finite values in result")


class Tensor:
    """Immutable-by-convention dense float64 array bound to one tape."""

    __slots__ = ("data", "tid")

    def __init__(self, data: np.ndarray, tid: int):
        self.data = data
        self.tid = tid

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


class _Node:
    __slots__ = ("out_tid", "in_tids", "backward")

    def __init__(self, out_tid, in_tids, backward):
        self.out_tid = out_tid
        self.in_tids = in_tids
        self.backward = backward


class Tape:
    """Records primitive applications for reverse-mode gradient evaluation.

    Single-threaded during recording. Parameters are registered by name via
    :meth:`param`; everything else enters through :meth:`constant` or as the
    output of a primitive.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._params: dict[str, Tensor] = {}
        self._reaches_param: set[int] = set()  # tids of parameters and recorded outputs
        self._next_tid = 0

    # -- tensor creation ----------------------------------------------------

    def _wrap(self, arr: np.ndarray) -> Tensor:
        t = Tensor(arr, self._next_tid)
        self._next_tid += 1
        return t

    def constant(self, value) -> Tensor:
        arr = _as_f64(value)
        _require_finite(arr, "constant")
        return self._wrap(arr)

    def param(self, name: str, value) -> Tensor:
        if name in self._params:
            raise NumericsError(f"parameter {name!r} registered twice")
        arr = _as_f64(value)
        _require_finite(arr, f"param {name}")
        t = self._wrap(arr)
        self._params[name] = t
        self._reaches_param.add(t.tid)
        return t

    def _record(self, out: np.ndarray, inputs: Sequence[Tensor], backward, op: str) -> Tensor:
        _require_finite(out, op)
        t = self._wrap(out)
        in_tids = tuple(x.tid for x in inputs)
        if not self._reaches_param.isdisjoint(in_tids):
            self._nodes.append(_Node(t.tid, in_tids, backward))
            self._reaches_param.add(t.tid)
        return t

    # -- primitives ----------------------------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise NumericsError(f"add: shape mismatch {a.shape} vs {b.shape}")
        return self._record(a.data + b.data, (a, b), lambda g: (g, g), "add")

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise NumericsError(f"mul: shape mismatch {a.shape} vs {b.shape}")
        ad, bd = a.data, b.data
        return self._record(ad * bd, (a, b), lambda g: (g * bd, g * ad), "mul")

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)
        return self._record(a.data * c, (a,), lambda g: (g * c,), "scale")

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim < 2 or b.data.ndim < 2 or a.data.ndim != b.data.ndim:
            raise NumericsError(f"matmul: bad ranks {a.shape} vs {b.shape}")
        if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
            raise NumericsError(f"matmul: shape mismatch {a.shape} vs {b.shape}")
        ad, bd = a.data, b.data

        def backward(g):
            return g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g

        return self._record(ad @ bd, (a, b), backward, "matmul")

    def linear(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """Affine map ``x @ w + b`` for 2-D ``x`` [n, d_in]."""
        if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
            raise NumericsError(
                f"linear: expected ranks (2,2,1), got {x.shape}/{w.shape}/{b.shape}"
            )
        if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
            raise NumericsError(f"linear: shape mismatch {x.shape} @ {w.shape} + {b.shape}")
        xd, wd = x.data, w.data

        def backward(g):
            return g @ wd.T, xd.T @ g, np.sum(g, axis=0)

        out = xd @ wd
        out += b.data
        return self._record(out, (x, w, b), backward, "linear")

    def relu(self, a: Tensor) -> Tensor:
        # np.maximum returns its second argument on a tie, so -0.0 maps to +0.0.
        out = np.maximum(a.data, 0.0)
        return self._record(out, (a,), lambda g: (g * (out > 0.0),), "relu")

    def tanh(self, a: Tensor) -> Tensor:
        out = np.tanh(a.data)
        return self._record(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")

    def softmax_rows(self, x: Tensor) -> Tensor:
        """Softmax along the last axis; each output row sums to 1."""
        w = kernels.softmax_rows(x.data)
        return self._record(w, (x,), lambda g: (kernels.softmax_rows_bwd(w, g),), "softmax_rows")

    def masked_softmax(self, scores: Tensor, key_valid: np.ndarray) -> Tensor:
        """Softmax over the last axis of [B,H,S,S] scores; invalid keys get exactly 0.

        ``key_valid`` is a [B,S] boolean array, not a differentiable input.
        Equivalent to adding -inf to invalid key columns before a plain
        softmax, fused so no non-finite intermediate is ever materialized.
        """
        if scores.data.ndim != 4:
            raise NumericsError(f"masked_softmax: expected [B,H,S,S], got {scores.shape}")
        b, _, s, s2 = scores.shape
        if s != s2 or key_valid.shape != (b, s):
            raise NumericsError(
                f"masked_softmax: mask shape {key_valid.shape} vs scores {scores.shape}"
            )
        if not key_valid.any(axis=1).all():
            raise NumericsError("masked_softmax: every sequence needs at least one valid key")
        w = kernels.masked_softmax(scores.data, key_valid)
        return self._record(
            w, (scores,), lambda g: (kernels.masked_softmax_bwd(w, g),), "masked_softmax"
        )

    def layer_norm(self, x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
        d = x.shape[-1]
        if gain.shape != (d,) or bias.shape != (d,):
            raise NumericsError(f"layer_norm: affine shapes {gain.shape}/{bias.shape} vs d={d}")
        y, xhat, rstd = kernels.layer_norm(x.data, gain.data, bias.data, eps)
        gd = gain.data

        def backward(g):
            return kernels.layer_norm_bwd(xhat, rstd, gd, g)

        return self._record(y, (x, gain, bias), backward, "layer_norm")

    def embedding(self, table: Tensor, idx: np.ndarray) -> Tensor:
        """Row lookup ``table[idx]``; gradient scatter-adds into the table."""
        if table.data.ndim != 2:
            raise NumericsError(f"embedding: table must be 2-D, got {table.shape}")
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
            raise NumericsError(
                f"embedding: index out of range [0, {table.shape[0]}): "
                f"[{idx.min()}, {idx.max()}]"
            )
        rows = table.shape[0]

        def backward(g):
            gt = np.zeros((rows, table.shape[1]))
            np.add.at(gt, idx.ravel(), g.reshape(-1, table.shape[1]))
            return (gt,)

        return self._record(table.data[idx], (table,), backward, "embedding")

    def concat_last(self, parts: Sequence[Tensor]) -> Tensor:
        if not parts:
            raise NumericsError("concat_last: empty input")
        sizes = [p.shape[-1] for p in parts]
        splits = np.cumsum(sizes)[:-1]

        def backward(g):
            return tuple(np.split(g, splits, axis=-1))

        out = np.concatenate([p.data for p in parts], axis=-1)
        return self._record(out, tuple(parts), backward, "concat_last")

    def reshape(self, a: Tensor, shape: Sequence[int]) -> Tensor:
        shape = tuple(shape)
        old = a.shape
        return self._record(
            np.ascontiguousarray(a.data).reshape(shape), (a,), lambda g: (g.reshape(old),), "reshape"
        )

    def transpose(self, a: Tensor, axes: Sequence[int]) -> Tensor:
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        out = np.ascontiguousarray(np.transpose(a.data, axes))
        return self._record(out, (a,), lambda g: (np.transpose(g, inv),), "transpose")

    def gather_rows(self, x: Tensor, idx: np.ndarray) -> Tensor:
        """Select ``x[i, idx[i], :]`` per leading row of a [B,S,d] tensor."""
        if x.data.ndim != 3:
            raise NumericsError(f"gather_rows: expected [B,S,d], got {x.shape}")
        b, s, d = x.shape
        idx = np.asarray(idx)
        if idx.shape != (b,) or (idx.size and (idx.min() < 0 or idx.max() >= s)):
            raise NumericsError(f"gather_rows: bad index array for shape {x.shape}")
        rows = np.arange(b)

        def backward(g):
            gx = np.zeros((b, s, d))
            gx[rows, idx] = g
            return (gx,)

        return self._record(x.data[rows, idx], (x,), backward, "gather_rows")

    def sum_all(self, a: Tensor) -> Tensor:
        shape = a.shape
        return self._record(
            np.asarray(np.sum(a.data)), (a,), lambda g: (np.full(shape, float(g)),), "sum_all"
        )

    def mean_all(self, a: Tensor) -> Tensor:
        shape = a.shape
        n = a.data.size
        return self._record(
            np.asarray(np.mean(a.data)),
            (a,),
            lambda g: (np.full(shape, float(g) / n),),
            "mean_all",
        )

    def scalar_op(self, x: Tensor, fn: Callable[[np.ndarray], tuple[float, np.ndarray]]) -> Tensor:
        """Custom scalar-valued op: ``fn(x) -> (value, d value / d x)``."""
        value, grad = fn(x.data)
        grad = _as_f64(grad)
        if grad.shape != x.shape:
            raise NumericsError(f"scalar_op: gradient shape {grad.shape} vs input {x.shape}")
        return self._record(
            np.asarray(float(value)), (x,), lambda g: (float(g) * grad,), "scalar_op"
        )

    # -- reverse pass ---------------------------------------------------------

    def gradients(self, output: Tensor) -> dict[str, np.ndarray]:
        """Gradients of a scalar ``output`` w.r.t. every registered parameter."""
        if output.data.shape != ():
            raise NumericsError(f"gradients: output must be scalar, got shape {output.shape}")
        grads: dict[int, np.ndarray] = {output.tid: np.asarray(1.0)}
        for node in reversed(self._nodes):
            g = grads.pop(node.out_tid, None)
            if g is None:
                continue
            for tid, gin in zip(node.in_tids, node.backward(g)):
                if gin is None:
                    continue
                if tid in grads:
                    grads[tid] = grads[tid] + gin
                else:
                    grads[tid] = gin
        return {
            name: grads.get(t.tid, np.zeros_like(t.data)) for name, t in self._params.items()
        }


def fd_check(
    f: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    params: dict[str, np.ndarray],
    h: float = 1e-5,
    max_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``f`` maps a parameter dict to ``(scalar value, gradient dict)``. A seeded
    subset of at most ``max_coords`` coordinates (all of them when fewer
    exist) is perturbed by ``±h``; the relative error denominator is
    ``max(|analytic|, |numeric|, 1e-8)``.
    """
    if h <= 0:
        raise NumericsError("fd_check: h must be positive")
    value, analytic = f(params)
    if not np.isfinite(value):
        raise NumericsError("fd_check: non-finite objective value")

    flat: list[tuple[str, int]] = []
    for name in sorted(params):
        flat.extend((name, i) for i in range(params[name].size))
    rng = np.random.default_rng(seed)
    if len(flat) > max_coords:
        picks = rng.choice(len(flat), size=max_coords, replace=False)
        coords = [flat[i] for i in sorted(picks)]
    else:
        coords = flat

    worst = 0.0
    work = {name: arr.copy() for name, arr in params.items()}
    for name, i in coords:
        arr = work[name].reshape(-1)
        orig = arr[i]
        arr[i] = orig + h
        f_plus, _ = f(work)
        arr[i] = orig - h
        f_minus, _ = f(work)
        arr[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericsError(f"fd_check: non-finite value perturbing {name}[{i}]")
        numeric = (f_plus - f_minus) / (2.0 * h)
        ana = float(analytic[name].reshape(-1)[i]) if name in analytic else 0.0
        denom = max(abs(ana), abs(numeric), 1e-8)
        worst = max(worst, abs(ana - numeric) / denom)
    return worst
