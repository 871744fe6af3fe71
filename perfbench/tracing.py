"""Span tracer that wraps etrcast's public functions from outside the package.

Each wrapped callable is replaced at the name its callers look it up under: a
module attribute (``etrcast.training.forward``, ``etrcast.cli.predict``,
``etrcast.kernels.masked_softmax``) or a ``Tape`` method. Every call records
one span (name, start, end, parent span, phase) in flat in-memory arrays; the
spans are written out once, when the run ends. Phase 0 is set-up and phase k
is the k-th traced command. Counters (samples built, token slots, kernel
bytes) are kept per phase beside the spans.

Nothing under ``src/`` knows about the tracer: uninstalling it puts every
original object back.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

MIN_BEYOND = 10  # a latency percentile needs this many command calls beyond it
KERNELS = ("masked_softmax", "masked_softmax_bwd", "layer_norm", "layer_norm_bwd")
TAPE_OPS = (
    "linear", "matmul", "masked_softmax", "layer_norm", "relu", "transpose", "reshape",
    "embedding", "concat_last", "add", "scale", "gather_rows", "param", "constant",
    "scalar_op", "gradients",
)  # fmt: skip


def enough_beyond(calls: int, q: float) -> bool:
    """Whether ``calls`` command calls put ``MIN_BEYOND`` beyond the ``q``-th percentile."""
    return calls * (100 - q) / 100 >= MIN_BEYOND


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


class Tracer:
    """Records spans and counters for the functions it has wrapped."""

    def __init__(self, workload: str):
        self.workload = workload
        self.phase = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_phase = array("i")
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counters[(self.phase, name)] += value

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def command_calls(self, name: str) -> int:
        """Calls of ``name`` recorded outside set-up."""
        if name not in self._name_ids:
            return 0
        a = self.arrays()
        return int(np.count_nonzero((a["name_id"] == self._name_ids[name]) & (a["phase"] > 0)))

    def _wrap(self, name: str, fn, observe=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.span_phase.append(self.phase)
            self.end.append(0.0)
            self._stack.append(idx)
            self._active[name] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._active[name] -= 1
                self._stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions at their lookup sites."""
        mod = {
            n: importlib.import_module(f"etrcast.{n}")
            for n in ("cli", "synth", "dataio", "data", "training", "model", "kernels", "explain")
        }
        from etrcast.autodiff import Tape

        cli, training = mod["cli"], mod["training"]
        sites = [
            (cli, "generate_dataset", "synth.generate_dataset", None),
            (mod["synth"], "save_dataset", "dataio.save_dataset", None),
            (cli, "load_dataset", "dataio.load_dataset", None),
            (mod["dataio"], "load_dataset", "dataio.load_dataset", None),
            (training, "fit_transforms", "data.fit_transforms", None),
            (mod["data"], "fit_transforms", "data.fit_transforms", None),
            (cli, "encode_events", "training.encode_events", None),
            (training, "encode_events", "training.encode_events", None),
            (cli, "build_samples", "training.build_samples", _observe_samples),
            (training, "build_samples", "training.build_samples", _observe_samples),
            (training, "forward", "training.forward", _observe_forward),
            (training, "adam_step", "training.adam_step", None),
            (training, "predict_in_chunks", "training.predict_in_chunks", None),
            (cli, "predict", "model.predict", _observe_predict),
            (training, "predict", "model.predict", _observe_predict),
            (training, "asymmetric_loss", "losses.asymmetric_loss", None),
            (training, "eval_report", "metrics.eval_report", None),
            (mod["explain"], "shapley_attributions", "explain.shapley_attributions", None),
            (cli, "write_run_manifest", "cli.write_run_manifest", None),
        ]
        for command in ("generate", "train", "eval", "explain"):
            sites.append((cli, f"cmd_{command}", f"cli.{command}", None))
        for kernel in KERNELS:
            sites.append((mod["kernels"], kernel, f"kernels.{kernel}", _observe_kernel(kernel)))
        for op in TAPE_OPS:
            observe = _observe_masked_softmax if op == "masked_softmax" else None
            sites.append((Tape, op, f"autodiff.{op}", observe))
        for owner, attr, name, observe in sites:
            self.patch(owner, attr, name, observe)

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "phase": np.frombuffer(self.span_phase, dtype=np.int32),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.asarray(self.names), workload=np.asarray(self.workload), **self.arrays()
        )


def _observe_samples(tracer: Tracer, args, samples) -> None:
    tracer.count("training.samples", samples.size)
    tracer.count("training.token_slots", samples.mask.size)


def _observe_forward(tracer: Tracer, args, out) -> None:
    tracer.count("model.tokens_computed", args[2].mask.size)


def _observe_predict(tracer: Tracer, args, out) -> None:
    tracer.count("model.rows", args[1].size)
    tracer.count("model.tokens_computed", args[1].mask.size)
    if tracer.active("explain.shapley_attributions"):
        tracer.count("explain.predict_calls", 1)


def _observe_masked_softmax(tracer: Tracer, args, out) -> None:
    key_valid = args[2]
    tracer.count("model.valid_keys", int(np.count_nonzero(key_valid)))
    tracer.count("model.key_slots", key_valid.size)


def _observe_kernel(kernel: str):
    def observe(tracer: Tracer, args, out) -> None:
        tracer.count(f"kernels.{kernel}.bytes_computed", _nbytes(tuple(args)) + _nbytes(out))

    return observe


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures for one set-up plus one command.

    Set-up (phase 0) counts once; command-phase totals are averaged over the
    traced commands. For each span name, ``.s`` is inclusive busy seconds,
    ``.self_s`` the part outside its child spans and ``.calls`` a count; for
    each layer, ``<layer>.self_s`` sums its spans' self time. A percentile
    ``.p50_ms``/``.p90_ms`` over the command-phase calls is 0 where the
    commands never call the span, and is left out where fewer than
    ``MIN_BEYOND`` calls lie beyond it.
    """
    a = tracer.arrays()
    n_commands = max(int(a["phase"].max(initial=0)), 1)
    dur = a["end"] - a["start"]
    child = a["parent"] >= 0
    self_time = dur - np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
    setup = a["phase"] == 0

    def per_run(values: np.ndarray, sel: np.ndarray) -> float:
        return float(values[sel & setup].sum() + values[sel & ~setup].sum() / n_commands)

    ones = np.ones_like(dur)
    out: dict[str, float] = defaultdict(float)
    for nid, name in enumerate(tracer.names):
        sel = a["name_id"] == nid
        out[f"{name}.s"] = per_run(dur, sel)
        out[f"{name}.calls"] = per_run(ones, sel)
        out[f"{name}.self_s"] = per_run(self_time, sel)
        out[f"{name.split('.')[0]}.self_s"] += out[f"{name}.self_s"]
        calls_ms = dur[sel & ~setup] * 1e3
        for q in (50, 90):
            if calls_ms.size == 0:
                out[f"{name}.p{q}_ms"] = 0.0
            elif enough_beyond(calls_ms.size, q):
                out[f"{name}.p{q}_ms"] = float(np.percentile(calls_ms, q))
    for (phase, name), value in tracer.counters.items():
        out[name] += value * (1.0 if phase == 0 else 1.0 / n_commands)
    return dict(out)
