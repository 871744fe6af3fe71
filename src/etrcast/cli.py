"""Command-line pipeline: generate -> train -> eval -> explain / attention.

Every pipeline subcommand takes a ``--seed`` and writes its outputs to a
distinct ``--out`` directory. Each command notes its inputs, outputs and
phase seconds on one ``RunRecord``; once the command returns, ``run`` writes
the record, the resolved config and timestamps to ``run_manifest.json``. A
command that fails writes no manifest. ``generate`` and ``train`` resolve
their config dataclasses in layers: the field defaults (and ``train``'s
``--scale`` preset), then an optional ``--config`` key=value file of
dataclass fields, then flags named like the fields.
With a fixed seed every artifact except the manifest (which carries
wall-clock timestamps, per-phase seconds and the environment by design) is
byte-reproducible on one machine. A CLI process keeps the memory it frees for
reuse (``keep_freed_memory``); importing etrcast as a library tunes nothing.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, fields, replace
from typing import Sequence

import numpy as np

from . import __version__
from . import explain as explain_mod
from .data import EncodedTable, TransformState
from .dataio import Dataset, canonical_json, dataset_fingerprint, file_sha256, load_dataset
from .losses import LossConfig
from .metrics import EvalReport, format_report
from .model import ModelConfig, ModelParams, load_checkpoint, predict, save_checkpoint
from .synth import GeneratorConfig, generate_dataset
from .training import (
    TrainConfig,
    TrainError,
    TrainResult,
    build_final_samples,
    build_samples,
    encode_events,
    evaluate,
    train_model,
)

SCALES = {
    "desk": {
        "model": {"d_model": 32, "n_layers": 2, "n_heads": 4},
        "train": {"learning_rate": 3e-3, "batch_size": 128, "max_epochs": 30},
    },
    "full": {"model": {}, "train": {"max_epochs": 100}},  # the config defaults, trained longer
}


# validation and test each take 2 storms of every class, so 5 leaves 1 to train
MIN_STORMS_PER_CLASS = 5


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep our own codes
        raise CliError(f"{self.prog}: {message}\n{self.format_usage()}")


def load_config_file(path: str) -> dict[str, tuple[str, str]]:
    """Flat key=value file as key -> (value, "<path>:<line>"); blank lines and # comments ignored.

    A byte that is not UTF-8 is refused naming its line, a repeated key naming both.
    """
    out: dict[str, tuple[str, str]] = {}
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for line_no, line in enumerate(fh, start=1):
                where = f"{path}:{line_no}"
                if any("\udc80" <= ch <= "\udcff" for ch in line):  # an escaped byte
                    raise CliError(f"{where}: not UTF-8 text")
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise CliError(f"{where}: expected key=value, got {stripped!r}")
                key, value = (part.strip() for part in stripped.split("=", 1))
                if key in out:
                    raise CliError(f"{where}: config key {key!r} already set at {out[key][1]}")
                out[key] = (value, where)
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return out


def _config_file(args, *classes) -> dict[str, tuple[str, str]]:
    """The ``--config`` entries; each key must be a field of one of ``classes``."""
    file_cfg = load_config_file(args.config) if args.config else {}
    known = {f.name for cls in classes for f in fields(cls)}
    for key, (_, where) in file_cfg.items():
        if key not in known:
            raise CliError(f"{where}: unknown config key {key!r}")
    return file_cfg


def _resolve(cls, preset: dict, file_cfg: dict[str, tuple[str, str]], args):
    """``cls`` from its defaults < ``preset`` < file < ``args`` attributes named like fields.

    A NaN or infinite value, alone or in a tuple, is refused naming its key.
    """
    defaults = cls()
    resolved = dict(preset)
    for f in fields(cls):
        if f.name in file_cfg:
            raw, where = file_cfg[f.name]
            what = f"{where}: config key {f.name!r}"
            resolved[f.name] = _parse_like(getattr(defaults, f.name), raw, what)
        flag = getattr(args, f.name, None)
        if flag is not None:
            resolved[f.name] = tuple(flag) if isinstance(flag, list) else flag
        value = resolved.get(f.name)
        if not all(map(_finite, value if isinstance(value, tuple) else (value,))):
            raise CliError(f"{f.name} must be finite, got {value!r}")
    return cls(**resolved)


def _finite(value) -> bool:
    return not isinstance(value, float) or math.isfinite(value)


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_like(default, raw: str, what: str):
    """``raw`` as the type of ``default``; a tuple needs exactly its length.

    ``what`` (the file, line and key) starts every error message.
    """
    if isinstance(default, tuple):
        parts = raw.replace(",", " ").split()
        if len(parts) != len(default):
            raise CliError(f"{what}: expected {len(default)} values, got {raw!r}")
        return tuple(_parse_like(d, part, what) for d, part in zip(default, parts))
    if isinstance(default, bool):
        if raw.lower() not in _BOOLS:
            raise CliError(f"{what}: expected true/false/yes/no/1/0, got {raw!r}")
        return _BOOLS[raw.lower()]
    try:
        return type(default)(raw)
    except ValueError as exc:
        raise CliError(f"{what}: cannot parse {raw!r}") from exc


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def keep_freed_memory() -> bool:
    """Make glibc malloc keep freed memory for reuse; True when it took both settings.

    By default glibc maps each block above a dynamic threshold afresh and hands
    a free heap top back to the OS, so every prediction chunk faults its
    multi-MB intermediates in again. Blocks up to 32 MiB now come from the heap,
    and up to 1 GiB of free heap top stays mapped. Both are set because setting
    either one turns off the dynamic thresholds. Without mallopt (not glibc)
    nothing changes. ``run`` calls this once per process; a library import does
    not, since a caller's process is not ours to tune.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library, or one without mallopt
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    taken = [mallopt(_M_TRIM_THRESHOLD, 1 << 30), mallopt(_M_MMAP_THRESHOLD, 32 << 20)]
    return taken == [1, 1]


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, asked of the library bundled with numpy; None if none is found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                return get()
    return None


def run_environment() -> dict:
    """What a run ran on, for ``run_manifest.json``: versions, CPUs, BLAS threads, the allocator."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "etrcast": __version__,
        "cpus": len(affinity(0)) if affinity else os.cpu_count(),
        "keeps_freed_memory": keep_freed_memory(),
    }


class RunRecord:
    """What one command read, wrote and spent, for its ``run_manifest.json``.

    ``run`` makes one record per command and writes the manifest from it once
    the command returns; a command that raises writes none. A command times
    its phases with ``with record.phase("load"): ...`` (seconds summed over
    repeats), names its inputs, and writes each text or JSON output through the
    record; a file that a library call wrote is added to ``outputs``. Phase
    seconds go to the manifest only, which is exempt from byte-reproducibility.
    """

    def __init__(self):
        self.started = time.time()
        self.inputs: dict[str, str] = {}  # path -> sha256
        self.outputs: list[str] = []
        self.phase_seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        yield
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + time.perf_counter() - start

    def write_text(self, path: str, text: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.outputs.append(path)

    def write_json(self, path: str, doc) -> None:
        self.write_text(path, canonical_json(doc) + "\n")

    def write_report(self, out_dir: str, name: str, report: EvalReport, per_revision=None) -> None:
        """Write ``<name>.json`` and ``<name>.txt``, and ``per_revision.json`` if given."""
        self.write_json(os.path.join(out_dir, f"{name}.json"), report.to_dict())
        self.write_text(os.path.join(out_dir, f"{name}.txt"), format_report(report, title=name))
        if per_revision is not None:
            rows = {str(j): row for j, row in per_revision.items()}
            self.write_json(os.path.join(out_dir, "per_revision.json"), rows)


def write_run_manifest(
    out_dir: str, command: str, config: dict, seed: int, record: RunRecord
) -> None:
    """Write ``run_manifest.json`` from ``record``; ``phase_seconds`` only if it timed one."""
    doc = {
        "format_version": 1,
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": record.inputs,
        "outputs": {path: file_sha256(path) for path in sorted(record.outputs)},
        "environment": run_environment(),
        "started": record.started,
        "finished": time.time(),
    }
    if record.phase_seconds:
        doc["phase_seconds"] = record.phase_seconds
    with open(os.path.join(out_dir, "run_manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc) + "\n")


@contextlib.contextmanager
def _naming(error: type[Exception], what: str):
    """A ``ValueError`` inside (an overflow, say) is re-raised as ``error`` naming ``what``."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{what}: {exc}") from exc


# -- subcommands ----------------------------------------------------------------


def cmd_generate(args, record: RunRecord) -> tuple[dict, int]:
    cfg = _resolve(GeneratorConfig, {}, _config_file(args, GeneratorConfig), args)
    if cfg.storms_per_class < MIN_STORMS_PER_CLASS:
        raise CliError(
            f"storms_per_class must be >= {MIN_STORMS_PER_CLASS}, got {cfg.storms_per_class}: "
            "validation and test take 2 storms of each class, so the training split would be empty"
        )
    record.outputs.extend(generate_dataset(cfg, args.out).files)
    print(f"generated dataset at {args.out} ({cfg.storms_per_class * 3} storms)")
    return cfg.to_dict(), cfg.seed


def _configs_from_args(args) -> tuple[ModelConfig, TrainConfig, LossConfig]:
    scale = SCALES[args.scale]
    file_cfg = _config_file(args, ModelConfig, TrainConfig, LossConfig)
    return (
        _resolve(ModelConfig, scale["model"], file_cfg, args),
        _resolve(TrainConfig, scale["train"], file_cfg, args),
        _resolve(LossConfig, {}, file_cfg, args),
    )


def _train_once(
    dataset: Dataset,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    loss_cfg: LossConfig,
    out_dir: str,
    record: RunRecord,
) -> tuple[TrainResult, EvalReport]:
    """Train and predict the reports, then write the checkpoint, history and reports.

    Nothing is written until both reports are predicted, so a run that fails
    leaves no checkpoint behind. Returns the test report too.
    """
    with record.phase("train"):
        result = train_model(dataset, model_cfg, train_cfg, loss_cfg)
    with record.phase("encode"):
        splits = dataset.split_tables()
        encode = lambda name: encode_events(splits[name], result.transform_state, dataset.schema)
        # validation reports the final revisions only; test also feeds the per-revision curve
        val_samples = build_final_samples(encode("validation"), model_cfg)
        test_samples = build_samples(encode("test"), model_cfg)
    with record.phase("predict"):
        magnitudes = dataset.magnitude_of()
        model_fn = lambda batch: predict(result.params, batch)
        with _naming(TrainError, "validation report"):
            val_report, _ = evaluate(model_fn, val_samples, magnitudes, loss_cfg)
        with _naming(TrainError, "test report"):
            test_report, per_revision = evaluate(model_fn, test_samples, magnitudes, loss_cfg)
    with record.phase("report"):
        os.makedirs(out_dir, exist_ok=True)
        ckpt = os.path.join(out_dir, "checkpoint.bin")
        save_checkpoint(ckpt, result.params, result.transform_state, result.fingerprint)
        record.outputs.append(ckpt)
        history = [asdict(epoch) for epoch in result.history.epochs]
        record.write_json(os.path.join(out_dir, "history.json"), history)
        record.write_report(out_dir, "eval_validation", val_report)
        record.write_report(out_dir, "eval_test", test_report, per_revision)
    return result, test_report


def cmd_train(args, record: RunRecord) -> tuple[dict, int]:
    model_cfg, train_cfg, loss_cfg = _configs_from_args(args)
    with record.phase("load"):
        dataset = load_dataset(args.dataset)
    record.inputs.update(dataset.files)

    test_waes = []
    for trial in range(args.trials):
        trial_cfg = replace(train_cfg, seed=train_cfg.seed + trial)
        trial_dir = args.out if args.trials == 1 else os.path.join(args.out, f"trial{trial}")
        result, test_report = _train_once(
            dataset, model_cfg, trial_cfg, loss_cfg, trial_dir, record
        )
        test_waes.append(test_report.overall.wae)
        print(
            f"trial {trial}: best epoch {result.best_epoch} "
            f"val WAE {result.best_val_wae:.4f} test WAE {test_waes[-1]:.4f}"
        )
    if args.trials > 1:
        record.write_json(
            os.path.join(args.out, "trials_summary.json"),
            {"test_wae_per_trial": test_waes, "test_wae_mean": float(np.mean(test_waes))},
        )
    config_doc = {"model": asdict(model_cfg), "train": asdict(train_cfg), "loss": asdict(loss_cfg)}
    return {**config_doc, "trials": args.trials, "scale": args.scale}, train_cfg.seed


def _load_for_inference(
    args, record: RunRecord
) -> tuple[Dataset, ModelParams, TransformState, EncodedTable]:
    """The dataset, the checkpoint and the encoded ``--split``; records the inputs."""
    with record.phase("load"):
        dataset = load_dataset(args.dataset)
        fingerprint = dataset_fingerprint(dataset.schema, dataset.categories)
        params, state, _ = load_checkpoint(args.checkpoint, expect_fingerprint=fingerprint)
    if params.schema != dataset.schema:
        raise CliError(f"{args.checkpoint}: trained on another feature schema than the dataset")
    events = dataset.split_tables()[args.split]
    if not len(events):
        raise CliError(f"split {args.split!r} is empty")
    with record.phase("encode"):
        encoded = encode_events(events, state, dataset.schema)
    record.inputs.update({**dataset.files, args.checkpoint: file_sha256(args.checkpoint)})
    return dataset, params, state, encoded


def cmd_eval(args, record: RunRecord) -> tuple[dict, int]:
    dataset, params, _, encoded = _load_for_inference(args, record)
    with record.phase("encode"):
        samples = build_samples(encoded, params.config)
    model_fn = lambda batch: predict(params, batch)
    # score with the loss the model was trained with
    with record.phase("predict"), _naming(CliError, args.checkpoint):
        report, per_revision = evaluate(model_fn, samples, dataset.magnitude_of(), params.loss)
    with record.phase("report"):
        os.makedirs(args.out, exist_ok=True)
        record.write_report(args.out, f"eval_{args.split}", report, per_revision)
    print(format_report(report, title=f"eval {args.split}"), end="")
    return {"split": args.split}, args.seed


def cmd_explain(args, record: RunRecord) -> tuple[dict, int]:
    dataset, params, state, target = _load_for_inference(args, record)
    with record.phase("encode"):
        train_encoded = encode_events(dataset.split_tables()["train"], state, dataset.schema)
        target_samples = build_samples(target, params.config)
        train_samples = build_samples(train_encoded, params.config)
    names = tuple(dataset.schema.categorical) + tuple(dataset.schema.continuous)
    model_fn = lambda batch: predict(params, batch)

    rng = np.random.default_rng(args.seed)
    sets = []
    for j in range(1, args.revisions + 1):
        target_rows = np.flatnonzero(target_samples.prefix_len == j)
        bg_rows = np.flatnonzero(train_samples.prefix_len == j)
        if target_rows.size == 0 or bg_rows.size == 0:
            continue
        picked = rng.choice(target_rows, size=min(args.events, target_rows.size), replace=False)
        bg_pick = rng.choice(bg_rows, size=min(args.background, bg_rows.size), replace=False)
        bg_cat, bg_cont = explain_mod.final_revision_features(train_samples.batch(bg_pick))
        for row in sorted(picked.tolist()):
            sample = target_samples.batch(np.asarray([row]))
            with record.phase("predict"), _naming(CliError, args.checkpoint):
                attributions = explain_mod.shapley_attributions(
                    model_fn,
                    sample,
                    bg_cat,
                    bg_cont,
                    n_permutations=args.permutations,
                    seed=int(args.seed * 100_000 + row),
                    feature_names=names,
                )
            sets.append(attributions)
    if not sets:
        raise CliError("no samples available for attribution")
    with record.phase("report"):
        report = explain_mod.aggregate_topk(sets, revision_range=args.revisions, k=args.topk)
        os.makedirs(args.out, exist_ok=True)
        topk_path, attr_path = (os.path.join(args.out, n) for n in ("topk.txt", "attributions.txt"))
        explain_mod.write_topk(report, topk_path)
        explain_mod.write_attributions(sets, attr_path)
        record.outputs += [topk_path, attr_path]
    print(f"wrote attributions for {len(sets)} samples to {args.out}")
    keys = ("split", "revisions", "events", "background", "permutations", "topk")
    return {key: getattr(args, key) for key in keys}, args.seed


def cmd_attention(args, record: RunRecord) -> tuple[dict, int]:
    _, params, _, encoded = _load_for_inference(args, record)
    event_id = encoded.event_ids[0] if args.event is None else args.event
    if event_id not in encoded.event_ids:
        raise CliError(f"event {args.event!r} not found in split {args.split!r}")
    event = encoded.select([encoded.event_ids.index(event_id)])
    batch = build_final_samples(event, params.config).batch(slice(0, 1))
    with record.phase("predict"), _naming(CliError, args.checkpoint):
        stack = explain_mod.extract_attention(params, batch, args.heads, args.seed)
    with record.phase("report"):
        paths = explain_mod.export_heatmap(stack, args.out)  # it makes --out
        record.outputs += paths
    print(f"wrote {len(paths)} heatmap grids to {args.out}")
    return {"event": event_id, "heads": args.heads, "split": args.split}, args.seed


# -- parser -----------------------------------------------------------------------


def int_at_least(minimum: int):
    """argparse type for an integer of at least ``minimum``: a count, a seed."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="etrcast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, dataset=True, checkpoint=False):
        if dataset:
            p.add_argument("--dataset", required=True, help="dataset directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint file")
        p.add_argument("--out", required=True, help="output directory")
        # generate and train resolve --seed and --config into their config dataclasses
        p.add_argument("--seed", type=int_at_least(0), default=0 if checkpoint else None)
        if not checkpoint:
            p.add_argument("--config", help="key=value file of config dataclass fields")

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    common(gen, dataset=False)
    gen.add_argument("--storms-per-class", type=int)
    gen.add_argument("--noise-std", type=float)
    gen.add_argument("--missing-rate", type=float)
    gen.add_argument("--events-per-storm", type=int, nargs=2, metavar=("LO", "HI"))
    gen.add_argument("--revisions-per-event", type=int, nargs=2, metavar=("LO", "HI"))
    gen.set_defaults(func=cmd_generate)

    train = sub.add_parser("train", help="train a model on a dataset")
    common(train)
    train.add_argument("--scale", choices=sorted(SCALES), default="desk")
    train.add_argument("--epochs", type=int, dest="max_epochs")
    train.add_argument("--batch-size", type=int)
    train.add_argument("--lr", type=float, dest="learning_rate")
    train.add_argument("--loss", choices=("asymmetric", "mse"))
    train.add_argument("--trials", type=int_at_least(1), default=1)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    common(ev, checkpoint=True)
    ev.add_argument("--split", default="test", choices=("train", "validation", "test"))
    ev.set_defaults(func=cmd_eval)

    ex = sub.add_parser("explain", help="Shapley attributions per revision index")
    common(ex, checkpoint=True)
    ex.add_argument("--split", default="test", choices=("train", "validation", "test"))
    ex.add_argument("--revisions", type=int_at_least(1), default=5)
    ex.add_argument("--events", type=int_at_least(1), default=10, help="samples per revision index")
    ex.add_argument("--background", type=int_at_least(1), default=64)
    ex.add_argument("--permutations", type=int_at_least(1), default=200)
    ex.add_argument("--topk", type=int_at_least(1), default=5)
    ex.set_defaults(func=cmd_explain)

    at = sub.add_parser("attention", help="export attention heatmap grids")
    common(at, checkpoint=True)
    at.add_argument("--split", default="test", choices=("train", "validation", "test"))
    at.add_argument("--event", help="event id (default: first event of the split)")
    at.add_argument("--heads", type=int_at_least(1), help="random heads per layer (default: all)")
    at.set_defaults(func=cmd_attention)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
        record = RunRecord()
        config, seed = args.func(args, record)
        write_run_manifest(args.out, args.command, config, seed, record)
        return 0
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, TrainError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
