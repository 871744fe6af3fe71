"""Command-line pipeline: generate -> train -> eval -> explain / attention.

Every pipeline subcommand takes a ``--seed``, writes its outputs to a
distinct ``--out`` directory, and records a run_manifest.json with the
resolved config, input/output checksums, and timestamps. ``generate`` and
``train`` resolve their config dataclasses in layers: the field defaults
(and ``train``'s ``--scale`` preset), then an optional ``--config``
key=value file of dataclass fields, then flags named like the fields.
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
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, fields, replace
from typing import Mapping, Sequence

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


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise CliError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
                key, value = stripped.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return out


def _config_file(args, *classes) -> dict[str, str]:
    """The ``--config`` entries; each key must be a field of one of ``classes``."""
    file_cfg = load_config_file(args.config) if args.config else {}
    known = {f.name for cls in classes for f in fields(cls)}
    unknown = sorted(set(file_cfg) - known)
    if unknown:
        raise CliError(f"unknown config keys: {unknown}")
    return file_cfg


def _resolve(cls, preset: dict, file_cfg: dict[str, str], args):
    """``cls`` from its defaults < ``preset`` < file < ``args`` attributes named like fields.

    A NaN or infinite value, alone or in a tuple, is refused naming its key.
    """
    defaults = cls()
    resolved = dict(preset)
    for f in fields(cls):
        if f.name in file_cfg:
            resolved[f.name] = _parse_like(getattr(defaults, f.name), file_cfg[f.name], f.name)
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


def _parse_like(default, raw: str, key: str):
    """``raw`` as the type of ``default``; a tuple needs exactly its length."""
    if isinstance(default, tuple):
        parts = raw.replace(",", " ").split()
        if len(parts) != len(default):
            raise CliError(f"config key {key!r}: expected {len(default)} values, got {raw!r}")
        return tuple(_parse_like(d, part, key) for d, part in zip(default, parts))
    if isinstance(default, bool):
        if raw.lower() not in _BOOLS:
            raise CliError(f"config key {key!r}: expected true/false/yes/no/1/0, got {raw!r}")
        return _BOOLS[raw.lower()]
    try:
        return type(default)(raw)
    except ValueError as exc:
        raise CliError(f"config key {key!r}: cannot parse {raw!r}") from exc


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


def run_environment() -> dict:
    """What a run ran on, for ``run_manifest.json``: versions, CPUs and the allocator."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "etrcast": __version__,
        "cpus": len(affinity(0)) if affinity else os.cpu_count(),
        "keeps_freed_memory": keep_freed_memory(),
    }


class Phases:
    """Wall-clock seconds per named phase of a command, summed over its repeats.

    ``with phases("load"): ...`` times one stretch. The figures go to
    ``run_manifest.json`` only, which is exempt from byte-reproducibility.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        yield
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start


def write_run_manifest(
    out_dir: str,
    command: str,
    config: dict,
    seed: int,
    inputs: Mapping[str, str],
    outputs: Sequence[str],
    started: float,
    phases: Phases | None = None,
) -> str:
    """Write ``run_manifest.json``; ``inputs`` maps each input path to its sha256."""
    doc = {
        "format_version": 1,
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": dict(inputs),
        "outputs": {path: file_sha256(path) for path in sorted(outputs)},
        "environment": run_environment(),
        "started": started,
        "finished": time.time(),
    }
    if phases is not None:
        doc["phase_seconds"] = dict(phases.seconds)
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
        fh.write("\n")
    return path


def _write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_json(path: str, doc) -> str:
    return _write_text(path, canonical_json(doc) + "\n")


def _report_paths(
    out_dir: str, name: str, report: EvalReport, per_revision: dict | None = None
) -> list[str]:
    """Write ``<name>.json`` and ``<name>.txt``, and ``per_revision.json`` if given."""
    paths = [
        _write_json(os.path.join(out_dir, f"{name}.json"), report.to_dict()),
        _write_text(os.path.join(out_dir, f"{name}.txt"), format_report(report, title=name)),
    ]
    if per_revision is not None:
        rows = {str(j): row for j, row in per_revision.items()}
        paths.append(_write_json(os.path.join(out_dir, "per_revision.json"), rows))
    return paths


@contextlib.contextmanager
def _naming(error: type[Exception], what: str):
    """A ``ValueError`` inside (an overflow, say) is re-raised as ``error`` naming ``what``."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{what}: {exc}") from exc


# -- subcommands ----------------------------------------------------------------


def cmd_generate(args) -> int:
    started = time.time()
    cfg = _resolve(GeneratorConfig, {}, _config_file(args, GeneratorConfig), args)
    if cfg.storms_per_class < MIN_STORMS_PER_CLASS:
        raise CliError(
            f"storms_per_class must be >= {MIN_STORMS_PER_CLASS}, got {cfg.storms_per_class}: "
            "validation and test take 2 storms of each class, so the training split would be empty"
        )
    os.makedirs(args.out, exist_ok=True)
    outputs = list(generate_dataset(cfg, args.out).files)
    write_run_manifest(args.out, "generate", cfg.to_dict(), cfg.seed, {}, outputs, started)
    print(f"generated dataset at {args.out} ({cfg.storms_per_class * 3} storms)")
    return 0


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
    phases: Phases,
) -> tuple[list[str], TrainResult, EvalReport]:
    """Train and predict the reports, then write the checkpoint, history and reports.

    Nothing is written until both reports are predicted, so a run that fails
    leaves no checkpoint behind. Returns the test report too.
    """
    with phases("train"):
        result = train_model(dataset, model_cfg, train_cfg, loss_cfg)
    with phases("encode"):
        splits = dataset.split_tables()
        encode = lambda name: encode_events(splits[name], result.transform_state, dataset.schema)
        # validation reports the final revisions only; test also feeds the per-revision curve
        val_samples = build_final_samples(encode("validation"), model_cfg)
        test_samples = build_samples(encode("test"), model_cfg)
    with phases("predict"):
        magnitudes = dataset.magnitude_of()
        model_fn = lambda batch: predict(result.params, batch)
        with _naming(TrainError, "validation report"):
            val_report, _ = evaluate(model_fn, val_samples, magnitudes, loss_cfg)
        with _naming(TrainError, "test report"):
            test_report, per_revision = evaluate(model_fn, test_samples, magnitudes, loss_cfg)
    with phases("report"):
        os.makedirs(out_dir, exist_ok=True)
        ckpt = os.path.join(out_dir, "checkpoint.bin")
        save_checkpoint(ckpt, result.params, result.transform_state, result.fingerprint)
        history = result.history.to_doc()
        outputs = [ckpt, _write_json(os.path.join(out_dir, "history.json"), history)]
        outputs += _report_paths(out_dir, "eval_validation", val_report)
        outputs += _report_paths(out_dir, "eval_test", test_report, per_revision)
    return outputs, result, test_report


def cmd_train(args) -> int:
    started = time.time()
    model_cfg, train_cfg, loss_cfg = _configs_from_args(args)
    phases = Phases()
    with phases("load"):
        dataset = load_dataset(args.dataset)
    os.makedirs(args.out, exist_ok=True)

    all_outputs: list[str] = []
    test_waes = []
    for trial in range(args.trials):
        trial_cfg = replace(train_cfg, seed=train_cfg.seed + trial)
        trial_dir = args.out if args.trials == 1 else os.path.join(args.out, f"trial{trial}")
        outputs, result, test_report = _train_once(
            dataset, model_cfg, trial_cfg, loss_cfg, trial_dir, phases
        )
        all_outputs.extend(outputs)
        test_waes.append(test_report.overall.wae)
        print(
            f"trial {trial}: best epoch {result.best_epoch} "
            f"val WAE {result.best_val_wae:.4f} test WAE {test_waes[-1]:.4f}"
        )
    if args.trials > 1:
        all_outputs.append(
            _write_json(
                os.path.join(args.out, "trials_summary.json"),
                {"test_wae_per_trial": test_waes, "test_wae_mean": float(np.mean(test_waes))},
            )
        )
    config_doc = {
        "model": asdict(model_cfg),
        "train": asdict(train_cfg),
        "loss": asdict(loss_cfg),
        "trials": args.trials,
        "scale": args.scale,
    }
    write_run_manifest(
        args.out, "train", config_doc, train_cfg.seed, dataset.files, all_outputs, started, phases
    )
    return 0


def _load_for_inference(
    args, phases: Phases
) -> tuple[Dataset, ModelParams, TransformState, EncodedTable, dict[str, str]]:
    """The dataset, the checkpoint, the encoded ``--split`` and the manifest inputs."""
    with phases("load"):
        dataset = load_dataset(args.dataset)
        fingerprint = dataset_fingerprint(dataset.schema, dataset.categories)
        params, state, _ = load_checkpoint(args.checkpoint, expect_fingerprint=fingerprint)
    if state is None:
        raise CliError(f"checkpoint {args.checkpoint} carries no transform state")
    if params.schema != dataset.schema:
        raise CliError(f"{args.checkpoint}: trained on another feature schema than the dataset")
    events = dataset.split_tables()[args.split]
    if not len(events):
        raise CliError(f"split {args.split!r} is empty")
    with phases("encode"):
        encoded = encode_events(events, state, dataset.schema)
    inputs = {**dataset.files, args.checkpoint: file_sha256(args.checkpoint)}
    return dataset, params, state, encoded, inputs


def cmd_eval(args) -> int:
    started = time.time()
    phases = Phases()
    dataset, params, _, encoded, inputs = _load_for_inference(args, phases)
    with phases("encode"):
        samples = build_samples(encoded, params.config)
    model_fn = lambda batch: predict(params, batch)
    # score with the loss the model was trained with
    with phases("predict"), _naming(CliError, args.checkpoint):
        report, per_revision = evaluate(model_fn, samples, dataset.magnitude_of(), params.loss)
    with phases("report"):
        os.makedirs(args.out, exist_ok=True)
        outputs = _report_paths(args.out, f"eval_{args.split}", report, per_revision)
    write_run_manifest(
        args.out, "eval", {"split": args.split}, args.seed, inputs, outputs, started, phases
    )
    print(format_report(report, title=f"eval {args.split}"), end="")
    return 0


def cmd_explain(args) -> int:
    started = time.time()
    phases = Phases()
    dataset, params, state, target, inputs = _load_for_inference(args, phases)
    with phases("encode"):
        train_encoded = encode_events(dataset.split_tables()["train"], state, dataset.schema)
        target_samples = build_samples(target, params.config)
        train_samples = build_samples(train_encoded, params.config)
    schema = dataset.schema
    names = tuple(schema.categorical) + tuple(schema.continuous)
    model_fn = lambda batch: predict(params, batch)

    os.makedirs(args.out, exist_ok=True)
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
            with phases("predict"), _naming(CliError, args.checkpoint):
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
    with phases("report"):
        report = explain_mod.aggregate_topk(sets, revision_range=args.revisions, k=args.topk)
        topk_path = os.path.join(args.out, "topk.txt")
        explain_mod.write_topk(report, topk_path)
        attr_path = os.path.join(args.out, "attributions.txt")
        explain_mod.write_attributions(sets, attr_path)
    config_doc = {
        "split": args.split,
        "revisions": args.revisions,
        "events": args.events,
        "background": args.background,
        "permutations": args.permutations,
        "topk": args.topk,
    }
    outputs = [topk_path, attr_path]
    write_run_manifest(args.out, "explain", config_doc, args.seed, inputs, outputs, started, phases)
    print(f"wrote attributions for {len(sets)} samples to {args.out}")
    return 0


def cmd_attention(args) -> int:
    started = time.time()
    phases = Phases()
    _, params, _, encoded, inputs = _load_for_inference(args, phases)
    event_id = encoded.event_ids[0] if args.event is None else args.event
    if event_id not in encoded.event_ids:
        raise CliError(f"event {args.event!r} not found in split {args.split!r}")
    event = encoded.select([encoded.event_ids.index(event_id)])
    batch = build_final_samples(event, params.config).batch(slice(0, 1))
    with phases("predict"), _naming(CliError, args.checkpoint):
        stack = explain_mod.extract_attention(
            params, batch, n_random_heads=args.heads, seed=args.seed
        )
    with phases("report"):
        os.makedirs(args.out, exist_ok=True)
        paths = explain_mod.export_heatmap(stack, args.out)
    config_doc = {"event": event_id, "heads": args.heads, "split": args.split}
    write_run_manifest(args.out, "attention", config_doc, args.seed, inputs, paths, started, phases)
    print(f"wrote {len(paths)} heatmap grids to {args.out}")
    return 0


# -- parser -----------------------------------------------------------------------


def positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
        p.add_argument("--seed", type=int, default=0 if checkpoint else None)
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
    train.add_argument("--trials", type=positive_int, default=1)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    common(ev, checkpoint=True)
    ev.add_argument("--split", default="test", choices=("train", "validation", "test"))
    ev.set_defaults(func=cmd_eval)

    ex = sub.add_parser("explain", help="Shapley attributions per revision index")
    common(ex, checkpoint=True)
    ex.add_argument("--split", default="test", choices=("train", "validation", "test"))
    ex.add_argument("--revisions", type=positive_int, default=5)
    ex.add_argument("--events", type=positive_int, default=10, help="samples per revision index")
    ex.add_argument("--background", type=positive_int, default=64)
    ex.add_argument("--permutations", type=positive_int, default=200)
    ex.add_argument("--topk", type=positive_int, default=5)
    ex.set_defaults(func=cmd_explain)

    at = sub.add_parser("attention", help="export attention heatmap grids")
    common(at, checkpoint=True)
    at.add_argument("--split", default="test", choices=("train", "validation", "test"))
    at.add_argument("--event", help="event id (default: first event of the split)")
    at.add_argument("--heads", type=positive_int, help="random heads per layer (default: all)")
    at.set_defaults(func=cmd_attention)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, TrainError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
