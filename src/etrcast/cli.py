"""Command-line pipeline: generate -> train -> eval -> explain / attention.

Every subcommand takes a ``--seed``, resolves its configuration in layers
(built-in defaults, then an optional ``--config`` key=value file, then flags),
writes its outputs to a distinct ``--out`` directory, and records a
run_manifest.json with the resolved config, input/output checksums, and
timestamps. ``--threads`` is only recorded in the manifest: it sets no thread
count, and the BLAS library runs with its own default. With a fixed seed
every artifact except the manifest (which carries wall-clock timestamps by
design) is byte-reproducible on one machine.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace
from typing import Sequence

import numpy as np

from . import explain as explain_mod
from .autodiff import Tape, fd_check
from .data import TransformState
from .dataio import Dataset, canonical_json, dataset_fingerprint, file_sha256, load_dataset
from .losses import LossConfig, asymmetric_loss, piecewise_loss
from .metrics import EvalReport, csi, format_report, opr8, rmse, upr, wae
from .model import (
    ModelConfig,
    ModelParams,
    SequenceBatch,
    forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .synth import GeneratorConfig, generate_dataset
from .training import (
    PlateauState,
    TrainConfig,
    TrainError,
    build_final_samples,
    build_samples,
    encode_events,
    evaluate_model,
    evaluate_per_revision,
    plateau_scheduler,
    train_model,
)

SCALES = {
    "desk": {
        "model": {"d_model": 32, "n_layers": 2, "n_heads": 4},
        "train": {"learning_rate": 3e-3, "batch_size": 128, "max_epochs": 30},
    },
    "full": {
        "model": {"d_model": 128, "n_layers": 6, "n_heads": 16},
        "train": {"learning_rate": 1e-4, "batch_size": 1024, "max_epochs": 100},
    },
}


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


def _layered(defaults: dict, file_cfg: dict[str, str], flags: dict) -> dict:
    """defaults < config file < explicit flags; values parsed to default's type."""
    resolved = dict(defaults)
    for key, raw in file_cfg.items():
        if key not in resolved:
            raise CliError(f"unknown config key {key!r}")
        resolved[key] = _parse_like(resolved[key], raw, key)
    for key, value in flags.items():
        if value is not None:
            resolved[key] = value
    return resolved


def _parse_like(default, raw: str, key: str):
    try:
        if isinstance(default, bool):
            return raw.lower() in ("1", "true", "yes")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, (tuple, list)):
            parts = [p for p in raw.replace(",", " ").split() if p]
            elem = default[0] if default else 0
            cast = int if isinstance(elem, int) else float
            return tuple(cast(p) for p in parts)
        return raw
    except ValueError as exc:
        raise CliError(f"config key {key!r}: cannot parse {raw!r}") from exc


def write_run_manifest(
    out_dir: str,
    command: str,
    config: dict,
    seed: int,
    inputs: dict[str, str],
    outputs: Sequence[str],
    started: float,
) -> str:
    doc = {
        "format_version": 1,
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {path: file_sha256(path) for path in sorted(inputs.values())},
        "outputs": {path: file_sha256(path) for path in sorted(outputs)},
        "started": started,
        "finished": time.time(),
    }
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


def _report_paths(out_dir: str, name: str, report: EvalReport) -> list[str]:
    return [
        _write_json(os.path.join(out_dir, f"{name}.json"), report.to_dict()),
        _write_text(os.path.join(out_dir, f"{name}.txt"), format_report(report, title=name)),
    ]


# -- subcommands ----------------------------------------------------------------


def cmd_generate(args) -> int:
    started = time.time()
    file_cfg = load_config_file(args.config) if args.config else {}
    defaults = GeneratorConfig().to_dict()
    flags = {
        "seed": args.seed,
        "storms_per_class": args.storms_per_class,
        "noise_std": args.noise_std,
        "missing_rate": args.missing_rate,
        "events_per_storm": tuple(args.events_per_storm) if args.events_per_storm else None,
        "revisions_per_event": tuple(args.revisions_per_event)
        if args.revisions_per_event
        else None,
    }
    resolved = _layered(defaults, file_cfg, flags)
    cfg = GeneratorConfig.from_dict(resolved)
    os.makedirs(args.out, exist_ok=True)
    generate_dataset(cfg, args.out)
    outputs = [os.path.join(args.out, "manifest.json"), os.path.join(args.out, "events.jsonl")]
    write_run_manifest(args.out, "generate", cfg.to_dict(), cfg.seed, {}, outputs, started)
    print(f"generated dataset at {args.out} ({cfg.storms_per_class * 3} storms)")
    return 0


def _configs_from_args(args) -> tuple[ModelConfig, TrainConfig, LossConfig]:
    scale = SCALES[args.scale]
    file_cfg = load_config_file(args.config) if args.config else {}
    model_defaults = {**ModelConfig().to_dict(), **scale["model"]}
    # ffn/head widths follow the scaled d_model unless explicitly configured
    model_defaults["ffn_hidden"] = 4 * model_defaults["d_model"]
    model_defaults["head_hidden"] = model_defaults["d_model"]
    train_defaults = {**TrainConfig().to_dict(), **scale["train"]}
    loss_defaults = {"alpha": 5.0, "beta": 2.0, "tau": 8.0, "continuous_over": False}

    model_file = {k: v for k, v in file_cfg.items() if k in model_defaults}
    train_file = {k: v for k, v in file_cfg.items() if k in train_defaults}
    loss_file = {k: v for k, v in file_cfg.items() if k in loss_defaults}
    unknown = set(file_cfg) - set(model_file) - set(train_file) - set(loss_file)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")

    model_flags = {}
    train_flags = {
        "seed": args.seed,
        "learning_rate": getattr(args, "lr", None),
        "batch_size": getattr(args, "batch_size", None),
        "max_epochs": getattr(args, "epochs", None),
        "loss": getattr(args, "loss", None),
    }
    model_cfg = ModelConfig(**_layered(model_defaults, model_file, model_flags))
    train_cfg = TrainConfig(**_layered(train_defaults, train_file, train_flags))
    loss_cfg = LossConfig(**_layered(loss_defaults, loss_file, {}))
    return model_cfg, train_cfg, loss_cfg


def _train_once(
    dataset: Dataset,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    loss_cfg: LossConfig,
    out_dir: str,
) -> tuple[list[str], dict]:
    os.makedirs(out_dir, exist_ok=True)
    result = train_model(dataset, model_cfg, train_cfg, loss_cfg)
    outputs = []
    ckpt = os.path.join(out_dir, "checkpoint.bin")
    save_checkpoint(ckpt, result.params, result.transform_state, result.fingerprint)
    outputs.append(ckpt)
    outputs.append(
        _write_json(os.path.join(out_dir, "history.json"), result.history.to_doc())
    )

    splits = dataset.split_tables()
    magnitudes = dataset.magnitude_of()
    model_fn = lambda batch: predict(result.params, batch)
    summaries = {}
    for split_name in ("validation", "test"):
        encoded = encode_events(splits[split_name], result.transform_state, dataset.schema)
        report = evaluate_model(model_fn, encoded, magnitudes, model_cfg, loss_cfg)
        outputs.extend(_report_paths(out_dir, f"eval_{split_name}", report))
        summaries[split_name] = report.to_dict()
    per_rev = evaluate_per_revision(model_fn, encoded, model_cfg, loss_cfg)  # the test split
    outputs.append(
        _write_json(
            os.path.join(out_dir, "per_revision.json"),
            {str(j): row for j, row in per_rev.items()},
        )
    )
    summaries["best_epoch"] = result.best_epoch
    summaries["best_val_wae"] = result.best_val_wae
    return outputs, summaries


def cmd_train(args) -> int:
    started = time.time()
    dataset = load_dataset(args.dataset)
    model_cfg, train_cfg, loss_cfg = _configs_from_args(args)
    os.makedirs(args.out, exist_ok=True)

    all_outputs: list[str] = []
    test_waes = []
    for trial in range(args.trials):
        trial_cfg = replace(train_cfg, seed=train_cfg.seed + trial)
        trial_dir = args.out if args.trials == 1 else os.path.join(args.out, f"trial{trial}")
        outputs, summary = _train_once(dataset, model_cfg, trial_cfg, loss_cfg, trial_dir)
        all_outputs.extend(outputs)
        test_waes.append(summary["test"]["overall"]["wae"])
        print(
            f"trial {trial}: best epoch {summary['best_epoch']} "
            f"val WAE {summary['best_val_wae']:.4f} test WAE {test_waes[-1]:.4f}"
        )
    if args.trials > 1:
        all_outputs.append(
            _write_json(
                os.path.join(args.out, "trials_summary.json"),
                {"test_wae_per_trial": test_waes, "test_wae_mean": float(np.mean(test_waes))},
            )
        )
    config_doc = {
        "model": model_cfg.to_dict(),
        "train": train_cfg.to_dict(),
        "loss": asdict(loss_cfg),
        "trials": args.trials,
        "threads": args.threads,
        "scale": args.scale,
    }
    inputs = {"dataset": os.path.join(args.dataset, "manifest.json")}
    write_run_manifest(args.out, "train", config_doc, train_cfg.seed, inputs, all_outputs, started)
    return 0


def _load_for_inference(args) -> tuple[Dataset, ModelParams, TransformState]:
    dataset = load_dataset(args.dataset)
    fingerprint = dataset_fingerprint(dataset.schema, dataset.categories)
    params, state, _ = load_checkpoint(args.checkpoint, expect_fingerprint=fingerprint)
    if state is None:
        raise CliError(f"checkpoint {args.checkpoint} carries no transform state")
    return dataset, params, state


def cmd_eval(args) -> int:
    started = time.time()
    dataset, params, state = _load_for_inference(args)
    events = dataset.split_tables()[args.split]
    if not len(events):
        raise CliError(f"split {args.split!r} is empty")
    encoded = encode_events(events, state, dataset.schema)
    loss_cfg = params.loss  # score with the loss the model was trained with
    model_fn = lambda batch: predict(params, batch)
    report = evaluate_model(model_fn, encoded, dataset.magnitude_of(), params.config, loss_cfg)
    os.makedirs(args.out, exist_ok=True)
    outputs = _report_paths(args.out, f"eval_{args.split}", report)
    per_rev = evaluate_per_revision(model_fn, encoded, params.config, loss_cfg)
    outputs.append(
        _write_json(
            os.path.join(args.out, "per_revision.json"),
            {str(j): row for j, row in per_rev.items()},
        )
    )
    inputs = {
        "dataset": os.path.join(args.dataset, "manifest.json"),
        "checkpoint": args.checkpoint,
    }
    write_run_manifest(
        args.out, "eval", {"split": args.split}, args.seed, inputs, outputs, started
    )
    print(format_report(report, title=f"eval {args.split}"), end="")
    return 0


def cmd_explain(args) -> int:
    started = time.time()
    dataset, params, state = _load_for_inference(args)
    splits = dataset.split_tables()
    target = encode_events(splits[args.split], state, dataset.schema)
    train_encoded = encode_events(splits["train"], state, dataset.schema)
    if not len(target):
        raise CliError(f"split {args.split!r} is empty")

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
            sets.append(
                explain_mod.shapley_attributions(
                    model_fn,
                    sample,
                    bg_cat,
                    bg_cont,
                    n_permutations=args.permutations,
                    seed=int(args.seed * 100_000 + row),
                    feature_names=names,
                )
            )
    if not sets:
        raise CliError("no samples available for attribution")
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
    inputs = {
        "dataset": os.path.join(args.dataset, "manifest.json"),
        "checkpoint": args.checkpoint,
    }
    write_run_manifest(
        args.out, "explain", config_doc, args.seed, inputs, [topk_path, attr_path], started
    )
    print(f"wrote attributions for {len(sets)} samples to {args.out}")
    return 0


def cmd_attention(args) -> int:
    started = time.time()
    dataset, params, state = _load_for_inference(args)
    events = dataset.split_tables()[args.split]
    if not len(events):
        raise CliError(f"split {args.split!r} is empty")
    event_id = events.event_ids[0] if args.event is None else args.event
    if event_id not in events.event_ids:
        raise CliError(f"event {args.event!r} not found in split {args.split!r}")
    event = events.select([events.event_ids.index(event_id)])
    encoded = encode_events(event, state, dataset.schema)
    batch = build_final_samples(encoded, params.config).batch(slice(0, 1))
    stack = explain_mod.extract_attention(
        params, batch, n_random_heads=args.heads, seed=args.seed
    )
    os.makedirs(args.out, exist_ok=True)
    paths = explain_mod.export_heatmap(stack, args.out)
    config_doc = {"event": event_id, "heads": args.heads, "split": args.split}
    inputs = {
        "dataset": os.path.join(args.dataset, "manifest.json"),
        "checkpoint": args.checkpoint,
    }
    write_run_manifest(args.out, "attention", config_doc, args.seed, inputs, paths, started)
    print(f"wrote {len(paths)} heatmap grids to {args.out}")
    return 0


def cmd_selfcheck(args) -> int:
    """Quick internal property suites: gradients, metrics, masking, scheduler."""
    from .data import FeatureSchema

    checks = 0

    def ok(name: str) -> None:
        nonlocal checks
        checks += 1
        print(f"ok: {name}")

    def require(condition, what: str) -> None:
        # not assert: the checks must also run under python -O
        if not condition:
            raise CliError(f"selfcheck failed: {what}")

    # loss branches
    cfg = LossConfig()
    require(piecewise_loss(-2.0, cfg) == 10.0, "piecewise_loss(-2) == 10")
    require(piecewise_loss(4.0, cfg) == 4.0, "piecewise_loss(4) == 4")
    require(piecewise_loss(10.0, cfg) == 20.0, "piecewise_loss(10) == 20")
    ok("loss branch values")

    # metric equivalence on a small random draw
    rng = np.random.default_rng(args.seed)
    preds = rng.uniform(0, 40, size=200)
    actuals = rng.uniform(0, 40, size=200)
    loop_upr = sum(1 for a, b in zip(preds, actuals) if a < b) / 200
    require(abs(upr(preds, actuals) - loop_upr) < 1e-15, "upr matches the loop oracle")
    loop_wae = sum(piecewise_loss(float(e), cfg) for e in preds - actuals) / 200
    require(abs(wae(preds, actuals, cfg) - loop_wae) < 1e-12, "wae matches the loop oracle")
    loop_rmse = np.sqrt(np.mean((preds - actuals) ** 2))
    require(abs(rmse(preds, actuals) - loop_rmse) < 1e-12, "rmse matches the oracle")
    require(csi(0.0, 0.0, cfg) == 1.0, "csi(0, 0) == 1")
    require(opr8(np.array([16.0]), np.array([8.0])) == 0.0, "opr8 of an 8 h overshoot == 0")
    ok("metric oracle equivalence")

    # scheduler trace
    tc = TrainConfig(plateau_patience=3)
    st = PlateauState(lr=1.0)
    st = plateau_scheduler(5.0, st, tc)
    for _ in range(2 * tc.plateau_patience):
        st = plateau_scheduler(5.0, st, tc)
    require(st.lr == tc.plateau_factor * tc.plateau_factor, "lr reduced twice on a plateau")
    ok("plateau scheduler trace")

    # micro model: gradient check and masking invariance
    schema = FeatureSchema(
        (("kind", "categorical"), ("level", "continuous")), {"kind": 3}
    )
    mcfg = ModelConfig(max_seq_len=5, d_model=8, n_layers=2, n_heads=2)
    params = init_params(mcfg, schema, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    batch = SequenceBatch(
        cat_idx=rng.integers(0, 3, size=(3, 5, 1)),
        cont=rng.normal(size=(3, 5, 1)),
        deltas=np.sort(rng.uniform(0, 9, size=(3, 5)), axis=1),
        mask=np.asarray([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0]], dtype=bool),
    )
    batch = SequenceBatch(
        batch.cat_idx, batch.cont, batch.deltas - batch.deltas[:, :1], batch.mask
    )
    targets = rng.uniform(5, 30, size=3)

    def objective(tensors):
        work = ModelParams(mcfg, schema, dict(tensors))
        tape = Tape()
        preds = forward(tape, work, batch, as_params=True)
        loss = tape.scalar_op(preds, lambda p: asymmetric_loss(p, targets, cfg))
        return float(loss.data), tape.gradients(loss)

    err = fd_check(objective, params.tensors, h=1e-5, max_coords=60, seed=args.seed)
    require(err < 1e-4, f"gradient check (max rel err {err:.2e} >= 1e-4)")
    ok(f"end-to-end gradient check (max rel err {err:.2e})")

    base = predict(params, batch)
    garbage = SequenceBatch(
        cat_idx=np.where(batch.mask[:, :, None], batch.cat_idx, 99_999),
        cont=np.where(batch.mask[:, :, None], batch.cont, 1e300),
        deltas=np.where(batch.mask, batch.deltas, -1e300),
        mask=batch.mask,
    )
    require(np.array_equal(predict(params, garbage), base), "padding garbage invariance")
    ok("padding garbage invariance (bit identical)")

    print(f"selfcheck passed ({checks} checks)")
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="etrcast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, dataset=True, checkpoint=False):
        if dataset:
            p.add_argument("--dataset", required=True, help="dataset directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--threads", type=int, default=1, help="recorded only; sets no thread count")

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
    train.add_argument("--epochs", type=int)
    train.add_argument("--batch-size", type=int)
    train.add_argument("--lr", type=float)
    train.add_argument("--loss", choices=("asymmetric", "mse"))
    train.add_argument("--trials", type=int, default=1)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    common(ev, checkpoint=True)
    ev.add_argument("--split", default="test", choices=("train", "validation", "test"))
    ev.set_defaults(func=cmd_eval)

    ex = sub.add_parser("explain", help="Shapley attributions per revision index")
    common(ex, checkpoint=True)
    ex.add_argument("--split", default="test", choices=("train", "validation", "test"))
    ex.add_argument("--revisions", type=int, default=5)
    ex.add_argument("--events", type=int, default=10, help="samples per revision index")
    ex.add_argument("--background", type=int, default=64)
    ex.add_argument("--permutations", type=int, default=200)
    ex.add_argument("--topk", type=int, default=5)
    ex.set_defaults(func=cmd_explain)

    at = sub.add_parser("attention", help="export attention heatmap grids")
    common(at, checkpoint=True)
    at.add_argument("--split", default="test", choices=("train", "validation", "test"))
    at.add_argument("--event", help="event id (default: first event of the split)")
    at.add_argument("--heads", type=int, help="random heads per layer (default: all)")
    at.set_defaults(func=cmd_attention)

    sc = sub.add_parser("selfcheck", help="run quick internal property checks")
    sc.add_argument("--seed", type=int, default=0)
    sc.set_defaults(func=cmd_selfcheck)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
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
