"""The three benchmark workloads: set-up, the command they repeat, and checks.

Every workload drives the ``etrcast`` CLI in process through
``etrcast.cli.run``, one command after another (a closed loop with one
caller). Inputs come only from the workload seed: the dataset generator seed,
the fixture checkpoint's initialisation seed and the command's ``--seed``.
Every dataset has 88 events per storm (``EQUAL_STORMS``).

- ``train_desk``: ``etrcast train --scale desk`` for one epoch on a dataset
  from the default generator settings (4-9 revisions per event, about 20% of
  token slots valid). The longest command users run, and the only one that
  runs backward, Adam and the loss, on random-length batches of 128.
- ``eval_long``: ``etrcast eval --split test`` on a dataset with 12-20
  revisions per event, with a seeded untrained fixture checkpoint. Large
  ``[512,4,20,20]`` attention arrays, so BLAS and the kernels dominate and
  padding is small.
- ``explain_short``: ``etrcast explain`` at 200 permutations over revisions
  1-5 on the default dataset, with a fixture checkpoint. Many ``predict``
  calls of 12 rows on short prefixes padded to 20, so per-call overhead and
  padding dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

# Every storm holds 88 events (2,112 in all, the default seed-0 dataset has
# 2,117), so the split sizes, and with them a command's work, do not change
# with the seed; the seed still draws every revision, feature and target.
EQUAL_STORMS = ("--events-per-storm", "88", "88")
SHAPLEY_RESIDUAL_H = 1e-9
# After one epoch the best validation WAE is 0.45-0.54 of the constant
# predictor's on seeds 1-3; a model that has not learned sits near 1.
VAL_WAE_CEILING = 0.75
MANIFEST = "run_manifest.json"
NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one ``etrcast`` command in process; returns (exit code, its output)."""
    from etrcast import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.run(argv)
        except Exception:  # an error the CLI let escape counts as a failed command
            traceback.print_exc()
            code = -1
    return code, buf.getvalue()


@dataclass
class Inputs:
    """What set-up made, plus the facts about it that the checks compare against."""

    dataset: str
    checkpoint: str | None
    seed: int
    size: dict[str, int]
    facts: dict[str, float] = field(default_factory=dict)
    probe: tuple = ()  # (schema, fingerprint, a few validation events) for reloading


@dataclass(frozen=True)
class Workload:
    name: str
    items_metric: str  # what items_per_s measures on this workload
    generate_flags: tuple[str, ...]
    size: dict[str, int]  # command sizes: epochs, or samples per revision and revisions
    fixture: bool
    argv: Callable[[Inputs, str], list[str]]
    items: Callable[[Inputs], int]  # work items one command completes
    check: Callable[[Inputs, str, list], list[str]]


# -- set-up ----------------------------------------------------------------


def _fixture_checkpoint(dataset_dir: str, path: str, seed: int) -> None:
    """Seeded ``init_params`` desk model, head bias at the training target mean."""
    from etrcast import cli, data, dataio, model

    dataset = dataio.load_dataset(dataset_dir)
    train = dataset.split_events()["train"]
    state = data.fit_transforms(train, dataset.schema)
    desk = cli.SCALES["desk"]["model"]
    config = model.ModelConfig(**desk, ffn_hidden=4 * desk["d_model"], head_hidden=desk["d_model"])
    weights = [min(len(e.revisions), config.max_seq_len) for e in train]
    mean = float(np.average([e.target_duration for e in train], weights=weights))
    config = replace(config, head_bias_init=mean)
    params = model.init_params(config, dataset.schema, seed=seed)
    fingerprint = dataio.dataset_fingerprint(dataset.schema, dataset.categories)
    model.save_checkpoint(path, params, state, fingerprint)


def set_up(workload: Workload, work_dir: str, seed: int) -> Inputs:
    """Generate the dataset (and the fixture checkpoint) under ``work_dir``."""
    dataset = os.path.join(work_dir, "data")
    code, output = run_cli(
        ["generate", "--out", dataset, "--seed", str(seed), *workload.generate_flags]
    )
    if code != 0:
        raise RuntimeError(f"etrcast generate exited {code}:\n{output}")
    checkpoint = None
    if workload.fixture:
        checkpoint = os.path.join(work_dir, "fixture.bin")
        _fixture_checkpoint(dataset, checkpoint, seed)
    return Inputs(dataset, checkpoint, seed, workload.size)


def inspect_inputs(inputs: Inputs) -> None:
    """Load the dataset once and keep what the checks need, not the dataset."""
    from etrcast import dataio, metrics
    from etrcast.model import ModelConfig

    dataset = dataio.load_dataset(inputs.dataset)
    splits = dataset.split_events()
    max_seq_len = ModelConfig().max_seq_len
    facts = inputs.facts
    targets = {}
    for split, events in splits.items():
        lengths = [min(len(e.revisions), max_seq_len) for e in events]
        facts[f"{split}.events"] = len(events)
        facts[f"{split}.prefixes"] = sum(lengths)
        for j in range(1, max_seq_len + 1):
            facts[f"{split}.len_ge_{j}"] = sum(1 for m in lengths if m >= j)
        targets[split] = np.repeat([e.target_duration for e in events], lengths)
    # validation WAE of predicting the mean target of the training prefixes
    constant = np.full(targets["validation"].size, targets["train"].mean())
    facts["constant_val_wae"] = metrics.wae(constant, targets["validation"])
    fingerprint = dataio.dataset_fingerprint(dataset.schema, dataset.categories)
    inputs.probe = (dataset.schema, fingerprint, splits["validation"][:16])


# -- running and checking ----------------------------------------------------


@dataclass
class CommandRun:
    out_dir: str
    code: int
    output: str
    seconds: float
    captured: list  # AttributionSets returned during the command, if captured


def run_command(workload: Workload, inputs: Inputs, out_dir: str, captured: list) -> CommandRun:
    captured.clear()
    argv = workload.argv(inputs, out_dir)
    start = time.perf_counter()
    code, output = run_cli(argv)
    seconds = time.perf_counter() - start
    return CommandRun(out_dir, code, output, seconds, list(captured))


def artifact_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every artifact except the manifest, which carries timestamps."""
    digests = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            if rel != MANIFEST:
                with open(path, "rb") as fh:
                    digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _nonfinite(doc) -> bool:
    if isinstance(doc, dict):
        return any(_nonfinite(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_nonfinite(v) for v in doc)
    return isinstance(doc, float) and not math.isfinite(doc)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- train_desk --------------------------------------------------------------


def _train_argv(inputs: Inputs, out: str) -> list[str]:
    return [
        "train", "--dataset", inputs.dataset, "--out", out, "--seed", str(inputs.seed),
        "--scale", "desk", "--epochs", str(inputs.size["epochs"]),
    ]  # fmt: skip


def val_wae(out: str) -> float:
    """Best validation WAE of a train command's history, in hours."""
    return min(row["val_wae"] for row in _load_json(os.path.join(out, "history.json")))


def _train_check(inputs: Inputs, out: str, captured: list) -> list[str]:
    from etrcast import model, training

    problems = []
    history = _load_json(os.path.join(out, "history.json"))
    if len(history) != inputs.size["epochs"] or _nonfinite(history):
        problems.append(f"history.json: {len(history)} epochs, finite={not _nonfinite(history)}")
        return problems
    best, constant = val_wae(out), inputs.facts["constant_val_wae"]
    if not best <= VAL_WAE_CEILING * constant:
        problems.append(f"training did not learn: val WAE {best} h, constant predictor {constant} h")
    schema, fingerprint, events = inputs.probe
    params, state, _ = model.load_checkpoint(
        os.path.join(out, "checkpoint.bin"), expect_fingerprint=fingerprint
    )
    samples = training.build_final_samples(
        training.encode_events(events, state, schema), params.config
    )
    if not np.all(np.isfinite(model.predict(params, samples.batch(slice(None))))):
        problems.append("reloaded checkpoint predicts non-finite values")
    return problems


# -- eval_long ---------------------------------------------------------------


def _eval_argv(inputs: Inputs, out: str) -> list[str]:
    return [
        "eval", "--dataset", inputs.dataset, "--checkpoint", inputs.checkpoint, "--out", out,
        "--seed", str(inputs.seed), "--split", "test",
    ]  # fmt: skip


def _eval_check(inputs: Inputs, out: str, captured: list) -> list[str]:
    problems = []
    report = _load_json(os.path.join(out, "eval_test.json"))
    per_rev = _load_json(os.path.join(out, "per_revision.json"))
    events, prefixes = inputs.facts["test.events"], inputs.facts["test.prefixes"]
    strata = sum(row["count"] for row in report["strata"].values())
    if report["overall"]["count"] != events or strata != events:
        problems.append(f"eval counts {report['overall']['count']}/{strata} != {events} events")
    if sum(row["count"] for row in per_rev.values()) != prefixes:
        problems.append(f"per_revision counts do not sum to {prefixes} prefixes")
    if _nonfinite(report) or _nonfinite(per_rev):
        problems.append("non-finite metric in the eval report")
    return problems


# -- explain_short -----------------------------------------------------------


def _explain_argv(inputs: Inputs, out: str) -> list[str]:
    return [
        "explain", "--dataset", inputs.dataset, "--checkpoint", inputs.checkpoint, "--out", out,
        "--seed", str(inputs.seed), "--events", str(inputs.size["events"]),
        "--revisions", str(inputs.size["revisions"]),
        "--permutations", str(inputs.size["permutations"]),
    ]  # fmt: skip


def _explain_items(inputs: Inputs) -> int:
    facts, size = inputs.facts, inputs.size
    return sum(
        min(size["events"], facts[f"test.len_ge_{j}"])
        for j in range(1, size["revisions"] + 1)
        if facts[f"train.len_ge_{j}"] > 0
    )


def _explain_check(inputs: Inputs, out: str, captured: list) -> list[str]:
    problems = []
    if len(captured) != _explain_items(inputs):
        problems.append(f"{len(captured)} attribution sets, expected {_explain_items(inputs)}")
    for a in captured:
        if not (np.all(np.isfinite(a.values)) and np.all(np.isfinite(a.std_errors))):
            problems.append(f"non-finite attribution at revision {a.revision_index}")
        if not abs(a.efficiency_residual()) <= SHAPLEY_RESIDUAL_H:
            problems.append(f"efficiency residual {a.efficiency_residual():.3e} h")
    with open(os.path.join(out, "attributions.txt"), encoding="utf-8") as fh:
        rows = [line.split() for line in fh if not line.startswith("#")]
    # under numpy 2 the file holds reprs such as np.float64(0.25)
    numbers = [float(NUMPY_REPR.sub(r"\1", x)) for row in rows for x in row[2:]]
    if not all(math.isfinite(x) for x in numbers):
        problems.append("non-finite value in attributions.txt")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_desk",
            items_metric="train.samples_per_s",
            generate_flags=EQUAL_STORMS,
            size={"epochs": 1},
            fixture=False,
            argv=_train_argv,
            items=lambda i: i.facts["train.prefixes"] * i.size["epochs"],
            check=_train_check,
        ),
        Workload(
            name="eval_long",
            items_metric="eval.preds_per_s",
            generate_flags=EQUAL_STORMS + ("--revisions-per-event", "12", "20"),
            size={},
            fixture=True,
            argv=_eval_argv,
            items=lambda i: i.facts["test.events"] + i.facts["test.prefixes"],
            check=_eval_check,
        ),
        Workload(
            name="explain_short",
            items_metric="explain.samples_per_s",
            generate_flags=EQUAL_STORMS,
            size={"events": 1, "revisions": 5, "permutations": 200},
            fixture=True,
            argv=_explain_argv,
            items=_explain_items,
            check=_explain_check,
        ),
    )
}
