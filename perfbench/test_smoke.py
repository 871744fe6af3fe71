"""Smoke test of the benchmark harness at a tiny size.

Runs every workload, untraced and traced, on a few storms with 1 epoch and
one Shapley sample, so that a change which breaks the harness fails in
seconds instead of in a full benchmark run.

Usage, from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

import run
import tracing
import workloads
from workloads import WORKLOADS

TINY_DATA = ("--storms-per-class", "5", "--events-per-storm", "4", "6")
TINY_SIZE = {
    "train_desk": {"epochs": 1},
    "eval_long": {},
    "explain_short": {"events": 1, "revisions": 1, "permutations": 8},
}
# spans each workload's set-up plus command must call, so a lookup site the
# tracer no longer wraps shows as zero calls here
FORWARD = (
    "synth.generate_dataset", "dataio.save_dataset", "dataio.load_dataset", "data.fit_transforms",
    "training.encode_events", "training.build_samples", "model.predict", "autodiff.linear",
    "autodiff.matmul", "autodiff.masked_softmax", "autodiff.layer_norm", "autodiff.relu",
    "autodiff.transpose", "autodiff.reshape", "autodiff.embedding", "autodiff.concat_last",
    "autodiff.add", "autodiff.scale", "autodiff.gather_rows", "autodiff.constant",
    "kernels.masked_softmax", "kernels.layer_norm", "cli.write_run_manifest", "cli.generate",
)  # fmt: skip
CALLED = {
    "train_desk": FORWARD + (
        "training.forward", "training.adam_step", "training.predict_in_chunks", "autodiff.param",
        "autodiff.scalar_op", "autodiff.gradients", "kernels.masked_softmax_bwd",
        "kernels.layer_norm_bwd", "losses.asymmetric_loss", "metrics.eval_report", "cli.train",
    ),
    "eval_long": FORWARD + ("metrics.eval_report", "cli.eval"),
    "explain_short": FORWARD + ("explain.shapley_attributions", "explain.predict_calls", "cli.explain"),
}  # fmt: skip
COUNTERS = ("training.samples", "training.token_slots", "model.tokens_computed")


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_and_checks(name, trace, monkeypatch):
    run._import_program()
    # one batch on a few storms cannot beat the constant predictor
    monkeypatch.setattr(workloads, "VAL_WAE_CEILING", math.inf)
    # nor do a few commands give ten calls beyond a percentile
    monkeypatch.setattr(tracing, "MIN_BEYOND", 0)
    workload = WORKLOADS[name]
    tiny = replace(
        workload, generate_flags=workload.generate_flags + TINY_DATA, size=TINY_SIZE[name]
    )
    result = run.measure(tiny, seed=0, seconds=0, trace=trace)

    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 * run.MIN_TRACED + 1 if trace else run.MIN_COMMANDS)
    end_to_end, per_layer = run._metric_specs()
    expected = {spec["name"] for spec in (per_layer if trace else end_to_end)}
    assert set(result["metrics"]) == expected
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        assert 0.0 < values["model.valid_token_frac"] <= 1.0
        for span in CALLED[name]:
            key = next(k for k in (f"{span}.calls", f"{span}.s", span) if k in values)
            assert values[key] > 0.0, key
        assert all(values[counter] > 0.0 for counter in COUNTERS)
    else:
        assert values["items_per_s"] > 0.0 and values["setup_s"] > 0.0


def test_percentile_without_enough_calls_fails_the_run(monkeypatch):
    run._import_program()
    monkeypatch.setattr(run, "TRACE_DEADLINE_S", 0)  # no time to add traced commands
    workload = WORKLOADS["explain_short"]
    tiny = replace(
        workload,
        generate_flags=workload.generate_flags + TINY_DATA,
        size=TINY_SIZE["explain_short"],
    )
    result = run.measure(tiny, seed=0, seconds=0, trace=True)

    assert result["failed"] == 0 and not result["correct"]
