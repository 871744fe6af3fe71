"""End-to-end benchmark of the etrcast CLI, with a traced per-layer breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

One process with one caller runs the workload's command back to back (a
closed loop; a batch tool has no arrival schedule) for ``--seconds``, and at
least ``MIN_COMMANDS`` times, the cold first command included. BLAS keeps
OpenBLAS's default thread count, which the environment line records. The
first command in a process runs 15-40% slower, mostly because glibc malloc has
not yet raised its mmap threshold, so large numpy temporaries are mapped and
unmapped on every call. It is run and checked like the others, but no timing
figure includes it.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:

- ``setup_s``: median over ``SETUP_REPEATS`` set-ups of generating the dataset
  (and the fixture checkpoint);
- ``items_per_s``: median over the warm commands of the work items one
  command completes divided by its wall time. That is
  ``train.samples_per_s`` (training prefix samples x epochs) on
  ``train_desk``, ``eval.preds_per_s`` (prefix plus final-revision
  predictions) on ``eval_long`` and ``explain.samples_per_s`` (attributed
  samples) on ``explain_short``;
- ``peak_rss_mb``: the process's peak resident set size.

On ``train_desk`` it also prints ``train.val_wae``, the best validation WAE
after the fixed epochs in hours, beside the constant predictor's. It is
deterministic for a seed but spreads too widely across seeds to bound; the
workload's check fails instead when the model has not beaten the constant
predictor by a clear margin.

``--trace 1`` runs one cold untraced command, then alternates untraced and
traced commands until ``--seconds`` have passed, then runs traced commands
alone until every latency percentile has its samples or
``TRACE_DEADLINE_S`` have passed. The traced commands give the
per-layer metrics of ``BENCHMARK.json`` for one set-up plus one command (see
``tracing.summarize``). A metric of a layer the workload does not call reads
0; a percentile of a layer it does call but with too few samples fails the
run rather than read 0. ``trace.overhead_s`` is the median traced minus the
median warm untraced command wall time. The spans are written to
``.perfbench/trace-<workload>-<seed>.npz``.

Every command's outputs are checked (see ``workloads.py``), and repeated
commands must write byte-identical artifacts apart from ``run_manifest.json``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a check
failed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
MIN_COMMANDS = 3  # per untraced run, the cold first one included
MIN_TRACED = 2  # untraced/traced pairs per traced run
TRACE_DEADLINE_S = 120  # no traced command starts later, so a run ends within 180 s
PERCENTILE = re.compile(r"^(?P<span>.+)\.p(?P<q>\d+)_(?P<unit>ms|s)$")


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "etrcast", "__init__.py")):
        sys.exit(f"perfbench: no etrcast sources under {src}")
    sys.path.insert(0, src)


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library bundled with numpy's wheel."""
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    from etrcast import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "kernels_backend": kernels.backend_name(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _capture_attributions(captured: list):
    """Keep the AttributionSets explain computes, for the efficiency check."""
    from etrcast import explain

    original = explain.shapley_attributions

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        captured.append(result)
        return result

    explain.shapley_attributions = capturing
    return lambda: setattr(explain, "shapley_attributions", original)


def _check(workload, inputs, runs) -> int:
    """Check every command; returns the number that failed."""
    from workloads import artifact_digests

    reference = None
    failed = 0
    for k, run in enumerate(runs):
        problems = [f"exit code {run.code}"] if run.code != 0 else []
        if not problems:
            try:
                problems += workload.check(inputs, run.out_dir, run.captured)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"checking the outputs raised {exc!r}")
            digests = artifact_digests(run.out_dir)
            reference = reference or digests
            if digests != reference:
                problems.append("artifacts differ from the first command's")
        for problem in problems:
            print(f"check failed: command {k}: {problem}\n{run.output}", file=sys.stderr)
        failed += bool(problems)
    return failed


def _metric_specs() -> tuple[list[dict], list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _per_layer(summary: dict, overhead_s: float, specs: list[dict]) -> dict[str, float]:
    """Every spec'd per-layer value; a percentile with too few samples is left out."""

    def ratio(num: str, den: str) -> float:
        return summary.get(num, 0.0) / summary[den] if summary.get(den) else 0.0

    values = dict(summary)
    values["model.rows_per_call"] = ratio("model.rows", "model.predict.calls")
    values["model.valid_token_frac"] = ratio("model.valid_keys", "model.key_slots")
    for op in ("masked_softmax", "layer_norm"):
        values[f"autodiff.{op}.overhead_s"] = summary.get(f"autodiff.{op}.self_s", 0.0)
    values["trace.overhead_s"] = overhead_s
    out = {}
    for spec in specs:
        name = spec["name"]
        pct = PERCENTILE.match(name)
        if pct:
            ms = summary.get(f"{pct['span']}.p{pct['q']}_ms")
            if ms is not None:
                out[name] = ms if pct["unit"] == "ms" else ms / 1e3
        else:
            out[name] = values.get(name, 0.0)  # a counter never counted reads 0
    return out


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload; prints its metrics, returns the result."""
    from tracing import Tracer, enough_beyond, summarize
    from workloads import inspect_inputs, run_command, set_up, val_wae

    end_to_end, per_layer = _metric_specs()
    percentiles = [
        (m["span"], int(m["q"])) for m in (PERCENTILE.match(s["name"]) for s in per_layer) if m
    ]
    work = os.path.join(WORK, f"{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    captured: list = []
    restore = _capture_attributions(captured)
    tracer = Tracer(workload.name)

    def run_untraced():
        out_dir = os.path.join(work, f"cmd{len(runs)}")
        runs.append(run_command(workload, inputs, out_dir, captured))

    def run_traced():
        tracer.phase = len(traced) + 1
        tracer.install()
        out_dir = os.path.join(work, f"traced{len(traced)}")
        traced.append(run_command(workload, inputs, out_dir, captured))
        tracer.uninstall()

    def percentiles_short() -> bool:
        calls = {span: tracer.command_calls(span) for span, _ in percentiles}
        return any(calls[span] and not enough_beyond(calls[span], q) for span, q in percentiles)

    try:
        setup_times = []
        for k in range(1 if trace else SETUP_REPEATS):
            if trace:
                tracer.install()
            start = time.perf_counter()
            inputs = set_up(workload, os.path.join(work, f"setup{k}"), seed)
            setup_times.append(time.perf_counter() - start)
            tracer.uninstall()
        inspect_inputs(inputs)

        runs, traced = [], []
        start = time.perf_counter()
        run_untraced()  # the cold first command
        if trace:
            while True:
                elapsed = time.perf_counter() - start
                pairs = len(traced) < MIN_TRACED or elapsed < seconds
                if pairs:
                    run_untraced()
                elif elapsed >= TRACE_DEADLINE_S or not percentiles_short():
                    break
                run_traced()
        else:
            while len(runs) < MIN_COMMANDS or time.perf_counter() - start < seconds:
                run_untraced()
        failed = _check(workload, inputs, runs + traced)
        attempted = len(runs) + len(traced)

        items = workload.items(inputs)
        warm = runs[1:]
        if trace:
            overhead = statistics.median(r.seconds for r in traced) - statistics.median(
                r.seconds for r in warm
            )
            metrics = _per_layer(summarize(tracer), overhead, per_layer)
            tracer.write(os.path.join(WORK, f"trace-{workload.name}-{seed}.npz"))
            specs = per_layer
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "items_per_s": statistics.median(items / r.seconds for r in warm),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            specs = end_to_end
            if workload.name == "train_desk" and not failed:
                print(
                    f"train.val_wae: {val_wae(runs[0].out_dir)!r} h "
                    f"(constant predictor {inputs.facts['constant_val_wae']!r} h)"
                )
    finally:
        tracer.uninstall()
        restore()
        shutil.rmtree(work, ignore_errors=True)

    missing = [spec["name"] for spec in specs if spec["name"] not in metrics]
    for name in missing:
        print(f"check failed: {name}: too few calls for the percentile", file=sys.stderr)
    print(
        f"workload {workload.name}: {attempted} commands, {items} items each, "
        f"failed_frac {failed / attempted:.4f}"
    )
    print("command seconds: " + " ".join(f"{r.seconds:.3f}" for r in runs + traced))
    if not trace:
        print(f"{workload.items_metric}: {metrics['items_per_s']!r} 1/s")
    result = {}
    for spec in specs:
        value = metrics.get(spec["name"], 0.0)
        result[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']}: {value!r} {spec['unit']}")
    correct = failed == 0 and not missing
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
