"""Run a fixed set of etrcast commands and print the sha256 of every artifact they write.

Usage, from the repository root:

    python3 tools/artifact_digests.py --out /tmp/digests > digests.txt

Run it in two checkouts and compare the two listings (``diff a.txt b.txt``):
equal listings mean the checkouts write byte-identical artifacts. Each line
is ``<sha256>  <path under --out>``, sorted by path. ``run_manifest.json``
is left out, since it records wall-clock times and the environment.

The commands, all at one ``--seed`` (default 3), run in this process from the
checkout's own ``src``:

- ``generate``, ``train --epochs 3``, ``eval``,
  ``explain --events 2 --permutations 40`` and ``attention``;
- ``generate --revisions-per-event 12 20``, then ``train --epochs 3`` and
  ``eval`` on that dataset.

``--storms-per-class`` and ``--events-per-storm`` pass through to both
``generate`` commands (generator defaults when not given). The commands' own
output goes to standard error. The exit code is 1 when a command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = "run_manifest.json"


def commands(out: str, seed: int, size: list[str]) -> list[list[str]]:
    """The etrcast command lines to run, in order, each writing under ``out``."""
    data, run, long_data, long_run = (
        os.path.join(out, name) for name in ("data", "run", "data_long", "run_long")
    )
    checkpoint = os.path.join(run, "checkpoint.bin")
    lines = [
        ["generate", "--out", data, *size],
        ["train", "--dataset", data, "--out", run, "--epochs", "3"],
        ["eval", "--dataset", data, "--checkpoint", checkpoint, "--out", os.path.join(out, "eval")],
        ["explain", "--dataset", data, "--checkpoint", checkpoint,
         "--out", os.path.join(out, "explain"), "--events", "2", "--permutations", "40"],
        ["attention", "--dataset", data, "--checkpoint", checkpoint,
         "--out", os.path.join(out, "attention")],
        ["generate", "--out", long_data, "--revisions-per-event", "12", "20", *size],
        ["train", "--dataset", long_data, "--out", long_run, "--epochs", "3"],
        ["eval", "--dataset", long_data, "--checkpoint", os.path.join(long_run, "checkpoint.bin"),
         "--out", os.path.join(out, "eval_long")],
    ]  # fmt: skip
    return [line + ["--seed", str(seed)] for line in lines]


def digests(out: str) -> list[str]:
    """``<sha256>  <path>`` for every file under ``out`` but run manifests, sorted by path."""
    from etrcast.dataio import file_sha256

    paths = sorted(
        os.path.relpath(os.path.join(folder, name), out)
        for folder, _, files in os.walk(out)
        for name in files
        if name != SKIPPED
    )
    return [f"{file_sha256(os.path.join(out, path))}  {path}" for path in paths]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for the runs; must not exist")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--storms-per-class")
    parser.add_argument("--events-per-storm", nargs=2, metavar=("LO", "HI"))
    args = parser.parse_args(argv)
    if os.path.exists(args.out):
        parser.error(f"--out {args.out} already exists")
    size = []
    if args.storms_per_class is not None:
        size += ["--storms-per-class", args.storms_per_class]
    if args.events_per_storm is not None:
        size += ["--events-per-storm", *args.events_per_storm]

    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from etrcast import cli

    for line in commands(args.out, args.seed, size):
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.run(line)
        if code != 0:
            print(f"artifact_digests: etrcast {' '.join(line)} exited {code}", file=sys.stderr)
            return 1
    print("\n".join(digests(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
