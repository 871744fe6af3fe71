"""Smoke test of ``tools/artifact_digests.py`` at a tiny dataset size."""

import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--storms-per-class", "5", "--events-per-storm", "4", "6"]
ARTIFACTS = {
    *(f"data/{name}" for name in ("events.bin", "events.jsonl", "manifest.json")),
    *(f"data_long/{name}" for name in ("events.bin", "events.jsonl", "manifest.json")),
    *(f"{run}/{name}" for run in ("run", "run_long") for name in (
        "checkpoint.bin", "eval_test.json", "eval_test.txt", "eval_validation.json",
        "eval_validation.txt", "history.json", "per_revision.json",
    )),
    *(f"{ev}/{name}" for ev in ("eval", "eval_long") for name in (
        "eval_test.json", "eval_test.txt", "per_revision.json",
    )),
    "explain/attributions.txt", "explain/topk.txt",
    "attention/attention_layer0.txt", "attention/attention_layer1.txt",
}  # fmt: skip
LINE = re.compile(r"^(?P<sha>[0-9a-f]{64})  (?P<path>\S+)$")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", os.path.join(ROOT, "tools", "artifact_digests.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_listing_names_every_artifact_and_repeats(tool, tmp_path, capsys):
    listings = []
    for name in ("a", "b"):
        assert tool.main(["--out", str(tmp_path / name), *TINY]) == 0
        listings.append(capsys.readouterr().out)
    a, b = listings
    assert a == b  # the commands write byte-identical artifacts on a rerun
    paths = [LINE.match(line)["path"] for line in a.splitlines()]
    assert paths == sorted(ARTIFACTS)  # no run_manifest.json, sorted by path
    assert (tmp_path / "a" / "run" / "run_manifest.json").exists()


def test_failing_command_exits_one(tool, tmp_path, capsys):
    # 4 storms per class leave no training storm, so the first generate fails
    out = tmp_path / "d"
    assert tool.main(["--out", str(out), "--storms-per-class", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith("artifact_digests: etrcast generate --out")
    assert captured.out == ""


def test_existing_out_is_refused(tool, tmp_path):
    with pytest.raises(SystemExit) as raised:
        tool.main(["--out", str(tmp_path)])
    assert raised.value.code == 2
