import contextlib
import io
import json
import math
import os
import platform
import resource
import shlex
import shutil
import string
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etrcast
from etrcast import cli, dataio, kernels
from etrcast.cli import SCALES, build_parser, load_config_file, run
from etrcast.data import fit_transforms
from etrcast.dataio import load_dataset
from etrcast.losses import LossConfig
from etrcast.model import ModelConfig, init_params, load_checkpoint, predict, save_checkpoint
from etrcast.synth import GeneratorConfig, build_schema, generate_dataset
from etrcast.training import TrainConfig

from conftest import make_batch

GEN_ARGS = ["--storms-per-class", "6", "--events-per-storm", "5", "8"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate -> train once; reused by eval/explain/attention tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    rund = str(root / "run")
    assert run(["generate", "--out", data, "--seed", "9", *GEN_ARGS]) == 0
    assert (
        run(
            [
                "train",
                "--dataset", data,
                "--out", rund,
                "--seed", "0",
                "--epochs", "2",
            ]
        )
        == 0
    )
    return {"data": data, "run": rund, "root": root}


class TestGenerate:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = str(tmp_path / "d")
        assert run(["generate", "--out", out, "--seed", "3", *GEN_ARGS]) == 0
        assert os.path.exists(os.path.join(out, "manifest.json"))
        assert os.path.exists(os.path.join(out, "events.jsonl"))
        manifest = json.load(open(os.path.join(out, "run_manifest.json")))
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 3
        assert set(manifest["outputs"]) == {
            os.path.join(out, "events.bin"),
            os.path.join(out, "events.jsonl"),
            os.path.join(out, "manifest.json"),
        }

    @pytest.mark.parametrize(
        "storms, ratios, counts",
        [("4", None, "takes 2 and test 2"), ("1", None, "takes 0 and test 1"),
         ("6", "0.0, 0.5, 0.5", "takes 3 and test 3")],
        ids=["4", "1", "no_train_ratio"],
    )  # fmt: skip
    def test_too_few_storms_exits_one(self, tmp_path, capsys, storms, ratios, counts):
        # validation and test would take every storm of a class: refused before writing
        out = str(tmp_path / "d")
        argv = ["generate", "--out", out, "--storms-per-class", storms]
        if ratios is not None:
            (tmp_path / "split.cfg").write_text(f"split_ratios = {ratios}\n", encoding="utf-8")
            argv += ["--config", str(tmp_path / "split.cfg")]
        assert run(argv) == 1
        (err,) = capsys.readouterr().err.splitlines()
        ratio_text = "(0.7, 0.15, 0.15)" if ratios is None else f"({ratios})"
        assert f"storms_per_class {storms} with split_ratios {ratio_text}" in err
        assert f"leaves no storm of a class to train: validation {counts}" in err
        assert not os.path.exists(out)

    def test_five_storms_per_class_trains(self, tmp_path):
        data, rund = str(tmp_path / "d"), str(tmp_path / "r")
        argv = ["generate", "--out", data, "--storms-per-class", "5", "--events-per-storm", "4", "5"]
        assert run(argv) == 0
        assert run(["train", "--dataset", data, "--out", rund, "--epochs", "1"]) == 0

    def test_deterministic_rerun(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run(["generate", "--out", a, "--seed", "5", *GEN_ARGS])
        run(["generate", "--out", b, "--seed", "5", *GEN_ARGS])
        for name in ("manifest.json", "events.jsonl", "events.bin"):
            assert (
                open(os.path.join(a, name), "rb").read()
                == open(os.path.join(b, name), "rb").read()
            )

    def test_manifest_checksums_verify(self, tmp_path):
        from etrcast.dataio import file_sha256

        out = str(tmp_path / "d")
        run(["generate", "--out", out, "--seed", "1", *GEN_ARGS])
        manifest = json.load(open(os.path.join(out, "run_manifest.json")))
        for path, digest in manifest["outputs"].items():
            assert file_sha256(path) == digest


class TestTrain:
    def test_artifacts_exist(self, pipeline):
        for name in (
            "checkpoint.bin",
            "history.json",
            "eval_validation.json",
            "eval_validation.txt",
            "eval_test.json",
            "eval_test.txt",
            "per_revision.json",
            "run_manifest.json",
        ):
            assert os.path.exists(os.path.join(pipeline["run"], name)), name

    def test_history_has_no_wall_time(self, pipeline):
        history = json.load(open(os.path.join(pipeline["run"], "history.json")))
        assert len(history) == 2
        assert set(history[0]) == {"epoch", "train_loss", "val_wae", "lr"}

    def test_one_progress_line_per_epoch_on_stderr(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "run")
        argv = ["train", "--dataset", pipeline["data"], "--out", out, "--epochs", "3"]
        assert run(argv) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["epoch 0", "epoch 1", "epoch 2"]
        for line in lines:
            for part in ("train loss", "val WAE", "lr", " s,", "samples/s", "valid slots"):
                assert part in line, (part, line)
        assert captured.out.startswith("best epoch ") and len(captured.out.splitlines()) == 1
        history = json.load(open(os.path.join(out, "history.json")))
        assert len(history) == 3
        assert all(set(row) == {"epoch", "train_loss", "val_wae", "lr"} for row in history)

    def test_scale_presets(self):
        assert SCALES["desk"]["model"]["d_model"] == 32
        argv = ["train", "--dataset", "d", "--out", "o", "--scale", "full"]
        model_cfg, train_cfg, _ = cli._configs_from_args(build_parser().parse_args(argv))
        assert (model_cfg.d_model, model_cfg.n_layers, model_cfg.n_heads) == (128, 6, 16)
        assert (train_cfg.learning_rate, train_cfg.batch_size, train_cfg.max_epochs) == (
            1e-4, 1024, 100
        )  # fmt: skip


_COMMANDS = ("eval", "explain", "attention")
_SHAPLEY = "shapley_attributions: non-finite"
# case -> (tensor, value, message per command); a command not named exits 0.
# The pipeline's layer-1 FFN inputs sum below 0 on every row, so -1e307 (not
# +1e307, which relu zeroes) makes the FFN output overflow the layer norm.
CANNOT_SCORE = {
    "huge_1e155": ("head/2/W", 1e155, {"eval": "rmse is not finite", "explain": _SHAPLEY}),
    "huge_1e200": ("head/2/W", 1e200, {"eval": "rmse is not finite", "explain": _SHAPLEY}),
    "nan": ("head/2/W", math.nan, dict.fromkeys(_COMMANDS, "tensor head/2/W holds NaN or Inf")),
    "inf": ("head/2/W", -math.inf, dict.fromkeys(_COMMANDS, "tensor head/2/W holds NaN or Inf")),
    "proj_1e307": ("proj/W", 1e307, dict.fromkeys(_COMMANDS, "non-finite values in result")),
    "ffn_1e307": (
        "layer1/ffn/1/W", -1e307, dict.fromkeys(_COMMANDS, "layer_norm: row variance overflows")
    ),
}
_CANNOT_SCORE_RUNS = [(command, case) for command in _COMMANDS for case in CANNOT_SCORE]


class TestEval:
    def test_eval_runs(self, pipeline, tmp_path):
        out = str(tmp_path / "ev")
        code = run(
            [
                "eval",
                "--dataset", pipeline["data"],
                "--checkpoint", os.path.join(pipeline["run"], "checkpoint.bin"),
                "--out", out,
                "--split", "test",
            ]
        )
        assert code == 0
        report = json.load(open(os.path.join(out, "eval_test.json")))
        assert "overall" in report and report["overall"]["count"] > 0

    def test_fingerprint_mismatch_exits_one(self, pipeline, tmp_path, capsys):
        other = str(tmp_path / "other")
        # different filler roster -> different schema fingerprint
        run(
            [
                "generate",
                "--out", other,
                "--seed", "9",
                "--storms-per-class", "6",
                "--events-per-storm", "5", "8",
                "--config", self._config(tmp_path),
            ]
        )
        code = run(
            [
                "eval",
                "--dataset", other,
                "--checkpoint", os.path.join(pipeline["run"], "checkpoint.bin"),
                "--out", str(tmp_path / "ev2"),
            ]
        )
        assert code == 1
        assert "fingerprint" in capsys.readouterr().err

    @staticmethod
    def _config(tmp_path):
        path = str(tmp_path / "gen.cfg")
        with open(path, "w") as fh:
            fh.write("n_filler_continuous = 2\n")
        return path

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda t: t.pop("head/2/W"), "head/2/W"),
            (lambda t: t.update({"head/2/W": np.zeros((3, 1))}), "shape"),
            (None, "trailing bytes"),
        ],
        ids=["missing_tensor", "wrong_shape", "trailing_bytes"],
    )
    def test_damaged_checkpoint_exits_one(self, pipeline, tmp_path, capsys, damage, message):
        good = os.path.join(pipeline["run"], "checkpoint.bin")
        bad = str(tmp_path / "bad.bin")
        if damage is None:
            with open(good, "rb") as src, open(bad, "wb") as dst:
                dst.write(src.read() + b"\0" * 8)
        else:
            params, state, fingerprint = load_checkpoint(good)
            damage(params.tensors)
            save_checkpoint(bad, params, state, fingerprint)
        args = ["eval", "--dataset", pipeline["data"], "--checkpoint", bad]
        assert run([*args, "--out", str(tmp_path / "ev")]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, case",
        _CANNOT_SCORE_RUNS,
        ids=[case if cmd == "eval" else f"{cmd}-{case}" for cmd, case in _CANNOT_SCORE_RUNS],
    )
    def test_checkpoint_that_cannot_score_names_itself(
        self, pipeline, tmp_path, capsys, command, case
    ):
        tensor, value, messages = CANNOT_SCORE[case]
        good = os.path.join(pipeline["run"], "checkpoint.bin")
        params, state, fingerprint = load_checkpoint(good)
        params.tensors[tensor][:] = value
        bad = str(tmp_path / "bad.bin")
        save_checkpoint(bad, params, state, fingerprint)
        args = [command, "--dataset", pipeline["data"], "--checkpoint", bad]
        if command == "explain":
            args += ["--revisions", "1", "--events", "1", "--permutations", "4"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([*args, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert caught == [] and "Warning" not in err and "Traceback" not in err
        if command in messages:  # "<checkpoint>: [<primitive>: ]<message>", one line
            assert code == 1 and f"{bad}: " in err and messages[command] in err
            assert len(err.splitlines()) == 1
            assert not os.path.exists(tmp_path / "out")  # a failed command makes no --out
        else:  # the attention maps do not depend on the head
            assert code == 0 and err == ""


class TestCheckpointLoss:
    def test_eval_scores_with_the_loss_the_model_was_trained_with(self, pipeline, tmp_path):
        cfg = tmp_path / "loss.cfg"
        cfg.write_text("alpha = 3\n")
        out, ev = str(tmp_path / "run"), str(tmp_path / "ev")
        args = ["--dataset", pipeline["data"], "--seed", "0"]
        assert run(["train", *args, "--out", out, "--epochs", "1", "--config", str(cfg)]) == 0
        checkpoint = os.path.join(out, "checkpoint.bin")
        assert run(["eval", *args, "--out", ev, "--checkpoint", checkpoint, "--split", "test"]) == 0
        trained = json.load(open(os.path.join(out, "eval_test.json")))
        evaluated = json.load(open(os.path.join(ev, "eval_test.json")))
        assert evaluated["overall"]["wae"] == trained["overall"]["wae"]
        assert evaluated == trained
        manifest = json.load(open(os.path.join(out, "run_manifest.json")))
        assert manifest["config"]["loss"] == {"alpha": 3.0, "beta": 2.0, "tau": 8.0}
        params, _, _ = load_checkpoint(checkpoint)
        assert params.loss == LossConfig(alpha=3.0)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_checkpoint_version_exits_one_naming_it(
        self, pipeline, tmp_path, capsys, version
    ):
        good = os.path.join(pipeline["run"], "checkpoint.bin")
        blob = open(good, "rb").read()
        (length,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + length])
        assert header.pop("format_version") == 3
        old = json.dumps({**header, "format_version": version}, sort_keys=True).encode()
        path = str(tmp_path / f"v{version}.bin")
        with open(path, "wb") as fh:
            fh.write(blob[:8] + struct.pack("<Q", len(old)) + old + blob[16 + length :])
        out = tmp_path / "ev"
        args = ["eval", "--dataset", pipeline["data"], "--checkpoint", path]
        assert run([*args, "--out", str(out)]) == 1
        want = f"{path}: unsupported checkpoint version {version}; this etrcast reads version 3"
        assert capsys.readouterr().err.splitlines() == [f"error: {want}"]
        assert not out.exists()


class TestRunManifestInputs:
    @pytest.mark.parametrize("command", ["train", "eval", "explain", "attention"])
    def test_inputs_hold_the_events_digest_hashed_once(
        self, pipeline, tmp_path, monkeypatch, command
    ):
        hashed = []
        real = dataio.file_sha256

        def spy(path):
            hashed.append(path)
            return real(path)

        monkeypatch.setattr(dataio, "file_sha256", spy)
        monkeypatch.setattr(cli, "file_sha256", spy)
        data, out = pipeline["data"], str(tmp_path / "out")
        checkpoint = os.path.join(pipeline["run"], "checkpoint.bin")
        argv = {
            "train": ["--epochs", "1"],
            "eval": ["--checkpoint", checkpoint],
            "explain": ["--checkpoint", checkpoint, "--revisions", "1", "--events", "1",
                        "--permutations", "4"],
            "attention": ["--checkpoint", checkpoint],
        }[command]  # fmt: skip
        assert run([command, "--dataset", data, "--out", out, *argv]) == 0
        inputs = json.load(open(os.path.join(out, "run_manifest.json")))["inputs"]
        events, manifest = os.path.join(data, "events.jsonl"), os.path.join(data, "manifest.json")
        expected = {events, manifest} | ({checkpoint} if command != "train" else set())
        assert set(inputs) == expected
        assert all(inputs[path] == real(path) for path in expected)
        assert hashed.count(events) == 1


class TestRunManifestOutputs:
    @pytest.mark.parametrize("command", ["train", "eval", "explain", "attention"])
    def test_outputs_list_every_file_the_command_wrote(self, pipeline, tmp_path, command):
        from etrcast.dataio import file_sha256

        out = pipeline["run"] if command == "train" else str(tmp_path / "out")
        checkpoint = os.path.join(pipeline["run"], "checkpoint.bin")
        argv = {
            "train": None,
            "eval": ["eval", "--checkpoint", checkpoint],
            "explain": ["explain", "--checkpoint", checkpoint, "--revisions", "2", "--events", "1",
                        "--permutations", "4"],
            "attention": ["attention", "--checkpoint", checkpoint],
        }[command]  # fmt: skip
        if argv is not None:
            assert run([*argv, "--dataset", pipeline["data"], "--out", out]) == 0
        manifest_path = os.path.join(out, "run_manifest.json")
        written = {os.path.join(root, name) for root, _, names in os.walk(out) for name in names}
        outputs = json.load(open(manifest_path))["outputs"]
        assert set(outputs) == written - {manifest_path}
        assert all(digest == file_sha256(path) for path, digest in outputs.items())


class TestExplainAndAttention:
    def test_explain_writes_reports(self, pipeline, tmp_path):
        out = str(tmp_path / "ex")
        code = run(
            [
                "explain",
                "--dataset", pipeline["data"],
                "--checkpoint", os.path.join(pipeline["run"], "checkpoint.bin"),
                "--out", out,
                "--revisions", "2",
                "--events", "2",
                "--background", "8",
                "--permutations", "20",
                "--seed", "0",
            ]
        )
        assert code == 0
        topk = open(os.path.join(out, "topk.txt")).read()
        assert "customers_under_outage" in topk
        assert os.path.exists(os.path.join(out, "attributions.txt"))

    def test_attention_exports_layers(self, pipeline, tmp_path):
        out = str(tmp_path / "at")
        code = run(
            [
                "attention",
                "--dataset", pipeline["data"],
                "--checkpoint", os.path.join(pipeline["run"], "checkpoint.bin"),
                "--out", out,
                "--heads", "2",
                "--seed", "0",
            ]
        )
        assert code == 0
        files = sorted(f for f in os.listdir(out) if f.startswith("attention_layer"))
        assert len(files) == 2  # desk scale has 2 layers
        grid = np.loadtxt(os.path.join(out, files[0]), skiprows=1)
        grid = np.atleast_2d(grid)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-9)

    def test_attention_refuses_more_heads_than_the_checkpoint_has(self, pipeline, tmp_path, capsys):
        out = tmp_path / "at"
        argv = ["attention", "--dataset", pipeline["data"],
                "--checkpoint", os.path.join(pipeline["run"], "checkpoint.bin"), "--out", str(out)]
        assert run([*argv, "--heads", "5"]) == 1  # desk scale has 4 heads
        assert capsys.readouterr().err == "--heads 5 exceeds the checkpoint's n_heads 4\n"
        assert not out.exists()
        assert run([*argv, "--heads", "4"]) == 0


class TestErrorHandling:
    def test_unknown_flag_exits_one_with_usage(self, capsys):
        assert run(["train", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_unknown_command_exits_one(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_dataset_exits_two(self, tmp_path, capsys):
        code = run(
            ["train", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @staticmethod
    def _unknown_category(rec):
        rec["revisions"][0]["cat"][0] = "no-such-value"
        return json.dumps(rec)

    @staticmethod
    def _repeated_timestamp(rec):
        rec["revisions"][1]["t"] = rec["revisions"][0]["t"]
        return json.dumps(rec)

    @staticmethod
    def _short_revision(rec):
        rec["revisions"][0]["cont"].pop()
        return json.dumps(rec)

    @staticmethod
    def _copy_dataset(src, data, stale_sidecar: bool) -> None:
        """The manifest of ``src`` in ``data``, and its events.bin when ``stale_sidecar``.

        The caller writes a damaged events.jsonl, so a copied sidecar is stale.
        """
        data.mkdir()
        names = ["manifest.json", "events.bin"] if stale_sidecar else ["manifest.json"]
        for name in names:
            (data / name).write_bytes(open(os.path.join(src, name), "rb").read())

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda rec: json.dumps(rec)[:-5], "malformed JSON"),
            (lambda rec: json.dumps({k: v for k, v in rec.items() if k != "revisions"}),
             "missing field 'revisions'"),
            (_unknown_category, "unknown category value 'no-such-value'"),
            (lambda rec: json.dumps({**rec, "revisions": 5}), "'int' object is not iterable"),
            (_repeated_timestamp, "event {event}: timestamps must be finite and strictly increase"),
            (lambda rec: json.dumps({**rec, "target_duration": -1.0}),
             "event {event}: bad target_duration"),
            (_short_revision, "event {event} revision 0: value lengths do not match schema"),
            (lambda rec: json.dumps({**rec, "revisions": []}),
             "event {event}: needs at least one revision"),
            (lambda rec: "[" * 100_000, "malformed JSON"),
        ],
        ids=["malformed_json", "missing_field", "unknown_category", "wrong_type",
             "repeated_timestamp", "negative_target", "wrong_value_count", "no_revisions",
             "nested_too_deep"],
    )  # fmt: skip
    def test_bad_events_line_names_file_and_line(self, pipeline, tmp_path, capsys, damage, message):
        for stale_sidecar in (False, True):
            data = tmp_path / f"data{int(stale_sidecar)}"
            src = pipeline["data"]
            self._copy_dataset(src, data, stale_sidecar)
            lines = open(os.path.join(src, "events.jsonl"), encoding="utf-8").read().splitlines()
            event = json.loads(lines[1])["event_id"]
            lines[1] = damage(json.loads(lines[1]))
            (data / "events.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert run(["train", "--dataset", str(data), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert f"{data / 'events.jsonl'}:2: {message.format(event=event)}" in err
            assert "Traceback" not in err

    def test_first_bad_event_is_reported(self, pipeline, tmp_path, capsys):
        for stale_sidecar in (False, True):
            data = tmp_path / f"data{int(stale_sidecar)}"
            src = pipeline["data"]
            self._copy_dataset(src, data, stale_sidecar)
            lines = open(os.path.join(src, "events.jsonl"), encoding="utf-8").read().splitlines()
            # a later line fails an earlier check, an earlier line a later one
            lines[2] = self._unknown_category(json.loads(lines[2]))
            lines[3] = lines[3][:-5]
            lines[1] = json.dumps({**json.loads(lines[1]), "target_duration": None})
            (data / "events.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert run(["train", "--dataset", str(data), "--out", str(tmp_path / "o")]) == 1
            assert f"{data / 'events.jsonl'}:2: event " in capsys.readouterr().err

    @staticmethod
    def _sidecar_header(edit):
        """Damage that rewrites the sidecar header with ``edit`` and a matching length."""

        def damage(blob, dataset):
            (length,) = struct.unpack("<Q", blob[8:16])
            header = json.loads(blob[16 : 16 + length])
            edit(header)
            new = json.dumps(header).encode()
            return blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + length :]

        return damage

    @staticmethod
    def _negative_target(blob, dataset):
        """A sidecar with matching keys and content digest whose event 1 fails a check."""
        events = next(path for path in dataset.files if path.endswith("events.jsonl"))
        targets = dataset.table.targets.copy()
        targets[1] = -1.0
        bad = replace(dataset, table=replace(dataset.table, targets=targets))
        path = os.path.join(os.path.dirname(events), "events.bin")
        dataio._write_sidecar(path, bad, dataset.files[events])
        return open(path, "rb").read()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda blob, ds: blob[:-3], "truncated column offsets"),
            (lambda blob, ds: blob + b"\0", "trailing bytes after the last column"),
            (lambda blob, ds: b"NOTASIDE" + blob[8:], "not a sidecar file"),
            (_sidecar_header(lambda h: h["columns"][2]["shape"].reverse()), "do not match"),
            (_sidecar_header(lambda h: h["columns"][0].update(dtype="<f4")), "do not match"),
            (lambda blob, ds: blob[:-9] + bytes([blob[-9] ^ 1]) + blob[-8:],
             "content does not match its recorded content_sha256"),
            (_negative_target, "bad target_duration"),
        ],
        ids=["truncated", "trailing_bytes", "bad_magic", "wrong_shape", "wrong_dtype",
             "flipped_bit", "failed_check"],
    )  # fmt: skip
    def test_damaged_current_sidecar_exits_one_naming_it(
        self, pipeline, tmp_path, capsys, damage, message
    ):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        sidecar = data / "events.bin"
        sidecar.write_bytes(damage(sidecar.read_bytes(), load_dataset(str(data))))
        argv = ["eval", "--dataset", str(data), "--out", str(tmp_path / "ev")]
        checkpoint = os.path.join(pipeline["run"], "checkpoint.bin")
        assert run([*argv, "--checkpoint", checkpoint]) == 1
        err = capsys.readouterr().err
        assert f"{sidecar}: " in err and message in err and "Traceback" not in err

    def test_bad_config_value_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("storms_per_class = not_a_number\n")
        code = run(
            ["generate", "--out", str(tmp_path / "d"), "--config", str(cfg)]
        )
        assert code == 1

    def test_unknown_config_key_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_knob = 5\n")
        assert run(["generate", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            *(
                (["attention", "--dataset", "d", "--checkpoint", "c", "--out", "o", "--heads", value],
                 "--heads")
                for value in ("-1", "0")
            ),
            *(
                (["explain", "--dataset", "d", "--checkpoint", "c", "--out", "o", flag, value],
                 flag)
                for flag in ("--events", "--background", "--revisions", "--topk", "--permutations")
                for value in ("0", "-1")
            ),
        ],
    )  # fmt: skip
    def test_count_flag_below_one_exits_one(self, tmp_path, capsys, argv, flag):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= 1, got {argv[-1]}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "explain", "attention"])
    def test_config_only_on_generate_and_train(self, tmp_path, capsys, command):
        argv = [command, "--dataset", "d", "--checkpoint", "c", "--out", str(tmp_path / "o")]
        assert run([*argv, "--config", str(tmp_path / "no_such_file.cfg")]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --config" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["n_heads", "d_model"])
    def test_zero_model_size_exits_one(self, pipeline, tmp_path, capsys, field):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"{field} = 0\n")
        argv = ["train", "--dataset", pipeline["data"], "--out", str(tmp_path / "o")]
        assert run([*argv, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{field} must be >= 1" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flags, config, message",
        [
            ("train", ["--lr", "nan"], "", "learning_rate must be finite, got nan"),
            ("train", ["--lr", "inf"], "", "learning_rate must be finite, got inf"),
            ("train", [], "beta1 = 1.5", "beta1 must lie in [0, 1), got 1.5"),
            ("train", [], "beta2 = 1.0\nadam_eps = 0", "beta2 must lie in [0, 1), got 1.0"),
            ("train", [], "adam_eps = 0", "adam_eps must be > 0, got 0.0"),
            ("train", [], "pe_base = nan", "pe_base must be finite, got nan"),
            ("train", [], "min_delta = nan", "min_delta must be finite, got nan"),
            ("train", [], "min_delta = -1", "min_delta must be >= 0, got -1.0"),
            ("generate", ["--noise-std", "nan"], "", "noise_std must be finite, got nan"),
            ("generate", [], "split_ratios = 0.7 0.15 nan",
             "split_ratios must be finite, got (0.7, 0.15, nan)"),
            *((command, ["--seed", "-1"], "", "argument --seed: must be >= 0, got -1")
              for command in ("generate", "train", "eval", "explain", "attention")),
            ("generate", [], "seed = -1", "seed must be >= 0, got -1"),
            ("train", [], "seed = -1", "seed must be >= 0, got -1"),
            ("generate", [], "n_filler_categorical = -1",
             "n_filler_categorical must be >= 0, got -1"),
            ("generate", [], "n_filler_continuous = -1",
             "n_filler_continuous must be >= 0, got -1"),
        ],
        ids=["lr_nan", "lr_inf", "beta1_above_one", "beta2_one", "adam_eps_zero", "pe_base_nan",
             "min_delta_nan", "min_delta_negative", "noise_std_nan", "split_ratio_nan",
             "generate_seed_flag_negative", "train_seed_flag_negative", "eval_seed_flag_negative",
             "explain_seed_flag_negative", "attention_seed_flag_negative",
             "generate_seed_file_negative", "train_seed_file_negative",
             "filler_categorical_negative", "filler_continuous_negative"],
    )  # fmt: skip
    def test_config_that_cannot_run_exits_one_naming_its_key(
        self, pipeline, tmp_path, capsys, command, flags, config, message
    ):
        out = tmp_path / "o"
        argv = [command, "--out", str(out), *flags]
        if command != "generate":
            argv += ["--dataset", pipeline["data"]]
        if command not in ("generate", "train"):
            argv += ["--checkpoint", os.path.join(pipeline["run"], "checkpoint.bin")]
        if config:
            (tmp_path / "c.cfg").write_text(config + "\n")
            argv += ["--config", str(tmp_path / "c.cfg")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_adam_overflow_exits_two_naming_its_step(self, pipeline, tmp_path, capsys):
        # 1e308 is finite, so it is accepted; the first update overflows
        argv = ["train", "--dataset", pipeline["data"], "--out", str(tmp_path / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, "--lr", "1e308"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "runtime failure: epoch 0 batch 0: Adam update left head/1/W non-finite"
        ]

    @pytest.mark.parametrize(
        "overflowing, failing",
        [(("validation", "test"), "epoch 0 validation"), (("test",), "test report")],
        ids=["validation", "test"],
    )
    def test_prediction_overflow_exits_two_naming_its_pass(
        self, pipeline, tmp_path, capsys, overflowing, failing
    ):
        # filler_noise_4 is 1e-150 in one training revision and 0 in the others, so
        # its Z-score scales 1e20 to about 1e170 and a prediction pass overflows
        data = tmp_path / "data"
        self._copy_dataset(pipeline["data"], data, stale_sidecar=False)
        manifest = json.load(open(data / "manifest.json"))
        split = {storm: name for name, storms in manifest["split"].items() for storm in storms}
        continuous = [name for name, kind in manifest["schema"]["features"] if kind == "continuous"]
        col, tiny = continuous.index("filler_noise_4"), 1e-150
        lines = []
        for line in open(os.path.join(pipeline["data"], "events.jsonl"), encoding="utf-8"):
            rec = json.loads(line)
            for rev in rec["revisions"]:
                if split[rec["storm_id"]] == "train":
                    rev["cont"][col], tiny = tiny, 0.0
                else:
                    rev["cont"][col] = 1e20 if split[rec["storm_id"]] in overflowing else 0.0
            lines.append(json.dumps(rec))
        (data / "events.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["train", "--dataset", str(data), "--out", str(tmp_path / "o"), "--epochs", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        *progress, last = capsys.readouterr().err.splitlines()
        assert all(line.startswith("epoch ") for line in progress)
        assert last == f"runtime failure: {failing}: matmul: non-finite values in result"
        # outputs are written only after both reports are predicted
        assert not os.path.exists(tmp_path / "o")

    @staticmethod
    def _drop_storm_magnitude(manifest):
        del manifest["storms"][0]["magnitude"]

    @staticmethod
    def _with_header(header: bytes):
        def damage(blob):
            (length,) = struct.unpack("<Q", blob[8:16])
            return blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + length :]

        return damage

    @staticmethod
    def _zero_heads(blob):
        (length,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + length])
        header["model_config"]["n_heads"] = 0
        return TestErrorHandling._with_header(json.dumps(header).encode())(blob)

    @staticmethod
    def _renamed_feature(blob):
        """A header whose schema and transform state both rename a continuous feature."""
        (length,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + length])
        name = next(n for n, kind in header["schema"]["features"] if kind == "continuous")
        header["schema"]["features"] = [
            ["renamed" if n == name else n, kind] for n, kind in header["schema"]["features"]
        ]
        for stats in ("cont_mean", "cont_std"):
            header["transform_state"][stats]["renamed"] = header["transform_state"][stats].pop(name)
        return TestErrorHandling._with_header(json.dumps(header).encode())(blob)

    @pytest.mark.parametrize(
        "manifest_damage, checkpoint_damage, message",
        [
            (lambda m: m.pop("schema"), None, "malformed manifest"),
            (lambda m: m.pop("split"), None, "malformed manifest"),
            (_drop_storm_magnitude, None, "malformed manifest"),
            ("{not json", None, "malformed manifest"),
            ("[" * 100_000, None, "malformed manifest"),
            (None, _with_header(b"\xff\xfe{}"), "malformed checkpoint header"),
            (None, _with_header(b"{not json"), "malformed checkpoint header"),
            (None, _with_header(b"[" * 100_000), "malformed checkpoint header"),
            (None, _zero_heads, "malformed checkpoint header (ValueError('n_heads must be >= 1"),
            (None, _renamed_feature, "trained on another feature schema than the dataset"),
        ],
        ids=["no_schema", "no_split", "no_magnitude", "manifest_not_json", "manifest_too_deep",
             "header_not_utf8", "header_not_json", "header_too_deep", "header_zero_heads",
             "header_other_schema"],
    )  # fmt: skip
    def test_malformed_input_names_the_file(
        self, pipeline, tmp_path, capsys, manifest_damage, checkpoint_damage, message
    ):
        data = tmp_path / "data"
        data.mkdir()
        src = pipeline["data"]
        manifest_text = open(os.path.join(src, "manifest.json"), encoding="utf-8").read()
        if isinstance(manifest_damage, str):
            manifest_text = manifest_damage
        elif manifest_damage is not None:
            manifest = json.loads(manifest_text)
            manifest_damage(manifest)
            manifest_text = json.dumps(manifest)
        (data / "manifest.json").write_text(manifest_text, encoding="utf-8")
        (data / "events.jsonl").write_bytes(open(os.path.join(src, "events.jsonl"), "rb").read())
        checkpoint = tmp_path / "checkpoint.bin"
        blob = open(os.path.join(pipeline["run"], "checkpoint.bin"), "rb").read()
        checkpoint.write_bytes(checkpoint_damage(blob) if checkpoint_damage else blob)
        bad = data / "manifest.json" if manifest_damage is not None else checkpoint
        argv = ["eval", "--dataset", str(data), "--checkpoint", str(checkpoint)]
        assert run([*argv, "--out", str(tmp_path / "ev")]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: {message}" in err and "Traceback" not in err

    @staticmethod
    def _drop_test_storm(split):
        return f"storm {split['test'].pop(0)!r} is in no split"

    @staticmethod
    def _swap_test_storm(split):
        split["test"][0] = "storm-nowhere"
        return "storm 'storm-nowhere' is in the split but not among the storms"

    @pytest.mark.parametrize(
        "edit", [_drop_test_storm, _swap_test_storm], ids=["dropped", "swapped"]
    )
    def test_split_that_is_not_a_partition_exits_one(self, pipeline, tmp_path, capsys, edit):
        # a storm in no split would silently take its events out of every split
        data, src = tmp_path / "data", pipeline["data"]
        self._copy_dataset(src, data, stale_sidecar=True)
        (data / "events.jsonl").write_bytes(open(os.path.join(src, "events.jsonl"), "rb").read())
        manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        message = edit(manifest["split"])
        (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["train", "--dataset", str(data), "--out", str(out), "--epochs", "1"]) == 1
        want = f"error: {data / 'manifest.json'}: {message}"
        assert capsys.readouterr().err.splitlines() == [want]
        assert not out.exists()

    def test_manifest_with_no_training_storm_names_the_split(self, pipeline, tmp_path, capsys):
        # still a partition, and 6 storms per class leave 2 to train under the
        # quota, so the message must not blame the storms per class
        data, src = tmp_path / "data", pipeline["data"]
        self._copy_dataset(src, data, stale_sidecar=False)
        (data / "events.jsonl").write_bytes(open(os.path.join(src, "events.jsonl"), "rb").read())
        manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        split = manifest["split"]
        split["test"] += split["train"]
        split["train"] = []
        (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["train", "--dataset", str(data), "--out", str(out), "--epochs", "1"]) == 1
        want = "error: train_model: empty train split: the manifest gives it 0 storms"
        assert capsys.readouterr().err.splitlines() == [want]
        assert not out.exists()

    @staticmethod
    def _no_transform_state(blob):
        (length,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + length])
        header["transform_state"] = None
        return TestErrorHandling._with_header(json.dumps(header).encode())(blob)

    @pytest.mark.parametrize("command", ["eval", "explain", "attention"])
    def test_checkpoint_without_transform_state_exits_one(
        self, pipeline, tmp_path, capsys, command
    ):
        # such a checkpoint cannot encode its inputs, so loading it refuses it
        checkpoint = tmp_path / "checkpoint.bin"
        blob = open(os.path.join(pipeline["run"], "checkpoint.bin"), "rb").read()
        checkpoint.write_bytes(self._no_transform_state(blob))
        out = tmp_path / "out"
        argv = [command, "--dataset", pipeline["data"], "--checkpoint", str(checkpoint)]
        assert run([*argv, "--out", str(out)]) == 1
        want = f"error: {checkpoint}: carries no transform state"
        assert capsys.readouterr().err.splitlines() == [want]
        assert not out.exists()


class TestProcessMemory:
    def test_importing_the_package_leaves_the_allocator_alone(self):
        code = "import etrcast.cli as c; print(c.keep_freed_memory.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0 and out.stdout.strip() == "0", out.stderr

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_repeated_predict_reuses_freed_memory(self):
        assert cli.keep_freed_memory()
        cfg = ModelConfig(**SCALES["desk"]["model"])
        schema, _ = build_schema(GeneratorConfig())
        params = init_params(cfg, schema, seed=0)
        batch = make_batch(schema, cfg, n=512, lengths=[cfg.max_seq_len] * 512)
        predict(params, batch)  # the heap grows to one call's peak once
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            predict(params, batch)
        per_call = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
        assert per_call < 100  # each call faulted its temporaries in afresh without it

    def test_eval_and_train_manifests_record_phase_seconds(self, pipeline, tmp_path):
        # explain and attention record them too
        checkpoint = os.path.join(pipeline["run"], "checkpoint.bin")
        flags = {"eval": [], "explain": ["--revisions", "1", "--events", "1"], "attention": []}
        out_dirs = {"train": pipeline["run"]}
        for command, extra in flags.items():
            out_dirs[command] = str(tmp_path / command)
            argv = [command, "--dataset", pipeline["data"], "--checkpoint", checkpoint]
            assert run([*argv, "--out", out_dirs[command], *extra]) == 0
        inference = {"load", "encode", "predict", "report"}
        expected = {"train": inference | {"train"}, **{command: inference for command in flags}}
        for command, out_dir in out_dirs.items():
            manifest = json.load(open(os.path.join(out_dir, "run_manifest.json")))
            phases = manifest["phase_seconds"]
            assert set(phases) == expected[command], command
            assert all(isinstance(s, float) and s >= 0.0 for s in phases.values())
            assert sum(phases.values()) <= manifest["finished"] - manifest["started"] + 1e-3
        generated = json.load(open(os.path.join(pipeline["data"], "run_manifest.json")))
        assert "phase_seconds" not in generated

    def test_manifest_records_the_environment(self, pipeline):
        manifest = json.load(open(os.path.join(pipeline["run"], "run_manifest.json")))
        env = manifest["environment"]
        assert set(env) == {
            "python", "numpy", "blas", "blas_threads", "etrcast", "cpus", "keeps_freed_memory"
        }
        assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
        assert env["etrcast"] == etrcast.__version__ and env["cpus"] >= 1
        assert env["keeps_freed_memory"] is cli.keep_freed_memory()


    def test_manifest_records_the_blas_threads(self, tmp_path):
        # bits can differ between thread counts, so two manifests must tell them apart
        out = tmp_path / "d"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
        argv = ["generate", "--out", str(out), "--storms-per-class", "5"]
        argv += ["--events-per-storm", "2", "2"]
        done = subprocess.run(
            [sys.executable, "-m", "etrcast.cli", *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        threads = json.load(open(out / "run_manifest.json"))["environment"]["blas_threads"]
        assert threads == (None if cli.blas_threads() is None else 1)

    def test_inference_bits_do_not_depend_on_the_blas_threads(self, tmp_path):
        # training bits hold per thread count only; prediction must not depend on it.
        # eval's 2,048-slot chunks and explain's 2,040-row Shapley calls are large
        # enough for OpenBLAS to split their products between threads.
        data, checkpoint = tmp_path / "data", str(tmp_path / "checkpoint.bin")
        gen = GeneratorConfig(seed=3, storms_per_class=5, events_per_storm=(40, 40))
        dataset = generate_dataset(gen, str(data))
        state = fit_transforms(dataset.split_tables()["train"], dataset.schema)
        params = init_params(ModelConfig(**SCALES["desk"]["model"]), dataset.schema, seed=0)
        fingerprint = dataio.dataset_fingerprint(dataset.schema, dataset.categories)
        save_checkpoint(checkpoint, params, state, fingerprint)
        inputs = ["--dataset", str(data), "--checkpoint", checkpoint]
        explain = ["--revisions", "2", "--events", "2", "--background", "16"]
        for threads in ("1", "2"):
            argvs = [
                ["eval", *inputs, "--out", str(tmp_path / threads / "eval")],
                ["explain", *inputs, *explain, "--out", str(tmp_path / threads / "explain")],
            ]
            code = f"import sys; from etrcast.cli import run; sys.exit(max(map(run, {argvs!r})))"
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
            env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr
        for command in ("eval", "explain"):
            one, two = (tmp_path / threads / command for threads in ("1", "2"))
            names = sorted(set(os.listdir(one)) - {"run_manifest.json"})
            assert names == sorted(set(os.listdir(two)) - {"run_manifest.json"}) and names
            for name in names:
                assert (one / name).read_bytes() == (two / name).read_bytes(), (command, name)
            if cli.blas_threads() is not None:
                for threads, out in (("1", one), ("2", two)):
                    manifest = json.load(open(out / "run_manifest.json"))
                    assert manifest["environment"]["blas_threads"] == int(threads)


needs_openblas = pytest.mark.skipif(kernels.blas_threads() is None, reason="needs OpenBLAS")


@needs_openblas
class TestEvalThreads:
    """``eval`` runs OpenBLAS on one thread and restores the process's count."""

    @staticmethod
    def _eval(pipeline, out, *extra):
        checkpoint = os.path.join(pipeline["run"], "checkpoint.bin")
        return run(["eval", "--dataset", pipeline["data"], "--checkpoint", checkpoint,
                    "--out", str(out), *extra])  # fmt: skip

    def test_eval_restores_the_blas_threads_on_every_exit(self, pipeline, tmp_path, monkeypatch):
        seen = []

        def spy(params, batch):
            seen.append(kernels.blas_threads())
            if overflow:
                raise ValueError("overflow")  # what a checkpoint that overflows raises
            return predict(params, batch)

        monkeypatch.setattr(cli, "predict", spy)
        (tmp_path / "file").write_text("")
        cases = {0: (tmp_path / "ok", False), 1: (tmp_path / "bad", True), 2: (tmp_path / "file", False)}
        for code, (out, overflow) in cases.items():
            seen.clear()
            with kernels.blas_threads_at(2):
                assert self._eval(pipeline, out) == code
                assert kernels.blas_threads() == 2, code
            assert seen and set(seen) == {1}, code
        # the manifest records the process's own count
        manifest = json.loads((tmp_path / "ok" / "run_manifest.json").read_text())
        assert manifest["environment"]["blas_threads"] == 2

    def test_eval_then_train_writes_what_train_alone_writes(self, pipeline, tmp_path):
        train = ["train", "--dataset", pipeline["data"], "--seed", "4", "--epochs", "2"]
        with kernels.blas_threads_at(2):
            assert run([*train, "--out", str(tmp_path / "alone")]) == 0
            assert self._eval(pipeline, tmp_path / "eval") == 0
            assert run([*train, "--out", str(tmp_path / "after")]) == 0
        alone, after = tmp_path / "alone", tmp_path / "after"
        names = sorted(set(os.listdir(alone)) - {"run_manifest.json"})
        assert names == sorted(set(os.listdir(after)) - {"run_manifest.json"}) and names
        for name in names:
            assert (alone / name).read_bytes() == (after / name).read_bytes(), name


class TestReadme:
    def test_quick_start_commands_parse(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        text = open(readme, encoding="utf-8").read()
        section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
        lines = section.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.startswith("etrcast ")]
        assert len(commands) >= 5
        for argv in commands:
            build_parser().parse_args(argv[1:])  # an unknown flag raises CliError


class TestConfigLayering:
    def test_file_overrides_default_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("storms_per_class = 4\nnoise_std = 0.1\n")
        out = str(tmp_path / "d")
        assert (
            run(
                [
                    "generate",
                    "--out", out,
                    "--seed", "2",
                    "--config", str(cfg),
                    "--storms-per-class", "5",  # flag wins over file
                    "--events-per-storm", "4", "6",
                ]
            )
            == 0
        )
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        gen_cfg = manifest["generator_config"]
        assert gen_cfg["storms_per_class"] == 5
        assert gen_cfg["noise_std"] == 0.1

    def test_parse_helpers(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\n\nalpha = 3.5\n")
        assert load_config_file(str(cfg)) == {"alpha": ("3.5", f"{cfg}:3")}
        with pytest.raises(Exception):
            load_config_file(str(tmp_path / "missing.cfg"))

    def test_every_field_reaches_the_resolved_config(self, tmp_path):
        assert set(FIELD_VALUES) == _field_names(*CONFIG_CLASSES)
        for name, (raw, expected) in FIELD_VALUES.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"{name} = {raw}\n")
            with_file = _resolved(cfg, name)
            assert with_file == expected and type(with_file) is type(expected), name
            assert _resolved(None, name) != expected, name

    def test_ffn_and_head_widths_follow_the_file_d_model(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("d_model = 64\n")
        model_cfg, _, _ = _train_configs("--config", str(cfg))
        assert (model_cfg.d_model, model_cfg.ffn_hidden, model_cfg.head_hidden) == (64, 256, 64)
        cfg.write_text("d_model = 64\nhead_hidden = 16\n")
        model_cfg, _, _ = _train_configs("--config", str(cfg))
        assert (model_cfg.ffn_hidden, model_cfg.head_hidden) == (256, 16)

    def test_file_seed_takes_effect_and_the_flag_wins(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("seed = 7\n")
        assert _generator_config().seed == 0
        assert _generator_config("--config", str(cfg)).seed == 7
        assert _generator_config("--config", str(cfg), "--seed", "2").seed == 2
        assert _train_configs()[1].seed == 0
        assert _train_configs("--config", str(cfg))[1].seed == 7
        assert _train_configs("--config", str(cfg), "--seed", "2")[1].seed == 2

    @pytest.mark.parametrize(
        "command, line",
        [
            ("generate", "events_per_storm = 4"),
            ("generate", "split_ratios = 0.7 0.3"),
            ("generate", "revisions_per_event = 3 4 5"),
            ("train", "max_epochs = 1.5"),
            ("train", "alpha = high"),
        ],
    )
    def test_malformed_value_exits_one_naming_the_key(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = str(tmp_path / "o")
        argv = {"generate": ["generate"], "train": ["train", "--dataset", str(tmp_path / "none")]}
        assert run([*argv[command], "--out", out, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"config key {line.split()[0]!r}" in err and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "command, content, message",
        [
            ("generate", b"\xff = 1\n", ":1: not UTF-8 text"),
            ("train", b"# model\nn_heads = 2\nd_model = \xe9\n", ":3: not UTF-8 text"),
            ("train", b"# model\nd_model = abc\n", ":2: config key 'd_model': cannot parse 'abc'"),
            ("generate", b"\n\nnoise_std = 0..1\n",
             ":3: config key 'noise_std': cannot parse '0..1'"),
            ("train", b"d_model = 8\nepochs = 2\n", ":2: unknown config key 'epochs'"),
            # the generator's magnitude thresholds and sequence cap were removed
            ("generate", b"seed = 1\nthresholds = 0.04, 0.3\n",
             ":2: unknown config key 'thresholds'"),
            ("generate", b"max_seq_len = 30\n", ":1: unknown config key 'max_seq_len'"),
        ],
        ids=["first_byte", "third_line", "train_value", "generate_value", "unknown_key",
             "removed_thresholds", "removed_max_seq_len"],
    )  # fmt: skip
    def test_config_file_error_names_path_and_line(
        self, tmp_path, capsys, command, content, message
    ):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(content)
        out = tmp_path / "o"
        argv = [command, "--out", str(out), "--config", str(cfg)]
        if command == "train":
            argv += ["--dataset", str(tmp_path / "none")]
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"{cfg}{message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_repeated_key_names_both_lines(self, tmp_path, capsys, command):
        # the later value used to win silently: max_epochs 1 then 2 trained 2 epochs
        key = {"generate": "noise_std", "train": "max_epochs"}[command]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = 1\n# again\n{key}= 2\n")
        out = tmp_path / "o"
        argv = [command, "--out", str(out), "--config", str(cfg)]
        if command == "train":
            argv += ["--dataset", str(tmp_path / "none")]
        assert run(argv) == 1
        want = f"{cfg}:3: config key {key!r} already set at {cfg}:1"
        assert capsys.readouterr().err.splitlines() == [want]
        assert not out.exists()


CONFIG_CLASSES = (GeneratorConfig, ModelConfig, TrainConfig, LossConfig)

# a valid value unlike the resolved default (desk preset for train), per field
FIELD_VALUES = {
    # GeneratorConfig; seed is also a TrainConfig field
    "seed": ("7", 7),
    "storms_per_class": ("6", 6),
    "events_per_storm": ("3, 4", (3, 4)),
    "revisions_per_event": ("2 5", (2, 5)),
    "n_filler_categorical": ("2", 2),
    "n_filler_continuous": ("3", 3),
    "noise_std": ("0.25", 0.25),
    "missing_rate": ("0.1", 0.1),
    "split_ratios": ("0.6 0.2 0.2", (0.6, 0.2, 0.2)),
    # ModelConfig
    "max_seq_len": ("12", 12),
    "d_model": ("64", 64),
    "n_layers": ("3", 3),
    "n_heads": ("8", 8),
    "ffn_hidden": ("100", 100),
    "head_hidden": ("20", 20),
    "embed_dim_cap": ("8", 8),
    "dropout": ("0.1", 0.1),
    "pe_base": ("500", 500.0),
    "head_bias_init": ("1.5", 1.5),
    # TrainConfig
    "learning_rate": ("0.01", 0.01),
    "batch_size": ("64", 64),
    "beta1": ("0.8", 0.8),
    "beta2": ("0.99", 0.99),
    "adam_eps": ("1e-7", 1e-7),
    "plateau_factor": ("0.5", 0.5),
    "plateau_patience": ("3", 3),
    "min_delta": ("0.01", 0.01),
    "max_epochs": ("7", 7),
    # LossConfig
    "alpha": ("4", 4.0),
    "beta": ("3", 3.0),
    "tau": ("6.5", 6.5),
}


def _generator_config(*argv):
    args = build_parser().parse_args(["generate", "--out", "unused", *argv])
    return cli._resolve(GeneratorConfig, {}, cli._config_file(args, GeneratorConfig), args)


def _train_configs(*argv):
    args = build_parser().parse_args(["train", "--dataset", "unused", "--out", "unused", *argv])
    return cli._configs_from_args(args)


def _resolved(cfg, name):
    """Field ``name`` as resolved by generate and/or train, whichever has it."""
    argv = ("--config", str(cfg)) if cfg else ()
    values = []
    if name in _field_names(GeneratorConfig):
        values.append(getattr(_generator_config(*argv), name))
    if name in _field_names(ModelConfig, TrainConfig, LossConfig):
        values += [getattr(c, name) for c in _train_configs(*argv) if name in _field_names(type(c))]
    assert values and all(v == values[0] for v in values), (name, values)
    return values[0]


def _field_names(*classes):
    return {f.name for cls in classes for f in fields(cls)}


_number = st.one_of(
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-0"]),
)
_value = st.one_of(
    _number,
    st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
    st.builds(lambda sep, parts: sep.join(parts), st.sampled_from([" ", ",", ", "]),
              st.lists(_number, max_size=4)),
)
_key = st.sampled_from(
    sorted(_field_names(*CONFIG_CLASSES)) + ["no_such_knob", "D_MODEL", "lr", "epochs", "trials"]
)
_config_text = st.lists(st.builds("{} = {}".format, _key, _value), max_size=6).map("\n".join)


@settings(max_examples=60, deadline=None)
@given(text=_config_text)
def test_any_config_file_ends_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        data = os.path.join(tmp, "data")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            missing = os.path.join(tmp, "missing")
            train_code = run(["train", "--dataset", missing, "--out", os.path.join(tmp, "t"),
                              "--config", cfg])  # fmt: skip
            gen_code = run(["generate", "--out", data, "--storms-per-class", "1", "--config", cfg])
        assert train_code in (1, 2)
        assert gen_code == 1
        assert not os.path.exists(data)
        assert "Traceback" not in err.getvalue()


def _artifacts(out_dir: str) -> dict[str, bytes]:
    """Every output file of a command except its run manifest, by name."""
    names = sorted(set(os.listdir(out_dir)) - {"run_manifest.json"})
    return {name: open(os.path.join(out_dir, name), "rb").read() for name in names}


# each inference command as the data-file fuzz test runs it, kept small
FUZZED = {
    "eval": [],
    "explain": ["--revisions", "1", "--events", "1", "--permutations", "4"],
    "attention": [],
}


def _clean_run(pipeline, command: str) -> dict[str, bytes]:
    out = os.path.join(pipeline["root"], f"clean_{command}")
    checkpoint = os.path.join(pipeline["run"], "checkpoint.bin")
    argv = [command, "--dataset", pipeline["data"], "--checkpoint", checkpoint, "--out", out]
    assert run([*argv, *FUZZED[command]]) == 0
    return _artifacts(out)


@pytest.fixture(scope="module")
def clean_eval(pipeline):
    return _clean_run(pipeline, "eval")


@pytest.fixture(scope="module")
def clean_explain(pipeline):
    return _clean_run(pipeline, "explain")


@pytest.fixture(scope="module")
def clean_attention(pipeline):
    return _clean_run(pipeline, "attention")


def _sidecar_key_bytes(blob: bytes) -> set[int]:
    """Positions in an events.bin file of its recorded keys, names and values."""
    (length,) = struct.unpack("<Q", blob[8:16])
    header = blob[16 : 16 + length]
    positions = set()
    for key in (b"format_version", b"events_sha256", b"dataset_fingerprint"):
        start = header.index(b'"%s":' % key)
        positions.update(range(16 + start, 16 + header.index(b",", start)))
    return positions


def _damage_region(target: str, blob: bytes, draw) -> tuple[list[int], tuple[str, ...]]:
    """Byte positions ``target`` may damage, and the damage kinds it may take."""
    if target == "manifest.json":
        return list(range(len(blob))), ("overwrite", "truncate")
    if target == "events.jsonl":  # one line, cut short or with one byte changed
        starts = [0] + [i + 1 for i, byte in enumerate(blob) if byte == ord("\n")][:-1]
        line = draw(st.integers(0, len(starts) - 1))
        return list(range(starts[line], blob.index(b"\n", starts[line]))), ("overwrite", "cut")
    if target.startswith("events.bin"):
        keys = _sidecar_key_bytes(blob)
        if target == "events.bin keys":
            return sorted(keys), ("overwrite",)
        return sorted(set(range(len(blob))) - keys), ("overwrite", "truncate", "append")
    (length,) = struct.unpack("<Q", blob[8:16])
    if target == "checkpoint header":
        return list(range(16 + length)), ("overwrite",)
    return list(range(16 + length, len(blob))), ("overwrite", "truncate", "append")


def _finite_tensors(blob: bytes) -> bool:
    """Whether a checkpoint file's tensor bytes, read as float64, are all finite."""
    (length,) = struct.unpack("<Q", blob[8:16])
    data = bytes(blob[16 + length :])
    return np.isfinite(np.frombuffer(data[: len(data) // 8 * 8], "<f8")).all()


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(sorted(FUZZED)),
    target=st.sampled_from(["manifest.json", "events.jsonl", "events.bin", "events.bin keys",
                            "checkpoint header", "checkpoint tensors"]),
    data=st.data(),
)  # fmt: skip
def test_any_damaged_data_file_ends_in_an_exit_code(
    pipeline, clean_eval, clean_explain, clean_attention, command, target, data
):
    """One damaged input file ends an inference command in a documented exit code.

    The command is ``eval``, ``explain`` or ``attention``; none ends in a
    traceback. Damage to a file that still holds valid input may exit 0. A
    sidecar whose recorded keys still match is never read silently: it exits 1
    naming the file. One whose keys were damaged is stale, and the command then
    gives the outputs of the undamaged files, or exits 1 if the header is
    unreadable.
    """
    clean = {"eval": clean_eval, "explain": clean_explain, "attention": clean_attention}[command]
    with tempfile.TemporaryDirectory() as tmp:
        dataset = os.path.join(tmp, "data")
        shutil.copytree(pipeline["data"], dataset)
        checkpoint = shutil.copy(os.path.join(pipeline["run"], "checkpoint.bin"), tmp)
        name = target.split()[0]
        path = checkpoint if name == "checkpoint" else os.path.join(dataset, name)
        blob = bytearray(open(path, "rb").read())
        positions, kinds = _damage_region(target, bytes(blob), data.draw)
        at = data.draw(st.sampled_from(positions))
        kind = data.draw(st.sampled_from(kinds))
        if kind == "overwrite":
            blob[at] = (blob[at] + data.draw(st.integers(1, 255))) % 256
        elif kind == "cut":
            del blob[at : blob.index(b"\n", at)]
        elif kind == "truncate":
            del blob[at:]
        else:
            blob += b"\0"
        with open(path, "wb") as fh:
            fh.write(blob)
        out = os.path.join(tmp, "out")
        argv = [command, "--dataset", dataset, "--checkpoint", checkpoint, "--out", out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run([*argv, *FUZZED[command]])
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
        if target == "checkpoint tensors" and not _finite_tensors(blob):
            assert code == 1 and f"{path}: tensor " in err.getvalue()
        elif target == "events.bin":
            assert code == 1 and f"{path}: " in err.getvalue()
        elif target == "events.bin keys":
            assert code == 1 or _artifacts(out) == clean
