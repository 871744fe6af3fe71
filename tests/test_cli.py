import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from etrcast.cli import SCALES, load_config_file, run
from etrcast.data import Revision
from etrcast.losses import LossConfig
from etrcast.model import load_checkpoint, save_checkpoint

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
                "--threads", "1",
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
            os.path.join(out, "events.jsonl"),
            os.path.join(out, "manifest.json"),
        }

    def test_deterministic_rerun(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run(["generate", "--out", a, "--seed", "5", *GEN_ARGS])
        run(["generate", "--out", b, "--seed", "5", *GEN_ARGS])
        for name in ("manifest.json", "events.jsonl"):
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

    def test_scale_presets(self):
        assert SCALES["desk"]["model"]["d_model"] == 32
        assert SCALES["full"]["model"]["d_model"] == 128
        assert SCALES["full"]["train"]["learning_rate"] == 1e-4
        assert SCALES["full"]["train"]["batch_size"] == 1024

    def test_trials_write_per_trial_dirs(self, pipeline, tmp_path):
        out = str(tmp_path / "multi")
        code = run(
            [
                "train",
                "--dataset", pipeline["data"],
                "--out", out,
                "--seed", "0",
                "--epochs", "1",
                "--trials", "2",
            ]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "trial0", "checkpoint.bin"))
        assert os.path.exists(os.path.join(out, "trial1", "checkpoint.bin"))
        summary = json.load(open(os.path.join(out, "trials_summary.json")))
        assert len(summary["test_wae_per_trial"]) == 2


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
        assert manifest["config"]["loss"] == {
            "alpha": 3.0, "beta": 2.0, "tau": 8.0, "continuous_over": False
        }  # fmt: skip
        params, _, _ = load_checkpoint(checkpoint)
        assert params.loss == LossConfig(alpha=3.0)

    def test_version_one_checkpoint_loads_with_default_loss(self, pipeline, tmp_path):
        good = os.path.join(pipeline["run"], "checkpoint.bin")
        blob = open(good, "rb").read()
        (length,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + length])
        assert header.pop("format_version") == 2
        del header["loss"]
        old = json.dumps({**header, "format_version": 1}, sort_keys=True).encode()
        path = str(tmp_path / "v1.bin")
        with open(path, "wb") as fh:
            fh.write(blob[:8] + struct.pack("<Q", len(old)) + old + blob[16 + length :])
        params, state, fingerprint = load_checkpoint(path)
        reference, ref_state, ref_fingerprint = load_checkpoint(good)
        assert params.loss == LossConfig() and fingerprint == ref_fingerprint
        assert state == ref_state
        assert all(np.array_equal(params.tensors[k], v) for k, v in reference.tensors.items())
        args = ["eval", "--dataset", pipeline["data"], "--checkpoint", path]
        assert run([*args, "--out", str(tmp_path / "ev")]) == 0


class TestCommandsStayColumnar:
    def test_commands_build_no_revision_objects(self, pipeline, tmp_path, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a command built a Revision object")

        monkeypatch.setattr(Revision, "__init__", refuse)
        assert run(["generate", "--out", str(tmp_path / "gen"), "--seed", "0", *GEN_ARGS]) == 0
        out = str(tmp_path / "run")
        args = ["--dataset", pipeline["data"], "--seed", "0"]
        assert run(["train", *args, "--out", out, "--epochs", "1"]) == 0
        checkpoint = ["--checkpoint", os.path.join(out, "checkpoint.bin")]
        assert run(["eval", *args, *checkpoint, "--out", str(tmp_path / "ev")]) == 0
        explain = ["--revisions", "2", "--events", "1", "--permutations", "4"]
        assert run(["explain", *args, *checkpoint, *explain, "--out", str(tmp_path / "ex")]) == 0
        assert run(["attention", *args, *checkpoint, "--out", str(tmp_path / "at")]) == 0
        with pytest.raises(AssertionError):
            Revision(0.0, (0,), (0.0,))


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
        ],
        ids=["malformed_json", "missing_field", "unknown_category", "wrong_type",
             "repeated_timestamp", "negative_target", "wrong_value_count", "no_revisions"],
    )  # fmt: skip
    def test_bad_events_line_names_file_and_line(self, pipeline, tmp_path, capsys, damage, message):
        data = tmp_path / "data"
        data.mkdir()
        src = pipeline["data"]
        (data / "manifest.json").write_bytes(open(os.path.join(src, "manifest.json"), "rb").read())
        lines = open(os.path.join(src, "events.jsonl"), encoding="utf-8").read().splitlines()
        event = json.loads(lines[1])["event_id"]
        lines[1] = damage(json.loads(lines[1]))
        (data / "events.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["train", "--dataset", str(data), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"{data / 'events.jsonl'}:2: {message.format(event=event)}" in err
        assert "Traceback" not in err

    def test_first_bad_event_is_reported(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        src = pipeline["data"]
        (data / "manifest.json").write_bytes(open(os.path.join(src, "manifest.json"), "rb").read())
        lines = open(os.path.join(src, "events.jsonl"), encoding="utf-8").read().splitlines()
        # a later line fails an earlier check, an earlier line a later one
        lines[2] = self._unknown_category(json.loads(lines[2]))
        lines[3] = lines[3][:-5]
        lines[1] = json.dumps({**json.loads(lines[1]), "target_duration": None})
        (data / "events.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["train", "--dataset", str(data), "--out", str(tmp_path / "o")]) == 1
        assert f"{data / 'events.jsonl'}:2: event " in capsys.readouterr().err

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
        assert load_config_file(str(cfg)) == {"alpha": "3.5"}
        with pytest.raises(Exception):
            load_config_file(str(tmp_path / "missing.cfg"))


class TestSelfcheck:
    def test_passes(self, capsys):
        assert run(["selfcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok:") >= 5

    def test_checks_run_under_optimize_flag(self):
        import etrcast

        src = os.path.dirname(os.path.dirname(etrcast.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "etrcast.cli", "selfcheck", "--seed", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )  # fmt: skip
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("ok:") == 5
        assert "selfcheck passed (5 checks)" in proc.stdout

    def test_failed_check_exits_one_and_names_it(self, monkeypatch, capsys):
        from etrcast import cli

        monkeypatch.setattr(cli, "opr8", lambda preds, actuals: 1.0)
        assert run(["selfcheck", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert "selfcheck failed: opr8" in captured.err
        assert "selfcheck passed" not in captured.out
