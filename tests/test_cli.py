"""CLI behavior: command outputs, reproducibility, exit codes."""

import os
import shutil
import struct

import numpy as np
import pytest

from avparse.cli import main, parse_config_file
from avparse.data import parse_manifest
from avparse.errors import AvparseError
from avparse.trainer import TrainConfig, train_on_dir


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


SYNTH_ARGS = ["--videos", "8", "--val", "4", "--segments", "6", "--classes", "5",
              "--audio-dim", "8", "--visual-dim", "8"]


class TestSynth:
    def test_bit_identical_under_fixed_seed(self, tmp_path):
        for name in ("one", "two"):
            code = main(["synth", "--out", str(tmp_path / name), "--seed", "7", *SYNTH_ARGS])
            assert code == 0
        assert tree_bytes(tmp_path / "one") == tree_bytes(tmp_path / "two")

    def test_different_seed_differs(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "a"), "--seed", "7", *SYNTH_ARGS])
        main(["synth", "--out", str(tmp_path / "b"), "--seed", "8", *SYNTH_ARGS])
        assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")

    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text("videos = 8\nval = 4\nsegments = 6\nclasses = 5\n"
                          "audio-dim = 8\nvisual-dim = 8\nseed = 7\n")
        main(["synth", "--out", str(tmp_path / "from_cfg"), "--config", str(config)])
        main(["synth", "--out", str(tmp_path / "from_flags"), "--seed", "7", *SYNTH_ARGS])
        assert tree_bytes(tmp_path / "from_cfg") == tree_bytes(tmp_path / "from_flags")

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text("seed = 7\nvideos = 8\nval = 0\nsegments = 6\nclasses = 5\n"
                          "audio-dim = 8\nvisual-dim = 8\n")
        main(["synth", "--out", str(tmp_path / "c7"), "--config", str(config)])
        main(["synth", "--out", str(tmp_path / "c9"), "--config", str(config),
              "--seed", "9"])
        assert tree_bytes(tmp_path / "c7") != tree_bytes(tmp_path / "c9")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    assert main(["synth", "--out", str(root), "--seed", "3", *SYNTH_ARGS]) == 0
    return root


class TestAugmentCommand:
    def test_multiplier_one_yields_pool_size(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "cmrc"
        code = main(["augment", "--data", str(dataset_dir), "--out", str(out),
                     "--multiplier", "1.0", "--min-count", "1", "--seed", "0"])
        assert code == 0
        lines = (out / "provenance.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 8  # header + one row per training video

    def test_reproducible(self, dataset_dir, tmp_path):
        for name in ("r1", "r2"):
            main(["augment", "--data", str(dataset_dir), "--out", str(tmp_path / name),
                  "--multiplier", "1.0", "--min-count", "1", "--seed", "5"])
        assert tree_bytes(tmp_path / "r1") == tree_bytes(tmp_path / "r2")

    def test_capacity_error_exit_code(self, dataset_dir, tmp_path):
        code = main(["augment", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
                     "--count", "100000", "--seed", "0"])
        assert code == 1


class TestTrainEvalMetrics:
    def test_full_pipeline(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        code = main(["train", "--data", str(dataset_dir), "--out", str(run),
                     "--epochs", "2", "--batch-size", "4", "--dim", "12", "--seed", "0"])
        assert code == 0
        checkpoint = run / "checkpoint.mugc"
        assert checkpoint.exists() and (run / "train_log.csv").exists()

        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset_dir),
                     "--split", "val", "--out", str(out)])
        assert code == 0
        report_csv = (out / "report_val.csv").read_text().strip().splitlines()
        eval_scores = [float(v) for v in report_csv[1].split(",")]

        capsys.readouterr()
        code = main(["metrics", "--pred", str(out / "predictions_val.csv"),
                     "--gt", str(dataset_dir / "gt_val.csv"),
                     "--out", str(tmp_path / "metrics.csv")])
        assert code == 0
        metrics_csv = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        metrics_scores = [float(v) for v in metrics_csv[1].split(",")]
        assert np.allclose(eval_scores, metrics_scores, atol=1e-6)

    def test_truncated_val_manifest_fails_loudly(self, dataset_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = data / "manifest_val.txt"
        raw = manifest.read_bytes()
        manifest.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(AvparseError):
            train_on_dir(str(data), str(tmp_path / "direct"), config=TrainConfig(epochs=1))
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--epochs", "1", "--batch-size", "4", "--dim", "12", "--seed", "0"])
        assert code == 1

    def test_eval_missing_checkpoint_is_validation_error(self, dataset_dir, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "ghost.mugc"),
                     "--data", str(dataset_dir)])
        assert code == 1

    def test_nonfinite_feature_value_exit_one(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), "--epochs", "1",
                     "--batch-size", "4", "--dim", "12"]) == 0
        audio_rel = parse_manifest(data / "manifest_val.txt").records[0][1]
        feature = data / audio_rel
        raw = bytearray(feature.read_bytes())
        raw[16:20] = struct.pack("<f", float("nan"))  # first payload value
        feature.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.mugc"),
                     "--data", str(data)]) == 1
        assert os.path.basename(audio_rel) in capsys.readouterr().err


class TestMetricsStandalone:
    def test_fixture_report(self, tmp_path, capsys):
        from avparse.data import write_label_csv
        from tests.test_metrics import FIXTURE_EXPECTED, T, fixture_three_videos

        preds, gt = fixture_three_videos()
        classes = ["Speech", "Dog", "Violin"]
        pred_path = tmp_path / "pred.csv"
        gt_path = tmp_path / "gt.csv"
        write_label_csv(pred_path, {v: {"a": p.pred_a, "v": p.pred_v}
                                    for v, p in preds.items()}, classes, T)
        write_label_csv(gt_path, {v: {"a": g[0], "v": g[1]} for v, g in gt.items()},
                        classes, T)
        code = main(["metrics", "--pred", str(pred_path), "--gt", str(gt_path),
                     "--out", str(tmp_path / "rep.csv")])
        assert code == 0
        lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        values = dict(zip(header, (float(v) for v in lines[1].split(","))))
        for name, expected in FIXTURE_EXPECTED.items():
            assert values[name] == pytest.approx(expected, abs=1e-6)

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["metrics", "--pred", str(tmp_path / "no.csv"),
                     "--gt", str(tmp_path / "no.csv")]) == 1

    @pytest.mark.parametrize("config_text", [
        None,  # the config file does not exist
        "this is not a key value line\n",
        "seed = 3\n",  # metrics reads no config key
    ], ids=["missing", "malformed", "unknown-key"])
    def test_config_is_read(self, tmp_path, capsys, config_text):
        from avparse.data import write_label_csv

        labels = {"vid": {"a": np.eye(2), "v": np.zeros((2, 2))}}
        for name in ("pred.csv", "gt.csv"):
            write_label_csv(tmp_path / name, labels, ["Dog", "Speech"], 2)
        config = tmp_path / "metrics.cfg"
        if config_text is not None:
            config.write_text(config_text)
        assert main(["metrics", "--pred", str(tmp_path / "pred.csv"),
                     "--gt", str(tmp_path / "gt.csv"), "--config", str(config)]) == 1
        assert "metrics.cfg" in capsys.readouterr().err


class TestChecks:
    def test_scan_check_passes(self, capsys):
        assert main(["scan-check", "--cases", "10", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "fused vs sequential" in out

    def test_grad_check_ops_only(self, capsys):
        assert main(["grad-check", "--skip-model", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "gradient checks passed" in out


class TestArgumentHandling:
    def test_unknown_command_exit_one(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_unknown_flag_exit_one(self, capsys):
        assert main(["synth", "--out", "x", "--warp", "9"]) == 1

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a key value line\n")
        assert main(["synth", "--out", str(tmp_path / "o"), "--config", str(bad)]) == 1

    @pytest.mark.parametrize("command, line", [
        (["train", "--data", "no_data"], "epochs = x"),
        (["synth"], "seed = 1.5"),
        (["synth"], "shared-directions = ture"),  # not silently read as false
        (["synth"], "epoch = 3"),  # keys no flag of the command reads
        (["synth"], "vidoes = 2"),
        (["synth"], "seed = -1"),
        (["augment", "--data", "no_data"], "seed = -1"),
        (["train", "--data", "no_data"], "seed = -1"),
        (["train", "--data", "no_data"], "weight-decay = -5"),
    ])
    def test_malformed_config_value_exit_one(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main([*command, "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "bad.cfg" in err and repr(line.split()[0]) in err

    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--out", "{tmp}/o", "--seed", "-1"], "--seed"),
        (["augment", "--data", "{data}", "--out", "{tmp}/o", "--seed", "-1"], "--seed"),
        (["train", "--data", "{data}", "--out", "{tmp}/o", "--seed", "-1"], "--seed"),
        (["train", "--data", "{data}", "--out", "{tmp}/o", "--epochs", "1", "--dim", "12",
          "--weight-decay", "-5"], "--weight-decay"),
        (["scan-check", "--seed", "-1"], "--seed"),
        (["scan-check", "--cases", "-3"], "--cases"),  # no case would be checked
        (["scan-check", "--cases", "0"], "--cases"),
        (["grad-check", "--skip-model", "--seed", "-1"], "--seed"),
    ])
    def test_out_of_range_flag_exit_one(self, dataset_dir, tmp_path, capsys, argv, flag):
        argv = [arg.format(tmp=tmp_path, data=dataset_dir) for arg in argv]
        assert main(argv) == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["version", "segments"])
    def test_malformed_manifest_number_exit_one(self, tmp_path, capsys, key):
        lines = {"format": "avparse-manifest", "version": "1", "split": "train",
                 "segments": "6", "classes": "a;b", key: "x"}
        (tmp_path / "manifest_train.txt").write_text(
            "".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert main(["augment", "--data", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "manifest_train.txt" in err and repr(key) in err

    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nepochs = 3\n\nlr = 0.001\n")
        assert parse_config_file(cfg) == {"epochs": "3", "lr": "0.001"}
