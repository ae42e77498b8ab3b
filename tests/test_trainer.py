"""Training loop: determinism, checkpointing, loss calibration, ablations."""

import dataclasses
import os
import struct
import subprocess
import sys
import types

import numpy as np
import pytest

import avparse
from avparse import tensor as tt
from avparse import trainer as trainer_module
from avparse.checkpoint import load_checkpoint, save_checkpoint
from avparse.cli import main as cli_main
from avparse.data import SynthConfig, generate_synthetic_dataset, make_synthetic
from avparse.errors import CheckpointError, ConfigError, TrainingError
from avparse.model import AVMambaNet, ModelConfig, compute_loss
from avparse.trainer import (TextCache, TrainConfig, ablate, augmented_records,
                             evaluate_checkpoint, evaluate_records, forward_record,
                             load_model, pinned_shapes, predict_records, save_model, train,
                             train_on_dir)
from avparse.tensor import AdamW
from tests.test_tensor import assert_views_of

TINY_MODEL = dict(n_segments=6, dim=12, n_classes=5, d_state=4,
                  d_audio_in=8, d_visual_in=8, text_dim=8)


@pytest.fixture(scope="module")
def tiny_dataset():
    cfg = SynthConfig(seed=5, n_videos=8, n_val=4, n_segments=6, n_classes=5,
                      d_audio=8, d_visual=8)
    return make_synthetic(cfg)


def malformed_checkpoint(tmp_path, name, value):
    """A tiny full-AMF checkpoint with entry ``name`` set to ``value``."""
    path = tmp_path / "model.mugc"
    save_model(path, AVMambaNet(ModelConfig(**TINY_MODEL), seed=0))
    entries = load_checkpoint(path)
    entries[name] = np.array(value, dtype=np.float64)
    save_checkpoint(path, entries)
    return path


def append_entry(path, name, value):
    """Append one more entry ``name`` to the checkpoint at ``path``."""
    single = path.with_suffix(".one")
    save_checkpoint(single, {name: np.array(value, dtype=np.float64)})
    blob = path.read_bytes()
    count = struct.unpack("<I", blob[8:12])[0]
    path.write_bytes(blob[:8] + struct.pack("<I", count + 1) + blob[12:]
                     + single.read_bytes()[12:])


def tiny_train(ds, **overrides):
    model_config = ModelConfig(**TINY_MODEL)
    defaults = dict(epochs=2, batch_size=4, seed=0, eval_every=1)
    defaults.update(overrides)
    return train(model_config, ds.train, ds.classes, ds.val, ds.gt_val,
                 TrainConfig(**defaults))


class TestTrainingLoop:
    def test_same_seed_identical_checkpoints(self, tiny_dataset, tmp_path):
        paths = []
        for run in ("a", "b"):
            model_config = ModelConfig(**TINY_MODEL)
            path = tmp_path / f"ckpt_{run}.mugc"
            train(model_config, tiny_dataset.train, tiny_dataset.classes,
                  tiny_dataset.val, tiny_dataset.gt_val,
                  TrainConfig(epochs=2, batch_size=4, seed=3),
                  checkpoint_path=path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_checkpoint_bytes_independent_of_blas_threads(self, tmp_path):
        # the seed-7 desk protocol (full AMF), trained in one process per
        # OpenBLAS thread count
        script = (
            "import sys\n"
            "from avparse.data import SynthConfig, make_synthetic\n"
            "from avparse.model import ModelConfig\n"
            "from avparse.trainer import TrainConfig, train\n"
            "ds = make_synthetic(SynthConfig(seed=7, n_videos=16, n_val=8))\n"
            "train(ModelConfig(), ds.train, ds.classes, ds.val, ds.gt_val,\n"
            "      TrainConfig(epochs=2, batch_size=4, seed=7, cmrc_multiplier=0.5,\n"
            "                  min_count=1), checkpoint_path=sys.argv[1])\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(avparse.__file__)))
        blobs = []
        for threads in ("1", "2"):
            path = tmp_path / f"threads_{threads}.mugc"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_different_seed_different_checkpoint(self, tiny_dataset, tmp_path):
        blobs = []
        for seed in (0, 1):
            model_config = ModelConfig(**TINY_MODEL)
            path = tmp_path / f"s{seed}.mugc"
            train(model_config, tiny_dataset.train, tiny_dataset.classes,
                  config=TrainConfig(epochs=1, batch_size=4, seed=seed),
                  checkpoint_path=path)
            blobs.append(path.read_bytes())
        assert blobs[0] != blobs[1]

    def test_log_has_one_entry_per_epoch(self, tiny_dataset):
        _, log = tiny_train(tiny_dataset, epochs=3)
        assert [e.epoch for e in log.entries] == [0, 1, 2]
        assert log.parameter_count > 0
        assert all(np.isfinite(e.loss) for e in log.entries)

    def test_untrained_loss_matches_bce_calibration(self, tiny_dataset):
        # sigmoid(~0) everywhere gives ln 2 per BCE term
        model_config = ModelConfig(**TINY_MODEL)
        net = AVMambaNet(model_config, seed=0)
        texts = TextCache(tiny_dataset.classes, model_config.text_dim)
        losses = []
        for record in tiny_dataset.train:
            outputs = forward_record(net, record, texts)
            loss = compute_loss(outputs, record.video_label, record.pseudo_a,
                                record.pseudo_v, record.null_a, record.null_v)
            losses.append(loss.item())
        expected = np.log(2.0) * 3.0  # video + lambda_a + lambda_v terms
        assert np.mean(losses) == pytest.approx(expected, rel=0.2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_tensor_name(self, tiny_dataset):
        model_config = ModelConfig(**TINY_MODEL)
        net_probe = AVMambaNet(model_config, seed=0)
        del net_probe

        import avparse.trainer as trainer_mod

        original = trainer_mod.AVMambaNet

        class Poisoned(original):
            def __init__(self, config, seed=0):
                super().__init__(config, seed)
                self.proj_a.w.data[0, 0] = np.nan

        trainer_mod.AVMambaNet = Poisoned
        try:
            with pytest.raises(TrainingError, match="non-finite"):
                tiny_train(tiny_dataset, epochs=1)
        finally:
            trainer_mod.AVMambaNet = original

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_diagnostic_names_first_stage(self, tiny_dataset):
        import avparse.trainer as trainer_mod

        original = trainer_mod.AVMambaNet

        class Poisoned(original):
            def __init__(self, config, seed=0):
                super().__init__(config, seed)
                self.proj_a.w.data[0, 0] = np.nan

        trainer_mod.AVMambaNet = Poisoned
        try:
            with pytest.raises(TrainingError, match="tsa_out_a"):
                tiny_train(tiny_dataset, epochs=1)
        finally:
            trainer_mod.AVMambaNet = original


class TestFlatParameters:
    def test_best_state_restore_keeps_parameters_views(self, tiny_dataset):
        net, log = tiny_train(tiny_dataset, epochs=3)
        assert_views_of(net.parameters().values(), net.store)
        best = max(e.report.seg_type_at_av for e in log.entries)
        score = evaluate_records(net, tiny_dataset.val, tiny_dataset.gt_val,
                                 tiny_dataset.classes).seg_type_at_av
        assert score == best

    @pytest.mark.parametrize("scores, stop, best", [
        ([0.1, 0.2, 0.3], None, 2),  # the last epoch is best: no snapshot, no restore
        ([0.1, 0.3, 0.2], None, 1),  # the snapshot of epoch 0 is refilled at epoch 1
        ([0.3, 0.1, 0.2, 0.2], None, 0),
        ([0.1, 0.4, 0.2], 0.35, 1),  # training stops on the best epoch
    ])
    def test_returned_store_is_the_best_epochs(self, tiny_dataset, monkeypatch, scores, stop,
                                               best):
        stores = []

        def scripted(net, *args, **kwargs):
            stores.append(net.store.copy())
            return types.SimpleNamespace(seg_type_at_av=scores[len(stores) - 1])

        monkeypatch.setattr(trainer_module, "evaluate_records", scripted)
        net, log = tiny_train(tiny_dataset, epochs=len(scores), stop_at_type_av=stop)
        assert len(log.entries) == len(stores) == (best + 1 if stop else len(scores))
        assert np.array_equal(net.store, stores[best])
        assert_views_of(net.parameters().values(), net.store)

    @pytest.mark.parametrize("changes", [{}, {"amf_mode": "private", "use_tsa": False}])
    def test_new_net_owns_one_store_that_adamw_updates(self, changes):
        net = AVMambaNet(ModelConfig(**{**TINY_MODEL, **changes}), seed=3)
        params = net.parameters()
        assert_views_of(params.values(), net.store)
        opt = AdamW(params)
        assert opt.buffer is net.store
        for p in params.values():
            p.grad = np.ones_like(p.data)
        before = net.store.copy()
        opt.step()
        assert_views_of(params.values(), net.store)
        assert not np.array_equal(net.store, before)

    def test_loaded_model_packs_into_a_new_buffer(self, tiny_dataset, tmp_path):
        net, _ = tiny_train(tiny_dataset, epochs=1)
        path = tmp_path / "model.mugc"
        save_model(path, net)
        loaded = load_model(path)
        params = loaded.parameters()
        assert_views_of(params.values(), loaded.store)
        store = tt.pack(params.values())
        assert store is not loaded.store
        opt = AdamW(params)
        assert_views_of(params.values(), opt.buffer)
        assert opt.buffer is store
        for name, p in net.parameters().items():
            assert np.array_equal(params[name].data, p.data)
            params[name].grad = np.ones_like(p.data)
        opt.step()
        assert_views_of(params.values(), opt.buffer)

    def test_load_model_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "model.mugc"
        net = AVMambaNet(ModelConfig(**TINY_MODEL), seed=4)
        save_model(path, net)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_model made a random generator")

        # numpy's Generator type cannot be patched, so no generator may be made
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded = load_model(path)
        assert_views_of(loaded.parameters().values(), loaded.store)
        assert np.array_equal(loaded.store, net.store)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, capsys, value):
        shape = AVMambaNet(ModelConfig(**TINY_MODEL), seed=0).mmil.classifier.b.shape
        bad = np.zeros(shape)
        bad[-1] = value
        path = malformed_checkpoint(tmp_path, "mmil.classifier.b", bad)
        with pytest.raises(CheckpointError, match="'mmil.classifier.b' holds a non-finite"):
            load_model(path)
        assert cli_main(["eval", "--checkpoint", str(path), "--data", str(tmp_path)]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_finite_parameters_whose_sum_overflows_load(self, tmp_path):
        shape = AVMambaNet(ModelConfig(**TINY_MODEL), seed=0).mmil.classifier.b.shape
        path = malformed_checkpoint(tmp_path, "mmil.classifier.b", np.full(shape, 1e308))
        assert np.all(load_model(path).mmil.classifier.b.data == 1e308)


class TestCheckpointRoundTrip:
    def test_save_load_identical_evaluation(self, tiny_dataset, tmp_path):
        net, _ = tiny_train(tiny_dataset)
        report_before = evaluate_records(net, tiny_dataset.val, tiny_dataset.gt_val,
                                         tiny_dataset.classes)
        path = tmp_path / "model.mugc"
        save_model(path, net)
        restored = load_model(path)
        assert restored.config == net.config
        report_after = evaluate_records(restored, tiny_dataset.val, tiny_dataset.gt_val,
                                        tiny_dataset.classes)
        assert report_before.as_row() == report_after.as_row()

    def test_loading_truncated_checkpoint_fails(self, tiny_dataset, tmp_path):
        net, _ = tiny_train(tiny_dataset)
        path = tmp_path / "model.mugc"
        save_model(path, net)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CheckpointError, match="truncated"):
            load_model(path)

    def test_metadata_layout_and_non_default_roundtrip(self, tmp_path):
        config = ModelConfig(**TINY_MODEL, lambda_audio=2.5, use_tsa=False,
                             amf_mode="private", use_plsim=False)
        path = tmp_path / "model.mugc"
        save_model(path, AVMambaNet(config, seed=3))
        stored = load_checkpoint(path)
        meta = [name for name in stored if name.startswith("meta.")]
        assert meta == ["meta." + name for name in (  # the on-disk order is part of the format
            "n_segments", "dim", "n_classes", "d_state", "expand", "d_conv", "d_audio_in",
            "d_visual_in", "text_dim", "lambda_audio", "lambda_visual", "use_tsa",
            "amf_mode", "use_mfe", "use_plsim")]
        assert list(stored)[:len(meta)] == meta
        assert load_model(path).config == config

    @pytest.mark.parametrize("name, value", [
        ("meta.amf_mode", [-1.0]),  # must not load a full-AMF model as "off"
        ("meta.amf_mode", [3.0]),
        ("meta.amf_mode", [0.9]),
        ("meta.dim", [12.5]),  # must not truncate to the real dim 12
        ("meta.dim", [0.0]),
        ("meta.use_tsa", [2.0]),
        ("meta.use_tsa", [-1.0]),
        ("meta.n_classes", [5.0, 5.0]),
        ("meta.n_segments", []),
        ("meta.lambda_audio", [np.nan]),
        ("meta.d_state", [np.inf]),
        ("meta.engine", [0.0]),
        ("stray.weight", [1.0]),
        ("meta.dim", [2.0 ** 62]),  # integral, but no array that size can exist
    ])
    def test_malformed_metadata_rejected(self, tmp_path, name, value):
        path = malformed_checkpoint(tmp_path, name, value)
        with pytest.raises(CheckpointError):
            load_model(path)

    @pytest.mark.parametrize("changes", [
        {}, {"use_tsa": False}, {"use_tsa": False, "amf_mode": "private"},
        {"use_tsa": False, "amf_mode": "off", "use_plsim": False},
    ])
    def test_pinned_shapes_bound_every_parameter(self, changes):
        config = ModelConfig(**{**TINY_MODEL, **changes})
        params = AVMambaNet(config, seed=0).parameters()
        pins = pinned_shapes(config)
        for name, shape in pins.items():
            assert params[name].shape == shape
        largest = max(np.prod(shape) for shape in pins.values())
        assert all(p.size <= 2 * largest for p in params.values())

    def test_oversized_width_rejected_before_build(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "desk.mugc"
        save_model(path, AVMambaNet(ModelConfig(), seed=0))
        entries = load_checkpoint(path)
        entries["meta.dim"] = np.array([40000.0])
        save_checkpoint(path, entries)

        def unbuildable(*args, **kwargs):
            raise AssertionError("load_model built a model from unchecked metadata")

        monkeypatch.setattr(trainer_module, "AVMambaNet", unbuildable)
        with pytest.raises(CheckpointError, match="proj_a.w"):
            load_model(path)
        assert cli_main(["eval", "--checkpoint", str(path), "--data", str(tmp_path)]) == 1
        assert "shape mismatch" in capsys.readouterr().err

    def test_duplicate_entry_rejected(self, tmp_path, capsys):
        path = tmp_path / "x.mugc"
        save_checkpoint(path, {"x": np.array([1.0])})
        append_entry(path, "x", [2.0])
        with pytest.raises(CheckpointError, match="duplicate checkpoint entry 'x'"):
            load_checkpoint(path)
        data_dir = tmp_path / "data"
        generate_synthetic_dataset(
            SynthConfig(seed=9, n_videos=2, n_val=2, n_segments=6, n_classes=5,
                        d_audio=8, d_visual=8), str(data_dir))
        path = tmp_path / "model.mugc"
        save_model(path, AVMambaNet(ModelConfig(**TINY_MODEL), seed=0))
        append_entry(path, "proj_a.w", np.zeros((8, 12)))
        assert cli_main(["eval", "--checkpoint", str(path), "--data", str(data_dir)]) == 1
        assert "'proj_a.w'" in capsys.readouterr().err

    def test_eval_on_malformed_metadata_exits_one(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        generate_synthetic_dataset(
            SynthConfig(seed=9, n_videos=2, n_val=2, n_segments=6, n_classes=5,
                        d_audio=8, d_visual=8), str(data_dir))
        path = malformed_checkpoint(tmp_path, "meta.amf_mode", [3.0])
        assert cli_main(["eval", "--checkpoint", str(path), "--data", str(data_dir)]) == 1
        assert "meta.amf_mode" in capsys.readouterr().err

    def test_repeated_evaluation_identical(self, tiny_dataset):
        net, _ = tiny_train(tiny_dataset)
        r1 = evaluate_records(net, tiny_dataset.val, tiny_dataset.gt_val, tiny_dataset.classes)
        r2 = evaluate_records(net, tiny_dataset.val, tiny_dataset.gt_val, tiny_dataset.classes)
        assert r1.as_row() == r2.as_row()


class TestNoGradEvaluation:
    def test_predict_records_matches_graph_building_forward(self, tiny_dataset, monkeypatch):
        net, _ = tiny_train(tiny_dataset, epochs=1)
        texts = TextCache(tiny_dataset.classes, net.config.text_dim)
        seen = []
        binarize = trainer_module.binarize

        def spy(outputs, *args):
            seen.append(outputs)
            return binarize(outputs, *args)

        monkeypatch.setattr(trainer_module, "binarize", spy)
        preds = predict_records(net, tiny_dataset.val, texts)
        assert len(seen) == len(tiny_dataset.val)
        for record, quiet in zip(tiny_dataset.val, seen):
            assert not quiet.video_prob.requires_grad
            outputs = forward_record(net, record, texts)
            assert outputs.video_prob.requires_grad
            for key in ("seg_prob_a", "seg_prob_v", "video_prob"):
                assert np.array_equal(getattr(quiet, key).data, getattr(outputs, key).data)
            expected = binarize(outputs, video_id=record.video_id)
            assert np.array_equal(preds[record.video_id].pred_a, expected.pred_a)
            assert np.array_equal(preds[record.video_id].pred_v, expected.pred_v)

    def test_text_cache_shared_across_splits_embeds_a_repeated_id_anew(self, tiny_dataset):
        # train() validates with its training cache; a validation video may
        # reuse a training video's id with other pseudo labels
        train_rec = tiny_dataset.train[0]
        val_rec = dataclasses.replace(tiny_dataset.val[0], video_id=train_rec.video_id)
        assert not np.array_equal(train_rec.pseudo_a, val_rec.pseudo_a)
        texts = TextCache(tiny_dataset.classes, 8)
        texts.get(train_rec)
        fresh = TextCache(tiny_dataset.classes, 8).get(val_rec)
        for got, want in zip(texts.get(val_rec), fresh):
            assert np.array_equal(got, want)


    @pytest.mark.parametrize("config, chunk", [
        (ModelConfig(), 8), (ModelConfig(n_segments=32), 2), (ModelConfig.paper_scale(), 2),
    ], ids=["desk", "long", "paper"])
    def test_eval_chunk_of_benchmark_configs(self, config, chunk):
        assert trainer_module.eval_chunk(config) == chunk

    def test_desk_chunks_of_8_and_3_equal_per_record_forward(self, monkeypatch):
        ds = make_synthetic(SynthConfig(seed=3, n_videos=11, n_val=1))
        net = AVMambaNet(ModelConfig(), seed=0)
        texts = TextCache(ds.classes, net.config.text_dim)
        sizes = []
        forward_records = trainer_module.forward_records

        def spy(net, chunk, texts):
            sizes.append(len(chunk))
            return forward_records(net, chunk, texts)

        monkeypatch.setattr(trainer_module, "forward_records", spy)
        outputs = trainer_module.record_outputs(net, ds.train, texts)
        assert sizes == [8, 3]
        for record, quiet in zip(ds.train, outputs, strict=True):
            alone = forward_record(net, record, texts)
            for key in ("seg_prob_a", "seg_prob_v", "video_prob"):
                assert np.array_equal(getattr(quiet, key).data, getattr(alone, key).data)


class TestAugmentedTraining:
    def test_multiplier_zero_keeps_base_dataset(self, tiny_dataset):
        records = augmented_records(tiny_dataset.train, TrainConfig(cmrc_multiplier=0.0))
        assert len(records) == len(tiny_dataset.train)

    def test_multiplier_extends_dataset(self, tiny_dataset):
        config = TrainConfig(cmrc_multiplier=1.0, min_count=1, seed=0)
        records = augmented_records(tiny_dataset.train, config)
        assert len(records) == 2 * len(tiny_dataset.train)
        assert all(r.video_id.startswith("cmrc_") for r in records[len(tiny_dataset.train):])


class TestAblation:
    def test_unknown_component_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError, match="unknown component"):
            ablate("fourier", ModelConfig(**TINY_MODEL), tiny_dataset.train,
                   tiny_dataset.classes, tiny_dataset.val, tiny_dataset.gt_val,
                   TrainConfig(epochs=1, batch_size=4))

    def test_cmrc_ablation_trains_on_base_size_only(self, tiny_dataset):
        import avparse.trainer as trainer_mod

        seen_sizes = []
        original = trainer_mod.train

        def spy(model_config, records, classes, *args, **kwargs):
            seen_sizes.append(len(records))
            return original(model_config, records, classes, *args, **kwargs)

        trainer_mod.train = spy
        try:
            ablate("cmrc", ModelConfig(**TINY_MODEL), tiny_dataset.train,
                   tiny_dataset.classes, tiny_dataset.val, tiny_dataset.gt_val,
                   TrainConfig(epochs=1, batch_size=4, cmrc_multiplier=1.0, min_count=1))
        finally:
            trainer_mod.train = original
        assert seen_sizes == [len(tiny_dataset.train)]

    @pytest.mark.parametrize("component,missing_prefix", [
        ("tsa", "tsa_a"), ("mfe", "mfe"), ("plsim", "plsim")])
    def test_structural_removal(self, tiny_dataset, component, missing_prefix):
        net, report = ablate(component, ModelConfig(**TINY_MODEL), tiny_dataset.train,
                             tiny_dataset.classes, tiny_dataset.val, tiny_dataset.gt_val,
                             TrainConfig(epochs=1, batch_size=4))
        prefixes = {name.split(".")[0] for name in net.parameters()}
        assert missing_prefix not in prefixes
        assert 0.0 <= report.seg_type_at_av <= 1.0

    def test_amf_ablation_uses_private_scans(self, tiny_dataset):
        net, _ = ablate("amf", ModelConfig(**TINY_MODEL), tiny_dataset.train,
                        tiny_dataset.classes, tiny_dataset.val, tiny_dataset.gt_val,
                        TrainConfig(epochs=1, batch_size=4))
        names = list(net.parameters())
        assert any(name.startswith("amf.a.") for name in names)
        assert not any("shared" in name for name in names)
        assert not any(name.startswith("amf.mix") for name in names)


class TestDirectoryPipeline:
    def test_train_eval_on_generated_directory(self, tmp_path):
        data_dir = tmp_path / "data"
        out_dir = tmp_path / "run"
        generate_synthetic_dataset(
            SynthConfig(seed=9, n_videos=6, n_val=3, n_segments=6, n_classes=5,
                        d_audio=8, d_visual=8), str(data_dir))
        model_config = ModelConfig(**TINY_MODEL)
        net, log, checkpoint = train_on_dir(
            str(data_dir), str(out_dir), model_config,
            TrainConfig(epochs=2, batch_size=4, seed=1))
        assert (out_dir / "train_log.csv").exists()
        report, preds, _ = evaluate_checkpoint(checkpoint, str(data_dir), "val")
        assert len(preds) == 3
        direct = evaluate_records(net, *_val_args(data_dir))
        assert report.as_row() == direct.as_row()


def _val_args(data_dir):
    from avparse.data import load_split

    split = load_split(str(data_dir), "val")
    return split.records, split.gt, split.classes


class TestOracleInjection:
    def test_ground_truth_injection_scores_one(self, tiny_dataset):
        from avparse.trainer import evaluate_oracle

        report = evaluate_oracle(tiny_dataset.gt_val)
        assert report.as_row() == [1.0] * 10
