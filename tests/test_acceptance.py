"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The slow criteria (gradient suite, overfit, directional
ablations) dominate the runtime; the whole suite targets a single CPU core.
"""

import os
import time

import numpy as np

from avparse import augment
from avparse import tensor as tt
from avparse.cli import main as cli_main
from avparse.data import SynthConfig, make_synthetic
from avparse.diagnostics import run_grad_checks, run_scan_checks
from avparse.metrics import EventInterval, aggregate_report, event_f1, segment_f1
from avparse.model import (AVMambaNet, ChannelEnhancement, CrossModalFusion,
                           ModelConfig, TemporalSpatialAttention, film_residual)
from avparse.tensor import Tensor
from avparse.trainer import TrainConfig, ablate, evaluate_records, load_model, train

from tests.test_metrics import FIXTURE_EXPECTED, fixture_three_videos


def report_line(number, ok, message):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {number}: {message}")
    assert ok, f"criterion {number}: {message}"


class TestCriterion1ScanOracle:
    def test_criterion_01_parallel_matches_sequential(self):
        started = time.perf_counter()
        results = run_scan_checks(seed=0, cases=100)
        elapsed = time.perf_counter() - started
        equivalence = results[0]
        ok = equivalence.ok and elapsed < 30.0
        report_line(1, ok, f"fused vs sequential over 100 random cases, max abs "
                           f"deviation {equivalence.value:.2e} < 1e-9, {elapsed:.1f}s < 30s")


class TestCriterion2ScanDefinitions:
    def test_criterion_02_backward_and_dynamic_definitions(self):
        results = {r.name: r for r in run_scan_checks(seed=1, cases=5)}
        backward = results["backward equals reversed forward-on-reversed"]
        one_hot = results["dynamic one-hot start equals forward"]
        one_hot_fused = results["dynamic one-hot start equals forward (fused kernel)"]
        mixture = results["dynamic matches term-by-term mixture"]
        ok = backward.ok and one_hot.ok and one_hot_fused.ok and mixture.ok
        report_line(2, ok, "backward def exact "
                           f"({backward.value:.1e}), one-hot dynamic exact "
                           f"({one_hot.value:.1e}; fused {one_hot_fused.value:.1e}), "
                           f"term-by-term mixture {mixture.value:.2e} < 1e-12")


class TestCriterion3GradientSuite:
    def test_criterion_03_finite_difference_suite(self):
        started = time.perf_counter()
        results = run_grad_checks(seed=0, include_model=True)
        elapsed = time.perf_counter() - started
        failed = [r for r in results if not r.ok]
        ok = not failed and elapsed < 120.0
        worst = max(r.value for r in results)
        report_line(3, ok, f"{len(results)} gradient checks (ops at rtol 1e-4, tiny "
                           f"model T=4,d=8,C=3 at rtol 1e-3), worst rel {worst:.2e}, "
                           f"{elapsed:.1f}s < 120s"
                           + (f"; failed: {[r.name for r in failed]}" if failed else ""))


class TestCriterion4SharedProjection:
    def test_criterion_04_shared_matrix_contract(self):
        rng = np.random.default_rng(4)
        amf = CrossModalFusion(6, rng, d_state=4, expand=2, d_conv=4)
        f_a = Tensor(rng.standard_normal((5, 6)))
        f_v = Tensor(rng.standard_normal((5, 6)))

        def loss(which):
            out_a, out_v, _ = amf(f_a, f_v)
            if which == "a":
                return tt.tsum(out_a * out_a)
            if which == "v":
                return tt.tsum(out_v * out_v)
            return tt.tsum(out_a * out_a) + tt.tsum(out_v * out_v)

        deviations = []
        for handle in amf.handles.values():
            loss("a").backward()
            g_a = handle.w_shared.grad.copy()
            amf.reset_grads()
            loss("v").backward()
            g_v = handle.w_shared.grad.copy()
            amf.reset_grads()
            loss("both").backward()
            deviations.append(np.abs(handle.w_shared.grad - (g_a + g_v)).max())
            amf.reset_grads()
        grad_dev = max(deviations)

        amf.set_sharing(False)
        base = [t.data.copy() for t in amf(f_a, f_v)]
        for handle in amf.handles.values():
            handle.w_shared.data += 123.0
        after = [t.data for t in amf(f_a, f_v)]
        invariant = all(np.array_equal(b, a) for b, a in zip(base, after))

        ok = grad_dev < 1e-10 and invariant
        report_line(4, ok, f"shared-B gradient additivity dev {grad_dev:.2e} < 1e-10; "
                           f"hard-off perturbation invariance {'exact' if invariant else 'VIOLATED'}")


class TestCriterion5EquationFidelity:
    def test_criterion_05_fusion_enhancement_attention_ranges(self):
        rng = np.random.default_rng(5)
        checks = []
        f = Tensor(rng.standard_normal((6, 8)))
        zero = Tensor(np.zeros((6, 8)))
        checks.append(np.array_equal(film_residual(f, zero, zero).data, f.data))

        # feature-scale inputs: float64 sigmoid saturates to exactly 1.0 past
        # |logit| ~ 37, so the strict range is checked where logits are finite
        mfe = ChannelEnhancement(8, rng)
        factors = mfe.factors(Tensor(rng.standard_normal((6, 8)) * 2),
                              Tensor(rng.standard_normal((6, 8)) * 2),
                              Tensor(rng.standard_normal((6, 8)) * 2)).data
        checks.append(bool(np.all(factors > 1.0) and np.all(factors < 2.0)))

        tsa = TemporalSpatialAttention(8, rng, d_state=4, expand=2, d_conv=4)
        x = Tensor(rng.standard_normal((6, 8)) * 2)
        w = tsa.channel_weights(x).data
        s = tsa.temporal_weights(x * tsa.channel_weights(x)).data
        checks.append(bool(np.all(w > 0) and np.all(w < 1) and np.all(s > 0) and np.all(s < 1)))

        ok = all(checks)
        report_line(5, ok, "scale/bias fusion identity exact; enhancement factors in "
                           "(1,2); attention weights in (0,1) on random inputs")


class TestCriterion6MetricsOracle:
    def test_criterion_06_fixture_and_worked_examples(self):
        preds, gt = fixture_three_videos()
        report = aggregate_report(preds, gt)
        fixture_ok = all(
            abs(getattr(report, name) - expected) < 1e-12
            for name, expected in FIXTURE_EXPECTED.items())

        seg = np.zeros((10, 1), dtype=int)
        seg[0:5] = 1
        pred = np.zeros((10, 1), dtype=int)
        pred[3:8] = 1
        worked_segment = abs(segment_f1(pred, seg) - 0.4) < 1e-12

        gt_event = [EventInterval(0, "a", 0, 5)]
        worked_event = (event_f1([EventInterval(0, "a", 0, 3)], gt_event) == 1.0
                        and event_f1([EventInterval(0, "a", 0, 2)], gt_event) == 0.0)

        ok = fixture_ok and worked_segment and worked_event
        report_line(6, ok, "3-video fixture reproduces all ten hand-computed scores "
                           "exactly; segment F=0.4 and event IoU 0.6/0.4 examples hold")


class TestCriterion7CmrcContract:
    def test_criterion_07_combination_pipeline(self):
        ds = make_synthetic(SynthConfig(seed=21, n_videos=200, n_val=0, n_classes=10,
                                        d_audio=6, d_visual=6))
        records = ds.train
        records[0].discard = True
        records[1].null_v[0] = True
        records[1].pseudo_v[0] = 0.0
        bad = {records[0].video_id, records[1].video_id}

        dist = augment.count_label_distribution(records, threshold=50)
        boundary_ok = all(
            (count > 50) == (c in dist.retained) for c, count in dist.counts.items())
        # explicit 50/51 boundary fixture
        fixture = [augment_record(i, [0]) for i in range(51)]
        fixture += [augment_record(100 + i, [1]) for i in range(50)]
        boundary = augment.count_label_distribution(fixture, threshold=50)
        boundary_ok = boundary_ok and (0 in boundary.retained) and (1 not in boundary.retained)

        config = augment.AugmentConfig(target_count=500, min_count=50, seed=7)
        batch = augment.generate_cmrc_batch(records, dist, config)
        batch_again = augment.generate_cmrc_batch(records, dist, config)

        union_ok = all(
            np.array_equal(r.video_label,
                           (r.pseudo_a.any(axis=0) | r.pseudo_v.any(axis=0)).astype(float))
            for r in batch)
        donors_ok = all(r.visual_donor not in bad and r.audio_donor not in bad
                        for r in batch)
        deterministic = ([r.video_id for r in batch] == [r.video_id for r in batch_again]
                         and all(np.array_equal(a.audio, b.audio)
                                 for a, b in zip(batch, batch_again)))
        l1 = augment.class_frequency_l1(batch, dist)

        ok = (union_ok and donors_ok and boundary_ok and deterministic
              and len(batch) == 500 and l1 < 0.15)
        report_line(7, ok, f"union labels on all 500 records; no discarded/null donors; "
                           f"50/51 threshold boundary; seeded determinism; class-frequency "
                           f"L1 {l1:.3f} < 0.15")


class TestCriterion8OverfitSanity:
    def test_criterion_08_overfit_32_videos(self):
        started = time.perf_counter()
        ds = make_synthetic(SynthConfig(seed=11, n_videos=32, n_val=0, flip_rate=0.0))
        model_config = ModelConfig(dim=64, d_audio_in=64, d_visual_in=64,
                                   lambda_audio=3.0, lambda_visual=3.0)
        train_config = TrainConfig(epochs=200, batch_size=2, learning_rate=2e-3,
                                   seed=0, eval_every=10, stop_at_type_av=0.95)
        _, log = train(model_config, ds.train, ds.classes, ds.train, ds.gt_train,
                       train_config)
        elapsed = time.perf_counter() - started
        best = max(e.report.seg_type_at_av for e in log.entries if e.report)
        ok = best >= 0.95 and elapsed < 300.0 and len(log.entries) <= 200
        report_line(8, ok, f"training segment Type@AV {best:.3f} >= 0.95 within "
                           f"{len(log.entries)} epochs (cap 200), {elapsed:.0f}s < 300s")


class TestCriterion9DirectionalAblations:
    """Pre-registered seeded comparison on correlated synthetic data.

    Data maximizes the value of cross-modal coupling: every event appears in
    both modalities (correlation 1.0) on identical class directions. Seeds
    0..4 were fixed before the experiment ran.
    """

    def test_criterion_09_full_beats_ablations(self):
        started = time.perf_counter()
        wins_amf = wins_cmrc = 0
        details = []
        for s in range(5):
            ds = make_synthetic(SynthConfig(seed=100 + s, n_videos=32, n_val=16,
                                            n_classes=8, noise=0.3, correlation=1.0,
                                            flip_rate=0.05, shared_directions=True))
            model_config = ModelConfig(dim=32, d_audio_in=64, d_visual_in=64,
                                       n_classes=8,
                                       lambda_audio=3.0, lambda_visual=3.0)
            train_config = TrainConfig(epochs=40, batch_size=2, learning_rate=2e-3,
                                       seed=s, eval_every=5, cmrc_multiplier=1.0,
                                       min_count=3)
            net, _ = train(model_config, ds.train, ds.classes, ds.val, ds.gt_val,
                           train_config)
            full = evaluate_records(net, ds.val, ds.gt_val, ds.classes).seg_type_at_av
            _, rep_amf = ablate("amf", model_config, ds.train, ds.classes,
                                ds.val, ds.gt_val, train_config)
            _, rep_cmrc = ablate("cmrc", model_config, ds.train, ds.classes,
                                 ds.val, ds.gt_val, train_config)
            wins_amf += full >= rep_amf.seg_type_at_av
            wins_cmrc += full >= rep_cmrc.seg_type_at_av
            details.append(f"s{s}: full {full:.3f} / woAMF {rep_amf.seg_type_at_av:.3f}"
                           f" / woCMRC {rep_cmrc.seg_type_at_av:.3f}")
        elapsed = time.perf_counter() - started
        ok = wins_amf >= 3 and wins_cmrc >= 3
        report_line(9, ok, f"full >= wo/AMF in {wins_amf}/5 seeds, full >= wo/CMRC in "
                           f"{wins_cmrc}/5 seeds ({elapsed:.0f}s; {'; '.join(details)})")


class TestCriterion10ParameterBand:
    def test_criterion_10_paper_scale_parameter_count(self):
        net = AVMambaNet(ModelConfig.paper_scale(), seed=0)
        count = net.parameter_count()
        ok = 3.8e6 <= count <= 15.2e6
        report_line(10, ok, f"paper-scale parameter count {count:,} inside "
                            f"[3,800,000, 15,200,000]")


class TestCriterion11Determinism:
    def test_criterion_11_reproducibility(self, tmp_path):
        synth_args = ["--videos", "10", "--val", "4", "--segments", "6",
                      "--classes", "5", "--audio-dim", "8", "--visual-dim", "8"]
        for name in ("s1", "s2"):
            assert cli_main(["synth", "--out", str(tmp_path / name), "--seed", "5",
                             *synth_args]) == 0
        synth_ok = _tree_bytes(tmp_path / "s1") == _tree_bytes(tmp_path / "s2")

        for name in ("a1", "a2"):
            assert cli_main(["augment", "--data", str(tmp_path / "s1"),
                             "--out", str(tmp_path / name), "--multiplier", "1.0",
                             "--min-count", "1", "--seed", "5"]) == 0
        augment_ok = _tree_bytes(tmp_path / "a1") == _tree_bytes(tmp_path / "a2")

        ds = make_synthetic(SynthConfig(seed=6, n_videos=6, n_val=3, n_segments=6,
                                        n_classes=5, d_audio=8, d_visual=8))
        model_config = ModelConfig(n_segments=6, dim=12, n_classes=5, d_state=4,
                                   d_audio_in=8, d_visual_in=8, text_dim=8)
        blobs = []
        for name in ("t1", "t2"):
            path = tmp_path / f"{name}.mugc"
            train(model_config, ds.train, ds.classes, ds.val, ds.gt_val,
                  TrainConfig(epochs=2, batch_size=4, seed=2), checkpoint_path=path)
            blobs.append(path.read_bytes())
        train_ok = blobs[0] == blobs[1]

        restored = load_model(tmp_path / "t1.mugc")
        report_1 = evaluate_records(restored, ds.val, ds.gt_val, ds.classes)
        report_2 = evaluate_records(load_model(tmp_path / "t2.mugc"), ds.val,
                                    ds.gt_val, ds.classes)
        roundtrip_ok = report_1.as_row() == report_2.as_row()

        ok = synth_ok and augment_ok and train_ok and roundtrip_ok
        report_line(11, ok, f"synth bit-identical: {synth_ok}; augment bit-identical: "
                            f"{augment_ok}; train checkpoints bit-identical: {train_ok}; "
                            f"checkpoint round-trip reports identical: {roundtrip_ok}")


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def augment_record(index, classes, n_classes=6, t=4):
    rng = np.random.default_rng(index)
    pseudo_a = np.zeros((t, n_classes))
    pseudo_v = np.zeros((t, n_classes))
    for c in classes:
        pseudo_a[rng.integers(t), c] = 1.0
        pseudo_v[rng.integers(t), c] = 1.0
    label = (pseudo_a.any(axis=0) | pseudo_v.any(axis=0)).astype(float)
    from avparse.data import VideoRecord

    return VideoRecord(f"fx{index}", rng.standard_normal((t, 5)),
                       rng.standard_normal((t, 5)), label, pseudo_a, pseudo_v,
                       np.zeros(t, dtype=bool), np.zeros(t, dtype=bool))
