"""Segment/event F-scores against hand-computed oracles.

The three-video fixture's expected report was computed by hand from the
planted confusion counts and IoU tables; the brute-force optimal matcher
cross-checks the greedy event matching on every fixture video.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from avparse import metrics
from avparse.errors import ConfigError, EvaluationError, ParseError, ShapeError
from avparse.metrics import (EventInterval, SegmentPrediction, aggregate_report,
                             binarize, event_f1, extract_events, interval_iou,
                             match_events, segment_f1)
from avparse.model import ModelOutputs
from avparse.tensor import Tensor
from avparse.trainer import TrainConfig

T, C = 10, 3  # classes: 0=Speech, 1=Dog, 2=Violin


def matrix(spans):
    """Build a [T, C] binary matrix from {class: [(start, end), ...]}."""
    m = np.zeros((T, C), dtype=np.int64)
    for c, intervals in spans.items():
        for start, end in intervals:
            m[start:end, c] = 1
    return m


def fixture_three_videos():
    """Predictions and ground truth exercising every scoring path."""
    gt = {
        "v1": (matrix({0: [(0, 5)]}), matrix({0: [(0, 5)], 2: [(5, 10)]})),
        "v2": (matrix({1: [(2, 6)]}), matrix({})),
        "v3": (matrix({2: [(0, 10)]}), matrix({2: [(0, 10)], 1: [(0, 2)]})),
    }
    preds = {
        "v1": SegmentPrediction("v1", matrix({0: [(0, 5)]}),
                                matrix({0: [(3, 8)], 2: [(5, 10)]})),
        "v2": SegmentPrediction("v2", matrix({1: [(3, 8)]}), matrix({})),
        "v3": SegmentPrediction("v3", matrix({2: [(0, 10)], 0: [(9, 10)]}),
                                matrix({2: [(2, 10)]})),
    }
    return preds, gt


# all ten scores computed by hand from the fixture's confusion counts
FIXTURE_EXPECTED = {
    "seg_a": 55 / 63,
    "seg_v": 5 / 6,
    "seg_av": 155 / 189,
    "seg_type_at_av": 955 / 1134,
    "seg_event_at_av": 166 / 207,
    "evt_a": 8 / 9,
    "evt_v": 13 / 18,
    "evt_av": 2 / 3,
    "evt_type_at_av": 41 / 54,
    "evt_event_at_av": 7 / 9,
}


class TestBinarize:
    def make_outputs(self, seg_a, seg_v, video):
        return ModelOutputs(Tensor(seg_a), Tensor(seg_v), Tensor(video))

    def test_all_high_probabilities(self):
        out = self.make_outputs(np.full((2, 2), 0.9), np.full((2, 2), 0.9),
                                np.full(2, 0.9))
        pred = binarize(out)
        assert np.all(pred.pred_a == 1) and np.all(pred.pred_v == 1)

    def test_video_gate_suppresses(self):
        seg = np.full((2, 2), 0.9)
        out = self.make_outputs(seg, seg, np.array([0.1, 0.9]))
        pred = binarize(out)
        assert np.all(pred.pred_a[:, 0] == 0)
        assert np.all(pred.pred_a[:, 1] == 1)

    def test_boundary_is_strict(self):
        seg = np.full((1, 1), 0.5)
        out = self.make_outputs(seg, seg, np.array([0.5]))
        pred = binarize(out, theta_seg=0.5, theta_vid=0.5)
        assert pred.pred_a[0, 0] == 0

    def test_invalid_threshold(self):
        out = self.make_outputs(np.full((1, 1), 0.5), np.full((1, 1), 0.5), np.array([0.5]))
        with pytest.raises(ConfigError):
            binarize(out, theta_seg=1.0)

    @pytest.mark.parametrize("name", ["theta_seg", "theta_vid"])
    @pytest.mark.parametrize("value", [0.0, 1.0, float("nan")])
    def test_threshold_range_is_train_configs(self, name, value):
        out = self.make_outputs(np.full((1, 1), 0.5), np.full((1, 1), 0.5), np.array([0.5]))
        with pytest.raises(ConfigError, match=r"must be in \(0, 1\)") as from_binarize:
            binarize(out, **{name: value})
        with pytest.raises(ConfigError, match=r"must be in \(0, 1\)") as from_config:
            TrainConfig(**{name: value})
        assert from_binarize.value.field == from_config.value.field == name


class TestSegmentF1:
    def test_perfect_nonempty(self):
        m = matrix({0: [(0, 4)]})
        assert segment_f1(m, m) == 1.0

    def test_worked_partial_overlap(self):
        # gt {0..4}, pred {3..7}: TP=2, FP=3, FN=3 -> F = 4/10
        gt = matrix({0: [(0, 5)]})
        pred = matrix({0: [(3, 8)]})
        assert segment_f1(pred, gt) == pytest.approx(0.4)

    def test_empty_prediction_nonempty_truth(self):
        assert segment_f1(matrix({}), matrix({0: [(0, 3)]})) == 0.0

    def test_both_empty_is_one(self):
        assert segment_f1(matrix({}), matrix({})) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            segment_f1(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_monotone_under_single_cell_correction(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            gt = (rng.random((4, 3)) < 0.4).astype(int)
            pred = (rng.random((4, 3)) < 0.4).astype(int)
            base = segment_f1(pred, gt)
            wrong = np.argwhere(pred != gt)
            if len(wrong) == 0:
                continue
            t, c = wrong[rng.integers(len(wrong))]
            fixed = pred.copy()
            fixed[t, c] = gt[t, c]
            assert segment_f1(fixed, gt) >= base


class TestEvents:
    def test_all_zero(self):
        assert extract_events(np.zeros((3, 1)), "a") == []

    def test_runs_split_correctly(self):
        col = np.array([[1], [1], [0], [1]])
        events = extract_events(col, "a")
        assert events == [EventInterval(0, "a", 0, 2), EventInterval(0, "a", 3, 4)]

    def test_full_length_run(self):
        events = extract_events(np.ones((10, 1)), "v")
        assert events == [EventInterval(0, "v", 0, 10)]

    def test_iou_examples(self):
        # gt [0,5) vs pred [0,3): IoU 0.6 -> match at threshold 0.5
        gt = [EventInterval(0, "a", 0, 5)]
        assert event_f1([EventInterval(0, "a", 0, 3)], gt) == 1.0
        # pred [0,2): IoU 0.4 -> no match
        assert event_f1([EventInterval(0, "a", 0, 2)], gt) == 0.0

    def test_identical_event_sets(self):
        events = [EventInterval(0, "a", 0, 3), EventInterval(1, "a", 5, 9)]
        assert event_f1(list(events), list(events)) == 1.0

    def test_both_empty_is_one(self):
        assert event_f1([], []) == 1.0

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        pred = [EventInterval(int(rng.integers(2)), "a", s, s + int(rng.integers(1, 4)))
                for s in range(0, 8, 2)]
        gt = [EventInterval(int(rng.integers(2)), "a", s, s + int(rng.integers(1, 4)))
              for s in range(1, 9, 2)]
        base = event_f1(pred, gt)
        for _ in range(5):
            rng.shuffle(pred)
            rng.shuffle(gt)
            assert event_f1(pred, gt) == base

    def test_modality_tags_partition_matching(self):
        pred = [EventInterval(0, "a", 0, 4)]
        gt = [EventInterval(0, "v", 0, 4)]
        assert event_f1(pred, gt) == 0.0


def optimal_matches(pred_events, gt_events, threshold=0.5):
    """Brute-force maximum one-to-one matching (small cases only)."""
    allowed = {(pi, gi) for pi, p in enumerate(pred_events)
               for gi, g in enumerate(gt_events)
               if p.class_idx == g.class_idx and p.modality == g.modality
               and interval_iou(p, g) >= threshold}
    indices = range(len(gt_events))
    for k in range(min(len(pred_events), len(gt_events)), 0, -1):
        for pick_p in itertools.combinations(range(len(pred_events)), k):
            for pick_g in itertools.permutations(indices, k):
                if all((pi, gi) in allowed for pi, gi in zip(pick_p, pick_g)):
                    return k
    return 0


class TestGreedyMatching:
    def test_greedy_agrees_with_bruteforce_on_small_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            def sample(n, mod):
                events = []
                for _ in range(n):
                    start = int(rng.integers(0, 8))
                    end = start + int(rng.integers(1, 4))
                    events.append(EventInterval(int(rng.integers(2)), mod, start, end))
                return events

            pred = sample(int(rng.integers(0, 5)), "a")
            gt = sample(int(rng.integers(0, 5)), "a")
            assert match_events(pred, gt) == optimal_matches(pred, gt)

    def test_equal_iou_ties_resolve_one_to_one(self):
        # one pred ties two gts at IoU 0.6 each; a duplicate pred must take
        # the ground truth the first left behind, giving two matches total
        gt = [EventInterval(0, "a", 0, 4), EventInterval(0, "a", 2, 6)]
        pred = [EventInterval(0, "a", 1, 5), EventInterval(0, "a", 1, 5)]
        assert interval_iou(pred[0], gt[0]) == pytest.approx(0.6)
        assert interval_iou(pred[0], gt[1]) == pytest.approx(0.6)
        assert match_events(pred, gt) == 2
        assert match_events(pred[:1], gt) == 1


class TestAggregateReport:
    def test_three_video_fixture_matches_hand_computation(self):
        preds, gt = fixture_three_videos()
        report = aggregate_report(preds, gt)
        for name, expected in FIXTURE_EXPECTED.items():
            assert getattr(report, name) == pytest.approx(expected, abs=1e-12), name

    def test_perfect_predictions_all_ones(self):
        _, gt = fixture_three_videos()
        preds = {vid: SegmentPrediction(vid, ga.copy(), gv.copy())
                 for vid, (ga, gv) in gt.items()}
        report = aggregate_report(preds, gt)
        for value in report.as_row():
            assert value == 1.0

    def test_type_at_av_is_mean(self):
        report = metrics.MetricReport(0.4, 0.6, 0.2, (0.4 + 0.6 + 0.2) / 3, 0.5,
                                      0.1, 0.2, 0.3, 0.2, 0.3)
        assert report.seg_type_at_av == pytest.approx(0.4)

    def test_table_layout(self):
        report = metrics.MetricReport(*[round(0.0987654 * (i + 1), 7) for i in range(10)])
        assert report.table() == (
            "                     A       V      AV  Type@AV  Event@AV\n"
            "segment-level   0.0988  0.1975  0.2963   0.3951    0.4938\n"
            "event-level     0.5926  0.6914  0.7901   0.8889    0.9877")

    def test_av_consistency_by_construction(self):
        preds, _ = fixture_three_videos()
        for p in preds.values():
            av = p.pred_av
            assert np.all(av <= p.pred_a)
            assert np.all(av <= p.pred_v)

    def test_missing_ground_truth_rejected(self):
        preds, gt = fixture_three_videos()
        del gt["v2"]
        with pytest.raises(EvaluationError):
            aggregate_report(preds, gt)

    def test_missing_prediction_scored_as_empty(self):
        preds, gt = fixture_three_videos()
        del preds["v2"]
        report = aggregate_report(preds, gt)
        # v2's audio side drops from 2/3 to 0 (empty pred, nonempty gt)
        expected_a = (1.0 + 0.0 + 20 / 21) / 3
        assert report.seg_a == pytest.approx(expected_a, abs=1e-12)

    def test_scores_always_in_unit_interval(self):
        rng = np.random.default_rng(5)
        gt = {}
        preds = {}
        for i in range(6):
            vid = f"r{i}"
            gt[vid] = ((rng.random((6, 4)) < 0.3).astype(int),
                       (rng.random((6, 4)) < 0.3).astype(int))
            preds[vid] = SegmentPrediction(vid, (rng.random((6, 4)) < 0.3).astype(int),
                                           (rng.random((6, 4)) < 0.3).astype(int))
        report = aggregate_report(preds, gt)
        for value in report.as_row():
            assert 0.0 <= value <= 1.0


def oracle_report(predictions: dict, truths: dict) -> metrics.MetricReport:
    """The report composed video by video from the four oracle functions."""
    scores = {level: {track: [] for track in (*metrics.TRACKS, "pool")}
              for level in ("seg", "evt")}
    for video_id in sorted(truths):
        gt = SegmentPrediction(video_id, *truths[video_id])
        pred = predictions.get(video_id)
        if pred is None:
            pred = SegmentPrediction(video_id, np.zeros_like(gt.pred_a), np.zeros_like(gt.pred_v))
        pred_events, gt_events = {}, {}
        for track in metrics.TRACKS:
            p, g = getattr(pred, f"pred_{track}"), getattr(gt, f"pred_{track}")
            pred_events[track] = extract_events(p, track)
            gt_events[track] = extract_events(g, track)
            scores["seg"][track].append(segment_f1(p, g))
            scores["evt"][track].append(event_f1(pred_events[track], gt_events[track]))
        scores["seg"]["pool"].append(segment_f1(pred.pred_union, gt.pred_union))
        scores["evt"]["pool"].append(event_f1(pred_events["a"] + pred_events["v"],
                                              gt_events["a"] + gt_events["v"]))
    values = {}
    for level, per_track in scores.items():
        means = {track: float(np.mean(v)) for track, v in per_track.items()}
        values.update({f"{level}_{track}": means[track] for track in metrics.TRACKS})
        values[f"{level}_type_at_av"] = (means["a"] + means["v"] + means["av"]) / 3.0
        values[f"{level}_event_at_av"] = means["pool"]
    return metrics.MetricReport(**values)


@st.composite
def splits(draw):
    """Predictions and truths over 1-6 videos of up to two [T, C] shapes, each
    matrix random, empty or full, in one of three dtypes; some predictions
    are missing."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 4)),
                           min_size=1, max_size=2))
    dtype = draw(st.sampled_from([np.int64, np.float64, np.bool_]))

    def matrix(shape):
        cells = draw(st.sampled_from(["random", "empty", "full"]))
        if cells == "random":
            return draw(arrays(np.bool_, shape)).astype(dtype)
        return np.full(shape, cells == "full", dtype=dtype)

    predictions, truths = {}, {}
    for n in draw(st.lists(st.integers(0, 99), min_size=1, max_size=6, unique=True)):
        video_id, shape = f"vid{n}", draw(st.sampled_from(shapes))
        truths[video_id] = (matrix(shape), matrix(shape))
        if draw(st.integers(0, 3)):
            predictions[video_id] = SegmentPrediction(video_id, matrix(shape), matrix(shape))
    return predictions, truths


class TestSplitScoring:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(splits())
    def test_equals_per_video_oracle_composition_exactly(self, split):
        predictions, truths = split
        assert aggregate_report(predictions, truths) == oracle_report(predictions, truths)

    def test_fixture_equals_oracle_composition_exactly(self):
        preds, gt = fixture_three_videos()
        assert aggregate_report(preds, gt) == oracle_report(preds, gt)

    def test_prediction_of_wrong_shape_rejected(self):
        preds, gt = fixture_three_videos()
        preds["v2"] = SegmentPrediction("v2", np.zeros((T - 1, C)), np.zeros((T - 1, C)))
        with pytest.raises(EvaluationError, match="v2: prediction shape"):
            aggregate_report(preds, gt)


class TestDumpRoundTrip:
    def test_report_from_dumps_matches_in_memory(self, tmp_path):
        from avparse.data import write_label_csv

        preds, gt = fixture_three_videos()
        classes = ["Speech", "Dog", "Violin"]
        pred_path = tmp_path / "pred.csv"
        gt_path = tmp_path / "gt.csv"
        write_label_csv(pred_path, {v: {"a": p.pred_a, "v": p.pred_v}
                                    for v, p in preds.items()}, classes, T)
        write_label_csv(gt_path, {v: {"a": g[0], "v": g[1]} for v, g in gt.items()},
                        classes, T)
        report = metrics.report_from_dumps(pred_path, gt_path, classes=classes)
        for name, expected in FIXTURE_EXPECTED.items():
            assert getattr(report, name) == pytest.approx(expected, abs=1e-12), name

    def test_vocabulary_inferred_from_dumps(self, tmp_path):
        from avparse.data import write_label_csv

        preds, gt = fixture_three_videos()
        classes = ["Speech", "Dog", "Violin"]
        pred_path = tmp_path / "pred.csv"
        gt_path = tmp_path / "gt.csv"
        write_label_csv(pred_path, {v: {"a": p.pred_a, "v": p.pred_v}
                                    for v, p in preds.items()}, classes, T)
        write_label_csv(gt_path, {v: {"a": g[0], "v": g[1]} for v, g in gt.items()},
                        classes, T)
        report = metrics.report_from_dumps(pred_path, gt_path)
        # inferred vocabulary reorders classes; scores must not change
        for name, expected in FIXTURE_EXPECTED.items():
            assert getattr(report, name) == pytest.approx(expected, abs=1e-12), name

    def test_empty_category_name_rejected(self, tmp_path):
        # with an inferred vocabulary, '' must not become a phantom class
        header = "video_id,modality,segment,labels"
        pred_path = tmp_path / "pred.csv"
        gt_path = tmp_path / "gt.csv"
        pred_path.write_text(f"{header}\nv1,a,0,x;;y\nv1,a,1,x\n")
        gt_path.write_text(f"{header}\nv1,a,0,x;y\nv1,a,1,x\n")
        with pytest.raises(ParseError, match=r"pred\.csv line 2: empty category name"):
            metrics.report_from_dumps(pred_path, gt_path)

    def test_report_csv_roundtrip(self, tmp_path):
        preds, gt = fixture_three_videos()
        report = aggregate_report(preds, gt)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(metrics.REPORT_COLUMNS)
        values = [float(v) for v in lines[1].split(",")]
        assert values == pytest.approx(report.as_row(), abs=1e-6)
