"""Segment- and event-level F-scores for audio-visual parsing.

Ten headline numbers: {A, V, AV, Type@AV, Event@AV} at segment level and at
event level. Per-video scores are averaged over the split; a video where both
prediction and ground truth are empty counts as 1.0 (vacuous agreement).
Events are maximal runs of positive segments, matched greedily one-to-one at
IoU >= 0.5 with deterministic tie-breaks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import label_tables, read_label_rows
from .errors import ConfigError, EvaluationError, ShapeError

REPORT_COLUMNS = [
    "seg_a", "seg_v", "seg_av", "seg_type_at_av", "seg_event_at_av",
    "evt_a", "evt_v", "evt_av", "evt_type_at_av", "evt_event_at_av",
]


@dataclass
class SegmentPrediction:
    """Binary per-segment assignments for one video (also used for truth)."""

    video_id: str
    pred_a: np.ndarray  # [T, C] 0/1
    pred_v: np.ndarray

    def __post_init__(self):
        self.pred_a = np.asarray(self.pred_a)
        self.pred_v = np.asarray(self.pred_v)
        if self.pred_a.shape != self.pred_v.shape:
            raise ShapeError(
                f"{self.video_id}: modality shapes differ {self.pred_a.shape} vs {self.pred_v.shape}")

    @property
    def pred_av(self) -> np.ndarray:
        return np.logical_and(self.pred_a != 0, self.pred_v != 0).astype(np.int64)

    @property
    def pred_union(self) -> np.ndarray:
        return np.logical_or(self.pred_a != 0, self.pred_v != 0).astype(np.int64)


class EventInterval(NamedTuple):
    class_idx: int
    modality: str  # 'a', 'v' or 'av'
    start: int  # inclusive
    end: int  # exclusive


@dataclass
class MetricReport:
    seg_a: float
    seg_v: float
    seg_av: float
    seg_type_at_av: float
    seg_event_at_av: float
    evt_a: float
    evt_v: float
    evt_av: float
    evt_type_at_av: float
    evt_event_at_av: float

    def as_row(self) -> list[float]:
        return [getattr(self, c) for c in REPORT_COLUMNS]

    def as_dict(self) -> dict[str, float]:
        return {c: getattr(self, c) for c in REPORT_COLUMNS}

    def table(self) -> str:
        head = f"{'':14s}{'A':>8s}{'V':>8s}{'AV':>8s}{'Type@AV':>9s}{'Event@AV':>10s}"
        seg = (f"{'segment-level':14s}{self.seg_a:8.4f}{self.seg_v:8.4f}"
               f"{self.seg_av:8.4f}{self.seg_type_at_av:9.4f}{self.seg_event_at_av:10.4f}")
        evt = (f"{'event-level':14s}{self.evt_a:8.4f}{self.evt_v:8.4f}"
               f"{self.evt_av:8.4f}{self.evt_type_at_av:9.4f}{self.evt_event_at_av:10.4f}")
        return "\n".join([head, seg, evt])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            writer.writerow([f"{v:.6f}" for v in self.as_row()])


# -- binarization -------------------------------------------------------------


def binarize(outputs, theta_seg: float = 0.5, theta_vid: float = 0.5,
             video_id: str = "") -> SegmentPrediction:
    """Threshold segment probabilities, gated by the video-level head.

    A cell is positive only if its segment probability exceeds ``theta_seg``
    AND the class's video probability exceeds ``theta_vid`` (both strict).
    """
    for name, theta in (("theta_seg", theta_seg), ("theta_vid", theta_vid)):
        if not 0.0 < theta < 1.0:
            raise ConfigError(f"{name} must be in (0, 1), got {theta}")
    video_gate = outputs.video_prob.data > theta_vid
    pred_a = ((outputs.seg_prob_a.data > theta_seg) & video_gate[None, :]).astype(np.int64)
    pred_v = ((outputs.seg_prob_v.data > theta_seg) & video_gate[None, :]).astype(np.int64)
    return SegmentPrediction(video_id, pred_a, pred_v)


# -- segment level -------------------------------------------------------------


def segment_f1(pred: np.ndarray, gt: np.ndarray) -> float:
    """Micro F over all (segment, class) cells of one video."""
    pred = np.asarray(pred) != 0
    gt = np.asarray(gt) != 0
    if pred.shape != gt.shape:
        raise ShapeError(f"segment_f1 shapes differ: {pred.shape} vs {gt.shape}")
    tp = int(np.sum(pred & gt))
    fp = int(np.sum(pred & ~gt))
    fn = int(np.sum(~pred & gt))
    if tp + fp + fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


# -- event level ----------------------------------------------------------------


def extract_events(matrix: np.ndarray, modality: str) -> list[EventInterval]:
    """Maximal runs of consecutive positive segments, one list entry per run."""
    matrix = np.asarray(matrix) != 0
    events = []
    for c in range(matrix.shape[1]):
        col = matrix[:, c]
        start = None
        for t, on in enumerate(col):
            if on and start is None:
                start = t
            elif not on and start is not None:
                events.append(EventInterval(c, modality, start, t))
                start = None
        if start is not None:
            events.append(EventInterval(c, modality, start, len(col)))
    return events


def interval_iou(a: EventInterval, b: EventInterval) -> float:
    inter = max(0, min(a.end, b.end) - max(a.start, b.start))
    union = (a.end - a.start) + (b.end - b.start) - inter
    return inter / union if union else 0.0


def match_events(pred_events, gt_events, iou_threshold: float = 0.5) -> int:
    """Greedy one-to-one matching within (class, modality) groups.

    Candidate pairs at or above the threshold are taken by descending IoU,
    ties broken by earlier ground-truth start, then earlier prediction start.
    """
    candidates = []
    for pi, p in enumerate(pred_events):
        for gi, g in enumerate(gt_events):
            if p.class_idx != g.class_idx or p.modality != g.modality:
                continue
            iou = interval_iou(p, g)
            if iou >= iou_threshold:
                candidates.append((-iou, g.start, p.start, pi, gi))
    candidates.sort()
    used_p: set[int] = set()
    used_g: set[int] = set()
    matches = 0
    for _, _, _, pi, gi in candidates:
        if pi in used_p or gi in used_g:
            continue
        used_p.add(pi)
        used_g.add(gi)
        matches += 1
    return matches


def event_f1(pred_events, gt_events, iou_threshold: float = 0.5) -> float:
    if not pred_events and not gt_events:
        return 1.0
    matches = match_events(pred_events, gt_events, iou_threshold)
    return 2.0 * matches / (len(pred_events) + len(gt_events))


# -- aggregation ------------------------------------------------------------------


def _truth_prediction(video_id: str, gt) -> SegmentPrediction:
    return SegmentPrediction(video_id, gt[0], gt[1])


def aggregate_report(predictions, truths, iou_threshold: float = 0.5) -> MetricReport:
    """Fold per-video scores into the ten-number report.

    ``predictions`` maps video_id to SegmentPrediction; ``truths`` maps
    video_id to (gt_a, gt_v) arrays. Every predicted video needs ground
    truth; videos with ground truth but no prediction score as all-negative.
    """
    if isinstance(predictions, dict):
        pred_map = dict(predictions)
    else:
        pred_map = {p.video_id: p for p in predictions}
    missing = sorted(set(pred_map) - set(truths))
    if missing:
        raise EvaluationError(f"no ground truth for predicted videos {missing[:5]}")
    per_video = {"a": [], "v": [], "av": [], "pool": []}
    per_video_evt = {"a": [], "v": [], "av": [], "pool": []}
    for video_id in sorted(truths):
        gt = _truth_prediction(video_id, truths[video_id])
        pred = pred_map.get(video_id)
        if pred is None:
            pred = SegmentPrediction(video_id, np.zeros_like(gt.pred_a), np.zeros_like(gt.pred_v))
        if pred.pred_a.shape != gt.pred_a.shape:
            raise EvaluationError(
                f"{video_id}: prediction shape {pred.pred_a.shape} != truth {gt.pred_a.shape}")
        per_video["a"].append(segment_f1(pred.pred_a, gt.pred_a))
        per_video["v"].append(segment_f1(pred.pred_v, gt.pred_v))
        per_video["av"].append(segment_f1(pred.pred_av, gt.pred_av))
        per_video["pool"].append(segment_f1(pred.pred_union, gt.pred_union))
        pe = {m: extract_events(getattr(pred, f"pred_{m}"), m) for m in ("a", "v", "av")}
        ge = {m: extract_events(getattr(gt, f"pred_{m}"), m) for m in ("a", "v", "av")}
        per_video_evt["a"].append(event_f1(pe["a"], ge["a"], iou_threshold))
        per_video_evt["v"].append(event_f1(pe["v"], ge["v"], iou_threshold))
        per_video_evt["av"].append(event_f1(pe["av"], ge["av"], iou_threshold))
        per_video_evt["pool"].append(
            event_f1(pe["a"] + pe["v"], ge["a"] + ge["v"], iou_threshold))
    if not truths:
        raise EvaluationError("cannot aggregate over an empty video set")

    def mean(values):
        return float(np.mean(values))

    seg_a, seg_v, seg_av = mean(per_video["a"]), mean(per_video["v"]), mean(per_video["av"])
    evt_a, evt_v, evt_av = (mean(per_video_evt["a"]), mean(per_video_evt["v"]),
                            mean(per_video_evt["av"]))
    return MetricReport(
        seg_a=seg_a, seg_v=seg_v, seg_av=seg_av,
        seg_type_at_av=(seg_a + seg_v + seg_av) / 3.0,
        seg_event_at_av=mean(per_video["pool"]),
        evt_a=evt_a, evt_v=evt_v, evt_av=evt_av,
        evt_type_at_av=(evt_a + evt_v + evt_av) / 3.0,
        evt_event_at_av=mean(per_video_evt["pool"]),
    )


# -- dump-file evaluation ------------------------------------------------------------


def report_from_dumps(pred_path, gt_path, classes=None,
                      iou_threshold: float = 0.5) -> MetricReport:
    """Score prediction dumps against ground-truth dumps, no model involved.

    Each file is read once. When ``classes`` is not given the vocabulary is
    the sorted union of the names appearing in either file; the segment count
    is the largest segment in either file plus one.
    """
    pred_rows = read_label_rows(pred_path)
    gt_rows = read_label_rows(gt_path)
    rows = pred_rows + gt_rows
    if classes is None:
        classes = sorted({name for row in rows for name in row.names})
    n_segments = max((row.segment for row in rows), default=-1) + 1
    if n_segments < 1:
        raise EvaluationError("no segments found in either dump file")
    pred_table = label_tables(pred_rows, classes, n_segments)
    gt_table = label_tables(gt_rows, classes, n_segments)
    c = len(classes)
    zero = np.zeros((n_segments, c))
    preds = {}
    for vid, entry in pred_table.items():
        preds[vid] = SegmentPrediction(vid, entry.get("a", (zero, None))[0],
                                       entry.get("v", (zero, None))[0])
    truths = {}
    for vid, entry in gt_table.items():
        truths[vid] = (entry.get("a", (zero, None))[0], entry.get("v", (zero, None))[0])
    return aggregate_report(preds, truths, iou_threshold)
