"""Segment- and event-level F-scores for audio-visual parsing.

Ten headline numbers: {A, V, AV, Type@AV, Event@AV} at segment level and at
event level. Per-video scores are averaged over the split; a video where both
prediction and ground truth are empty counts as 1.0 (vacuous agreement).
Events are maximal runs of positive segments, matched greedily one-to-one at
IoU >= 0.5 with deterministic tie-breaks.

:func:`aggregate_report` scores a whole split in array operations, and the
per-video functions below are its oracle. Counting pairs is enough there:
if runs p and g of one class and modality have IoU >= 0.5, then
|p & g| >= |g| / 2. Two disjoint runs of one column are separated by a gap,
so they cannot both cover half of one interval. Every run thus has at most
one partner, the candidate pairs are already one-to-one, and the greedy
matcher takes every one of them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .data import atomic_write, label_tables, read_label_rows
from .errors import OPEN_UNIT_INTERVAL, EvaluationError, ShapeError, check_value

THETA = 0.5  # default segment and video thresholds of binarize
IOU_THRESHOLD = 0.5  # an event pair matches at IoU >= this
TRACKS = ("a", "v", "av")  # scored per track; Type@AV is their mean


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
        """One row per level, its ``<level>_*`` fields in field order."""
        lines = [f"{'':14s}" + "".join(f"{head:>{width}s}" for head, width in TABLE_COLUMNS)]
        for level, label in TABLE_LEVELS:
            values = [getattr(self, f.name) for f in fields(self) if f.name.startswith(level)]
            lines.append(f"{label:14s}" + "".join(
                f"{v:{width}.4f}" for v, (_, width) in zip(values, TABLE_COLUMNS, strict=True)))
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            writer.writerow([f"{v:.6f}" for v in self.as_row()])


REPORT_COLUMNS = [f.name for f in fields(MetricReport)]
# the printed table: a heading and width per track column, a label per level
TABLE_COLUMNS = (("A", 8), ("V", 8), ("AV", 8), ("Type@AV", 9), ("Event@AV", 10))
TABLE_LEVELS = (("seg_", "segment-level"), ("evt_", "event-level"))


# -- binarization -------------------------------------------------------------


def binarize(outputs, theta_seg: float = THETA, theta_vid: float = THETA,
             video_id: str = "") -> SegmentPrediction:
    """Threshold segment probabilities, gated by the video-level head.

    A cell is positive only if its segment probability exceeds ``theta_seg``
    AND the class's video probability exceeds ``theta_vid`` (both strict).
    """
    check_value(OPEN_UNIT_INTERVAL, "theta_seg", theta_seg)
    check_value(OPEN_UNIT_INTERVAL, "theta_vid", theta_vid)
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


def match_events(pred_events, gt_events) -> int:
    """Greedy one-to-one matching within (class, modality) groups.

    Candidate pairs at or above ``IOU_THRESHOLD`` are taken by descending IoU,
    ties broken by earlier ground-truth start, then earlier prediction start.
    """
    candidates = []
    for pi, p in enumerate(pred_events):
        for gi, g in enumerate(gt_events):
            if p.class_idx != g.class_idx or p.modality != g.modality:
                continue
            iou = interval_iou(p, g)
            if iou >= IOU_THRESHOLD:
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


def event_f1(pred_events, gt_events) -> float:
    if not pred_events and not gt_events:
        return 1.0
    matches = match_events(pred_events, gt_events)
    return 2.0 * matches / (len(pred_events) + len(gt_events))


# -- aggregation ------------------------------------------------------------------


def _runs(on: np.ndarray):
    """The maximal runs along the last axis of ``on`` [V, C, T], numbered in
    C order: each cell's 0-based run id (meaningful where ``on``), and each
    run's video and length."""
    starts = on.copy()
    starts[..., 1:] &= ~on[..., :-1]
    ids = np.cumsum(starts).reshape(on.shape) - 1
    video = np.nonzero(starts)[0]
    return ids, video, np.bincount(ids[on])


def _event_counts(pred: np.ndarray, gt: np.ndarray):
    """Per video of ``[V, C, T]`` bool tracks: matches, predicted events and
    true events. A match is a (pred run, true run) pair at IoU >= 0.5; by the
    one-partner argument above, their count is the greedy matcher's."""
    n_videos = len(pred)
    p_ids, p_video, p_len = _runs(pred)
    g_ids, g_video, g_len = _runs(gt)
    both = pred & gt
    width = max(len(g_len), 1)
    keys, inter = np.unique(p_ids[both] * width + g_ids[both], return_counts=True)
    p, g = np.divmod(keys, width)
    hit = 2 * inter >= p_len[p] + g_len[g] - inter  # inter / union >= IOU_THRESHOLD
    return (np.bincount(p_video[p[hit]], minlength=n_videos),
            np.bincount(p_video, minlength=n_videos), np.bincount(g_video, minlength=n_videos))


def _f1(hits: np.ndarray, n_pred: np.ndarray, n_true: np.ndarray) -> np.ndarray:
    """``2.0 * hits / (n_pred + n_true)`` per video, 1.0 where both are empty.

    The integer counts make the denominator exact, so this is bit for bit the
    oracles' ``2.0 * tp / (2.0 * tp + fp + fn)`` with ``n_pred = tp + fp`` and
    ``n_true = tp + fn``, and ``event_f1``'s expression."""
    total = n_pred + n_true
    return np.where(total == 0, 1.0, 2.0 * hits / np.maximum(total, 1))


def _group_scores(pred_a, pred_v, gt_a, gt_v) -> dict:
    """Every per-video score of one group of same-shape videos, keyed by
    (level, track); the arguments are ``[V, C, T]`` bool arrays."""
    scores, events = {}, {}
    for track, (p, g) in {"a": (pred_a, gt_a), "v": (pred_v, gt_v),
                          "av": (pred_a & pred_v, gt_a & gt_v),
                          "pool": (pred_a | pred_v, gt_a | gt_v)}.items():
        scores["seg", track] = _f1(np.sum(p & g, axis=(1, 2)), np.sum(p, axis=(1, 2)),
                                   np.sum(g, axis=(1, 2)))
        if track != "pool":  # Event@AV pools the a and v events, not the union's runs
            events[track] = _event_counts(p, g)
            scores["evt", track] = _f1(*events[track])
    scores["evt", "pool"] = _f1(*(a + v for a, v in zip(events["a"], events["v"], strict=True)))
    return scores


def aggregate_report(predictions: dict, truths: dict) -> MetricReport:
    """Fold per-video scores into the ten-number report.

    ``predictions`` maps video_id to SegmentPrediction; ``truths`` maps
    video_id to (gt_a, gt_v) arrays. Every predicted video needs ground
    truth; videos with ground truth but no prediction score as all-negative.
    Each level scores every track plus the pooled a|v entry (Event@AV).

    Videos of one shape are stacked and scored together. Each level's mean is
    taken over the per-video scores in sorted-id order, so the report equals
    the per-video oracle functions' bit for bit.
    """
    missing = sorted(set(predictions) - set(truths))
    if missing:
        raise EvaluationError(f"no ground truth for predicted videos {missing[:5]}")
    if not truths:
        raise EvaluationError("cannot aggregate over an empty video set")
    ids = sorted(truths)
    groups: dict[tuple, tuple[list, list, list]] = {}  # shape -> positions, preds, truths
    for i, video_id in enumerate(ids):
        gt = SegmentPrediction(video_id, *truths[video_id])
        pred = predictions.get(video_id)
        if pred is not None and pred.pred_a.shape != gt.pred_a.shape:
            raise EvaluationError(
                f"{video_id}: prediction shape {pred.pred_a.shape} != truth {gt.pred_a.shape}")
        at, preds, gts = groups.setdefault(gt.pred_a.shape, ([], [], []))
        at.append(i)
        preds.append(pred)
        gts.append(gt)
    scores = {(level, track): np.empty(len(ids))
              for level in ("seg", "evt") for track in (*TRACKS, "pool")}
    for shape, (at, preds, gts) in groups.items():
        zero = np.zeros(shape[::-1], dtype=bool)  # [C, T]: runs lie along the last axis
        tracks = [np.stack([zero if video is None else (getattr(video, name) != 0).T
                            for video in videos])
                  for videos in (preds, gts) for name in ("pred_a", "pred_v")]
        for key, values in _group_scores(*tracks).items():
            scores[key][at] = values
    values = {}
    for level in ("seg", "evt"):
        means = {track: float(np.mean(scores[level, track])) for track in (*TRACKS, "pool")}
        values.update({f"{level}_{track}": means[track] for track in TRACKS})
        values[f"{level}_type_at_av"] = (means["a"] + means["v"] + means["av"]) / 3.0
        values[f"{level}_event_at_av"] = means["pool"]
    return MetricReport(**values)


# -- dump-file evaluation ------------------------------------------------------------


def report_from_dumps(pred_path, gt_path, classes=None) -> MetricReport:
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
    return aggregate_report(preds, truths)
