"""Cross-modal random combination: distribution-aware track remixing.

New training videos pair one donor's visual track with another donor's audio
track; the weak label of the result is the union of the donated pseudo-labels.
Videos that are discarded or still contain unannotated pseudo rows are never
used as donors.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .data import Manifest, VideoRecord, atomic_write, write_label_csv, write_manifest
from .errors import NON_NEGATIVE, CapacityError, CombineError, check_fields

PROVENANCE_HEADER = ["new_id", "visual_donor", "audio_donor"]


@dataclass(frozen=True)
class AugmentConfig:
    multiplier: float = 1.0
    target_count: int | None = None  # overrides multiplier when set
    min_count: int = 50
    seed: int = 0

    def __post_init__(self):
        check_fields(self, NON_NEGATIVE, "multiplier", "target_count", "min_count", "seed")

    def resolve_target(self, pool_size: int) -> int:
        if self.target_count is not None:
            return self.target_count
        return int(round(self.multiplier * pool_size))


@dataclass
class LabelDistribution:
    """Video-level class occurrence counts and the thresholded support."""

    counts: dict[int, int]
    threshold: int
    retained: dict[int, int] = field(init=False)

    def __post_init__(self):
        self.retained = {c: n for c, n in self.counts.items() if n > self.threshold}

    def normalized_retained(self) -> dict[int, float]:
        total = sum(self.retained.values())
        if total == 0:
            return {}
        return {c: n / total for c, n in self.retained.items()}


def count_label_distribution(records, threshold: int) -> LabelDistribution:
    """Count, per class, how many videos carry it; keep counts > threshold."""
    counts: dict[int, int] = {}
    for r in records:
        for c in np.flatnonzero(r.video_label):
            counts[int(c)] = counts.get(int(c), 0) + 1
    return LabelDistribution(counts, threshold)


def donor_eligible(record: VideoRecord) -> bool:
    return not record.discard and not record.has_nulls()


def cmrc_combine(visual_donor: VideoRecord, audio_donor: VideoRecord) -> VideoRecord:
    """Visual track from one donor, audio track from the other, union label."""
    for donor, role in ((visual_donor, "visual"), (audio_donor, "audio")):
        if donor.discard:
            raise CombineError(f"{role} donor {donor.video_id} is discarded")
        if donor.has_nulls():
            raise CombineError(f"{role} donor {donor.video_id} has unannotated pseudo rows")
    if visual_donor.pseudo_v.shape != audio_donor.pseudo_a.shape:
        raise CombineError("donors disagree on segment count or class count")
    pseudo_a = audio_donor.pseudo_a.copy()
    pseudo_v = visual_donor.pseudo_v.copy()
    label = (pseudo_a.any(axis=0) | pseudo_v.any(axis=0)).astype(np.float64)
    t = pseudo_a.shape[0]
    return VideoRecord(
        video_id=f"cmrc_{visual_donor.video_id}_{audio_donor.video_id}",
        audio=audio_donor.audio.copy(),
        visual=visual_donor.visual.copy(),
        video_label=label,
        pseudo_a=pseudo_a,
        pseudo_v=pseudo_v,
        null_a=np.zeros(t, dtype=bool),
        null_v=np.zeros(t, dtype=bool),
        visual_donor=visual_donor.video_id,
        audio_donor=audio_donor.video_id,
    )


def generate_cmrc_batch(records, dist: LabelDistribution, config: AugmentConfig) -> list[VideoRecord]:
    """Produce exactly the target number of combined records.

    Draws are steered so the class frequencies of the generated video labels
    track the retained source distribution: each draw picks the retained
    class with the largest remaining deficit and samples a donor carrying it
    in the chosen modality. Ordered donor pairs are never reused; with no
    retained support (tiny pools) donors are drawn uniformly.
    """
    rng = np.random.default_rng(config.seed)
    pool = [r for r in records if donor_eligible(r)]
    target = config.resolve_target(len(records))
    capacity = len(pool) * len(pool)
    if target > capacity:
        raise CapacityError(
            f"target {target} exceeds {capacity} distinct (visual, audio) donor pairs")
    shares = dist.normalized_retained()
    retained = sorted(shares)
    by_class_v = {c: [i for i, r in enumerate(pool) if r.pseudo_v[:, c].any()] for c in retained}
    by_class_a = {c: [i for i, r in enumerate(pool) if r.pseudo_a[:, c].any()] for c in retained}
    gen_counts = {c: 0 for c in retained}
    used: set[tuple[int, int]] = set()
    out: list[VideoRecord] = []

    def pick_pair() -> tuple[int, int]:
        all_idx = range(len(pool))
        if retained:
            total = sum(gen_counts.values())
            deficit = {c: shares[c] - (gen_counts[c] / total if total else 0.0) for c in retained}
            c = max(retained, key=lambda k: (deficit[k], -k))
            carrier_visual = bool(rng.random() < 0.5)
            v_cands = by_class_v[c] if carrier_visual and by_class_v[c] else list(all_idx)
            a_cands = by_class_a[c] if not carrier_visual and by_class_a[c] else list(all_idx)
        else:
            v_cands = a_cands = list(all_idx)
        for _ in range(256):
            pair = (int(rng.choice(v_cands)), int(rng.choice(a_cands)))
            if pair not in used:
                return pair
        for vi in all_idx:  # deterministic sweep; reachable only near capacity
            for ai in all_idx:
                if (vi, ai) not in used:
                    return (vi, ai)
        raise CapacityError("donor pairs exhausted")

    for _ in range(target):
        vi, ai = pick_pair()
        used.add((vi, ai))
        record = cmrc_combine(pool[vi], pool[ai])
        out.append(record)
        for c in retained:
            if record.video_label[c]:
                gen_counts[c] += 1
    return out


def class_frequency_l1(batch, dist: LabelDistribution) -> float:
    """L1 distance between generated and retained class-frequency profiles."""
    shares = dist.normalized_retained()
    if not shares:
        return 0.0
    gen = {c: 0 for c in shares}
    for r in batch:
        for c in shares:
            if r.video_label[c]:
                gen[c] += 1
    total = sum(gen.values())
    if total == 0:
        return sum(shares.values())
    return sum(abs(shares[c] - gen[c] / total) for c in shares)


def write_cmrc_outputs(out_dir: str, batch, donor_manifest: Manifest, data_dir: str) -> None:
    """Materialize a combined batch: manifest (zero-copy feature references),
    pseudo-label CSV, and a provenance CSV."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {vid: (a, v) for vid, a, v, _ in donor_manifest.records}
    classes = donor_manifest.classes
    t = donor_manifest.n_segments
    manifest_records = []
    pseudo_table = {}
    for r in batch:
        audio_rel = os.path.relpath(os.path.join(data_dir, paths[r.audio_donor][0]), out_dir)
        visual_rel = os.path.relpath(os.path.join(data_dir, paths[r.visual_donor][1]), out_dir)
        labels = [classes[c] for c in np.flatnonzero(r.video_label)]
        manifest_records.append((r.video_id, audio_rel, visual_rel, labels))
        pseudo_table[r.video_id] = {"a": (r.pseudo_a, r.null_a), "v": (r.pseudo_v, r.null_v)}
    write_manifest(os.path.join(out_dir, "manifest_cmrc.txt"), "cmrc", t, classes, manifest_records)
    write_label_csv(os.path.join(out_dir, "pseudo_cmrc.csv"), pseudo_table, classes, t)
    with atomic_write(os.path.join(out_dir, "provenance.csv"), newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROVENANCE_HEADER)
        for r in batch:
            writer.writerow([r.video_id, r.visual_donor, r.audio_donor])
