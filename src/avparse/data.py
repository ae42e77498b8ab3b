"""Dataset ingestion and the synthetic desk-scale generator.

File formats (all versioned, all deterministic given their inputs):

* feature files -- ``"AVMF" | version u32 | T u32 | D u32 | T*D f32 LE``,
  every value finite;
* label CSV -- header ``video_id,modality,segment,labels`` with semicolon-
  joined category names, empty labels meaning a null (unannotated) row; the
  same schema carries pseudo-labels, ground truth, prediction dumps and
  annotation patches. The writer marks rows that are annotated as event-free
  with the ``NONE`` token so they survive a round trip without turning into
  nulls. ``read_label_rows`` is the one reader of its rows: it checks the
  header, the 4 columns, the modality, the segment (an integer >= 0) and the
  names, and rejects an empty name such as the middle of ``Dog;;Speech``;
* annotation patches -- label-CSV rows that may only fill null rows, or have
  labels ``DISCARD`` flagging the whole video for exclusion from cross-modal
  combination;
* manifest -- ``key = value`` lines (read by ``read_key_values``, which also
  reads ``--config`` files) plus one ``video = id|audio|visual|labels`` record
  per video, paths relative to the manifest. ``format``, ``version``,
  ``split``, ``segments`` and ``classes`` each appear exactly once; any other
  key is an error. ``version`` and ``segments`` must be positive integers.

Text files are read and written as UTF-8; a file that is not is a
``ParseError``.
"""

from __future__ import annotations

import csv
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, UNIT_INTERVAL, ConfigError, ContractError,
                     FormatError, ParseError, PatchError, ShapeError, check_fields)

FEATURE_MAGIC = b"AVMF"
FEATURE_VERSION = 1
MANIFEST_FORMAT = "avparse-manifest"
MANIFEST_VERSION = 1
MANIFEST_KEYS = ("format", "version", "split", "segments", "classes")  # each exactly once
LABEL_CSV_HEADER = ["video_id", "modality", "segment", "labels"]
DISCARD_TOKEN = "DISCARD"
EMPTY_TOKEN = "NONE"  # annotated as event-free, as opposed to unannotated


# -- records -------------------------------------------------------------------


def check_feature_matrix(values, name: str, n_segments: int | None = None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D [segments, dim] array, got shape {arr.shape}")
    if n_segments is not None and arr.shape[0] != n_segments:
        raise ShapeError(f"{name} must have {n_segments} segments, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{name} contains non-finite values")
    return arr


def check_binary_matrix(values, name: str, shape=None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if shape is not None and arr.shape != tuple(shape):
        raise ShapeError(f"{name} must have shape {tuple(shape)}, got {arr.shape}")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ContractError(f"{name} must be 0/1-valued")
    return arr


@dataclass
class VideoRecord:
    """One video: features, weak label, and per-modality pseudo-labels."""

    video_id: str
    audio: np.ndarray  # [T, d_a]
    visual: np.ndarray  # [T, d_v]
    video_label: np.ndarray  # [C] 0/1
    pseudo_a: np.ndarray  # [T, C] 0/1
    pseudo_v: np.ndarray
    null_a: np.ndarray  # [T] bool, true where the pseudo row is unannotated
    null_v: np.ndarray
    discard: bool = False
    visual_donor: str | None = None  # provenance, set on combined records
    audio_donor: str | None = None

    def validate(self) -> None:
        """Finite 2-D features and 0/1 labels that agree on T and C, with
        all-zero null rows."""
        t = check_feature_matrix(self.audio, f"{self.video_id}.audio").shape[0]
        check_feature_matrix(self.visual, f"{self.video_id}.visual", t)
        c = np.size(self.video_label)
        check_binary_matrix(self.video_label, f"{self.video_id}.video_label", (c,))
        for null, pseudo, name in ((self.null_a, self.pseudo_a, "a"),
                                   (self.null_v, self.pseudo_v, "v")):
            check_binary_matrix(pseudo, f"{self.video_id}.pseudo_{name}", (t, c))
            if np.any(pseudo[null] != 0):
                raise ContractError(f"{self.video_id}: null {name}-rows must be all-zero")

    def has_nulls(self) -> bool:
        return bool(self.null_a.any() or self.null_v.any())


def check_records(records) -> list[VideoRecord]:
    """Validate each record and require every record's shapes to equal the first's."""
    records = list(records)
    if not records:
        raise ContractError("records must not be empty")
    first = records[0]
    for r in records:
        r.validate()
        for field_name in ("audio", "visual", "video_label"):
            got, want = getattr(r, field_name).shape, getattr(first, field_name).shape
            if got != want:
                raise ShapeError(f"{r.video_id}.{field_name} has shape {got}, "
                                 f"but the first record's is {want}")
    return records


@dataclass
class Manifest:
    split: str
    n_segments: int
    classes: list[str]
    records: list[tuple[str, str, str, frozenset]]  # (id, audio path, visual path, labels)


# -- atomic writes ------------------------------------------------------------------


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Write ``path`` through a new temporary file in the same directory,
    opened in ``mode`` ("w", as UTF-8 text, or "wb"). When the block
    finishes, the file replaces ``path`` in one ``os.replace``; when it
    raises, the file is removed and ``path`` is left as it was."""
    path = os.fspath(path)
    if "b" not in mode:
        open_kwargs.setdefault("encoding", "utf-8")
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextmanager
def read_text(path, **open_kwargs):
    """``path`` opened as UTF-8 text; a byte sequence that is not UTF-8 is a
    ``ParseError`` naming the path."""
    try:
        with open(path, encoding="utf-8", **open_kwargs) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


# -- feature files ----------------------------------------------------------------


def write_feature_file(path, values: np.ndarray) -> None:
    """Write a ``[T, D]`` array as a feature file. A value that is not finite
    as float32, which ``read_feature_file`` would reject, is a
    ``FormatError``, and then no file is written."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise FormatError(f"feature array must be 2-D, got shape {values.shape}")
    t, d = values.shape
    with np.errstate(over="ignore"):
        payload = values.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise FormatError(f"{path}: feature values must be finite float32 values "
                          f"(|x| <= {float(np.finfo(np.float32).max):.6g})")
    with atomic_write(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, t, d))
        fh.write(payload.tobytes())


def read_feature_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise FormatError(f"{path}: truncated header")
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {FEATURE_MAGIC!r}")
    version, t, d = struct.unpack("<III", blob[4:16])
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if t == 0 or d == 0:
        raise FormatError(f"{path}: zero dimension in header (T={t}, D={d})")
    expected = 16 + 4 * t * d
    if len(blob) != expected:
        raise FormatError(f"{path}: payload is {len(blob) - 16} bytes, expected {4 * t * d}")
    values = np.frombuffer(blob[16:], dtype="<f4").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: payload holds non-finite values")
    return values.reshape(t, d)


# -- label CSVs --------------------------------------------------------------------


class LabelRow(NamedTuple):
    """One data row of a label CSV; ``annotated`` is false for a null row."""

    where: str  # "<path> line <n>", the prefix of every error about this row
    video_id: str
    modality: str
    segment: int
    names: list[str]
    annotated: bool


def _split_names(raw: str, where: str) -> list[str]:
    """Semicolon-joined category names; an empty field holds none."""
    raw = raw.strip()
    if not raw:
        return []
    names = [part.strip() for part in raw.split(";")]
    if "" in names:
        raise ParseError(f"{where}: empty category name in {raw!r}")
    return names


def read_label_rows(path) -> list[LabelRow]:
    """Read every row of a label CSV, checked against the shared schema.

    ``NONE`` gives an annotated row with no names, an empty field a null row.
    Every error is a ``ParseError`` naming the path and line.
    """
    rows = []
    with read_text(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != LABEL_CSV_HEADER:
            raise ParseError(f"{path}: header must be {','.join(LABEL_CSV_HEADER)}")
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if len(row) != 4:
                raise ParseError(f"{where}: expected 4 columns, got {len(row)}")
            video_id, modality, seg_raw, labels_raw = row
            if modality not in ("a", "v"):
                raise ParseError(f"{where}: modality must be 'a' or 'v', got {modality!r}")
            try:
                segment = int(seg_raw)
            except ValueError:
                raise ParseError(f"{where}: segment {seg_raw!r} is not an integer") from None
            if segment < 0:
                raise ParseError(f"{where}: segment {segment} out of range")
            if labels_raw.strip() == EMPTY_TOKEN:
                names, annotated = [], True
            else:
                names = _split_names(labels_raw, where)
                annotated = bool(names)
            rows.append(LabelRow(where, video_id, modality, segment, names, annotated))
    return rows


def label_tables(rows: list[LabelRow], vocabulary, n_segments: int):
    """Per-video, per-modality matrices from the rows of one label CSV.

    ``table[video_id][modality]`` is a ``(matrix [T, C], null_mask [T])``
    pair. Rows absent from the file are treated as null.
    """
    class_index = {name: i for i, name in enumerate(vocabulary)}
    table: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
    seen: set[tuple[str, str, int]] = set()
    for where, video_id, modality, segment, names, annotated in rows:
        if segment >= n_segments:
            raise ParseError(f"{where}: segment {segment} out of range")
        key = (video_id, modality, segment)
        if key in seen:
            raise ParseError(f"{where}: duplicate row for {key}")
        seen.add(key)
        per_video = table.setdefault(video_id, {})
        if modality not in per_video:
            per_video[modality] = (np.zeros((n_segments, len(vocabulary))),
                                   np.ones(n_segments, dtype=bool))
        matrix, null_mask = per_video[modality]
        null_mask[segment] = not annotated
        for name in names:
            if name not in class_index:
                raise ParseError(f"{where}: unknown category {name!r}")
            matrix[segment, class_index[name]] = 1.0
    return table


def parse_label_csv(path, vocabulary, n_segments: int | None = None):
    """Parse a label CSV into ``(label_tables(...), n_segments)``; without
    ``n_segments`` the count is the largest segment in the file plus one."""
    rows = read_label_rows(path)
    if n_segments is None:
        n_segments = max((row.segment for row in rows), default=-1) + 1
    return label_tables(rows, vocabulary, n_segments), n_segments


def write_label_csv(path, table, vocabulary, n_segments: int) -> None:
    """Write one row per (video, modality, segment).

    ``table`` maps video_id to a dict with 'a'/'v' matrices, optionally as
    ``(matrix, null_mask)`` pairs. With a mask, unannotated rows are written
    as empty labels and annotated event-free rows as ``NONE``; without one,
    event-free rows are written empty (the convention for prediction dumps
    and ground truth, where the flag carries no meaning).
    """
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_CSV_HEADER)
        for video_id in sorted(table):
            for modality in ("a", "v"):
                entry = table[video_id].get(modality)
                if entry is None:
                    continue
                matrix, null_mask = entry if isinstance(entry, tuple) else (entry, None)
                if len(matrix) < n_segments:
                    raise ShapeError(f"{video_id}/{modality}: {len(matrix)} label rows, "
                                     f"{n_segments} segments")
                names = [[] for _ in range(n_segments)]
                rows, cols = np.nonzero(np.asarray(matrix)[:n_segments])
                for t, c in zip(rows.tolist(), cols.tolist()):
                    names[t].append(vocabulary[c])
                fields = [";".join(row) for row in names]
                if null_mask is not None:
                    fields = [EMPTY_TOKEN if not row and not null_mask[t] else row
                              for t, row in enumerate(fields)]
                writer.writerows([video_id, modality, t, row] for t, row in enumerate(fields))


def apply_annotation_patch(records: list[VideoRecord], patch_path, vocabulary) -> list[VideoRecord]:
    """Fix null pseudo rows from a patch CSV; ``DISCARD`` flags the video.

    Patching an already-labelled row is an error: patches exist to resolve
    nulls, never to overwrite annotations.
    """
    by_id = {r.video_id: r for r in records}
    class_index = {name: i for i, name in enumerate(vocabulary)}
    for row in read_label_rows(patch_path):
        record = by_id.get(row.video_id)
        if record is None:
            raise PatchError(f"{row.where}: unknown video {row.video_id!r}")
        if row.segment >= record.pseudo_a.shape[0]:
            raise ParseError(f"{row.where}: segment {row.segment} out of range")
        if row.names == [DISCARD_TOKEN]:
            record.discard = True
            continue
        if not row.names:
            raise ParseError(f"{row.where}: empty patch labels")
        matrix, null_mask = ((record.pseudo_a, record.null_a) if row.modality == "a"
                             else (record.pseudo_v, record.null_v))
        if not null_mask[row.segment]:
            raise PatchError(
                f"{row.where}: segment {row.segment} of {row.video_id}/{row.modality} "
                "is already annotated; patches may only fill null rows")
        for name in row.names:
            if name not in class_index:
                raise ParseError(f"{row.where}: unknown category {name!r}")
            matrix[row.segment, class_index[name]] = 1.0
        null_mask[row.segment] = False
    return records


# -- manifest -----------------------------------------------------------------------


def write_manifest(path, split: str, n_segments: int, classes, records) -> None:
    """``records`` is an iterable of (video_id, audio_path, visual_path, label_names)."""
    lines = [
        f"format = {MANIFEST_FORMAT}",
        f"version = {MANIFEST_VERSION}",
        f"split = {split}",
        f"segments = {n_segments}",
        f"classes = {';'.join(classes)}",
    ]
    for video_id, audio_path, visual_path, labels in records:
        label_str = ";".join(sorted(labels))
        lines.append(f"video = {video_id}|{audio_path}|{visual_path}|{label_str}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_key_values(path) -> list[tuple[int, str, str]]:
    """``(line, key, value)`` for each ``key = value`` line of a text file.

    Blank lines and lines starting with ``#`` are skipped; any other line
    without ``=`` is a ``ParseError``.
    """
    entries = []
    with read_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path} line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            entries.append((lineno, key.strip(), value.strip()))
    return entries


def _manifest_int(path, keys: dict[str, str], key: str) -> int:
    if not keys[key].isdecimal() or int(keys[key]) < 1:
        raise ParseError(f"{path}: manifest key {key!r} must be a positive integer, "
                         f"got {keys[key]!r}")
    return int(keys[key])


def parse_manifest(path) -> Manifest:
    keys: dict[str, str] = {}
    videos: list[tuple[str, str, str, frozenset]] = []
    for lineno, key, value in read_key_values(path):
        if key == "video":
            parts = value.split("|")
            if len(parts) != 4:
                raise ParseError(f"{path} line {lineno}: video record needs 4 '|' fields")
            vid, audio_path, visual_path, labels_raw = parts
            if "\0" in audio_path + visual_path:  # no file system takes it
                raise ParseError(f"{path} line {lineno}: feature path holds a NUL character")
            videos.append((vid, audio_path, visual_path,
                           frozenset(_split_names(labels_raw, f"{path} line {lineno}"))))
        elif key not in MANIFEST_KEYS:
            raise ParseError(f"{path} line {lineno}: unknown manifest key {key!r}")
        elif key in keys:
            raise ParseError(f"{path} line {lineno}: repeated manifest key {key!r}")
        else:
            keys[key] = value
    for required in MANIFEST_KEYS:
        if required not in keys:
            raise ParseError(f"{path}: missing manifest key {required!r}")
    if keys["format"] != MANIFEST_FORMAT:
        raise ParseError(f"{path}: format is {keys['format']!r}, expected {MANIFEST_FORMAT!r}")
    if _manifest_int(path, keys, "version") != MANIFEST_VERSION:
        raise ParseError(f"{path}: unsupported manifest version {keys['version']}")
    classes = list(_split_names(keys["classes"], f"{path}: manifest key 'classes'"))
    if len(set(classes)) != len(classes):
        raise ParseError(f"{path}: duplicate class names")
    ids = [v[0] for v in videos]
    if len(set(ids)) != len(ids):
        raise ParseError(f"{path}: duplicate video ids")
    class_set = set(classes)
    for vid, _, _, labels in videos:
        unknown = labels - class_set
        if unknown:
            raise ParseError(f"{path}: video {vid} has unknown labels {sorted(unknown)}")
    return Manifest(keys["split"], _manifest_int(path, keys, "segments"), classes, videos)


# -- synthetic dataset ----------------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_videos: int = 200
    n_val: int = 60
    n_segments: int = 10
    n_classes: int = 25
    d_audio: int = 64
    d_visual: int = 64
    noise: float = 0.1
    noise_audio: float | None = None  # per-modality override of `noise`
    noise_visual: float | None = None
    signal_audio: float = 1.0  # event activation magnitude per modality
    signal_visual: float = 1.0
    onset_ramp: float = 0.0  # 0.6 ramps activation from 0.4 at onset to 1.6 at the end
    flip_rate: float = 0.0
    correlation: float = 0.0  # chance a visual event is mirrored in audio
    shared_directions: bool = False  # same class directions in both modalities
    max_events: int = 3

    def __post_init__(self):
        check_fields(self, POSITIVE, "n_videos", "n_segments", "n_classes", "d_audio",
                     "d_visual", "max_events")
        check_fields(self, NON_NEGATIVE, "seed", "n_val", "noise", "noise_audio",
                     "noise_visual", "signal_audio", "signal_visual")
        check_fields(self, UNIT_INTERVAL, "flip_rate", "correlation")
        check_fields(self, (lambda v: 0 <= v < 1, "in [0, 1)"), "onset_ramp")
        if self.shared_directions and self.d_audio != self.d_visual:
            raise ConfigError("shared_directions requires d_audio == d_visual")

    @property
    def sigma_audio(self) -> float:
        return self.noise if self.noise_audio is None else self.noise_audio

    @property
    def sigma_visual(self) -> float:
        return self.noise if self.noise_visual is None else self.noise_visual


@dataclass
class SyntheticDataset:
    config: SynthConfig
    classes: list[str]
    train: list[VideoRecord] = field(default_factory=list)
    val: list[VideoRecord] = field(default_factory=list)
    gt_train: dict = field(default_factory=dict)  # video_id -> (gt_a, gt_v)
    gt_val: dict = field(default_factory=dict)


def default_classes(n_classes: int) -> list[str]:
    return [f"event{i:02d}" for i in range(n_classes)]


def _sample_events(rng: np.random.Generator, cfg: SynthConfig, count: int):
    events = []
    for _ in range(count):
        c = int(rng.integers(cfg.n_classes))
        length = int(rng.integers(1, min(6, cfg.n_segments) + 1))
        start = int(rng.integers(0, cfg.n_segments - length + 1))
        events.append((c, start, start + length))
    return events


def _events_to_matrix(events, cfg: SynthConfig) -> np.ndarray:
    m = np.zeros((cfg.n_segments, cfg.n_classes))
    for c, start, end in events:
        m[start:end, c] = 1.0
    return m


def _activation_matrix(events, cfg: SynthConfig) -> np.ndarray:
    """Per-segment event activation; with ``onset_ramp`` the strength climbs
    linearly from (1 - ramp) at onset to (1 + ramp) at the event's last
    segment, so early segments are only detectable with lookahead."""
    act = np.zeros((cfg.n_segments, cfg.n_classes))
    ramp = cfg.onset_ramp
    for c, start, end in events:
        length = end - start
        for t in range(start, end):
            frac = 1.0 if length == 1 else (t - start) / (length - 1)
            act[t, c] = max(act[t, c], (1.0 - ramp) + 2.0 * ramp * frac)
    return act


def _corrupt(matrix: np.ndarray, rng: np.random.Generator, flip_rate: float) -> np.ndarray:
    """Per segment row, toggle one random class cell with probability flip_rate."""
    out = matrix.copy()
    if flip_rate <= 0:
        return out
    for t in range(out.shape[0]):
        if rng.random() < flip_rate:
            c = int(rng.integers(out.shape[1]))
            out[t, c] = 1.0 - out[t, c]
    return out


def make_synthetic(cfg: SynthConfig) -> SyntheticDataset:
    """Plant 1..max_events per modality on class-specific directions.

    Features are ``direction[class]`` summed over active events plus Gaussian
    noise, so the planted signal is linearly separable and an overfit run has
    a known-achievable optimum. The same planted truth feeds both the ground
    truth tables and the (optionally corrupted) pseudo-labels.
    """
    rng = np.random.default_rng(cfg.seed)
    classes = default_classes(cfg.n_classes)
    dirs_a = rng.standard_normal((cfg.n_classes, cfg.d_audio))
    dirs_a /= np.linalg.norm(dirs_a, axis=1, keepdims=True)
    if cfg.shared_directions:
        dirs_v = dirs_a
    else:
        dirs_v = rng.standard_normal((cfg.n_classes, cfg.d_visual))
        dirs_v /= np.linalg.norm(dirs_v, axis=1, keepdims=True)
    ds = SyntheticDataset(cfg, classes)
    total = cfg.n_videos + cfg.n_val
    for i in range(total):
        video_id = f"vid_{i:05d}"
        ev_v = _sample_events(rng, cfg, int(rng.integers(1, cfg.max_events + 1)))
        mirrored = [ev for ev in ev_v if rng.random() < cfg.correlation]
        if len(mirrored) >= cfg.max_events:
            n_private = 0
        elif mirrored:
            n_private = int(rng.integers(0, cfg.max_events - len(mirrored) + 1))
        else:
            n_private = int(rng.integers(1, cfg.max_events + 1))
        ev_a = mirrored + _sample_events(rng, cfg, n_private)
        gt_v = _events_to_matrix(ev_v, cfg)
        gt_a = _events_to_matrix(ev_a, cfg)
        audio = (cfg.signal_audio * _activation_matrix(ev_a, cfg) @ dirs_a
                 + rng.normal(0.0, cfg.sigma_audio, (cfg.n_segments, cfg.d_audio)))
        visual = (cfg.signal_visual * _activation_matrix(ev_v, cfg) @ dirs_v
                  + rng.normal(0.0, cfg.sigma_visual, (cfg.n_segments, cfg.d_visual)))
        label = (gt_a.any(axis=0) | gt_v.any(axis=0)).astype(np.float64)
        record = VideoRecord(
            video_id=video_id,
            audio=audio,
            visual=visual,
            video_label=label,
            pseudo_a=_corrupt(gt_a, rng, cfg.flip_rate),
            pseudo_v=_corrupt(gt_v, rng, cfg.flip_rate),
            null_a=np.zeros(cfg.n_segments, dtype=bool),
            null_v=np.zeros(cfg.n_segments, dtype=bool),
        )
        if i < cfg.n_videos:
            ds.train.append(record)
            ds.gt_train[video_id] = (gt_a, gt_v)
        else:
            ds.val.append(record)
            ds.gt_val[video_id] = (gt_a, gt_v)
    return ds


# -- dataset directories ----------------------------------------------------------------


def write_split(out_dir: str, split: str, records, gt, classes, n_segments: int) -> None:
    feature_dir = os.path.join(out_dir, "features")
    os.makedirs(feature_dir, exist_ok=True)
    manifest_records = []
    pseudo_table = {}
    for r in sorted(records, key=lambda r: r.video_id):
        audio_rel = os.path.join("features", f"{r.video_id}.audio.avmf")
        visual_rel = os.path.join("features", f"{r.video_id}.visual.avmf")
        write_feature_file(os.path.join(out_dir, audio_rel), r.audio)
        write_feature_file(os.path.join(out_dir, visual_rel), r.visual)
        labels = [classes[c] for c in np.flatnonzero(r.video_label)]
        manifest_records.append((r.video_id, audio_rel, visual_rel, labels))
        pseudo_table[r.video_id] = {"a": (r.pseudo_a, r.null_a), "v": (r.pseudo_v, r.null_v)}
    write_manifest(os.path.join(out_dir, f"manifest_{split}.txt"),
                   split, n_segments, classes, manifest_records)
    write_label_csv(os.path.join(out_dir, f"pseudo_{split}.csv"),
                    pseudo_table, classes, n_segments)
    if gt is not None:
        gt_table = {vid: {"a": m[0], "v": m[1]} for vid, m in gt.items()}
        write_label_csv(os.path.join(out_dir, f"gt_{split}.csv"), gt_table, classes, n_segments)


def generate_synthetic_dataset(cfg: SynthConfig, out_dir: str) -> SyntheticDataset:
    ds = make_synthetic(cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_split(out_dir, "train", ds.train, ds.gt_train, ds.classes, cfg.n_segments)
    if ds.val:
        write_split(out_dir, "val", ds.val, ds.gt_val, ds.classes, cfg.n_segments)
    return ds


@dataclass
class LoadedSplit:
    split: str
    manifest: Manifest  # as parsed: the split's segments, classes and feature paths
    records: list[VideoRecord]
    gt: dict | None  # video_id -> (gt_a, gt_v), when the split ships ground truth

    @property
    def n_segments(self) -> int:
        return self.manifest.n_segments

    @property
    def classes(self) -> list[str]:
        return self.manifest.classes


def _listed_label_table(path, manifest: Manifest, split: str):
    """``label_tables`` of the label CSV at ``path``; a row for a video that
    the split's manifest does not list is a ``ParseError``, not a silent extra."""
    rows = read_label_rows(path)
    listed = {vid for vid, _, _, _ in manifest.records}
    for row in rows:
        if row.video_id not in listed:
            raise ParseError(f"{row.where}: video {row.video_id!r} is not listed in the "
                             f"manifest of split {split!r}")
    return label_tables(rows, manifest.classes, manifest.n_segments)


def load_split(data_dir: str, split: str) -> LoadedSplit:
    manifest_path = os.path.join(data_dir, f"manifest_{split}.txt")
    if not os.path.exists(manifest_path):
        raise ParseError(f"no manifest for split {split!r} under {data_dir}")
    manifest = parse_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    class_index = {name: i for i, name in enumerate(manifest.classes)}
    pseudo_path = os.path.join(data_dir, f"pseudo_{split}.csv")
    pseudo_table: dict = {}
    if os.path.exists(pseudo_path):
        pseudo_table = _listed_label_table(pseudo_path, manifest, split)
    t, c = manifest.n_segments, len(manifest.classes)
    records = []
    for vid, audio_rel, visual_rel, labels in manifest.records:
        audio = read_feature_file(os.path.join(base, audio_rel))
        visual = read_feature_file(os.path.join(base, visual_rel))
        label_vec = np.zeros(c)
        for name in labels:
            label_vec[class_index[name]] = 1.0
        entry = pseudo_table.get(vid, {})
        pa, na = entry.get("a", (np.zeros((t, c)), np.ones(t, dtype=bool)))
        pv, nv = entry.get("v", (np.zeros((t, c)), np.ones(t, dtype=bool)))
        records.append(VideoRecord(vid, audio, visual, label_vec,
                                   pa.copy(), pv.copy(), na.copy(), nv.copy()))
    gt = None
    gt_path = os.path.join(data_dir, f"gt_{split}.csv")
    if os.path.exists(gt_path):
        gt = {}
        for vid, entry in _listed_label_table(gt_path, manifest, split).items():
            ga = entry.get("a", (np.zeros((t, c)), None))[0]
            gv = entry.get("v", (np.zeros((t, c)), None))[0]
            gt[vid] = (ga, gv)
    return LoadedSplit(split, manifest, records, gt)
