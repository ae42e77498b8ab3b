"""Training and evaluation loops wiring data, augmentation, model and metrics."""

from __future__ import annotations

import csv
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .augment import AugmentConfig, count_label_distribution, generate_cmrc_batch
from .checkpoint import load_checkpoint, save_checkpoint
from .data import LoadedSplit, VideoRecord, atomic_write, load_split
from .errors import (NON_NEGATIVE, OPEN_UNIT_INTERVAL, POSITIVE, UNIT_INTERVAL, CheckpointError,
                     ConfigError, EvaluationError, ParseError, TrainingError, check_fields)
from .metrics import (REPORT_COLUMNS, THETA, MetricReport, SegmentPrediction, aggregate_report,
                      binarize)
from .model import (AMF_MODES, AVMambaNet, ModelConfig, ModelOutputs, compute_loss,
                    embed_pseudo_matrix)
from .tensor import AdamW, no_grad

META_PREFIX = "meta."


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    learning_rate: float = 3e-4
    weight_decay: float = 0.01
    seed: int = 0
    cmrc_multiplier: float = 0.0  # 0 disables augmentation
    min_count: int = 50
    theta_seg: float = THETA
    theta_vid: float = THETA
    eval_every: int = 1
    stop_at_type_av: float | None = None  # early exit once validation reaches this

    def __post_init__(self):
        check_fields(self, POSITIVE, "epochs", "batch_size", "learning_rate", "eval_every")
        check_fields(self, NON_NEGATIVE, "weight_decay", "seed", "cmrc_multiplier", "min_count")
        check_fields(self, OPEN_UNIT_INTERVAL, "theta_seg", "theta_vid")
        check_fields(self, UNIT_INTERVAL, "stop_at_type_av")


# component -> (ModelConfig changes, TrainConfig changes) of its ablated variant
ABLATIONS = {
    "cmrc": ({}, {"cmrc_multiplier": 0.0}),
    "tsa": ({"use_tsa": False}, {}),
    "amf": ({"amf_mode": "private"}, {}),  # private per-modality scans, no mixed feature
    "mfe": ({"use_mfe": False}, {}),
    "plsim": ({"use_plsim": False}, {}),
}


def ablated_configs(component: str, model_config: ModelConfig,
                    config: TrainConfig) -> tuple[ModelConfig, TrainConfig]:
    """The configs of the variant with ``component`` (any case) disabled."""
    changes = ABLATIONS.get(component.lower())
    if changes is None:
        raise ConfigError(f"unknown component {component!r}; choose from {tuple(ABLATIONS)}")
    return replace(model_config, **changes[0]), replace(config, **changes[1])


@dataclass
class EpochStats:
    epoch: int
    loss: float
    report: MetricReport | None
    wall_clock_s: float


@dataclass
class TrainLog:
    parameter_count: int
    entries: list[EpochStats] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", *REPORT_COLUMNS, "wall_clock_s", "n_params"])
            for e in self.entries:
                scores = ([f"{v:.6f}" for v in e.report.as_row()] if e.report
                          else [""] * len(REPORT_COLUMNS))
                writer.writerow([e.epoch, f"{e.loss:.6f}", *scores,
                                 f"{e.wall_clock_s:.3f}", self.parameter_count])


# -- model (de)serialization ------------------------------------------------------


def _config_meta(config: ModelConfig) -> "OrderedDict[str, np.ndarray]":
    meta = OrderedDict()
    for f in fields(ModelConfig):
        value = getattr(config, f.name)
        if f.name == "amf_mode":
            value = AMF_MODES.index(value)
        meta[META_PREFIX + f.name] = np.array([float(value)])
    return meta


def _meta_value(meta: dict, f):
    """One metadata entry decoded to the type of field ``f``'s default."""
    key = META_PREFIX + f.name
    if key not in meta:
        raise CheckpointError(f"checkpoint lacks model metadata entry {key!r}")
    entry = meta[key].reshape(-1)
    if entry.size != 1 or not np.isfinite(entry[0]):
        raise CheckpointError(f"metadata entry {key!r} must hold one finite value, "
                              f"got {entry[:4].tolist()}")
    value = float(entry[0])
    if isinstance(f.default, float):
        return value
    if value != int(value):
        raise CheckpointError(f"metadata entry {key!r} must be integral, got {value}")
    value = int(value)
    if f.name == "amf_mode":
        if not 0 <= value < len(AMF_MODES):
            raise CheckpointError(f"metadata entry {key!r} must index {AMF_MODES}, got {value}")
        return AMF_MODES[value]
    if isinstance(f.default, bool):
        if value not in (0, 1):
            raise CheckpointError(f"metadata entry {key!r} must be 0 or 1, got {value}")
        return bool(value)
    return value


def _config_from_meta(meta: dict) -> ModelConfig:
    values = {f.name: _meta_value(meta, f) for f in fields(ModelConfig)}
    try:
        return ModelConfig(**values)
    except ConfigError as exc:
        raise CheckpointError(f"invalid model metadata: {exc}") from exc


def save_model(path, net: AVMambaNet) -> None:
    entries = _config_meta(net.config)
    entries.update(net.parameters())
    save_checkpoint(path, entries)


def pinned_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Parameters whose shapes pin every width of ``config``.

    No parameter of the model is more than twice the size of one of these, so
    a checkpoint whose stored entries have these shapes cannot make
    :func:`load_model` allocate much more than the file holds.
    """
    d, inner = config.dim, config.expand * config.dim
    pins = {"proj_a.w": (config.d_audio_in, d), "proj_v.w": (config.d_visual_in, d),
            "han.self_a.wq.w": (d, d), "mmil.classifier.w": (d, config.n_classes)}
    if config.use_plsim:
        pins["plsim.a_scale.fc1.w"] = (config.text_dim, d)
    # the first scan block pins expand, d_conv and d_state; with none, they size nothing
    if config.use_tsa:
        block, scan = "tsa_a.channel_block", "ssm"
    elif config.amf_mode != "off":
        block, scan = "amf.a", "ssm_fwd" if config.amf_mode == "full" else "ssm"
    else:
        return pins
    pins[f"{block}.w_in_x"] = (d, inner)
    pins[f"{block}.conv_w"] = (config.d_conv, inner)
    pins[f"{block}.{scan}.a_log"] = (inner, config.d_state)
    return pins


def _check_entry(shapes: dict, name: str, shape: tuple[int, ...], source: str) -> None:
    if name not in shapes:
        raise CheckpointError(f"checkpoint missing parameter {name!r}")
    if shapes[name] != shape:
        raise CheckpointError(f"shape mismatch for {name!r}: checkpoint {shapes[name]}, "
                              f"{source} {shape}")


def load_model(path) -> AVMambaNet:
    """The net saved at ``path``: its config comes from the ``meta.*``
    entries, and every payload is read straight into the net's store.

    The widths in the metadata are checked against the file's shapes before
    the store is allocated, the net draws no random init, and a parameter
    holding a non-finite value is rejected."""
    net = None

    def layout(shapes: dict, read) -> dict:
        nonlocal net
        meta_names = {META_PREFIX + f.name for f in fields(ModelConfig)}
        config = _config_from_meta({name: read(name) for name in meta_names & shapes.keys()})
        for name, shape in pinned_shapes(config).items():  # before anything is allocated
            _check_entry(shapes, name, shape, "metadata")
        net = AVMambaNet(config, seed=None)
        params = net.parameters()
        unknown = [name for name in shapes if name not in params and name not in meta_names]
        if unknown:
            raise CheckpointError(f"checkpoint has unknown entries {unknown[:5]}")
        for name, p in params.items():
            _check_entry(shapes, name, p.shape, "model")
        return {name: p.data for name, p in params.items()}

    load_checkpoint(path, layout)
    # one pass: an inf or nan makes the sum non-finite, so a finite sum proves
    # every value finite; only a non-finite one (or an overflow) needs the search
    with np.errstate(over="ignore"):
        total = net.store.sum()
    if not np.isfinite(total):
        for name, p in net.parameters().items():
            if not np.isfinite(p.data).all():
                raise CheckpointError(f"checkpoint entry {name!r} holds a non-finite value")
    return net


# -- record-level forward ----------------------------------------------------------


class TextCache:
    """Per-record caption embeddings, computed once per training run."""

    def __init__(self, classes, text_dim: int):
        self.classes = list(classes)
        self.text_dim = text_dim
        self._cache: dict[str, tuple[VideoRecord, np.ndarray, np.ndarray]] = {}

    def get(self, record: VideoRecord) -> tuple[np.ndarray, np.ndarray]:
        hit = self._cache.get(record.video_id)
        if hit is None or hit[0] is not record:  # a video id may recur in another split
            hit = (
                record,
                embed_pseudo_matrix(record.pseudo_a, "a", self.classes, self.text_dim),
                embed_pseudo_matrix(record.pseudo_v, "v", self.classes, self.text_dim),
            )
            self._cache[record.video_id] = hit
        return hit[1:]


def forward_record(net: AVMambaNet, record: VideoRecord, texts: TextCache | None):
    text_a = text_v = None
    if net.config.use_plsim and texts is not None:
        text_a, text_v = texts.get(record)
    return net.forward(record.audio, record.visual, text_a, text_v)


def forward_records(net: AVMambaNet, records, texts: TextCache | None):
    """One forward over ``records`` stacked into ``[B, T, d]`` inputs; record
    ``i`` of the outputs equals ``forward_record`` on it, bit for bit."""
    text_a = text_v = None
    if net.config.use_plsim and texts is not None:
        text_a, text_v = (np.stack(side) for side in zip(*map(texts.get, records)))
    return net.forward(np.stack([r.audio for r in records]),
                       np.stack([r.visual for r in records]), text_a, text_v)


def _first_nonfinite(outputs) -> tuple[int, str]:
    """The first record of a batched forward that holds a non-finite value,
    and the name of its first such stage output, then head output."""
    ordered = {**outputs.stages, "seg_prob_a": outputs.seg_prob_a,
               "seg_prob_v": outputs.seg_prob_v, "video_prob": outputs.video_prob}
    for i in range(outputs.video_prob.shape[0]):
        for name, t in ordered.items():
            if not np.all(np.isfinite(t.data[i])):
                return i, name
    return 0, "loss"


# -- evaluation ----------------------------------------------------------------------

# A no-grad forward covers as many records as keep the chunk's [T, d_inner,
# d_state] scan state within EVAL_STATE_BYTES, and never fewer than
# EVAL_CHUNK: desk 8, T 32 and paper scale 2. Measured with perfbench on a
# 2-core machine, one BLAS thread: on desk-train a 2 MiB budget
# (chunk 12) raised peak RSS from 85.3 to 91.1-93.2 MB and 3 MiB (chunk 19)
# to 102-105 MB. Without the floor, paper scale would get chunk 1, which lost
# paper-eval's eval videos/s in both pairs run (26.2 -> 22.1, 28.6 -> 25.2).
EVAL_CHUNK = 2
EVAL_STATE_BYTES = 5 * 2**18  # 1.25 MiB


def eval_chunk(config: ModelConfig) -> int:
    """Records per no-grad forward of a net with ``config``."""
    per_record = 8 * config.n_segments * config.expand * config.dim * config.d_state
    return max(EVAL_CHUNK, EVAL_STATE_BYTES // per_record)


def record_outputs(net: AVMambaNet, records, texts: TextCache | None) -> list[ModelOutputs]:
    """Each record's probabilities, from one no-grad forward per chunk of
    ``eval_chunk(net.config)`` records; they equal ``forward_record``'s bit
    for bit."""
    out = []
    size = eval_chunk(net.config)
    with no_grad():
        for lo in range(0, len(records), size):
            chunk = records[lo : lo + size]
            outputs = forward_records(net, chunk, texts)
            out += (outputs.record(i) for i in range(len(chunk)))
    return out


def predict_records(net: AVMambaNet, records, texts: TextCache | None,
                    theta_seg: float = TrainConfig.theta_seg,
                    theta_vid: float = TrainConfig.theta_vid) -> dict[str, SegmentPrediction]:
    """Binarized predictions: :func:`record_outputs`, then one ``binarize``
    per record."""
    records = list(records)
    return {record.video_id: binarize(outputs, theta_seg, theta_vid, record.video_id)
            for record, outputs in zip(records, record_outputs(net, records, texts))}


def evaluate_records(net: AVMambaNet, records, gt: dict, classes,
                     theta_seg: float = TrainConfig.theta_seg,
                     theta_vid: float = TrainConfig.theta_vid,
                     texts: TextCache | None = None) -> MetricReport:
    if gt is None:
        raise EvaluationError("split has no ground truth to evaluate against")
    if texts is None and net.config.use_plsim:
        texts = TextCache(classes, net.config.text_dim)
    preds = predict_records(net, records, texts, theta_seg, theta_vid)
    return aggregate_report(preds, gt)


def evaluate_oracle(gt: dict) -> MetricReport:
    """Debug path: inject the ground truth as the prediction (must score 1.0)."""
    preds = {vid: SegmentPrediction(vid, ga.copy(), gv.copy())
             for vid, (ga, gv) in gt.items()}
    return aggregate_report(preds, gt)


# -- training --------------------------------------------------------------------------


def augmented_records(records, config: TrainConfig) -> list[VideoRecord]:
    if config.cmrc_multiplier == 0:
        return list(records)
    dist = count_label_distribution(records, config.min_count)
    batch = generate_cmrc_batch(records, dist, AugmentConfig(
        multiplier=config.cmrc_multiplier, min_count=config.min_count, seed=config.seed))
    return list(records) + batch


def _train_step(net: AVMambaNet, optimizer: AdamW, batch, texts: TextCache | None,
                epoch: int) -> float:
    """One forward and one backward over ``batch``, then one AdamW step; the
    batch's graph is freed on return, before the next batch's forward."""
    outputs = forward_records(net, batch, texts)
    loss = compute_loss(
        outputs, *(np.stack([getattr(r, name) for r in batch]) for name in
                   ("video_label", "pseudo_a", "pseudo_v", "null_a", "null_v")),
        net.config.lambda_audio, net.config.lambda_visual)
    if not np.isfinite(loss.data):
        i, culprit = _first_nonfinite(outputs)
        raise TrainingError(f"non-finite loss at epoch {epoch}, video {batch[i].video_id}; "
                            f"first non-finite tensor: {culprit}")
    loss.backward(params=optimizer.params.values())
    optimizer.step()
    optimizer.zero_grad()
    return loss.item()


def train(model_config: ModelConfig, train_records, classes,
          val_records=None, val_gt=None, config: TrainConfig = TrainConfig(),
          checkpoint_path=None, log_path=None) -> tuple[AVMambaNet, TrainLog]:
    """Seeded training run; keeps the checkpoint with the best validation
    segment-level Type@AV (falls back to the final epoch without validation)."""
    records = augmented_records(train_records, config)
    if not records:
        raise ConfigError("no training records")
    net = AVMambaNet(model_config, seed=config.seed)
    optimizer = AdamW(net.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)
    texts = TextCache(classes, model_config.text_dim) if model_config.use_plsim else None
    rng = np.random.default_rng(config.seed)
    log = TrainLog(parameter_count=net.parameter_count())
    best_score = -np.inf
    best_state: np.ndarray | None = None
    has_val = val_records is not None and val_gt is not None

    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(len(records))
        running = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = [records[int(idx)] for idx in order[lo : lo + config.batch_size]]
            running += _train_step(net, optimizer, batch, texts, epoch) * len(batch)
        epoch_loss = running / len(records)

        report, stop = None, False
        if has_val and (epoch % config.eval_every == 0 or epoch == config.epochs - 1):
            report = evaluate_records(net, val_records, val_gt, classes,
                                      config.theta_seg, config.theta_vid, texts)
            stop = (config.stop_at_type_av is not None
                    and report.seg_type_at_av >= config.stop_at_type_av)
            if report.seg_type_at_av > best_score:
                best_score = report.seg_type_at_av
                if stop or epoch == config.epochs - 1:
                    best_state = None  # the net as it ends is the best; no snapshot
                elif best_state is None:
                    best_state = net.store.copy()
                else:
                    np.copyto(best_state, net.store)
        log.entries.append(EpochStats(epoch, epoch_loss, report,
                                      time.perf_counter() - started))
        if stop:
            break

    if best_state is not None:
        net.store[...] = best_state
    if checkpoint_path is not None:
        save_model(checkpoint_path, net)
    if log_path is not None:
        log.write_csv(log_path)
    return net, log


# -- directory-level entry points ---------------------------------------------------------


def train_on_dir(data_dir, out_dir, model_config: ModelConfig | None = None,
                 config: TrainConfig = TrainConfig()) -> tuple[AVMambaNet, TrainLog, str]:
    train_split = load_split(data_dir, "train")
    model_config = _config_for_split(train_split, model_config, data_dir)
    val_records = val_gt = None
    if os.path.exists(os.path.join(data_dir, "manifest_val.txt")):  # validation is optional
        val_split = load_split(data_dir, "val")
        val_records, val_gt = val_split.records, val_split.gt
    os.makedirs(out_dir, exist_ok=True)
    checkpoint_path = os.path.join(out_dir, "checkpoint.mugc")
    net, log = train(model_config, train_split.records, train_split.classes,
                     val_records, val_gt, config,
                     checkpoint_path=checkpoint_path,
                     log_path=os.path.join(out_dir, "train_log.csv"))
    return net, log, checkpoint_path


def _config_for_split(split: LoadedSplit, model_config: ModelConfig | None,
                      data_dir) -> ModelConfig:
    """``model_config`` with the widths that ``split``, read from ``data_dir``, fixes."""
    if not split.records:
        raise ParseError(f"the manifest of split {split.split!r} under {data_dir} lists no videos")
    derived = dict(
        n_segments=split.n_segments,
        n_classes=len(split.classes),
        d_audio_in=split.records[0].audio.shape[1],
        d_visual_in=split.records[0].visual.shape[1],
    )
    if model_config is None:
        return ModelConfig(**derived)
    return replace(model_config, **derived)


def evaluate_checkpoint(checkpoint_path, data_dir, split: str = "val",
                        theta_seg: float = TrainConfig.theta_seg,
                        theta_vid: float = TrainConfig.theta_vid):
    """Load a checkpoint, score one split, and return (report, predictions)."""
    net = load_model(checkpoint_path)
    loaded = load_split(data_dir, split)
    if loaded.gt is None:
        raise EvaluationError(f"split {split!r} has no ground-truth file")
    texts = TextCache(loaded.classes, net.config.text_dim) if net.config.use_plsim else None
    preds = predict_records(net, loaded.records, texts, theta_seg, theta_vid)
    report = aggregate_report(preds, loaded.gt)
    return report, preds, loaded


def ablate(component: str, model_config: ModelConfig, train_records, classes,
           val_records, val_gt, config: TrainConfig) -> tuple[AVMambaNet, MetricReport]:
    """Train and evaluate the variant of ``ablated_configs`` with one component
    disabled."""
    net_cfg, train_cfg = ablated_configs(component, model_config, config)
    net, _ = train(net_cfg, train_records, classes, val_records, val_gt, train_cfg)
    report = evaluate_records(net, val_records, val_gt, classes,
                              config.theta_seg, config.theta_vid)
    return net, report
