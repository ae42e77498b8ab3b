"""Training and evaluation loops wiring data, augmentation, model and metrics."""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .augment import AugmentConfig, count_label_distribution, generate_cmrc_batch
from .checkpoint import load_checkpoint, save_checkpoint
from .data import LoadedSplit, VideoRecord, load_split
from .errors import (NON_NEGATIVE, POSITIVE, UNIT_INTERVAL, CheckpointError, ConfigError,
                     EvaluationError, TrainingError, check_fields)
from .metrics import MetricReport, SegmentPrediction, aggregate_report, binarize
from .model import (AMF_MODES, AVMambaNet, ModelConfig, compute_loss,
                    embed_pseudo_matrix)
from .tensor import AdamW

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
    theta_seg: float = 0.5
    theta_vid: float = 0.5
    eval_every: int = 1
    stop_at_type_av: float | None = None  # early exit once validation reaches this

    def __post_init__(self):
        check_fields(self, POSITIVE, "epochs", "batch_size", "learning_rate", "eval_every")
        check_fields(self, NON_NEGATIVE, "weight_decay", "seed", "cmrc_multiplier", "min_count")
        # binarize's range: both thresholds are strict comparisons
        check_fields(self, (lambda v: 0 < v < 1, "in (0, 1)"), "theta_seg", "theta_vid")
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
        import csv

        from .metrics import REPORT_COLUMNS

        with open(path, "w", newline="") as fh:
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


def load_model(path) -> AVMambaNet:
    stored = load_checkpoint(path)
    config = _config_from_meta(stored)
    try:
        net = AVMambaNet(config, seed=0)
    except (ValueError, MemoryError) as exc:  # e.g. meta.dim = 2**62: "array is too big"
        raise CheckpointError(f"{path}: metadata describes a model that cannot be built: "
                              f"{exc}") from exc
    params = net.parameters()
    meta_names = {META_PREFIX + f.name for f in fields(ModelConfig)}
    unknown = [name for name in stored if name not in params and name not in meta_names]
    if unknown:
        raise CheckpointError(f"checkpoint has unknown entries {unknown[:5]}")
    for name in params:
        if name not in stored:
            raise CheckpointError(f"checkpoint missing parameter {name!r}")
        if stored[name].shape != params[name].data.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {stored[name].shape}, "
                f"model {params[name].data.shape}")
        params[name].data[...] = stored[name]
    return net


# -- record-level forward ----------------------------------------------------------


class TextCache:
    """Per-record caption embeddings, computed once per training run."""

    def __init__(self, classes, text_dim: int):
        self.classes = list(classes)
        self.text_dim = text_dim
        self._cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def get(self, record: VideoRecord) -> tuple[np.ndarray, np.ndarray]:
        hit = self._cache.get(record.video_id)
        if hit is None:
            hit = (
                embed_pseudo_matrix(record.pseudo_a, "a", self.classes, self.text_dim),
                embed_pseudo_matrix(record.pseudo_v, "v", self.classes, self.text_dim),
            )
            self._cache[record.video_id] = hit
        return hit


def forward_record(net: AVMambaNet, record: VideoRecord, texts: TextCache | None):
    text_a = text_v = None
    if net.config.use_plsim and texts is not None:
        text_a, text_v = texts.get(record)
    return net.forward(record.audio, record.visual, text_a, text_v)


def _first_nonfinite(outputs) -> str:
    """Name of the first stage output, then head output, holding a non-finite value."""
    ordered = {**outputs.stages, "seg_prob_a": outputs.seg_prob_a,
               "seg_prob_v": outputs.seg_prob_v, "video_prob": outputs.video_prob}
    for name, t in ordered.items():
        if not np.all(np.isfinite(t.data)):
            return name
    return "loss"


# -- evaluation ----------------------------------------------------------------------


def predict_records(net: AVMambaNet, records, texts: TextCache | None,
                    theta_seg: float = TrainConfig.theta_seg,
                    theta_vid: float = TrainConfig.theta_vid) -> dict[str, SegmentPrediction]:
    preds = {}
    for record in records:
        outputs = forward_record(net, record, texts)
        preds[record.video_id] = binarize(outputs, theta_seg, theta_vid, record.video_id)
    return preds


def evaluate_records(net: AVMambaNet, records, gt: dict, classes,
                     theta_seg: float = TrainConfig.theta_seg,
                     theta_vid: float = TrainConfig.theta_vid) -> MetricReport:
    if gt is None:
        raise EvaluationError("split has no ground truth to evaluate against")
    texts = TextCache(classes, net.config.text_dim) if net.config.use_plsim else None
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


def train(model_config: ModelConfig, train_records, classes,
          val_records=None, val_gt=None, config: TrainConfig = TrainConfig(),
          checkpoint_path=None, log_path=None) -> tuple[AVMambaNet, TrainLog]:
    """Seeded training run; keeps the checkpoint with the best validation
    segment-level Type@AV (falls back to the final epoch without validation)."""
    records = augmented_records(train_records, config)
    if not records:
        raise ConfigError("no training records")
    net = AVMambaNet(model_config, seed=config.seed)
    params = net.parameters()
    optimizer = AdamW(params, lr=config.learning_rate, weight_decay=config.weight_decay)
    texts = TextCache(classes, model_config.text_dim) if model_config.use_plsim else None
    rng = np.random.default_rng(config.seed)
    log = TrainLog(parameter_count=net.parameter_count())
    best_score = -np.inf
    best_state: OrderedDict | None = None
    has_val = val_records is not None and val_gt is not None

    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(len(records))
        running = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            batch_loss = None
            for idx in batch:
                record = records[int(idx)]
                outputs = forward_record(net, record, texts)
                loss = compute_loss(
                    outputs, record.video_label, record.pseudo_a, record.pseudo_v,
                    record.null_a, record.null_v,
                    model_config.lambda_audio, model_config.lambda_visual)
                if not np.isfinite(loss.data):
                    culprit = _first_nonfinite(outputs)
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, video {record.video_id}; "
                        f"first non-finite tensor: {culprit}")
                batch_loss = loss if batch_loss is None else batch_loss + loss
            batch_loss = batch_loss * (1.0 / len(batch))
            batch_loss.backward(params=params.values())
            optimizer.step()
            optimizer.zero_grad()
            running += batch_loss.item() * len(batch)
        epoch_loss = running / len(records)

        report = None
        if has_val and (epoch % config.eval_every == 0 or epoch == config.epochs - 1):
            report = evaluate_records(net, val_records, val_gt, classes,
                                      config.theta_seg, config.theta_vid)
            if report.seg_type_at_av > best_score:
                best_score = report.seg_type_at_av
                best_state = OrderedDict(
                    (name, p.data.copy()) for name, p in params.items())
        log.entries.append(EpochStats(epoch, epoch_loss, report,
                                      time.perf_counter() - started))
        if (config.stop_at_type_av is not None and report is not None
                and report.seg_type_at_av >= config.stop_at_type_av):
            break

    if best_state is not None:
        for name, values in best_state.items():
            params[name].data[...] = values
    if checkpoint_path is not None:
        save_model(checkpoint_path, net)
    if log_path is not None:
        log.write_csv(log_path)
    return net, log


# -- directory-level entry points ---------------------------------------------------------


def train_on_dir(data_dir, out_dir, model_config: ModelConfig | None = None,
                 config: TrainConfig = TrainConfig()) -> tuple[AVMambaNet, TrainLog, str]:
    train_split = load_split(data_dir, "train")
    model_config = _config_for_split(train_split, model_config)
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


def _config_for_split(split: LoadedSplit, model_config: ModelConfig | None) -> ModelConfig:
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
