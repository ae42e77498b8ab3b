"""The benchmark's workloads: what each one sets up, times and checks.

Every workload drives the public API the way a user does. Set-up writes a
seeded synthetic split to disk and loads it back. Each timed pass then
``trainer.train``s a model (batch 2, CMRC multiplier 1.0, periodic
validation) and runs one evaluation: ``trainer.evaluate_checkpoint``, a
prediction dump with ``data.write_label_csv`` and a rescore of that dump with
``metrics.report_from_dumps``. So every workload reports every end-to-end
metric. The sizes keep a pass to a few seconds, so a run's median is taken
over several passes.

Why these three:

* ``desk-train`` -- the Tier-1 acceptance shape (dim 64, T 10). The arrays
  are small, so the tensor core's per-op graph overhead dominates a step and
  the scans are under half of it.
* ``long-train`` -- the same model and trainer at T 32. The O(T^2) dynamic
  scan makes ``ssm`` most of the step while the graph keeps the same node
  count, so a scan change shows here and a graph or batching change mostly
  does not.
* ``paper-eval`` -- ``ModelConfig.paper_scale()`` (14.0M parameters). The
  timed pass evaluates a seeded-init checkpoint saved in set-up: forward
  only, on wide arrays, with the checkpoint and data layers reading and
  writing. A short paper-scale fine-tune gives this workload its training
  figures (backward and AdamW over 14.0M parameters).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from avparse import augment, data, diagnostics, metrics, model, trainer
from tracing import split_bytes


@dataclass(frozen=True)
class Workload:
    name: str
    model: model.ModelConfig
    n_train: int  # synthetic training videos; CMRC doubles the records trained on
    n_val: int  # val videos scored by the timed evaluation pass
    n_val_train: int  # leading val videos scored by train()'s periodic validation
    epochs: int
    learning_rate: float
    eval_trained: bool  # evaluate train()'s checkpoint; else set-up's seeded-init one
    # Instances set up per run, each from its own sub-seed of --seed. Set-up
    # time is their median; timed passes cycle through them, and loss_final
    # is the mean of their last-epoch losses, so no single synthetic draw
    # decides it.
    instances: int

    def train_config(self, seed: int) -> trainer.TrainConfig:
        # The Tier-1 acceptance runs' trainer shape (criteria 8 and 9).
        return trainer.TrainConfig(epochs=self.epochs, batch_size=2,
                                   learning_rate=self.learning_rate, seed=seed,
                                   cmrc_multiplier=1.0, min_count=3, eval_every=5)


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-train", model.ModelConfig(), n_train=24, n_val=96, n_val_train=8,
                 epochs=2, learning_rate=2e-3, eval_trained=True, instances=6),
        Workload("long-train", model.ModelConfig(n_segments=32), n_train=6, n_val=8,
                 n_val_train=2, epochs=2, learning_rate=2e-3, eval_trained=True,
                 instances=6),
        # At 2e-3 the 14.0M-parameter model's loss rises within these four
        # steps; a fine-tune of a model this size takes a smaller rate.
        Workload("paper-eval", model.ModelConfig.paper_scale(), n_train=2, n_val=24,
                 n_val_train=2, epochs=2, learning_rate=1e-4, eval_trained=False,
                 instances=3),
    )
}


@dataclass
class Instance:
    seed: int
    data_dir: str
    train: data.LoadedSplit
    val: data.LoadedSplit
    checkpoint: str  # what the timed evaluation pass loads
    n_records: int  # training records per epoch, CMRC included


@dataclass
class PassResult:
    train_s: float
    eval_s: float
    train_videos: int  # CMRC records included, times epochs
    eval_videos: int
    losses: list[float]
    report: metrics.MetricReport
    rescored: metrics.MetricReport
    predictions: dict


def instance_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def set_up(w: Workload, seed: int, root: str, tracer) -> Instance:
    """Synthesise, write and reload the splits; for ``paper-eval`` also
    build the model and save its seeded-init checkpoint. (The training
    workloads' models are built inside the timed ``train()`` call.)"""
    cfg = w.model
    data_dir = os.path.join(root, f"seed{seed}")
    ds = data.make_synthetic(data.SynthConfig(
        seed=seed, n_videos=w.n_train, n_val=w.n_val, n_segments=cfg.n_segments,
        n_classes=cfg.n_classes, d_audio=cfg.d_audio_in, d_visual=cfg.d_visual_in))
    with tracer.span("data.write", videos=w.n_train + w.n_val):
        data.write_split(data_dir, "train", ds.train, ds.gt_train, ds.classes, cfg.n_segments)
        data.write_split(data_dir, "val", ds.val, ds.gt_val, ds.classes, cfg.n_segments)
    if tracer.active:
        tracer.add("data.bytes_written.setup", sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(data_dir)
            for f in files))
    with tracer.span("data.read", videos=w.n_train + w.n_val):
        train_split = data.load_split(data_dir, "train")
        val_split = data.load_split(data_dir, "val")
    if tracer.active:
        tracer.add("data.bytes_read.setup",
                   split_bytes(data_dir, "train") + split_bytes(data_dir, "val"))
    checkpoint = os.path.join(data_dir, "trained.mugc")
    if not w.eval_trained:
        checkpoint = os.path.join(data_dir, "init.mugc")
        trainer.save_model(checkpoint, model.AVMambaNet(cfg, seed=seed))
    config = w.train_config(seed)
    n_records = len(train_split.records) + augment.AugmentConfig(
        multiplier=config.cmrc_multiplier).resolve_target(len(train_split.records))
    return Instance(seed, data_dir, train_split, val_split, checkpoint, n_records)


def timed_pass(w: Workload, inst: Instance, tracer) -> PassResult:
    """One train() call, then one evaluation pass; the two are timed apart."""
    val_records = inst.val.records[: w.n_val_train]
    val_gt = {r.video_id: inst.val.gt[r.video_id] for r in val_records}
    config = w.train_config(inst.seed)
    started = time.perf_counter()
    with tracer.span("trainer.train"):
        _, log = trainer.train(w.model, inst.train.records, inst.train.classes,
                               val_records, val_gt, config,
                               checkpoint_path=inst.checkpoint if w.eval_trained else None)
    train_s = time.perf_counter() - started

    dump_path = os.path.join(inst.data_dir, "predictions_val.csv")
    started = time.perf_counter()
    with tracer.span("trainer.evaluate_checkpoint"):
        report, predictions, loaded = trainer.evaluate_checkpoint(
            inst.checkpoint, inst.data_dir, "val")
    dump = {vid: {"a": p.pred_a, "v": p.pred_v} for vid, p in predictions.items()}
    with tracer.span("data.dump_write", videos=len(dump)):
        data.write_label_csv(dump_path, dump, loaded.classes, loaded.n_segments)
    with tracer.span("metrics.rescore", videos=len(dump)):
        rescored = metrics.report_from_dumps(
            dump_path, os.path.join(inst.data_dir, "gt_val.csv"), loaded.classes)
    eval_s = time.perf_counter() - started
    if tracer.active:
        tracer.add("data.bytes_written.pass", os.path.getsize(dump_path))
    return PassResult(train_s, eval_s, inst.n_records * config.epochs, len(loaded.records),
                      [e.loss for e in log.entries], report, rescored, predictions)


def pass_failures(w: Workload, result: PassResult) -> list[str]:
    """Correctness checks on one timed pass, run outside its timed region."""
    problems = []
    losses = np.array(result.losses)
    if len(losses) != w.epochs or not np.all(np.isfinite(losses)):
        problems.append(f"non-finite or missing epoch loss: {result.losses}")
    elif not losses[-1] < losses[0]:
        problems.append(f"last-epoch loss {losses[-1]} not below first {losses[0]}")
    if result.report != result.rescored:
        problems.append(f"in-memory report {result.report.as_dict()} != "
                        f"rescored dump {result.rescored.as_dict()}")
    return problems


def video_failures(inst: Instance, predictions: dict) -> list[str]:
    """Per-video checks: re-run the forward pass on the evaluated checkpoint
    and require probabilities in (0, 1) and the timed pass's predictions."""
    net = trainer.load_model(inst.checkpoint)
    texts = trainer.TextCache(inst.val.classes, net.config.text_dim)
    problems = []
    for record in inst.val.records:
        out = trainer.forward_record(net, record, texts)
        probs = (out.seg_prob_a.data, out.seg_prob_v.data, out.video_prob.data)
        if not all(np.all((p > 0.0) & (p < 1.0)) for p in probs):
            problems.append(f"{record.video_id}: probability outside (0, 1)")
            continue
        again = metrics.binarize(out, video_id=record.video_id)
        shown = predictions.get(record.video_id)
        if shown is None or not (np.array_equal(again.pred_a, shown.pred_a)
                                 and np.array_equal(again.pred_v, shown.pred_v)):
            problems.append(f"{record.video_id}: prediction differs from the timed pass")
    return problems


class Run:
    """The set-ups, timed passes and correctness tally of one workload run."""

    def __init__(self, w: Workload, seed: int, work_dir: str):
        self.w = w
        self.seed = seed
        self.work_dir = work_dir
        self.instances: list[Instance] = []
        self.setup_s: list[float] = []
        self.passes: list[tuple[int, PassResult]] = []  # (instance index, result)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def set_up_all(self, tracer) -> None:
        for k in range(self.w.instances):
            started = time.perf_counter()
            self.instances.append(set_up(self.w, instance_seed(self.seed, k),
                                         self.work_dir, tracer))
            self.setup_s.append(time.perf_counter() - started)

    def one_pass(self, k: int, tracer) -> PassResult | None:
        """Run and check one timed pass on instance ``k``; None if it raised."""
        inst = self.instances[k]
        videos = inst.n_records * self.w.epochs + len(inst.val.records)
        self.attempted += videos
        try:
            result = timed_pass(self.w, inst, tracer)
        except Exception as exc:  # a failed pass counts its videos and the run goes on
            self.failed += videos
            self.problems.append(f"pass on instance {k} raised {type(exc).__name__}: {exc}")
            return None
        problems = pass_failures(self.w, result)
        if problems:
            self.failed += videos
            self.problems += problems
        self.passes.append((k, result))
        return result

    def timed_loop(self, seconds: float, tracer) -> None:
        """At least one pass per instance, then more until ``seconds`` pass."""
        started = time.perf_counter()
        n = 0
        while n < len(self.instances) or time.perf_counter() - started < seconds:
            self.one_pass(n % len(self.instances), tracer)
            n += 1

    def final_checks(self) -> None:
        """Checks outside every timed region: the scan oracles, and the
        per-video re-check of instance 0's first pass."""
        bad = [c.line() for c in diagnostics.run_scan_checks() if not c.ok]
        if bad:
            # Every output came from scan kernels that fail their oracle.
            self.failed = self.attempted
            self.problems += bad
        first = next((r for k, r in self.passes if k == 0), None)
        if first is not None:
            problems = video_failures(self.instances[0], first.predictions)
            self.failed = min(self.attempted, self.failed + len(problems))
            self.problems += problems
