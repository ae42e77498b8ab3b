"""Span tracer for the traced benchmark run.

Spans are recorded only from the benchmark's side: the tracer wraps the
public functions and classes of each ``avparse`` module where the layer
above calls them (for example ``avparse.trainer.binarize``), wraps the
stage modules of every ``AVMambaNet`` built while it is installed, and
registers a ``gc.callbacks`` hook so collector pauses become their own
spans. Nothing inside ``src/avparse`` changes, and uninstalling restores
every wrapped name.

A span's time is its wall time minus the collector pauses inside it, so a
collection is charged to ``tensor.gc_*`` and never to the stage that
happened to trigger it.
"""

from __future__ import annotations

import gc
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

from avparse import data, model, ssm, tensor, trainer

# AVMambaNet attribute -> stage name.
STAGES = (("proj_a", "proj"), ("proj_v", "proj"), ("tsa_a", "tsa"), ("tsa_v", "tsa"),
          ("amf", "amf"), ("mfe", "mfe"), ("plsim", "plsim"), ("han", "han"),
          ("mmil", "mmil"))
STAGE_NAMES = tuple(dict.fromkeys(stage for _, stage in STAGES))

# The self-check: stage times + GC + unattributed must equal model.forward
# within CLOSURE_MARGIN of it, and unattributed forward time (the forward's
# own code outside any stage) must stay under UNATTRIBUTED_MARGIN of it.
CLOSURE_MARGIN = 0.01
UNATTRIBUTED_MARGIN = 0.05


class NullTracer:
    """Stands in for the tracer in untraced runs: records nothing."""

    active = False

    def span(self, name, videos=0):
        return nullcontext()

    def add(self, key, value):
        pass


class _TimedStage:
    """Proxy for one stage module of an AVMambaNet: times each call."""

    def __init__(self, module, tracer: "Tracer", name: str):
        self._module = module
        self._tracer = tracer
        self._name = name

    def __call__(self, *args, **kwargs):
        i = self._tracer.begin(self._name)
        try:
            return self._module(*args, **kwargs)
        finally:
            self._tracer.end(i)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    """In-memory spans (name, start, end, parent) plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.videos: list[int] = []  # work items a span covers, where counted
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, videos: int = 0) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.videos.append(videos)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    @contextmanager
    def span(self, name: str, videos: int = 0):
        i = self.begin(name, videos)
        try:
            yield
        finally:
            self.end(i)

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def _inside(self, prefix: str) -> bool:
        return any(self.names[j].startswith(prefix) for j in self._stack)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.begin("gc")
        else:
            self.end(self._stack[-1])

    # -- installing and removing wrappers ------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, count=None, flat: str | None = None) -> None:
        """Time calls to ``owner.attr`` as spans called ``name``; with
        ``flat``, a call made inside a span whose name starts with ``flat``
        is not split off."""
        original = getattr(owner, attr)
        tracer = self

        def timed(*args, **kwargs):
            if flat is not None and tracer._inside(flat):
                return original(*args, **kwargs)
            i = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(i)
            if count is not None:
                count(tracer, i, args, result)
            return result

        self._patch(owner, attr, timed)

    def install(self) -> None:
        tracer = self
        original_init = model.AVMambaNet.__init__

        def init(net, *args, **kwargs):
            with tracer.span("model.init"):
                original_init(net, *args, **kwargs)
            for attr, stage in STAGES:
                child = net.__dict__.get(attr)
                if child is not None:
                    setattr(net, attr, _TimedStage(child, tracer, "model.stage." + stage))

        self._patch(model.AVMambaNet, "__init__", init)
        self._wrap(model.AVMambaNet, "forward", "model.forward")
        self._wrap(trainer, "compute_loss", "model.loss", count=_count_graph)
        # ssm: the scans model.py calls, and the one MambaBlock calls inside
        # ssm; a scan inside another scan (the backward scan) is not split off.
        for owner in (model, ssm):
            self._wrap(owner, "selective_scan", "ssm.scan", flat="ssm.")
        self._wrap(model, "selective_scan_backward", "ssm.scan", flat="ssm.")
        self._wrap(model, "selective_scan_dynamic", "ssm.dyn", flat="ssm.")
        self._wrap(tensor.Tensor, "backward", "tensor.backward")
        self._wrap(tensor.AdamW, "step", "tensor.adamw")
        self._wrap(trainer, "generate_cmrc_batch", "augment.cmrc", count=_count_records)
        self._wrap(trainer, "binarize", "metrics.binarize", count=_count_one)
        self._wrap(trainer, "aggregate_report", "metrics.aggregate", count=_count_truths)
        self._wrap(trainer, "load_split", "data.read", count=_count_split)
        self._wrap(trainer, "save_checkpoint", "checkpoint.save")
        self._wrap(trainer, "load_checkpoint", "checkpoint.load", count=_count_checkpoint)
        self._wrap(trainer, "evaluate_records", "trainer.validate")
        gc.callbacks.append(self._on_gc)
        self.active = True

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.active = False


def _count_graph(tracer: Tracer, i: int, args, loss) -> None:
    tracer.add("tensor.graph_nodes", len(tensor.graph_tensors(loss)))


def _count_records(tracer: Tracer, i: int, args, batch) -> None:
    tracer.videos[i] = len(batch)


def _count_one(tracer: Tracer, i: int, args, result) -> None:
    tracer.videos[i] = 1


def _count_truths(tracer: Tracer, i: int, args, result) -> None:
    tracer.videos[i] = len(args[1])


def _count_split(tracer: Tracer, i: int, args, loaded) -> None:
    tracer.videos[i] = len(loaded.records)
    tracer.add("data.bytes_read.pass", split_bytes(args[0], args[1]))


def _count_checkpoint(tracer: Tracer, i: int, args, result) -> None:
    tracer.add("checkpoint.bytes", os.path.getsize(args[0]))


def split_bytes(data_dir: str, split: str) -> int:
    """Bytes of every file ``load_split`` reads for ``split``."""
    manifest_path = os.path.join(data_dir, f"manifest_{split}.txt")
    paths = [manifest_path] + [os.path.join(data_dir, f"{kind}_{split}.csv")
                               for kind in ("pseudo", "gt")]
    for _, audio_rel, visual_rel, _ in data.parse_manifest(manifest_path).records:
        paths += [os.path.join(data_dir, audio_rel), os.path.join(data_dir, visual_rel)]
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


# -- turning spans into per-layer metrics ------------------------------------------


class Spans:
    """Read-only view of a tracer's spans with collector pauses netted out."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.names)
        self.names = np.array(tracer.names, dtype=object)
        self.dur = (np.array(tracer.ends) - np.array(tracer.starts)) * 1e3  # ms
        self.parents = np.array(tracer.parents, dtype=np.int64)
        self.videos = np.array(tracer.videos, dtype=np.int64)
        # Collector time anywhere beneath each span, and the time of its
        # direct children. A child opens after its parent, so it has the
        # larger index and one reverse sweep folds every subtree into its root.
        self.gc_below = np.zeros(n)
        self.child_ms = np.zeros(n)
        for i in range(n - 1, -1, -1):
            p = self.parents[i]
            if p >= 0:
                self.child_ms[p] += self.dur[i]
                self.gc_below[p] += self.dur[i] if self.names[i] == "gc" else self.gc_below[i]
        self.net = self.dur - self.gc_below

    def where(self, name: str) -> np.ndarray:
        return self.names == name

    def under(self, name: str) -> np.ndarray:
        """Spans called ``name`` and everything beneath them."""
        mask = self.where(name)
        for i in range(len(mask)):
            if self.parents[i] >= 0 and mask[self.parents[i]]:
                mask[i] = True
        return mask

    def total(self, name: str) -> float:
        return float(self.net[self.where(name)].sum())

    def count(self, name: str) -> int:
        return int(self.where(name).sum())

    def per_video(self, name: str) -> float:
        mask = self.where(name)
        return float(self.net[mask].sum() / self.videos[mask].sum())

    def self_share(self, name: str) -> float:
        mask = self.where(name)
        return float((self.dur[mask] - self.child_ms[mask]).sum() / self.dur[mask].sum())

    def mean(self, name: str) -> float:
        return float(self.net[self.where(name)].mean())


def layer_metrics(tracer: Tracer, setups: int, passes: int, epochs: int) -> tuple[dict, dict]:
    """Per-layer metrics and the self-check, from a tracer that saw
    ``setups`` set-ups and then ``passes`` timed passes (each a "pass"
    root span) training ``epochs`` epochs in all.

    Times exclude collector pauses, which ``tensor.gc_*`` report. Per-video
    times divide by the videos that layer handled: forward passes for model
    and ssm, training videos for the loss and backward, and the records,
    videos or files each data-path call covered.
    """
    s = Spans(tracer)
    fwd = s.where("model.forward")
    n_fwd = int(fwd.sum())
    n_loss = s.count("model.loss")
    gc_spans = s.where("gc")
    gc_in_passes = gc_spans & s.under("pass")
    forward_ms = s.dur[fwd]
    stage_ms = {name: s.total("model.stage." + name) / n_fwd for name in STAGE_NAMES}
    gc_forward_ms = float(s.dur[gc_spans & s.under("model.forward")].sum()) / n_fwd
    # The forward's own time: its wall time minus its direct children (the
    # stages, and collector pauses that fell between stages).
    unattributed_ms = float((s.dur[fwd] - s.child_ms[fwd]).sum()) / n_fwd
    forward_mean = float(forward_ms.mean())
    accounted = sum(stage_ms.values()) + gc_forward_ms + unattributed_ms
    counts = tracer.counts

    metrics = {
        "ssm.scan_ms_per_video": s.total("ssm.scan") / n_fwd,
        "ssm.dyn_ms_per_video": s.total("ssm.dyn") / n_fwd,
        "tensor.backward_ms_per_video": s.total("tensor.backward") / n_loss,
        "tensor.graph_nodes_per_video": counts["tensor.graph_nodes"] / n_loss,
        "tensor.adamw_ms_per_step": s.mean("tensor.adamw"),
        "tensor.gc_pause_ms_per_video": float(s.dur[gc_in_passes].sum()) / n_fwd,
        "tensor.gc_collections": float(gc_in_passes.sum()) / passes,
        "model.forward_ms_p50": float(np.percentile(forward_ms, 50)),
        "model.forward_ms_p90": float(np.percentile(forward_ms, 90)),
        **{f"model.stage_ms.{name}": v for name, v in stage_ms.items()},
        "model.unattributed_ms": unattributed_ms,
        "model.loss_ms_per_video": s.total("model.loss") / n_loss,
        "augment.cmrc_ms_per_record": s.per_video("augment.cmrc"),
        "augment.records_generated": float(s.videos[s.where("augment.cmrc")].sum()) / passes,
        "metrics.binarize_ms_per_video": s.per_video("metrics.binarize"),
        "metrics.aggregate_ms_per_video": s.per_video("metrics.aggregate"),
        "metrics.rescore_ms_per_video": s.per_video("metrics.rescore"),
        "data.write_ms_per_video": s.per_video("data.write"),
        "data.read_ms_per_video": s.per_video("data.read"),
        "data.dump_write_ms_per_video": s.per_video("data.dump_write"),
        # Bytes that one set-up plus one timed pass move.
        "data.bytes_read": counts["data.bytes_read.setup"] / setups
        + counts["data.bytes_read.pass"] / passes,
        "data.bytes_written": counts["data.bytes_written.setup"] / setups
        + counts["data.bytes_written.pass"] / passes,
        "checkpoint.save_ms": s.mean("checkpoint.save"),
        "checkpoint.load_ms": s.mean("checkpoint.load"),
        "checkpoint.bytes": counts["checkpoint.bytes"] / s.count("checkpoint.load"),
        "trainer.eval_ms_per_epoch": s.total("trainer.validate") / epochs,
    }
    check = {
        # Shares of train() and evaluate_checkpoint() outside every layer
        # span; reported, not gated.
        "train_unattributed_share": s.self_share("trainer.train"),
        "eval_unattributed_share": s.self_share("trainer.evaluate_checkpoint"),
        "forward_ms": forward_mean,
        "accounted_ms": accounted,
        "closure_error": abs(accounted - forward_mean) / forward_mean,
        "closure_margin": CLOSURE_MARGIN,
        "unattributed_share": unattributed_ms / forward_mean,
        "unattributed_margin": UNATTRIBUTED_MARGIN,
    }
    check["ok"] = bool(check["closure_error"] <= CLOSURE_MARGIN
                       and 0.0 <= check["unattributed_share"] <= UNATTRIBUTED_MARGIN
                       and min(stage_ms.values()) >= 0.0)
    return metrics, check
