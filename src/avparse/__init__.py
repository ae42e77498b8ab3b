"""avparse: weakly-supervised audio-visual video parsing on state-space models.

Self-contained desk-scale stack: a float64 autodiff tensor core with AdamW,
selective-scan kernels (fused single-node forward, backward and O(T)
dynamic scans with cross-modal shared input projections, each checked
against a sequential oracle), the full parsing network, cross-modal data
augmentation, the segment/event F-score suite, training loops, a
scikit-learn style estimator facade and a CLI.
"""

from .augment import (AugmentConfig, LabelDistribution, cmrc_combine,
                      count_label_distribution, generate_cmrc_batch)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (SynthConfig, SyntheticDataset, VideoRecord,
                   generate_synthetic_dataset, load_split, make_synthetic,
                   read_feature_file, write_feature_file)
from .errors import AvparseError
from .estimator import AVMambaParser, CmrcAugmenter
from .metrics import (EventInterval, MetricReport, SegmentPrediction,
                      aggregate_report, binarize, event_f1, extract_events,
                      report_from_dumps, segment_f1)
from .model import AVMambaNet, ModelConfig, ModelOutputs, compute_loss
from .ssm import MambaBlock, SharedMatrixHandle, SsmParams
from .tensor import AdamW, Tensor
from .trainer import TrainConfig, TrainLog, ablate, evaluate_checkpoint, load_model, save_model, train

__version__ = "0.1.0"

__all__ = [
    "AdamW", "AugmentConfig", "AVMambaNet", "AVMambaParser", "AvparseError",
    "CmrcAugmenter", "EventInterval", "LabelDistribution", "MambaBlock",
    "MetricReport", "ModelConfig", "ModelOutputs", "SegmentPrediction",
    "SharedMatrixHandle", "SsmParams", "SynthConfig", "SyntheticDataset",
    "Tensor", "TrainConfig", "TrainLog", "VideoRecord", "ablate",
    "aggregate_report", "binarize", "cmrc_combine", "compute_loss",
    "count_label_distribution", "evaluate_checkpoint", "event_f1",
    "extract_events", "generate_cmrc_batch", "generate_synthetic_dataset",
    "load_checkpoint", "load_model", "load_split", "make_synthetic",
    "read_feature_file", "report_from_dumps", "save_checkpoint", "save_model",
    "segment_f1", "train", "write_feature_file",
]
