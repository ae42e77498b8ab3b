"""Scikit-learn style facades over the trainer and the augmentation pipeline.

Both classes follow the estimator protocol (``get_params``/``set_params``,
``fit`` returning ``self``) without depending on scikit-learn, so they clone
and compose cleanly inside that ecosystem.
"""

from __future__ import annotations

import inspect
from dataclasses import replace

from .augment import AugmentConfig, count_label_distribution, generate_cmrc_batch
from .data import default_classes
from .errors import ConfigError, ShapeError
from .metrics import aggregate_report
from .model import ModelConfig
from .trainer import (ABLATABLE, TextCache, TrainConfig, forward_record,
                      predict_records, save_model, train)
from .validation import check_fitted, check_records


class _ParamsMixin:
    """Constructor-argument introspection, the scikit-learn contract."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ConfigError(
                    f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self


class AVMambaParser(_ParamsMixin):
    """Weakly-supervised audio-visual parser with a fit/predict interface.

    ``fit`` consumes a list of ``VideoRecord`` (weak video labels plus
    per-segment pseudo-labels); ``predict`` returns binary per-segment
    assignments per modality; ``score`` is the validation segment-level
    Type@AV against ground-truth matrices.
    """

    def __init__(self, n_segments: int = 10, dim: int = 64, d_state: int = 16,
                 expand: int = 2, d_conv: int = 4, text_dim: int = 64,
                 lambda_audio: float = 1.0, lambda_visual: float = 1.0,
                 epochs: int = 20, batch_size: int = 16, learning_rate: float = 3e-4,
                 weight_decay: float = 0.01, cmrc_multiplier: float = 0.0,
                 min_count: int = 50, theta_seg: float = 0.5, theta_vid: float = 0.5,
                 ablate: str | None = None, seed: int = 0):
        self.n_segments = n_segments
        self.dim = dim
        self.d_state = d_state
        self.expand = expand
        self.d_conv = d_conv
        self.text_dim = text_dim
        self.lambda_audio = lambda_audio
        self.lambda_visual = lambda_visual
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.cmrc_multiplier = cmrc_multiplier
        self.min_count = min_count
        self.theta_seg = theta_seg
        self.theta_vid = theta_vid
        self.ablate = ablate
        self.seed = seed
        self.net_ = None
        self.classes_ = None
        self.log_ = None

    def _configs(self, records, classes):
        observed = records[0].audio.shape[0]
        if observed != self.n_segments:
            raise ShapeError(
                f"records have {observed} segments but the parser was built "
                f"with n_segments={self.n_segments}")
        model_config = ModelConfig(
            n_segments=self.n_segments, dim=self.dim, n_classes=len(classes),
            d_state=self.d_state, expand=self.expand, d_conv=self.d_conv,
            d_audio_in=records[0].audio.shape[1],
            d_visual_in=records[0].visual.shape[1],
            text_dim=self.text_dim, lambda_audio=self.lambda_audio,
            lambda_visual=self.lambda_visual)
        train_config = TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size,
            learning_rate=self.learning_rate, weight_decay=self.weight_decay,
            seed=self.seed, cmrc_multiplier=self.cmrc_multiplier,
            min_count=self.min_count, theta_seg=self.theta_seg,
            theta_vid=self.theta_vid)
        if self.ablate is not None:
            key = self.ablate.lower()
            if key not in ABLATABLE:
                raise ConfigError(f"ablate must be one of {ABLATABLE}, got {self.ablate!r}")
            if key == "cmrc":
                train_config = replace(train_config, cmrc_multiplier=0.0)
            else:
                model_config = model_config.ablated(key)
        return model_config, train_config

    def fit(self, records, y=None, *, classes=None, val_records=None, val_gt=None):
        """Train on weakly labelled records; ``y`` is ignored (labels live in
        the records themselves)."""
        records = check_records(records)
        if classes is None:
            classes = default_classes(records[0].video_label.shape[0])
        model_config, train_config = self._configs(records, classes)
        self.net_, self.log_ = train(model_config, records, classes,
                                     val_records, val_gt, train_config)
        self.classes_ = list(classes)
        return self

    def _texts(self) -> TextCache | None:
        if not self.net_.config.use_plsim:
            return None
        return TextCache(self.classes_, self.net_.config.text_dim)

    def predict(self, records):
        """Binary segment assignments, one ``SegmentPrediction`` per record."""
        check_fitted(self, "net_")
        records = check_records(records)
        preds = predict_records(self.net_, records, self._texts(),
                                self.theta_seg, self.theta_vid)
        return [preds[r.video_id] for r in records]

    def predict_proba(self, records):
        """Raw probabilities per record: seg_prob_a, seg_prob_v, video_prob."""
        check_fitted(self, "net_")
        records = check_records(records)
        texts = self._texts()
        out = []
        for record in records:
            outputs = forward_record(self.net_, record, texts)
            out.append({
                "seg_prob_a": outputs.seg_prob_a.data.copy(),
                "seg_prob_v": outputs.seg_prob_v.data.copy(),
                "video_prob": outputs.video_prob.data.copy(),
            })
        return out

    def score(self, records, gt) -> float:
        """Segment-level Type@AV against ``gt[video_id] = (gt_a, gt_v)``."""
        preds = {p.video_id: p for p in self.predict(records)}
        return aggregate_report(preds, gt).seg_type_at_av

    def report(self, records, gt):
        preds = {p.video_id: p for p in self.predict(records)}
        return aggregate_report(preds, gt)

    def save(self, path) -> None:
        check_fitted(self, "net_")
        save_model(path, self.net_)

    def parameter_count(self) -> int:
        check_fitted(self, "net_")
        return self.net_.parameter_count()


class CmrcAugmenter(_ParamsMixin):
    """Cross-modal track recombination as a fit/transform step.

    ``fit`` counts the video-level label distribution over the given records;
    ``transform`` emits newly combined records drawn from (possibly other)
    donor records under that fitted distribution.
    """

    def __init__(self, multiplier: float = 1.0, target_count: int | None = None,
                 min_count: int = 50, seed: int = 0):
        self.multiplier = multiplier
        self.target_count = target_count
        self.min_count = min_count
        self.seed = seed
        self.distribution_ = None

    def fit(self, records, y=None):
        records = check_records(records)
        self.distribution_ = count_label_distribution(records, self.min_count)
        return self

    def transform(self, records):
        check_fitted(self, "distribution_")
        records = check_records(records)
        config = AugmentConfig(multiplier=self.multiplier, target_count=self.target_count,
                               min_count=self.min_count, seed=self.seed)
        return generate_cmrc_batch(records, self.distribution_, config)

    def fit_transform(self, records, y=None):
        return self.fit(records).transform(records)

