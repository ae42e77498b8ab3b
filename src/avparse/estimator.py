"""Scikit-learn style facades over the trainer and the augmentation pipeline.

Both classes follow the estimator protocol (``get_params``/``set_params``,
``fit`` returning ``self``) without depending on scikit-learn, so they clone
and compose cleanly inside that ecosystem.
"""

from __future__ import annotations

import inspect
from dataclasses import fields

from .augment import AugmentConfig, count_label_distribution, generate_cmrc_batch
from .data import check_records, default_classes
from .errors import ConfigError, ContractError, ShapeError
from .metrics import aggregate_report
from .model import ModelConfig
from .trainer import (TextCache, TrainConfig, ablated_configs, forward_record,
                      predict_records, save_model, train)


def check_fitted(estimator, attribute: str) -> None:
    if getattr(estimator, attribute, None) is None:
        raise ContractError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first")


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

    def _store_arguments(self, arguments: dict) -> None:
        """Keep each constructor argument under its own name, where
        ``get_params`` reads it; ``arguments`` is the constructor's ``locals()``."""
        self.set_params(**{name: arguments[name] for name in self._param_names()})


class AVMambaParser(_ParamsMixin):
    """Weakly-supervised audio-visual parser with a fit/predict interface.

    ``fit`` consumes a list of ``VideoRecord`` (weak video labels plus
    per-segment pseudo-labels); ``predict`` returns binary per-segment
    assignments per modality; ``score`` is the validation segment-level
    Type@AV against ground-truth matrices.
    """

    def __init__(self, n_segments: int = ModelConfig.n_segments, dim: int = ModelConfig.dim,
                 d_state: int = ModelConfig.d_state, expand: int = ModelConfig.expand,
                 d_conv: int = ModelConfig.d_conv, text_dim: int = ModelConfig.text_dim,
                 lambda_audio: float = ModelConfig.lambda_audio,
                 lambda_visual: float = ModelConfig.lambda_visual,
                 epochs: int = TrainConfig.epochs, batch_size: int = TrainConfig.batch_size,
                 learning_rate: float = TrainConfig.learning_rate,
                 weight_decay: float = TrainConfig.weight_decay,
                 cmrc_multiplier: float = TrainConfig.cmrc_multiplier,
                 min_count: int = TrainConfig.min_count,
                 theta_seg: float = TrainConfig.theta_seg,
                 theta_vid: float = TrainConfig.theta_vid,
                 ablate: str | None = None, seed: int = TrainConfig.seed):
        self._store_arguments(locals())
        self.net_ = None
        self.classes_ = None
        self.log_ = None

    def _config_params(self, config_cls) -> dict:
        """The parameters that are fields of ``config_cls``, by field name."""
        params = self.get_params()
        return {f.name: params[f.name] for f in fields(config_cls) if f.name in params}

    def _configs(self, records, classes):
        observed = records[0].audio.shape[0]
        if observed != self.n_segments:
            raise ShapeError(
                f"records have {observed} segments but the parser was built "
                f"with n_segments={self.n_segments}")
        model_config = ModelConfig(**self._config_params(ModelConfig),
                                   n_classes=len(classes),
                                   d_audio_in=records[0].audio.shape[1],
                                   d_visual_in=records[0].visual.shape[1])
        train_config = TrainConfig(**self._config_params(TrainConfig))
        if self.ablate is None:
            return model_config, train_config
        return ablated_configs(self.ablate, model_config, train_config)

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

    def __init__(self, multiplier: float = AugmentConfig.multiplier,
                 target_count: int | None = AugmentConfig.target_count,
                 min_count: int = AugmentConfig.min_count, seed: int = AugmentConfig.seed):
        self._store_arguments(locals())
        self.distribution_ = None

    def fit(self, records, y=None):
        records = check_records(records)
        self.distribution_ = count_label_distribution(records, self.min_count)
        return self

    def transform(self, records):
        check_fitted(self, "distribution_")
        records = check_records(records)
        return generate_cmrc_batch(records, self.distribution_, AugmentConfig(**self.get_params()))

    def fit_transform(self, records, y=None):
        return self.fit(records).transform(records)

