"""Config dataclasses: every validated field rejects an out-of-range value."""

import typing
from dataclasses import fields

import pytest

from avparse.augment import AugmentConfig
from avparse.data import SynthConfig
from avparse.errors import ConfigError
from avparse.model import ModelConfig
from avparse.trainer import TrainConfig

NAN = float("nan")

# (config class, field, a value outside the field's range)
OUT_OF_RANGE = [
    (SynthConfig, "seed", -1),
    (SynthConfig, "n_videos", 0),
    (SynthConfig, "n_val", -1),
    (SynthConfig, "n_segments", 0),
    (SynthConfig, "n_classes", 0),
    (SynthConfig, "d_audio", 0),
    (SynthConfig, "d_visual", 0),
    (SynthConfig, "noise", -0.1),
    (SynthConfig, "noise_audio", -0.1),
    (SynthConfig, "noise_visual", NAN),
    (SynthConfig, "signal_audio", -1.0),
    (SynthConfig, "signal_visual", -1.0),
    (SynthConfig, "onset_ramp", 1.0),
    (SynthConfig, "flip_rate", 1.5),
    (SynthConfig, "correlation", -0.1),
    (SynthConfig, "max_events", 0),
    (AugmentConfig, "multiplier", -1.0),
    (AugmentConfig, "target_count", -1),
    (AugmentConfig, "min_count", -1),
    (AugmentConfig, "seed", -1),
    (TrainConfig, "epochs", 0),
    (TrainConfig, "batch_size", 0),
    (TrainConfig, "learning_rate", 0.0),
    (TrainConfig, "weight_decay", -5.0),
    (TrainConfig, "seed", -1),
    (TrainConfig, "cmrc_multiplier", -1.0),
    (TrainConfig, "min_count", -1),
    (TrainConfig, "theta_seg", 1.0),
    (TrainConfig, "theta_vid", 0.0),
    (TrainConfig, "eval_every", 0),
    (TrainConfig, "stop_at_type_av", NAN),
    (ModelConfig, "n_segments", 0),
    (ModelConfig, "dim", 0),
    (ModelConfig, "n_classes", 0),
    (ModelConfig, "d_state", 0),
    (ModelConfig, "expand", 0),
    (ModelConfig, "d_conv", 0),
    (ModelConfig, "d_audio_in", 0),
    (ModelConfig, "d_visual_in", 0),
    (ModelConfig, "text_dim", 0),
    (ModelConfig, "lambda_audio", -1.0),
    (ModelConfig, "lambda_visual", -1.0),
    (ModelConfig, "amf_mode", "shared"),
]


@pytest.mark.parametrize("cls, name, value", OUT_OF_RANGE,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in OUT_OF_RANGE])
def test_out_of_range_field_rejected(cls, name, value):
    with pytest.raises(ConfigError, match=f"{cls.__name__}.{name}") as caught:
        cls(**{name: value})
    assert caught.value.field == name


def test_every_non_boolean_field_has_a_case():
    covered = {(cls, name) for cls, name, _ in OUT_OF_RANGE}
    for cls in (SynthConfig, AugmentConfig, TrainConfig, ModelConfig):
        hints = typing.get_type_hints(cls)
        missing = [f.name for f in fields(cls)
                   if hints[f.name] is not bool and (cls, f.name) not in covered]
        assert not missing, f"{cls.__name__}: no out-of-range case for {missing}"
