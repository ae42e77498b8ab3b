"""Estimator facades: scikit-learn protocol compliance and behavior."""

import numpy as np
import pytest

from avparse.data import SynthConfig, make_synthetic
from avparse.errors import ConfigError, ContractError, ShapeError
from avparse.estimator import AVMambaParser, CmrcAugmenter
from avparse.metrics import SegmentPrediction, aggregate_report
from avparse.data import check_binary_matrix, check_feature_matrix, check_records


@pytest.fixture(scope="module")
def tiny_dataset():
    return make_synthetic(SynthConfig(seed=2, n_videos=8, n_val=4, n_segments=6,
                                      n_classes=5, d_audio=8, d_visual=8))


def tiny_parser(**overrides):
    params = dict(n_segments=6, dim=12, d_state=4, text_dim=8,
                  epochs=2, batch_size=4, seed=0)
    params.update(overrides)
    return AVMambaParser(**params)


class TestEstimatorProtocol:
    def test_get_params_covers_constructor(self):
        est = tiny_parser()
        params = est.get_params()
        assert params["dim"] == 12
        assert params["epochs"] == 2
        clone = AVMambaParser(**params)
        assert clone.get_params() == params

    def test_set_params_returns_self(self):
        est = tiny_parser()
        assert est.set_params(epochs=5) is est
        assert est.epochs == 5

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ConfigError, match="invalid parameter"):
            tiny_parser().set_params(warp_factor=9)

    def test_augmenter_protocol(self):
        aug = CmrcAugmenter(multiplier=0.5, seed=4)
        params = aug.get_params()
        assert params == {"multiplier": 0.5, "target_count": None,
                          "min_count": 50, "seed": 4}
        assert CmrcAugmenter(**params).get_params() == params


class TestParserFitPredict:
    def test_predict_before_fit_rejected(self, tiny_dataset):
        with pytest.raises(ContractError, match="not fitted"):
            tiny_parser().predict(tiny_dataset.val)

    def test_fit_predict_shapes(self, tiny_dataset):
        est = tiny_parser().fit(tiny_dataset.train, classes=tiny_dataset.classes)
        preds = est.predict(tiny_dataset.val)
        assert len(preds) == len(tiny_dataset.val)
        assert all(isinstance(p, SegmentPrediction) for p in preds)
        assert preds[0].pred_a.shape == (6, 5)
        probs = est.predict_proba(tiny_dataset.val[:2])
        assert probs[0]["seg_prob_a"].shape == (6, 5)
        assert probs[0]["video_prob"].shape == (5,)
        assert np.all(probs[0]["video_prob"] > 0) and np.all(probs[0]["video_prob"] < 1)

    def test_score_matches_report(self, tiny_dataset):
        est = tiny_parser().fit(tiny_dataset.train, classes=tiny_dataset.classes)
        score = est.score(tiny_dataset.val, tiny_dataset.gt_val)
        preds = {p.video_id: p for p in est.predict(tiny_dataset.val)}
        assert score == aggregate_report(preds, tiny_dataset.gt_val).seg_type_at_av

    def test_fit_is_seed_deterministic(self, tiny_dataset):
        est1 = tiny_parser().fit(tiny_dataset.train, classes=tiny_dataset.classes)
        est2 = tiny_parser().fit(tiny_dataset.train, classes=tiny_dataset.classes)
        p1 = est1.predict_proba(tiny_dataset.val[:1])[0]["video_prob"]
        p2 = est2.predict_proba(tiny_dataset.val[:1])[0]["video_prob"]
        assert np.array_equal(p1, p2)

    def test_ablate_parameter_controls_structure(self, tiny_dataset):
        est = tiny_parser(ablate="tsa").fit(tiny_dataset.train, classes=tiny_dataset.classes)
        prefixes = {name.split(".")[0] for name in est.net_.parameters()}
        assert "tsa_a" not in prefixes
        with pytest.raises(ConfigError):
            tiny_parser(ablate="nonsense").fit(tiny_dataset.train,
                                               classes=tiny_dataset.classes)

    def test_save_roundtrip(self, tiny_dataset, tmp_path):
        from avparse.trainer import load_model

        est = tiny_parser().fit(tiny_dataset.train, classes=tiny_dataset.classes)
        path = tmp_path / "est.mugc"
        est.save(path)
        net = load_model(path)
        assert net.parameter_count() == est.parameter_count()


class TestAugmenterFitTransform:
    def test_fit_transform_counts(self, tiny_dataset):
        aug = CmrcAugmenter(multiplier=1.0, min_count=1, seed=0)
        batch = aug.fit_transform(tiny_dataset.train)
        assert len(batch) == len(tiny_dataset.train)
        assert aug.distribution_ is not None

    def test_transform_before_fit_rejected(self, tiny_dataset):
        with pytest.raises(ContractError, match="not fitted"):
            CmrcAugmenter().transform(tiny_dataset.train)

    def test_target_count_overrides_multiplier(self, tiny_dataset):
        aug = CmrcAugmenter(multiplier=9.0, target_count=3, min_count=1, seed=0)
        assert len(aug.fit_transform(tiny_dataset.train)) == 3

    def test_transform_deterministic(self, tiny_dataset):
        aug = CmrcAugmenter(multiplier=0.5, min_count=1, seed=8)
        ids1 = [r.video_id for r in aug.fit_transform(tiny_dataset.train)]
        ids2 = [r.video_id for r in aug.fit_transform(tiny_dataset.train)]
        assert ids1 == ids2


class TestValidationHelpers:
    def test_feature_matrix_checks(self):
        with pytest.raises(ShapeError):
            check_feature_matrix(np.zeros(5), "x")
        with pytest.raises(ShapeError):
            check_feature_matrix(np.zeros((4, 2)), "x", n_segments=6)
        with pytest.raises(ContractError):
            check_feature_matrix(np.full((2, 2), np.nan), "x")

    def test_binary_matrix_checks(self):
        with pytest.raises(ContractError):
            check_binary_matrix(np.full((2, 2), 0.5), "y")
        with pytest.raises(ShapeError):
            check_binary_matrix(np.zeros((2, 2)), "y", shape=(3, 2))

    def test_records_validated(self, tiny_dataset):
        records = check_records(tiny_dataset.train)
        assert len(records) == len(tiny_dataset.train)
        with pytest.raises(ContractError):
            check_records([])
        broken = make_synthetic(SynthConfig(seed=3, n_videos=1, n_val=0, n_segments=6,
                                            n_classes=5, d_audio=8, d_visual=8)).train
        broken[0].video_label[0] = 0.5
        with pytest.raises(ContractError):
            check_records(broken)
