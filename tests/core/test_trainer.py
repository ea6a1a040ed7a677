"""Tests for the training loop, splits, and prediction helpers."""

import numpy as np
import pytest

from repro.core.gesidnet import GesIDNet, GesIDNetConfig
from repro.core.trainer import (
    TrainConfig,
    kfold_indices,
    predict_proba,
    predict_proba_routed,
    train_classifier,
    train_test_split,
)
from repro.nn.setabstraction import ScaleSpec


def _tiny_model(num_classes=2, seed=0):
    config = GesIDNetConfig(
        num_points=12,
        in_feature_channels=8,
        sa1_centers=4,
        sa1_scales=(ScaleSpec(0.5, 3, (8,)),),
        sa2_centers=2,
        sa2_scales=(ScaleSpec(1.0, 2, (10,)),),
        level1_mlp=(8,),
        level2_mlp=(10,),
        head1_hidden=(6,),
        dropout=0.0,
    )
    return GesIDNet(num_classes, config, rng=np.random.default_rng(seed))


def _separable_data(n=40, seed=0):
    """Two point-cloud classes separated along z."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 12, 8))
    y = np.arange(n) % 2
    x[y == 1, :, 2] += 2.0
    return x, y


class TestTrainClassifier:
    def test_loss_decreases(self):
        x, y = _separable_data()
        model = _tiny_model()
        report = train_classifier(model, x, y, TrainConfig(epochs=10, batch_size=8, seed=1))
        assert report.losses[-1] < report.losses[0]

    def test_learns_separable_data(self):
        x, y = _separable_data(60)
        model = _tiny_model(seed=1)
        train_classifier(model, x, y, TrainConfig(epochs=15, batch_size=8, seed=2))
        probs = predict_proba(model, x)
        assert (probs.argmax(axis=1) == y).mean() > 0.9

    def test_report_lengths(self):
        x, y = _separable_data(20)
        report = train_classifier(
            _tiny_model(), x, y, TrainConfig(epochs=4, batch_size=8)
        )
        assert len(report.losses) == 4
        assert len(report.train_accuracies) == 4
        assert len(report.primary_losses) == 4

    def test_model_left_in_eval_mode(self):
        x, y = _separable_data(16)
        model = _tiny_model()
        train_classifier(model, x, y, TrainConfig(epochs=1, batch_size=8))
        assert not model.training

    def test_misaligned_labels_raise(self):
        with pytest.raises(ValueError):
            train_classifier(_tiny_model(), np.zeros((4, 12, 8)), np.zeros(3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)


class TestPredictProba:
    def test_rows_sum_to_one(self):
        x, y = _separable_data(10)
        model = _tiny_model()
        train_classifier(model, x, y, TrainConfig(epochs=1, batch_size=8))
        probs = predict_proba(model, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_batched_equals_full(self):
        x, y = _separable_data(10)
        model = _tiny_model()
        train_classifier(model, x, y, TrainConfig(epochs=1, batch_size=8))
        np.testing.assert_allclose(
            predict_proba(model, x, batch_size=3), predict_proba(model, x, batch_size=64)
        )


class TestPredictProbaRouted:
    def test_matches_one_call_per_model_bitwise(self):
        x, y = _separable_data(10)
        models = [_tiny_model(seed=seed) for seed in range(3)]
        for model in models:
            train_classifier(model, x, y, TrainConfig(epochs=1, batch_size=8))
        route = np.random.default_rng(4).integers(0, 3, size=len(x))
        # batch_size=3 also splits one model's rows across chunks.
        for batch_size in (3, 64):
            probs = predict_proba_routed(models, x, route, batch_size=batch_size)
            for index, model in enumerate(models):
                rows = route == index
                expected = predict_proba(model, x[rows])
                assert probs[rows].tobytes() == expected.tobytes()

    def test_single_model_route_is_plain_predict_proba(self):
        x, y = _separable_data(10)
        model = _tiny_model()
        train_classifier(model, x, y, TrainConfig(epochs=1, batch_size=8))
        probs = predict_proba_routed([model], x, np.zeros(len(x), dtype=int))
        assert probs.tobytes() == predict_proba(model, x).tobytes()


class TestSplits:
    def test_kfold_partitions(self):
        splits = kfold_indices(23, 5, seed=0)
        assert len(splits) == 5
        all_test = np.concatenate([test for _, test in splits])
        assert sorted(all_test.tolist()) == list(range(23))

    def test_kfold_disjoint(self):
        for train, test in kfold_indices(20, 4, seed=1):
            assert set(train) & set(test) == set()
            assert len(train) + len(test) == 20

    def test_kfold_validation(self):
        with pytest.raises(ValueError):
            kfold_indices(5, 1)
        with pytest.raises(ValueError):
            kfold_indices(3, 5)

    def test_train_test_split_ratio(self):
        train, test = train_test_split(100, 0.2, seed=0)
        assert test.size == 20
        assert train.size == 80
        assert set(train) & set(test) == set()

    def test_split_validation(self):
        with pytest.raises(ValueError):
            train_test_split(10, 0.0)
