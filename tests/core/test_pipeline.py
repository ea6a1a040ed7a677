"""Tests for the GesturePrint system (serialized and parallel modes)."""

import numpy as np
import pytest

from repro.core import (
    GesturePrint,
    GesturePrintConfig,
    IdentificationMode,
    TrainConfig,
)
from repro.core.gesidnet import GesIDNetConfig
from repro.core.trainer import predict_proba
from repro.nn.setabstraction import ScaleSpec


def _tiny_network():
    return GesIDNetConfig(
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


def _config(mode=IdentificationMode.SERIALIZED):
    return GesturePrintConfig(
        network=_tiny_network(),
        training=TrainConfig(epochs=8, batch_size=8, learning_rate=3e-3),
        mode=mode,
        augment=False,
    )


def _toy_dataset(n_per_cell=6, num_gestures=2, num_users=2, seed=0):
    """Synthetic separable data: gesture shifts z, user shifts x-spread."""
    rng = np.random.default_rng(seed)
    rows, gestures, users = [], [], []
    for g in range(num_gestures):
        for u in range(num_users):
            for _ in range(n_per_cell):
                x = rng.normal(size=(12, 8))
                x[:, 2] += 2.0 * g
                x[:, 0] *= 1.0 + 1.5 * u
                x[:, 6] = 0.4 + 0.3 * u
                rows.append(x)
                gestures.append(g)
                users.append(u)
    return np.stack(rows), np.array(gestures), np.array(users)


class TestFitPredict:
    def test_serialized_mode_trains_per_gesture_models(self):
        x, g, u = _toy_dataset()
        system = GesturePrint(_config()).fit(x, g, u)
        assert set(system.user_models) == {0, 1}
        assert system.parallel_user_model is None

    def test_parallel_mode_trains_one_model(self):
        x, g, u = _toy_dataset()
        system = GesturePrint(_config(IdentificationMode.PARALLEL)).fit(x, g, u)
        assert system.user_models == {}
        assert system.parallel_user_model is not None

    def test_predict_shapes(self):
        x, g, u = _toy_dataset()
        system = GesturePrint(_config()).fit(x, g, u)
        result = system.predict(x[:5])
        assert result.gesture_pred.shape == (5,)
        assert result.gesture_probs.shape == (5, 2)
        assert result.user_probs.shape == (5, 2)

    def test_learns_toy_problem(self):
        x, g, u = _toy_dataset(n_per_cell=12)
        config = GesturePrintConfig(
            network=_tiny_network(),
            training=TrainConfig(epochs=15, batch_size=8, learning_rate=3e-3),
            augment=False,
        )
        system = GesturePrint(config).fit(x, g, u)
        metrics = system.evaluate(x, g, u)
        assert metrics["GRA"] > 0.85
        assert metrics["UIA"] > 0.6

    def test_serialized_user_probs_match_each_gestures_model_bitwise(self):
        x, g, u = _toy_dataset(num_gestures=3)
        system = GesturePrint(_config()).fit(x, g, u)
        result = system.predict(x)
        assert np.unique(result.gesture_pred).size > 1  # rows really get routed
        for gesture, model in system.user_models.items():
            rows = result.gesture_pred == gesture
            if rows.any():
                expected = predict_proba(model, x[rows])
                assert result.user_probs[rows].tobytes() == expected.tobytes()

    def test_gesture_without_user_model_gets_uniform_user_probs(self):
        x, g, u = _toy_dataset()
        system = GesturePrint(_config()).fit(x, g, u)
        result = system.predict(x)
        del system.user_models[0]
        pruned = system.predict(x)
        rows = result.gesture_pred == 0
        assert rows.any() and (~rows).any()
        np.testing.assert_array_equal(pruned.user_probs[rows], 0.5)
        assert pruned.user_probs[~rows].tobytes() == result.user_probs[~rows].tobytes()

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GesturePrint(_config()).predict(np.zeros((1, 12, 8)))

    def test_misaligned_labels_raise(self):
        with pytest.raises(ValueError):
            GesturePrint(_config()).fit(np.zeros((4, 12, 8)), np.zeros(4), np.zeros(3))


class TestEvaluate:
    def test_metric_keys(self):
        x, g, u = _toy_dataset()
        system = GesturePrint(_config()).fit(x, g, u)
        metrics = system.evaluate(x, g, u)
        assert set(metrics) == {"GRA", "GRF1", "GRAUC", "UIA", "UIF1", "UIAUC", "EER"}

    def test_metrics_bounded(self):
        x, g, u = _toy_dataset()
        system = GesturePrint(_config()).fit(x, g, u)
        metrics = system.evaluate(x, g, u)
        for key, value in metrics.items():
            assert 0.0 <= value <= 1.0, key

    def test_serialized_uia_is_per_gesture_average(self):
        x, g, u = _toy_dataset(n_per_cell=8)
        system = GesturePrint(_config()).fit(x, g, u)
        result = system.predict(x)
        per_gesture = []
        for gesture in np.unique(g):
            mask = g == gesture
            per_gesture.append((result.user_pred[mask] == u[mask]).mean())
        metrics = system.evaluate(x, g, u)
        assert metrics["UIA"] == pytest.approx(np.mean(per_gesture))


class TestAugmentation:
    def test_augment_multiplies_training_data(self):
        x, g, u = _toy_dataset()
        config = GesturePrintConfig(
            network=_tiny_network(),
            training=TrainConfig(epochs=1, batch_size=8),
            augment=True,
            augment_copies=2,
        )
        system = GesturePrint(config)
        aug_x, aug_g, aug_u = system._augment(x, g, u, np.random.default_rng(0))
        assert aug_x.shape[0] == 3 * x.shape[0]
        assert aug_g.size == 3 * g.size

    def test_augment_disabled(self):
        x, g, u = _toy_dataset()
        config = GesturePrintConfig(
            network=_tiny_network(), training=TrainConfig(epochs=1, batch_size=8), augment=False
        )
        system = GesturePrint(config)
        aug_x, _, _ = system._augment(x, g, u, np.random.default_rng(0))
        assert aug_x.shape[0] == x.shape[0]

    def test_augment_perturbs_only_xyz(self):
        x, g, u = _toy_dataset()
        config = GesturePrintConfig(
            network=_tiny_network(), training=TrainConfig(epochs=1, batch_size=8),
            augment=True, augment_copies=1,
        )
        aug_x, _, _ = GesturePrint(config)._augment(x, g, u, np.random.default_rng(0))
        original, copy = aug_x[: x.shape[0]], aug_x[x.shape[0] :]
        assert not np.allclose(original[:, :, :3], copy[:, :, :3])
        np.testing.assert_array_equal(original[:, :, 3:], copy[:, :, 3:])
