"""Tests for multi-scale set abstraction and the global feature extractor."""

import numpy as np
import pytest

from repro.nn import MultiScaleSetAbstraction, ScaleSpec
from repro.nn.setabstraction import GlobalFeatureExtractor, _max_over_neighbors


def _block(rng=None, in_channels=2):
    return MultiScaleSetAbstraction(
        num_centers=4,
        in_channels=in_channels,
        scales=[
            ScaleSpec(radius=0.5, max_neighbors=3, mlp_channels=(6,)),
            ScaleSpec(radius=1.0, max_neighbors=4, mlp_channels=(5,)),
        ],
        rng=rng or np.random.default_rng(0),
    )


class TestScaleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleSpec(radius=0.0, max_neighbors=3, mlp_channels=(4,))
        with pytest.raises(ValueError):
            ScaleSpec(radius=0.5, max_neighbors=0, mlp_channels=(4,))
        with pytest.raises(ValueError):
            ScaleSpec(radius=0.5, max_neighbors=3, mlp_channels=())


class TestMultiScaleSetAbstraction:
    def test_output_shapes(self):
        block = _block()
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(3, 12, 3))
        feats = rng.normal(size=(3, 2, 12))
        centers, out = block(coords, feats)
        assert centers.shape == (3, 4, 3)
        assert out.shape == (3, 11, 4)  # 6 + 5 channels
        assert block.out_channels == 11

    def test_bare_coords_block(self):
        block = MultiScaleSetAbstraction(
            num_centers=2,
            in_channels=0,
            scales=[ScaleSpec(radius=1.0, max_neighbors=2, mlp_channels=(4,))],
            rng=np.random.default_rng(0),
        )
        centers, out = block(np.random.default_rng(1).normal(size=(1, 6, 3)))
        assert out.shape == (1, 4, 2)
        assert block.backward(np.ones_like(out)) is None

    def test_feature_validation(self):
        block = _block()
        coords = np.zeros((1, 6, 3))
        with pytest.raises(ValueError):
            block(coords)  # missing features
        with pytest.raises(ValueError):
            block(coords, np.zeros((1, 3, 6)))  # wrong channels

    def test_centers_are_input_points(self):
        block = _block()
        rng = np.random.default_rng(2)
        coords = rng.normal(size=(1, 10, 3))
        centers, _ = block(coords, rng.normal(size=(1, 2, 10)))
        for center in centers[0]:
            assert any(np.allclose(center, p) for p in coords[0])

    def test_backward_shape(self):
        block = _block()
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(2, 8, 3))
        feats = rng.normal(size=(2, 2, 8))
        _, out = block(coords, feats)
        grad = block.backward(np.ones_like(out))
        assert grad.shape == feats.shape

    def test_feature_gradient_matches_numeric(self):
        block = _block(rng=np.random.default_rng(4))
        block.eval()  # freeze batch-norm stats for clean numerics
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(1, 8, 3))
        feats = rng.normal(size=(1, 2, 8))
        _, out = block(coords, feats)
        grad_out = rng.normal(size=out.shape)
        analytic = block.backward(grad_out)
        eps = 1e-6
        numeric = np.zeros_like(feats)
        flat, nflat = feats.ravel(), numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = (block(coords, feats)[1] * grad_out).sum()
            flat[i] = orig - eps
            down = (block(coords, feats)[1] * grad_out).sum()
            flat[i] = orig
            nflat[i] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)


def test_neighbor_max_pool_matches_argmax_gather():
    """The running-maximum pool picks exactly the argmax winner's value."""
    rng = np.random.default_rng(6)
    per_group = rng.normal(size=(3, 5, 4, 7))
    per_group[0, 0, 0] = 1.5  # a group of ties
    reference = np.take_along_axis(per_group, per_group.argmax(axis=3)[..., None], axis=3)
    assert _max_over_neighbors(per_group).tobytes() == reference[..., 0].tobytes()


class TestGlobalFeatureExtractor:
    def test_output_shape(self):
        extractor = GlobalFeatureExtractor(4, (8, 6), rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        out = extractor(rng.normal(size=(3, 7, 3)), rng.normal(size=(3, 4, 7)))
        assert out.shape == (3, 6)

    def test_backward_shape(self):
        extractor = GlobalFeatureExtractor(4, (8,), rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(2, 4, 5))
        out = extractor(rng.normal(size=(2, 5, 3)), feats)
        grad = extractor.backward(np.ones_like(out))
        assert grad.shape == feats.shape

    def test_translation_invariant_given_same_features(self):
        # The extractor centres coords on the centroid, so a pure
        # translation with identical features gives identical output.
        extractor = GlobalFeatureExtractor(2, (6,), rng=np.random.default_rng(0))
        extractor.eval()
        rng = np.random.default_rng(2)
        coords = rng.normal(size=(1, 6, 3))
        feats = rng.normal(size=(1, 2, 6))
        out_a = extractor(coords, feats)
        out_b = extractor(coords + 5.0, feats)
        np.testing.assert_allclose(out_a, out_b)
