"""Multi-scale set abstraction (the PointNet++ building block of GesIDNet).

One set-abstraction block samples ``num_centers`` representative points by
farthest-point sampling, groups the ``max_neighbors`` nearest in-radius
points for each of several scales, runs a shared MLP per scale, and
max-pools each group — producing per-center local features ``f^s``
(the concatenation of the per-scale features, SIV-C of the paper).

Gradients are propagated back to the *input features* only: point
coordinates are data (not functions of any parameter), so their gradient
is never needed during training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.conv import SharedMLP
from repro.nn.module import Module, as_compute
from repro.nn.pointset import ball_query, farthest_point_sampling, gather_points, group_points


def _max_over_neighbors(per_group: np.ndarray) -> np.ndarray:
    """Max-pool the short last (neighbour) axis.

    numpy reduces a short innermost axis one row at a time; a running
    elementwise maximum over its slices gives the same values several
    times faster.
    """
    pooled = per_group[..., 0].copy()
    for j in range(1, per_group.shape[-1]):
        np.maximum(pooled, per_group[..., j], out=pooled)
    return pooled


@dataclass(frozen=True)
class ScaleSpec:
    """One grouping scale: radius ``d_i``, group size ``m_i``, and MLP widths."""

    radius: float
    max_neighbors: int
    mlp_channels: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.max_neighbors <= 0:
            raise ValueError("max_neighbors must be positive")
        if not self.mlp_channels:
            raise ValueError("mlp_channels must be non-empty")


class MultiScaleSetAbstraction(Module):
    """Sample ``n_i`` centers and extract multi-scale local features.

    Parameters
    ----------
    num_centers:
        Number of representative points ``n_i`` selected by FPS.
    in_channels:
        Number of input feature channels (0 when the input is bare xyz).
    scales:
        One :class:`ScaleSpec` per grouping scale; the per-scale MLP input
        is ``in_channels + 3`` (features concatenated with center-relative
        coordinates).
    """

    def __init__(
        self,
        num_centers: int,
        in_channels: int,
        scales: list[ScaleSpec],
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_centers <= 0:
            raise ValueError("num_centers must be positive")
        if not scales:
            raise ValueError("need at least one scale")
        self.num_centers = num_centers
        self.in_channels = in_channels
        self.scales = list(scales)
        self.mlps = [
            SharedMLP([in_channels + 3, *spec.mlp_channels], rng=rng) for spec in self.scales
        ]
        self.out_channels = sum(spec.mlp_channels[-1] for spec in self.scales)
        self._cache: dict | None = None

    def forward(
        self, coords: np.ndarray, features: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(center_coords, center_features)``.

        ``coords`` is ``(batch, num_points, 3)``; ``features`` is
        ``(batch, in_channels, num_points)`` or None when ``in_channels == 0``.
        Output shapes: ``(batch, num_centers, 3)`` and
        ``(batch, out_channels, num_centers)``.
        """
        coords = as_compute(coords)
        if coords.ndim != 3 or coords.shape[2] != 3:
            raise ValueError(f"coords must be (batch, n, 3), got {coords.shape}")
        if self.in_channels == 0:
            if features is not None:
                raise ValueError("this block takes no input features")
        else:
            if features is None:
                raise ValueError(f"expected features with {self.in_channels} channels")
            features = as_compute(features)
            if features.shape[:2] != (coords.shape[0], self.in_channels) or features.shape[
                2
            ] != coords.shape[1]:
                raise ValueError(
                    "features must be (batch, in_channels, num_points) aligned with coords"
                )

        batch, num_points, _ = coords.shape
        center_idx = farthest_point_sampling(coords, self.num_centers)
        centers = gather_points(coords, center_idx)

        scale_outputs: list[np.ndarray] = []
        cache: dict = {"num_points": num_points, "scale": []}
        for spec, mlp in zip(self.scales, self.mlps):
            group_idx = ball_query(coords, centers, spec.radius, spec.max_neighbors)
            local = group_points(coords, group_idx) - centers[:, :, None, :]
            if features is not None:
                grouped_feat = group_points(np.transpose(features, (0, 2, 1)), group_idx)
                local = np.concatenate([local, grouped_feat], axis=-1)
            # (batch, centers, neighbors, C+3) -> (batch, C+3, centers*neighbors)
            stacked = np.transpose(local, (0, 3, 1, 2)).reshape(
                batch, local.shape[-1], self.num_centers * spec.max_neighbors
            )
            transformed = mlp(stacked)
            per_group = transformed.reshape(
                batch, transformed.shape[1], self.num_centers, spec.max_neighbors
            )
            scale_outputs.append(_max_over_neighbors(per_group))
            # backward finds each group's winner in per_group itself.
            cache["scale"].append(
                {"group_idx": group_idx, "per_group": per_group, "neighbors": spec.max_neighbors}
            )
        self._cache = cache
        return centers, np.concatenate(scale_outputs, axis=1)

    def backward(self, grad_features: np.ndarray) -> np.ndarray | None:
        """Backprop ``grad_features`` (batch, out_channels, num_centers).

        Returns the gradient w.r.t. the *input features*, or None when the
        block consumes bare coordinates.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_features = np.asarray(grad_features, dtype=np.float64)
        batch = grad_features.shape[0]
        num_points = self._cache["num_points"]
        grad_input = (
            np.zeros((batch, self.in_channels, num_points)) if self.in_channels else None
        )
        offset = 0
        for spec, mlp, scale_cache in zip(self.scales, self.mlps, self._cache["scale"]):
            width = spec.mlp_channels[-1]
            grad_scale = grad_features[:, offset : offset + width, :]
            offset += width
            neighbors = scale_cache["neighbors"]
            argmax = scale_cache["per_group"].argmax(axis=3)
            grad_groups = np.zeros((batch, width, self.num_centers, neighbors))
            np.put_along_axis(grad_groups, argmax[..., None], grad_scale[..., None], axis=3)
            grad_stacked = grad_groups.reshape(batch, width, self.num_centers * neighbors)
            grad_local = mlp.backward(grad_stacked)
            if grad_input is not None:
                # Drop the 3 coordinate channels, scatter-add feature grads.
                grad_feat_groups = grad_local[:, 3:, :].reshape(
                    batch, self.in_channels, self.num_centers, neighbors
                )
                contributions = np.transpose(grad_feat_groups, (0, 2, 3, 1)).reshape(
                    batch, -1, self.in_channels
                )
                flat_idx = scale_cache["group_idx"].reshape(batch, -1)
                per_point = np.transpose(grad_input, (0, 2, 1))
                for b in range(batch):
                    np.add.at(per_point[b], flat_idx[b], contributions[b])
                grad_input = np.transpose(per_point, (0, 2, 1))
        return grad_input


class GlobalFeatureExtractor(Module):
    """PointNet-style global layer: group *all* centers, shared MLP, max-pool.

    Implements the "level feature" extraction of GesIDNet: the level
    feature ``F`` is obtained from the per-center features ``f^s`` by
    grouping all representation points and applying an MLP (SIV-C).
    """

    def __init__(
        self,
        in_channels: int,
        mlp_channels: tuple[int, ...],
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if not mlp_channels:
            raise ValueError("mlp_channels must be non-empty")
        self.in_channels = in_channels
        self.mlp = SharedMLP([in_channels + 3, *mlp_channels], rng=rng)
        self.out_channels = mlp_channels[-1]
        self._cache: dict | None = None

    def forward(self, coords: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Return global features ``(batch, out_channels)``."""
        coords = as_compute(coords)
        features = as_compute(features)
        centroid = coords.mean(axis=1, keepdims=True)
        local = np.transpose(coords - centroid, (0, 2, 1))
        stacked = np.concatenate([local, features], axis=1)
        transformed = self.mlp(stacked)
        argmax = transformed.argmax(axis=2)
        pooled = np.take_along_axis(transformed, argmax[..., None], axis=2)[..., 0]
        self._cache = {"argmax": argmax, "num_points": coords.shape[1]}
        return pooled

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Return gradient w.r.t. the input features (coords are data)."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, channels = grad_output.shape
        num_points = self._cache["num_points"]
        grad_transformed = np.zeros((batch, channels, num_points))
        np.put_along_axis(
            grad_transformed, self._cache["argmax"][..., None], grad_output[..., None], axis=2
        )
        grad_stacked = self.mlp.backward(grad_transformed)
        return grad_stacked[:, 3:, :]
