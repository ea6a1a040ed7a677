"""Layer timers installed around the program's public functions.

The traced run times each layer from outside: it swaps a module's
attribute (or a class's method) for a wrapper that times the call and
forwards it unchanged.  A wrapper's *self* time is its duration minus
the time of the wrapped calls made inside it, so set abstraction is
reported without the FPS, ball query and grouping calls it makes.

The wrappers keep one call stack per probe, which is right for the
single-threaded callers they are installed in: the inline-backend
server child and the stream's replay child.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Probe:
    """Accumulated totals, self times and call counts per layer name."""

    def __init__(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Samples that went through ``GesturePrint.predict``.
        self.samples = 0
        #: Points handed to ``keep_main_cluster`` (DBSCAN's input size).
        self.denoise_points = 0
        self._stack: list[float] = []  # child time of each open call

    def wrap(self, name: str, fn, *, on_call=None):
        """``fn`` timed under ``name``; ``on_call(*args)`` counts work."""
        clock = time.perf_counter
        stack = self._stack

        def timed(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        timed.__wrapped__ = fn
        return timed

    def to_dict(self) -> dict:
        return {
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "samples": self.samples,
            "denoise_points": self.denoise_points,
        }


def _patch(patches: list, owner, attr: str, replacement) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def install_forward(probe: Probe) -> list:
    """Time the forward pass: pipeline predict and the nn stages.

    Returns the patch list for :func:`uninstall`.
    """
    import repro.core.pipeline as pipeline
    import repro.nn.setabstraction as sa

    def count_samples(_system, inputs, *_rest):
        probe.samples += len(inputs)

    patches: list = []
    _patch(patches, pipeline.GesturePrint, "predict", probe.wrap(
        "predict", pipeline.GesturePrint.predict, on_call=count_samples))
    _patch(patches, sa, "farthest_point_sampling",
           probe.wrap("fps", sa.farthest_point_sampling))
    _patch(patches, sa, "ball_query", probe.wrap("ball_query", sa.ball_query))
    _patch(patches, sa, "group_points", probe.wrap("group", sa.group_points))
    _patch(patches, sa.MultiScaleSetAbstraction, "forward", probe.wrap(
        "set_abstraction", sa.MultiScaleSetAbstraction.forward))
    _patch(patches, sa.GlobalFeatureExtractor, "forward", probe.wrap(
        "global_feature", sa.GlobalFeatureExtractor.forward))
    return patches


def install_preprocessing(probe: Probe) -> list:
    """Time segmentation, denoising, normalisation and span preparation."""
    import repro.core.realtime as realtime
    import repro.preprocessing.segmentation as segmentation

    def count_points(cloud, *_rest):
        probe.denoise_points += cloud.num_points

    patches: list = []
    _patch(patches, segmentation.GestureSegmenter, "push", probe.wrap(
        "segment_push", segmentation.GestureSegmenter.push))
    _patch(patches, realtime, "keep_main_cluster", probe.wrap(
        "denoise", realtime.keep_main_cluster, on_call=count_points))
    _patch(patches, realtime, "normalize_cloud",
           probe.wrap("normalize", realtime.normalize_cloud))
    _patch(patches, realtime, "prepare_frame_span",
           probe.wrap("prepare_span", realtime.prepare_frame_span))
    return patches


def uninstall(patches: list) -> None:
    """Restore every patched attribute, newest first."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def forward_metrics(totals: dict) -> dict:
    """Per-sample forward-pass metrics (ms) from a :meth:`Probe.to_dict`."""
    samples = totals["samples"]
    if samples < 1:
        raise ValueError("no samples went through GesturePrint.predict")

    def per_sample(table: str, name: str) -> float:
        return totals[table].get(name, 0.0) * 1e3 / samples

    return {
        "pipeline.predict_ms_per_sample": per_sample("total_s", "predict"),
        "nn.fps_ms": per_sample("total_s", "fps"),
        "nn.ball_query_ms": per_sample("total_s", "ball_query"),
        "nn.group_ms": per_sample("total_s", "group"),
        "nn.set_abstraction_self_ms": per_sample("self_s", "set_abstraction"),
        "nn.global_feature_ms": per_sample("total_s", "global_feature"),
    }
