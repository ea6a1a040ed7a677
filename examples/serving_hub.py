"""Multi-stream serving: one engine, many concurrent radar streams.

The deployed system (Fig. 7) is one device serving one user at a time.
This example shows the serving layer that scales that picture out: a
:class:`~repro.serving.ModelRegistry` memoises the fitted system (first
run fits and checkpoints it; later runs load in milliseconds), and a
:class:`~repro.serving.StreamHub` multiplexes eight simulated
single-person device streams over a shared micro-batched
:class:`~repro.serving.InferenceEngine` with an adaptive
:class:`~repro.serving.BatchScheduler`: spans closing on the same frame
round ride one batch, dispatched as soon as the backend is free, with
the batch size capped to fit the latency SLO.  Mid-run the checkpoint is overwritten on disk and picked up by
``registry.load(..., on_change=engine.swap_system)`` — a registry-backed
hot reload that drops no pending span and tags results with the model
version that produced them.  (Multi-person scenes plug into the same hub
via ``open_stream(..., multi_user=True)`` — see
``tests/serving/test_hub.py``.)

Run:  python examples/serving_hub.py
"""

import pathlib
import tempfile
import time

import numpy as np

from repro import (
    ASL_GESTURES,
    ENVIRONMENTS,
    GesturePrint,
    GesturePrintConfig,
    TrainConfig,
    build_selfcollected,
    generate_users,
    perform_gesture,
)
from repro.radar import FastRadar, IWR6843_CONFIG
from repro.radar.pointcloud import Frame
from repro.serving import ModelRegistry, StreamHub

NUM_POINTS = 64
NUM_STREAMS = 8
SLO_MS = 50.0  # p95 span-close -> event-delivery budget


def fit_small_system() -> GesturePrint:
    dataset = build_selfcollected(
        num_users=4, num_gestures=4, reps=10,
        environments=("office",), num_points=NUM_POINTS, seed=42,
    )
    config = GesturePrintConfig.small(
        training=TrainConfig(epochs=14, batch_size=32, learning_rate=3e-3)
    )
    return GesturePrint(config).fit(
        dataset.inputs, dataset.gesture_labels, dataset.user_labels
    )


def main() -> None:
    registry = ModelRegistry()
    checkpoint = pathlib.Path(tempfile.gettempdir()) / "repro-serving-hub-model"
    t0 = time.time()
    system = registry.get_or_fit("serving-demo", fit_small_system, directory=checkpoint)
    print(f"model ready in {time.time() - t0:.1f}s "
          f"(fits={registry.stats.fits}, loads={registry.stats.loads}; "
          "re-run this example to see the checkpoint load instead)")

    # Eight simulated devices: each records one gesture performance.
    users = generate_users(NUM_STREAMS, seed=11)
    radar = FastRadar(IWR6843_CONFIG, seed=0)
    gesture_names = sorted(ASL_GESTURES)
    streams: dict[str, list[Frame]] = {}
    for i in range(NUM_STREAMS):
        recording = perform_gesture(
            users[i], ASL_GESTURES[gesture_names[i % len(gesture_names)]],
            radar, ENVIRONMENTS["office"],
            rng=np.random.default_rng(100 + i),
        )
        streams[f"device-{i}"] = list(recording.frames)

    hub = StreamHub(system, max_batch_size=32, slo_ms=SLO_MS, base_seed=7)
    for stream_id in streams:
        hub.open_stream(stream_id)

    num_rounds = max(len(f) for f in streams.values())
    t0 = time.time()
    events = []
    for round_idx in range(num_rounds):
        frames = {
            sid: frames[round_idx]
            for sid, frames in streams.items()
            if round_idx < len(frames)
        }
        events.extend(hub.push_round(frames))
        if round_idx == num_rounds // 2:
            # Simulate a back-end retrain landing mid-serve: the
            # checkpoint is overwritten on disk (here by a throwaway
            # registry, standing in for another process), and our
            # registry's next staleness check hot-swaps it into the
            # engine.  Pending spans finish on the old weights; results
            # from here on carry model_version 1.  (Drain the queue
            # first so no span's latency eats the synchronous disk I/O —
            # a real deployment would checkpoint in another process.)
            events.extend(hub.flush_pending())
            ModelRegistry().save(system, checkpoint)
            registry.load(checkpoint, on_change=hub.engine.swap_system)
    events.extend(hub.flush_streams())
    elapsed = time.time() - t0

    stats = hub.engine.stats
    scheduler = hub.engine.scheduler
    print(f"\n{len(events)} events from {NUM_STREAMS} concurrent streams "
          f"in {elapsed:.2f}s ({len(events) / elapsed:.1f} events/s)")
    print(f"engine: {stats.requests} requests -> {stats.batches} batches "
          f"(mean batch {stats.mean_batch:.1f}); "
          f"model swaps: {stats.swaps} (now v{hub.engine.model_version})")
    p95 = scheduler.queue_p95_ms
    p95_text = f"{p95:.1f} ms" if p95 is not None else "n/a"
    # NB: in this single-threaded demo the queue wait includes *other*
    # streams' span preparation (~35 ms each when gestures close in a
    # burst), which the scheduler cannot control; see bench_slo.py for
    # the SLO-adherence measurement on classifier-ready samples.
    print(f"scheduler: SLO {SLO_MS:.0f} ms, batch limit {scheduler.batch_limit}, "
          f"{scheduler.stats.slot_flushes} slot-free / "
          f"{scheduler.stats.depth_flushes} depth flushes, "
          f"queue p95 {p95_text} (incl. span-prep stalls)")
    for stream_event in events:
        event = stream_event.event
        print(f"  {stream_event.stream_id}: gesture #{event.gesture} "
              f"(p={event.gesture_confidence:.2f}) by user #{event.user} "
              f"(p={event.user_confidence:.2f})")


if __name__ == "__main__":
    main()
