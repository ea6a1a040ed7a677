"""StreamHub: multi-stream serving equivalence and determinism."""

import numpy as np
import pytest

from repro.core import GesturePrintRuntime, MultiUserRuntime
from repro.preprocessing.multiuser import SeparatorParams
from repro.radar import Frame
from repro.serving import StreamHub, derive_stream_seed


def _person_frame(rng, center_x, count, spread=0.15):
    points = np.zeros((count, 5))
    points[:, 0] = rng.normal(center_x, spread, count)
    points[:, 1] = rng.normal(1.5, spread, count)
    points[:, 2] = rng.normal(0.2, spread, count)
    points[:, 3] = rng.normal(0.8, 0.3, count)
    points[:, 4] = rng.uniform(0.5, 2.0, count)
    return Frame(points=points)


def _gesture_stream(seed, gestures=2):
    """A frame stream with ``gestures`` motion bursts separated by idle."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(gestures):
        counts = [0] * 12 + [15] * 18 + [0] * 22
        frames.extend(
            _person_frame(rng, 0.0, c) if c else Frame.empty() for c in counts
        )
    return frames


def _assert_events_identical(hub_events, legacy_events):
    assert len(hub_events) == len(legacy_events)
    for a, b in zip(hub_events, legacy_events):
        assert a.start_frame == b.start_frame
        assert a.end_frame == b.end_frame
        assert a.gesture == b.gesture
        assert a.user == b.user
        assert a.gesture_confidence == b.gesture_confidence
        assert a.user_confidence == b.user_confidence
        assert a.num_points == b.num_points
        assert np.array_equal(a.user_probs, b.user_probs)


class TestHubConstruction:
    def test_requires_system_or_engine(self):
        with pytest.raises(ValueError):
            StreamHub()

    def test_duplicate_stream_rejected(self, fitted):
        hub = StreamHub(fitted)
        hub.open_stream("a", num_points=12)
        with pytest.raises(ValueError):
            hub.open_stream("a", num_points=12)

    def test_close_stream(self, fitted):
        hub = StreamHub(fitted)
        hub.open_stream("a", num_points=12)
        hub.close_stream("a")
        assert hub.num_streams == 0

    def test_close_stream_discards_queued_spans(self, fitted):
        """Regression: a closed stream's queued spans must be cancelled
        via engine.discard_pending, not classified and delivered to the
        dead stream's callback."""
        hub = StreamHub(fitted, max_batch_size=64)
        hub.open_stream("doomed", num_points=12)
        hub.open_stream("alive", num_points=12)
        for frame in _gesture_stream(600, gestures=1):
            hub.push("doomed", frame)
        for frame in _gesture_stream(601, gestures=1):
            hub.push("alive", frame)
        hub.runtime("doomed").flush()  # close segments -> spans queued
        hub.runtime("alive").flush()
        pending_before = hub.engine.num_pending
        assert pending_before >= 2
        hub.close_stream("doomed")
        # Only the closed stream's spans were cancelled...
        assert 1 <= hub.engine.num_pending < pending_before
        events = hub.flush_pending()
        # ...and nothing resurrects the dead stream id at delivery time.
        assert events and all(e.stream_id == "alive" for e in events)
        assert hub.pop_errors() == []

    def test_close_stream_on_shared_engine_leaves_other_callers_alone(
        self, fitted, toy_data
    ):
        from repro.serving import InferenceEngine

        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=64)
        hub = StreamHub(engine=engine)
        hub.open_stream("s", num_points=12)
        foreign = engine.submit(x[0], meta="not-a-hub-span")
        hub.close_stream("s")
        assert not foreign.cancelled
        engine.flush()
        assert foreign.done

    def test_derived_seeds_are_stable_and_distinct(self):
        assert derive_stream_seed(0, "a") == derive_stream_seed(0, "a")
        assert derive_stream_seed(0, "a") != derive_stream_seed(0, "b")
        assert derive_stream_seed(0, "a") != derive_stream_seed(1, "a")


class TestBatchedEquivalence:
    """Tentpole guarantee: hub streams emit byte-identical events to
    standalone runtimes fed the same frames with the same seed."""

    def test_hub_matches_legacy_per_event_path(self, fitted):
        streams = {f"s{i}": _gesture_stream(100 + i) for i in range(6)}

        legacy = {}
        for stream_id, frames in streams.items():
            runtime = GesturePrintRuntime(fitted, num_points=12, seed=7)
            for frame in frames:
                runtime.push_frame(frame)
            runtime.flush()
            legacy[stream_id] = runtime.events

        hub = StreamHub(fitted, max_batch_size=32)
        for stream_id in streams:
            hub.open_stream(stream_id, num_points=12, seed=7)
        rounds = max(len(frames) for frames in streams.values())
        for i in range(rounds):
            hub.push_round({
                sid: frames[i] for sid, frames in streams.items() if i < len(frames)
            })
        hub.flush_streams()

        for stream_id in streams:
            _assert_events_identical(hub.events(stream_id), legacy[stream_id])
        # And the events really were micro-batched, not served one by one.
        assert hub.engine.stats.batches < hub.engine.stats.requests

    def test_multi_user_stream_matches_standalone_runtime(self, fitted):
        rng = np.random.default_rng(5)
        schedule = (
            [((-1.5, 2), (1.5, 2))] * 12
            + [((-1.5, 12), (1.5, 12))] * 20
            + [((-1.5, 2), (1.5, 2))] * 25
        )
        frames = []
        for left, right in schedule:
            chunks = [
                _person_frame(rng, cx, n).points for cx, n in (left, right) if n > 0
            ]
            frames.append(Frame(points=np.vstack(chunks)) if chunks else Frame.empty())

        params = SeparatorParams(
            cluster_eps_m=0.5, gate_radius_m=0.7, max_missed_frames=45
        )
        legacy = MultiUserRuntime(
            fitted, num_points=12, seed=3, separator_params=params
        )
        for frame in frames:
            legacy.push_frame(frame)
        legacy.flush()

        hub = StreamHub(fitted)
        hub.open_stream(
            "scene", multi_user=True, num_points=12, seed=3, separator_params=params
        )
        for frame in frames:
            hub.push_round({"scene": frame})
        hub.flush_streams()

        hub_events = hub.events("scene")
        assert len(hub_events) == len(legacy.events) > 0
        for a, b in zip(hub_events, legacy.events):
            assert a.track_id == b.track_id
            _assert_events_identical([a.event], [b.event])


class _FailOnce:
    """System wrapper whose next predict raises, then delegates."""

    def __init__(self, system):
        self._system = system
        self.fails_left = 1

    def __getattr__(self, name):
        return getattr(self._system, name)

    def predict(self, batch):
        if self.fails_left:
            self.fails_left -= 1
            raise RuntimeError("transient backend failure")
        return self._system.predict(batch)


class TestFaultContainment:
    """One poison span must not strand other streams' delivered events."""

    def test_push_round_unknown_stream_is_atomic(self, fitted):
        """All ids are validated before any frame is pushed: a typo'd id
        cannot leave the round half-applied."""
        hub = StreamHub(fitted)
        hub.open_stream("a", num_points=12)
        frame = _person_frame(np.random.default_rng(0), 0.0, 10)
        with pytest.raises(KeyError):
            hub.push_round({"a": frame, "ghost": frame})
        assert hub.runtime("a").frames_seen == 0  # nothing consumed

    def test_poison_rider_does_not_strand_delivered_events(self, fitted):
        """A failing group on the shared engine must not make the hub's
        flush raise past the drain — successfully classified events are
        returned, not left invisible in hub._delivered."""
        from repro.serving import InferenceEngine

        engine = InferenceEngine(fitted, max_batch_size=64)
        hub = StreamHub(engine=engine)
        hub.open_stream("solo", num_points=12)
        for frame in _gesture_stream(300, gestures=1):
            hub.push("solo", frame)
        hub.runtime("solo").flush()  # close the gesture -> span queued
        assert engine.num_pending > 0
        engine.submit(np.zeros((0, 8)))  # poison rider from another caller
        events = hub.flush_pending()  # must not raise
        assert len(events) >= 1
        assert [e.stream_id for e in events] == ["solo"] * len(events)
        assert hub.pop_errors() == []  # the hub's own span succeeded

    def test_failed_span_recorded_as_stream_error(self, fitted):
        """When the hub's own span fails, the loss is observable: a
        StreamError names the stream instead of silence."""
        hub = StreamHub(fitted, max_batch_size=64)
        hub.open_stream("solo", num_points=12)
        for frame in _gesture_stream(300, gestures=1):
            hub.push("solo", frame)
        hub.runtime("solo").flush()
        assert hub.engine.num_pending > 0
        hub.engine.system = _FailOnce(hub.engine.system)
        assert hub.flush_pending() == []
        errors = hub.pop_errors()
        assert len(errors) == 1
        assert errors[0].stream_id == "solo"
        assert isinstance(errors[0].error, RuntimeError)
        assert hub.pop_errors() == []  # drained
        # The stream keeps serving after the transient failure.
        for frame in _gesture_stream(301, gestures=1):
            hub.push("solo", frame)
        hub.runtime("solo").flush()
        assert len(hub.flush_pending()) >= 1


class TestSchedulerDrivenHub:
    """With an SLO the hub polls instead of force-flushing per round."""

    def test_huge_slo_does_not_defer_across_rounds(self, fitted):
        """Dispatch is work-conserving: however large the budget, a
        round's spans are dispatched on that round's poll (the inline
        backend's slot is free), identical to the flush-per-round hub."""
        frames = _gesture_stream(500, gestures=2)
        reference = StreamHub(fitted)
        reference.open_stream("s", num_points=12, seed=7)
        hub = StreamHub(fitted, slo_ms=600_000.0)
        hub.open_stream("s", num_points=12, seed=7)
        ref_events, events = [], []
        for frame in frames:
            ref_round = reference.push_round({"s": frame})
            slo_round = hub.push_round({"s": frame})
            assert len(ref_round) == len(slo_round)
            ref_events.extend(ref_round)
            events.extend(slo_round)
        assert len(events) > 0
        _assert_events_identical(
            [e.event for e in events], [e.event for e in ref_events]
        )

    def test_zero_slo_behaves_like_flush_per_round(self, fitted):
        frames = _gesture_stream(500, gestures=2)
        reference = StreamHub(fitted)
        reference.open_stream("s", num_points=12, seed=7)
        hub = StreamHub(fitted, slo_ms=0.0)  # every poll releases the queue
        hub.open_stream("s", num_points=12, seed=7)
        for frame in frames:
            ref_round = reference.push_round({"s": frame})
            slo_round = hub.push_round({"s": frame})
            assert len(ref_round) == len(slo_round)
        _assert_events_identical(
            [e.event for e in hub.flush_streams()],
            [e.event for e in reference.flush_streams()],
        )


class TestDeterminism:
    def test_events_independent_of_open_order(self, fitted):
        streams = {f"s{i}": _gesture_stream(200 + i, gestures=1) for i in range(4)}

        def run(order):
            hub = StreamHub(fitted, base_seed=13)
            for stream_id in order:
                hub.open_stream(stream_id, num_points=12)
            rounds = max(len(frames) for frames in streams.values())
            for i in range(rounds):
                hub.push_round({
                    sid: frames[i]
                    for sid, frames in streams.items()
                    if i < len(frames)
                })
            hub.flush_streams()
            return {sid: hub.events(sid) for sid in streams}

        forward = run(list(streams))
        backward = run(list(reversed(list(streams))))
        for stream_id in streams:
            _assert_events_identical(forward[stream_id], backward[stream_id])

    def test_reset_cancels_pending_spans(self, fitted):
        """Spans submitted before reset must not leak into the new epoch."""
        hub = StreamHub(fitted, max_batch_size=64)
        hub.open_stream("solo", num_points=12)
        # Push a complete gesture but never flush: the span sits queued.
        for frame in _gesture_stream(400, gestures=1):
            hub.push("solo", frame)
        hub.runtime("solo").flush()  # close the segment -> span submitted
        assert hub.engine.num_pending > 0
        hub.reset()
        assert hub.engine.num_pending == 0
        assert hub.flush_pending() == []
        assert hub.events("solo") == []

    def test_push_defers_until_flush(self, fitted):
        hub = StreamHub(fitted, max_batch_size=64)
        hub.open_stream("solo", num_points=12)
        frames = _gesture_stream(300, gestures=1)
        for frame in frames:
            assert hub.push("solo", frame) == []  # queue stays below max_batch
        events = hub.flush_streams()
        assert [e.stream_id for e in events] == ["solo"] * len(events)
        assert hub.events("solo") == [e.event for e in events]
