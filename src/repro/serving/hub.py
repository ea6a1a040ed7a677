"""Multi-stream hub: N concurrent runtimes over one shared engine.

The north-star deployment serves many users at once — every active radar
device is one frame stream.  :class:`StreamHub` multiplexes any mix of
single-person (:class:`~repro.core.realtime.GesturePrintRuntime`) and
multi-person (:class:`~repro.core.multiuser.MultiUserRuntime`) streams
over one :class:`~repro.serving.engine.InferenceEngine`:

* each stream keeps its own segmenter / tracker / work-zone state and a
  **deterministic per-stream RNG** (derived from the hub seed and the
  stream id, independent of open order), so results are reproducible
  stream by stream;
* gesture spans closed by any stream are *deferred* into the shared
  engine instead of classified inline; :meth:`push_round` flushes (or,
  with a scheduler, polls) once per frame round, so spans that close
  together across streams ride one vectorised forward pass;
* a span whose batch fails is never lost silently: the failure is
  recorded as a :class:`StreamError` (see :meth:`pop_errors`) while the
  other streams' events still deliver — one poison sample cannot strand
  everyone else's results.

Because engine batches are byte-identical to batch-of-1 predicts, a hub
stream emits exactly the same events as a standalone runtime fed the
same frames with the same seed.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.multiuser import MultiUserRuntime, TrackedGestureEvent
from repro.core.realtime import GestureEvent, GesturePrintRuntime, build_event
from repro.core.pipeline import GesturePrint
from repro.radar.pointcloud import Frame
from repro.serving.engine import InferenceEngine
from repro.serving.scheduler import BatchScheduler


@dataclass(frozen=True)
class StreamEvent:
    """One gesture event attributed to the stream that produced it."""

    stream_id: str
    event: GestureEvent | TrackedGestureEvent


@dataclass(frozen=True)
class StreamError:
    """One span whose classification batch failed, with its origin."""

    stream_id: str
    track_id: int | None
    error: Exception


def derive_stream_seed(base_seed: int, stream_id: str) -> int:
    """Deterministic per-stream seed, independent of open order."""
    entropy = [int(base_seed), zlib.crc32(str(stream_id).encode("utf-8"))]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


class _DeferredSpanClassifier:
    """Runtime classifier that queues spans on the hub's shared engine.

    Implements the ``classify_span(span, on_event, track_id=None)``
    contract of :class:`~repro.core.realtime.DirectSpanClassifier` but
    returns None immediately; the event is assembled and recorded (via
    ``on_event``) when the engine flushes the micro-batch.  The span's
    close timestamp rides along as the request's arrival time, so the
    scheduler measures latency from the moment the gesture ended, not
    from whenever the hub got around to submitting.
    """

    def __init__(self, hub: "StreamHub", stream_id: str) -> None:
        self._hub = hub
        self._stream_id = stream_id

    def classify_span(self, span, on_event, track_id=None):
        hub, stream_id = self._hub, self._stream_id

        def _deliver(result) -> None:
            event = on_event(build_event(span, result.gesture_probs, result.user_probs))
            hub._delivered.append(StreamEvent(stream_id=stream_id, event=event))

        def _fail(error: Exception) -> None:
            hub._errors.append(
                StreamError(stream_id=stream_id, track_id=track_id, error=error)
            )

        # closed_at is stamped with time.monotonic; backdating the
        # request to it is only meaningful when the engine shares that
        # time base (an injected test clock does not).
        arrival = span.closed_at if hub.engine.clock is time.monotonic else None
        hub.engine.submit(
            span.sample,
            meta=(stream_id, track_id),
            callback=_deliver,
            on_error=_fail,
            arrival=arrival,
            deadline_ms=hub.slo_ms,
        )
        return None


class StreamHub:
    """Serve many concurrent gesture streams from one fitted system.

    Parameters
    ----------
    system:
        A fitted :class:`~repro.core.pipeline.GesturePrint`; ignored when
        an ``engine`` is passed directly.
    engine:
        Share an existing :class:`InferenceEngine` (e.g. one also serving
        session identifiers) instead of building a private one.
    max_batch_size:
        Forwarded to the private engine.
    scheduler:
        Optional :class:`~repro.serving.scheduler.BatchScheduler` for the
        private engine.  With one attached, :meth:`push_round` *polls*
        instead of force-flushing: the round's spans are dispatched at
        once if a backend slot is free, and otherwise keep forming a
        batch (with the next rounds' spans) until a slot frees up.
    slo_ms:
        Per-span latency budget (span close -> event delivery).  Implies
        a default scheduler when none is given, sizing its adaptive batch
        limit.  Also tagged onto every submitted span as its request
        deadline, which orders the engine's queue.
    base_seed:
        Root of the per-stream RNG derivation.
    """

    def __init__(
        self,
        system: GesturePrint | None = None,
        *,
        engine: InferenceEngine | None = None,
        max_batch_size: int = 32,
        scheduler: BatchScheduler | None = None,
        slo_ms: float | None = None,
        base_seed: int = 0,
    ) -> None:
        if engine is None:
            if system is None:
                raise ValueError("pass a fitted system or an engine")
            if scheduler is None and slo_ms is not None:
                scheduler = BatchScheduler(slo_ms=slo_ms, max_batch=max_batch_size)
            engine = InferenceEngine(
                system, max_batch_size=max_batch_size, scheduler=scheduler
            )
        self.engine = engine
        self.slo_ms = slo_ms
        self.base_seed = base_seed
        self._streams: dict[str, GesturePrintRuntime | MultiUserRuntime] = {}
        self._delivered: list[StreamEvent] = []
        self._errors: list[StreamError] = []

    # ------------------------------------------------------------------
    @property
    def system(self) -> GesturePrint:
        return self.engine.system

    @property
    def stream_ids(self) -> list[str]:
        return list(self._streams)

    @property
    def num_streams(self) -> int:
        return len(self._streams)

    def runtime(self, stream_id: str) -> GesturePrintRuntime | MultiUserRuntime:
        """The underlying runtime of one stream (segmenter state, events)."""
        return self._streams[str(stream_id)]

    # ------------------------------------------------------------------
    def open_stream(
        self,
        stream_id: str,
        *,
        multi_user: bool = False,
        seed: int | None = None,
        **runtime_kwargs,
    ) -> str:
        """Register one stream; returns its id.

        ``seed`` overrides the derived per-stream seed (use it to mirror a
        standalone runtime exactly); ``runtime_kwargs`` pass through to the
        runtime constructor (segmenter/noise/separator params, work zone).
        """
        stream_id = str(stream_id)
        if stream_id in self._streams:
            raise ValueError(f"stream {stream_id!r} already open")
        if seed is None:
            seed = derive_stream_seed(self.base_seed, stream_id)
        classifier = _DeferredSpanClassifier(self, stream_id)
        runtime_cls = MultiUserRuntime if multi_user else GesturePrintRuntime
        self._streams[stream_id] = runtime_cls(
            self.engine.system, seed=seed, classifier=classifier, **runtime_kwargs
        )
        return stream_id

    def close_stream(self, stream_id: str) -> GesturePrintRuntime | MultiUserRuntime:
        """Deregister a stream and cancel its queued spans.

        Spans the stream already submitted to the shared engine are
        discarded via :meth:`InferenceEngine.discard_pending` — they must
        not be classified and delivered to the dead stream's callback
        (which would burn batch capacity and resurrect `stream_id` in
        ``_delivered`` after the close).  Other streams' pending requests
        are untouched; spans already *delivered* stay in the runtime's
        event log, which is returned.
        """
        stream_id = str(stream_id)
        runtime = self._streams.pop(stream_id)
        self.engine.discard_pending(
            lambda meta: isinstance(meta, tuple) and len(meta) == 2 and meta[0] == stream_id
        )
        return runtime

    # ------------------------------------------------------------------
    def _drain(self) -> list[StreamEvent]:
        delivered, self._delivered = self._delivered, []
        return delivered

    @property
    def errors(self) -> list[StreamError]:
        """Classification failures recorded since the last :meth:`pop_errors`."""
        return list(self._errors)

    def pop_errors(self) -> list[StreamError]:
        """Drain the recorded classification failures."""
        errors, self._errors = self._errors, []
        return errors

    def push(self, stream_id: str, frame: Frame) -> list[StreamEvent]:
        """Feed one frame into one stream.

        Spans that close are queued on the shared engine; events are only
        returned here if the queue hit the batch limit and auto-flushed.
        Call :meth:`flush_pending` (or use :meth:`push_round`) to force
        delivery.
        """
        self._streams[str(stream_id)].push_frame(frame)
        return self._drain()

    def push_round(
        self, frames: Mapping[str, Frame] | Iterable[tuple[str, Frame]]
    ) -> list[StreamEvent]:
        """Feed one frame per stream, then release the shared micro-batch.

        This is the serving loop's steady state.  Without a scheduler,
        everything pending is flushed — all spans that closed on this
        round, across every stream, ride one vectorised forward pass.
        With a scheduler, the engine is *polled* instead: the round's
        spans still ride one batch, dispatched at once onto a free
        backend slot without blocking; while every slot is busy they
        keep accumulating and deliver on a later round.

        All stream ids are validated **before** any frame is pushed, so a
        typo'd id cannot leave the round half-applied with the other
        streams' segmenters out of step.  Batch failures are recorded as
        :class:`StreamError` (see :meth:`pop_errors`) rather than raised,
        so events delivered on this round are always returned.
        """
        items = list(frames.items() if isinstance(frames, Mapping) else frames)
        resolved = [(str(stream_id), frame) for stream_id, frame in items]
        unknown = [sid for sid, _ in resolved if sid not in self._streams]
        if unknown:
            raise KeyError(
                f"unknown stream id(s) {unknown!r}; round not applied "
                f"(open streams: {sorted(self._streams)!r})"
            )
        for stream_id, frame in resolved:
            self._streams[stream_id].push_frame(frame)
        if self.engine.scheduler is not None:
            self.engine.poll()
        else:
            self.engine.flush(raise_on_error=False)
        return self._drain()

    def flush_pending(self) -> list[StreamEvent]:
        """Force-flush the engine queue and return the delivered events.

        Exception-safe: groups that classified successfully always
        deliver and are always returned; failures land in
        :meth:`pop_errors` instead of stranding delivered events behind a
        raised exception.
        """
        self.engine.flush(raise_on_error=False)
        return self._drain()

    def flush_streams(self) -> list[StreamEvent]:
        """End-of-stream: close every open gesture, then flush the engine."""
        for runtime in self._streams.values():
            runtime.flush()
        self.engine.flush(raise_on_error=False)
        return self._drain()

    # ------------------------------------------------------------------
    def events(self, stream_id: str) -> list[GestureEvent | TrackedGestureEvent]:
        """All events one stream has emitted so far."""
        return self._streams[str(stream_id)].events

    def reset(self) -> None:
        """Reset every stream's bookkeeping (models stay fitted/cached).

        Spans this hub already submitted to the engine are cancelled, so
        pre-reset gestures cannot deliver events into the new epoch.  On
        a shared engine, other callers' pending requests are untouched.
        """
        stream_ids = set(self._streams)
        self.engine.discard_pending(
            lambda meta: isinstance(meta, tuple) and len(meta) == 2 and meta[0] in stream_ids
        )
        for runtime in self._streams.values():
            runtime.reset()
        self._delivered.clear()
        self._errors.clear()
