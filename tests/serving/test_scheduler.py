"""BatchScheduler: depth trigger, EWMA batch adaptation, and the engine's
work-conserving dispatch (a batch runs whenever a backend slot is free)."""

import pytest

from repro.serving import BatchScheduler, InferenceEngine, request_order


class FakeClock:
    """Deterministic monotonic clock for scheduler/engine tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestValidation:
    def test_negative_slo_rejected(self):
        with pytest.raises(ValueError):
            BatchScheduler(slo_ms=-1.0)

    def test_bad_batch_bounds_rejected(self):
        with pytest.raises(ValueError):
            BatchScheduler(min_batch=0)
        with pytest.raises(ValueError):
            BatchScheduler(min_batch=8, max_batch=4)

    def test_bad_alpha_and_safety_rejected(self):
        with pytest.raises(ValueError):
            BatchScheduler(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            BatchScheduler(safety=1.5)


class TestFlushPolicy:
    def test_empty_queue_never_flushes(self):
        scheduler = BatchScheduler(slo_ms=50.0)
        assert not scheduler.should_flush(0)

    def test_depth_trigger(self):
        scheduler = BatchScheduler(slo_ms=None, max_batch=4)
        assert not scheduler.should_flush(3)
        assert scheduler.should_flush(4)
        assert scheduler.stats.depth_flushes == 1

    def test_no_slo_and_no_deadline_means_depth_only(self):
        scheduler = BatchScheduler(slo_ms=None, max_batch=16)
        assert not scheduler.should_flush(15)
        assert scheduler.should_flush(16)

    def test_slot_flushes_counted_apart_from_depth(self):
        scheduler = BatchScheduler(slo_ms=50.0, max_batch=4)
        scheduler.record_slot_flush()
        assert scheduler.stats.slot_flushes == 1
        assert scheduler.stats.depth_flushes == 0


class TestAdaptation:
    def test_limit_tracks_observed_per_sample_latency(self):
        scheduler = BatchScheduler(slo_ms=100.0, max_batch=64, safety=0.8)
        scheduler.observe_batch(10, 0.020)  # 2 ms/sample -> 80 ms budget / 2
        assert scheduler.batch_limit == 40
        for _ in range(50):  # latency doubles: the limit halves
            scheduler.observe_batch(10, 0.040)
        assert scheduler.batch_limit == 20

    def test_limit_clamps_to_bounds(self):
        scheduler = BatchScheduler(
            slo_ms=10.0, min_batch=2, max_batch=8, safety=0.8
        )
        scheduler.observe_batch(4, 0.200)  # 50 ms/sample: budget fits 0
        assert scheduler.batch_limit == 2
        scheduler = BatchScheduler(slo_ms=1000.0, max_batch=8, safety=0.8)
        scheduler.observe_batch(4, 0.001)
        assert scheduler.batch_limit == 8

    def test_predicted_latency_from_one_observation(self):
        """One observation fits the amortised per-sample cost."""
        scheduler = BatchScheduler(slo_ms=50.0, max_batch=64)
        scheduler.observe_batch(4, 0.010)  # 2.5 ms / sample
        assert scheduler.predicted_latency_s(3) == pytest.approx(0.0075)
        assert scheduler.predicted_latency_s(0) == 0.0

    def test_unfitted_model_allows_max_batch(self):
        scheduler = BatchScheduler(slo_ms=50.0, max_batch=24)
        assert scheduler.batch_limit == 24
        assert scheduler.predicted_latency_s(10) == 0.0

    def test_regression_separates_overhead_from_per_sample(self):
        """Varied batch sizes let the model see the fixed overhead, so
        the limit is not throttled by it (overhead 10 ms + 1 ms/sample:
        amortised-only would cap near budget/2.5ms)."""
        scheduler = BatchScheduler(slo_ms=100.0, max_batch=64, safety=0.8)
        for _ in range(40):
            scheduler.observe_batch(10, 0.020)
            scheduler.observe_batch(20, 0.030)
        overhead, per_sample = scheduler._model()
        assert per_sample == pytest.approx(0.001, rel=0.05)
        assert overhead == pytest.approx(0.010, rel=0.10)
        assert scheduler.batch_limit == 64  # (80 - 10) / 1 -> clamped

    def test_constant_batch_sizes_do_not_death_spiral(self):
        """With near-constant batch sizes the slope is noise; the
        amortised fallback must keep the limit at a stable fixed point
        instead of ratcheting down to min_batch."""
        scheduler = BatchScheduler(slo_ms=100.0, max_batch=64, safety=0.8)
        # Overhead-heavy truth: exec(B) = 40 ms + 1 ms * B.
        limit_history = []
        batch = 32
        for _ in range(30):
            scheduler.observe_batch(batch, 0.040 + 0.001 * batch)
            batch = scheduler.batch_limit
            limit_history.append(batch)
        assert limit_history[-1] >= 30  # equilibrium exec(B) ~= budget
        assert min(limit_history) > scheduler.min_batch

    def test_queue_p95(self):
        scheduler = BatchScheduler(slo_ms=50.0)
        assert scheduler.queue_p95_ms is None
        for ms in range(1, 101):  # 1..100 ms
            scheduler.record_queue_latency(ms / 1e3)
        assert scheduler.queue_p95_ms == pytest.approx(95.0)

    def test_snapshot_keys(self):
        scheduler = BatchScheduler(slo_ms=50.0)
        scheduler.observe_batch(4, 0.010)
        snap = scheduler.snapshot()
        assert snap["slo_ms"] == 50.0
        assert snap["observed_batches"] == 1
        assert snap["batch_limit"] == scheduler.batch_limit
        assert snap["slot_flushes"] == 0
        assert "margin_ms" not in snap


class TestRequestOrder:
    def test_priority_then_deadline_then_arrival(self):
        entries = [
            ("batch-early", request_order(2, None, 0.0)),
            ("premium-late", request_order(0, 5.0, 9.0)),
            ("premium-early", request_order(0, 1.0, 8.0)),
            ("standard", request_order(1, 2.0, 1.0)),
            ("premium-no-deadline", request_order(0, None, 0.5)),
        ]
        ordered = [name for name, key in sorted(entries, key=lambda e: e[1])]
        assert ordered == [
            "premium-early",
            "premium-late",
            "premium-no-deadline",
            "standard",
            "batch-early",
        ]


class TestWorkConservingDefaults:
    """Sane defaults: an idle engine answers in one forward pass."""

    def test_lone_submit_delivers_on_first_poll(self, fitted, toy_data):
        """A lone request is dispatched by the first poll that finds a
        free slot — it never waits out its SLO budget for company."""
        x, _, _ = toy_data
        clock = FakeClock()
        scheduler = BatchScheduler(clock=clock)
        engine = InferenceEngine(fitted, scheduler=scheduler)
        ticket = engine.submit(x[0])
        assert not ticket.done  # submit alone only fires the depth trigger
        assert engine.poll() == [ticket]
        assert ticket.done and clock.t == 0.0
        assert scheduler.stats.slot_flushes == 1
        assert scheduler.stats.depth_flushes == 0

    def test_round_of_submits_rides_one_batch(self, fitted, toy_data):
        """Submit a whole round, then poll once: still one batch."""
        x, _, _ = toy_data
        clock = FakeClock()
        engine = InferenceEngine(fitted, scheduler=BatchScheduler(clock=clock))
        tickets = [engine.submit(sample) for sample in x[:8]]
        delivered = engine.poll()
        assert delivered == tickets and clock.t == 0.0
        assert engine.stats.batches == 1 and engine.stats.max_batch == 8


class TestEngineIntegration:
    def test_per_request_deadline_beats_global_slo(self, fitted, toy_data):
        """Deadlines order the drain: a request with its own tight budget
        is placed ahead of earlier arrivals riding the global SLO."""
        x, _, _ = toy_data
        clock = FakeClock()
        scheduler = BatchScheduler(slo_ms=500.0, max_batch=16, clock=clock)
        engine = InferenceEngine(fitted, max_batch_size=16, scheduler=scheduler)
        order = []
        relaxed = engine.submit(x[1], callback=lambda _: order.append("relaxed"))
        urgent = engine.submit(
            x[0], deadline_ms=10.0, callback=lambda _: order.append("urgent")
        )
        engine.poll()
        assert urgent.done and relaxed.done
        assert order == ["urgent", "relaxed"]

    def test_submit_autoflushes_at_adaptive_limit(self, fitted, toy_data):
        x, _, _ = toy_data
        clock = FakeClock()
        scheduler = BatchScheduler(slo_ms=100.0, max_batch=32, clock=clock)
        engine = InferenceEngine(fitted, max_batch_size=32, scheduler=scheduler)
        # Teach the model 20 ms/sample: 80 ms budget -> limit 4.
        scheduler.observe_batch(4, 0.080)
        assert engine.batch_limit == 4
        tickets = [engine.submit(sample) for sample in x[:4]]
        assert all(ticket.done for ticket in tickets)  # 4th submit flushed
        assert scheduler.stats.depth_flushes == 1

    def test_engine_without_scheduler_honours_explicit_deadline(
        self, fitted, toy_data
    ):
        """The deadline is kept for ordering; the request does not wait
        for it — the first poll dispatches onto the free slot."""
        x, _, _ = toy_data
        clock = FakeClock()
        engine = InferenceEngine(fitted, max_batch_size=16, clock=clock)
        ticket = engine.submit(x[0], deadline_ms=20.0)
        assert ticket.arrival == 0.0 and ticket.deadline == pytest.approx(0.020)
        assert engine.poll() == [ticket]
        assert ticket.done and clock.t == 0.0

    def test_queue_latency_recorded_from_arrival(self, fitted, toy_data):
        x, _, _ = toy_data
        clock = FakeClock()
        scheduler = BatchScheduler(slo_ms=50.0, max_batch=16, clock=clock)
        engine = InferenceEngine(fitted, max_batch_size=16, scheduler=scheduler)
        engine.submit(x[0], arrival=clock.t - 0.030)  # span closed 30 ms ago
        engine.flush()
        assert scheduler.queue_p95_ms == pytest.approx(30.0)
