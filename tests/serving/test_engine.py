"""InferenceEngine: micro-batching semantics and byte-identical results."""

import numpy as np
import pytest

from repro.core import GesturePrint, SessionIdentifier
from repro.serving import InferenceEngine


def _assert_same_result(a, b):
    assert a.gesture == b.gesture
    assert a.user == b.user
    assert np.array_equal(a.gesture_probs, b.gesture_probs)
    assert np.array_equal(a.user_probs, b.user_probs)


class TestEngineBasics:
    def test_unfitted_system_rejected(self):
        with pytest.raises(ValueError):
            InferenceEngine(GesturePrint())

    def test_bad_batch_size_rejected(self, fitted):
        with pytest.raises(ValueError):
            InferenceEngine(fitted, max_batch_size=0)

    def test_bad_sample_shape_rejected(self, fitted):
        engine = InferenceEngine(fitted)
        with pytest.raises(ValueError):
            engine.predict_one(np.zeros((4, 12, 8)))

    def test_predict_one_matches_system_predict(self, fitted, toy_data):
        engine = InferenceEngine(fitted)
        x, _, _ = toy_data
        result = engine.predict_one(x[0])
        reference = fitted.predict(x[0:1])
        assert result.gesture == int(reference.gesture_pred[0])
        assert result.user == int(reference.user_pred[0])
        assert np.array_equal(result.gesture_probs, reference.gesture_probs[0])
        assert np.array_equal(result.user_probs, reference.user_probs[0])

    def test_ticket_result_raises_before_flush(self, fitted, toy_data):
        engine = InferenceEngine(fitted, max_batch_size=16)
        x, _, _ = toy_data
        ticket = engine.submit(x[0])
        assert not ticket.done
        with pytest.raises(RuntimeError):
            ticket.result()
        engine.flush()
        assert ticket.done
        assert ticket.result().user_probs.shape == (fitted.num_users,)

    def test_flush_empty_queue_is_noop(self, fitted):
        engine = InferenceEngine(fitted)
        assert engine.flush() == []
        assert engine.stats.batches == 0


class TestMicroBatching:
    def test_auto_flush_at_max_batch_size(self, fitted, toy_data):
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=4)
        tickets = [engine.submit(sample) for sample in x[:4]]
        # The 4th submit crossed the threshold: everything delivered.
        assert all(ticket.done for ticket in tickets)
        assert engine.num_pending == 0
        assert engine.stats.batches == 1
        assert engine.stats.max_batch == 4

    def test_callback_fires_at_delivery(self, fitted, toy_data):
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=16)
        seen = []
        engine.submit(x[0], meta="tag", callback=seen.append)
        assert seen == []
        engine.flush()
        assert len(seen) == 1
        assert seen[0].user_probs.shape == (fitted.num_users,)

    def test_mixed_shapes_grouped_per_forward(self, fitted, toy_data):
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=16)
        small = x[0][:8]  # fewer points than the other requests
        tickets = [engine.submit(x[0]), engine.submit(small), engine.submit(x[1])]
        engine.flush()
        assert all(ticket.done for ticket in tickets)
        assert engine.stats.batches == 2  # one per distinct shape
        _assert_same_result(tickets[1].result(), engine.predict_one(small))

    def test_poison_group_fails_alone(self, fitted, toy_data):
        """One bad batch must not swallow the other groups' tickets."""
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=16)
        good = engine.submit(x[0])
        # Valid per _validate (2-D, enough channels) but rejected by the
        # network: fewer points than the second set-abstraction level's
        # neighbourhood machinery can handle is fine, so poison via NaN
        # shape trickery instead: a (0, channels) sample breaks predict.
        bad = engine.submit(np.zeros((0, x.shape[2])))
        with pytest.raises(Exception):
            engine.flush()
        assert good.done
        assert good.result().user_probs.shape == (fitted.num_users,)
        assert bad.done
        with pytest.raises(Exception):
            bad.result()

    def test_poison_group_error_callback_fires(self, fitted, toy_data):
        """Deferred callers learn about failed spans instead of losing
        them silently: Ticket._fail notifies on_error."""
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=16)
        errors = []
        bad = engine.submit(np.zeros((0, x.shape[2])), on_error=errors.append)
        engine.flush(raise_on_error=False)  # exception-safe flush
        assert bad.done
        assert len(errors) == 1 and isinstance(errors[0], Exception)
        with pytest.raises(Exception):
            bad.result()

    def test_reentrant_submit_defers_to_flush_tail(self, fitted, toy_data):
        """A delivery callback that submits (chained classification) must
        not interleave batches: the nested flush runs after the outer
        one, and delivery order stays submission order."""
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=2)
        order = []

        def chain(_result):
            order.append("a")
            engine.submit(x[2], callback=lambda r: order.append("c"))
            # Second nested submit crosses max_batch_size: without the
            # _in_flush guard this would flush (c, d) mid-delivery of a.
            engine.submit(x[3], callback=lambda r: order.append("d"))

        a = engine.submit(x[0], callback=chain)
        b = engine.submit(x[1], callback=lambda r: order.append("b"))
        assert order == ["a", "b", "c", "d"]
        assert a.done and b.done
        assert engine.num_pending == 0
        assert engine.stats.batches == 2

    def test_flush_drains_in_priority_order(self, fitted, toy_data):
        """Lower priority value (more important class) delivers first;
        ties keep submission order, so default traffic is unaffected."""
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=16)
        order = []
        engine.submit(x[0], callback=lambda r: order.append("batch-1"), priority=2)
        engine.submit(x[1], callback=lambda r: order.append("premium"), priority=0)
        engine.submit(x[2], callback=lambda r: order.append("batch-2"), priority=2)
        engine.submit(x[3], callback=lambda r: order.append("standard"), priority=1)
        completed = engine.flush()
        assert order == ["premium", "standard", "batch-1", "batch-2"]
        assert [t.priority for t in completed] == [0, 1, 2, 2]

    def test_priority_ties_break_by_deadline(self, fitted, toy_data):
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=16)
        order = []
        engine.submit(x[0], callback=lambda r: order.append("lax"), deadline_ms=500.0)
        engine.submit(x[1], callback=lambda r: order.append("urgent"), deadline_ms=10.0)
        engine.flush()
        assert order == ["urgent", "lax"]

    def test_discard_pending_cancels_tickets(self, fitted, toy_data):
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=16)
        keep = engine.submit(x[0], meta="keep")
        drop = engine.submit(x[1], meta="drop")
        assert engine.discard_pending(lambda meta: meta == "drop") == 1
        assert drop.cancelled
        with pytest.raises(RuntimeError):
            drop.result()
        engine.flush()
        assert keep.done and not keep.cancelled

    def test_stats_counters(self, fitted, toy_data):
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=8)
        engine.predict_one(x[0])
        for sample in x[:6]:
            engine.submit(sample)
        engine.flush()
        assert engine.stats.requests == 7
        assert engine.stats.sync_requests == 1
        assert engine.stats.batched_samples == 6
        assert engine.stats.mean_batch == 6.0


class TestStaleDeadlines:
    """A deadline already in the past is clamped to "due now"."""

    class _Clock:
        def __init__(self):
            self.t = 100.0

        def __call__(self):
            return self.t

    def test_stale_deadline_flushes_immediately(self, fitted, toy_data):
        """Backdated arrival + tiny budget: the request rides the very
        next poll with no clock advance."""
        x, _, _ = toy_data
        clock = self._Clock()
        engine = InferenceEngine(fitted, max_batch_size=16, clock=clock)
        ticket = engine.submit(x[0], arrival=clock.t - 10.0, deadline_ms=5.0)
        assert engine.poll() == [ticket] and ticket.done

    def test_stale_deadline_never_splits_later_batches(self, fitted, toy_data):
        """Regression: a stale request must not degrade later traffic to
        panic batch-of-1 dispatches — the healthy submits that queue
        behind it still ride one shared batch."""
        from repro.serving import BatchScheduler

        x, _, _ = toy_data
        clock = self._Clock()
        scheduler = BatchScheduler(slo_ms=50.0, clock=clock)
        engine = InferenceEngine(fitted, max_batch_size=16, scheduler=scheduler)
        stale = engine.submit(x[0], arrival=clock.t - 3.0, deadline_ms=1.0)
        engine.poll()
        assert stale.done
        later = [engine.submit(sample) for sample in x[1:4]]
        assert not any(ticket.done for ticket in later)
        clock.t += 0.001
        engine.poll()
        assert all(ticket.done for ticket in later)
        assert engine.stats.batches == 2 and engine.stats.max_batch == 3


class TestBatchedEquivalence:
    """The serving guarantee: batching never changes a prediction bit."""

    def test_batched_results_byte_identical_to_sync_path(self, fitted, toy_data):
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=64)
        batched = engine.predict_many(x[:24])
        for sample, result in zip(x[:24], batched):
            _assert_same_result(result, engine.predict_one(sample))

    def test_equivalence_across_batch_compositions(self, fitted, toy_data):
        """The same sample gives identical posteriors whatever rides along."""
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=64)
        alone = engine.predict_many(x[5:6])[0]
        with_head = engine.predict_many(x[0:6])[5]
        with_tail = engine.predict_many(x[5:20])[0]
        _assert_same_result(alone, with_head)
        _assert_same_result(alone, with_tail)


class TestHotSwap:
    """swap_system: no dropped tickets, no mixed weights, versions tagged."""

    def test_swap_flushes_pending_on_old_weights(self, fitted, fitted_b, toy_data):
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=16)
        pending = engine.submit(x[0])
        version = engine.swap_system(fitted_b)
        assert version == 1 and engine.model_version == 1
        assert pending.done and not pending.cancelled
        old = pending.result()
        assert old.model_version == 0
        reference = fitted.predict(x[0:1])  # the *old* weights
        assert np.array_equal(old.gesture_probs, reference.gesture_probs[0])
        new = engine.predict_one(x[0])
        assert new.model_version == 1
        assert np.array_equal(
            new.user_probs, fitted_b.predict(x[0:1]).user_probs[0]
        )
        assert engine.stats.swaps == 1

    def test_swap_same_system_is_noop(self, fitted):
        engine = InferenceEngine(fitted)
        assert engine.swap_system(fitted) == 0
        assert engine.stats.swaps == 0

    def test_swap_rejects_unfitted(self, fitted):
        from repro.core import GesturePrint

        engine = InferenceEngine(fitted)
        with pytest.raises(ValueError):
            engine.swap_system(GesturePrint())

    def test_swap_from_delivery_callback_is_deferred(
        self, fitted, fitted_b, toy_data
    ):
        """A swap requested mid-flush applies only after the current
        flush drains: tickets of the same batch never mix weights."""
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=16)
        seen = {}

        def swap_now(_result):
            engine.swap_system(fitted_b)
            seen["version_during_flush"] = engine.model_version

        first = engine.submit(x[0], callback=swap_now)
        second = engine.submit(x[1])
        engine.flush()
        assert seen["version_during_flush"] == 0  # not applied mid-batch
        assert first.result().model_version == 0
        assert second.result().model_version == 0
        assert engine.model_version == 1  # applied at the flush tail
        assert engine.system is fitted_b


class TestSessionThroughEngine:
    def test_session_identifier_routes_through_engine(self, fitted, toy_data):
        x, _, u = toy_data
        engine = InferenceEngine(fitted)
        direct = SessionIdentifier(fitted)
        served = SessionIdentifier(engine=engine)
        for sample in x[:5]:
            direct.update(sample)
            served.update(sample)
        a, b = direct.estimate(), served.estimate()
        assert a.user == b.user
        assert np.array_equal(a.posterior, b.posterior)
        assert engine.stats.sync_requests == 5

    def test_session_identifier_requires_system_or_engine(self):
        with pytest.raises(ValueError):
            SessionIdentifier()
