"""GatewayServer end-to-end over localhost TCP: fidelity, SLO classes,
shedding, disconnect reclamation, hot reload."""

import asyncio
import socket
import time

import numpy as np
import pytest

from repro.serving import InferenceEngine
from repro.serving.gateway import (
    AsyncGatewayClient,
    BackgroundGateway,
    GatewayClient,
    GatewayError,
    GatewayServer,
    SLOClass,
    TenantDirectory,
    protocol,
)
from repro.serving.gateway.protocol import FrameType


def _samples(toy_data, count, seed=0):
    x, _, _ = toy_data
    rng = np.random.default_rng(seed)
    return x[rng.integers(0, len(x), size=count)]


class _SlowSystem:
    """Fitted-system wrapper whose predict sleeps — lets tests pile up
    the admission queue deterministically."""

    def __init__(self, system, delay_s=0.02):
        self._system = system
        self.delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._system, name)

    def predict(self, batch):
        time.sleep(self.delay_s)
        return self._system.predict(batch)


class TestHandshake:
    def test_hello_negotiates_class_and_version(self, fitted):
        server = GatewayServer(
            fitted, tenants=TenantDirectory(assignments={"vip": "premium"})
        )
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port, tenant="vip") as client:
                assert client.slo_class == "premium"
                assert client.slo_ms == 50.0
                assert client.model_version == 0
                assert client.server == "repro-gateway"
            with GatewayClient(host, port, tenant="anyone") as client:
                assert client.slo_class == "standard"

    def test_unknown_tenant_rejected_when_directory_is_closed(self, fitted):
        tenants = TenantDirectory(
            assignments={"vip": "premium"}, default_class=None
        )
        server = GatewayServer(fitted, tenants=tenants)
        with BackgroundGateway(server) as (host, port):
            with pytest.raises(GatewayError) as excinfo:
                GatewayClient(host, port, tenant="stranger")
            assert excinfo.value.code == "unknown_tenant"
            with GatewayClient(host, port, tenant="vip") as client:
                assert client.slo_class == "premium"

    def test_version_mismatch_answered_with_error_frame(self, fitted):
        server = GatewayServer(fitted)
        with BackgroundGateway(server) as (host, port):
            with socket.create_connection((host, port), timeout=10.0) as sock:
                hello = protocol.hello_frame(client="future", tenant="t")
                sock.sendall(
                    protocol.encode_frame(
                        hello, version=protocol.PROTOCOL_VERSION + 1
                    )
                )
                reply = protocol.read_frame_sync(sock)
                assert reply.kind is FrameType.ERROR
                assert reply.meta["code"] == "version_mismatch"
                assert protocol.read_frame_sync(sock) is None  # server hung up

    def test_malformed_submit_id_gets_clean_error(self, fitted, toy_data):
        """A SUBMIT whose id is not an int must be answered with an
        ERROR frame (no echoed id) — not crash the connection handler."""
        server = GatewayServer(fitted)
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port) as client:
                bad = protocol.Frame(
                    FrameType.SUBMIT,
                    {"id": "not-a-number", "shape": [4, 8]},
                    b"\0" * (4 * 8 * 4),
                )
                client._send(bad)
                reply = client._read()
                assert reply.kind is FrameType.ERROR
                assert "id" not in reply.meta
                # The connection survives and keeps serving.
                good = client.classify(_samples(toy_data, 1)[0], deadline_ms=0.0)
                assert good.gesture >= 0

    def test_submit_before_hello_rejected(self, fitted):
        server = GatewayServer(fitted)
        with BackgroundGateway(server) as (host, port):
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(
                    protocol.encode_frame(protocol.submit_frame(1, np.zeros((4, 8))))
                )
                reply = protocol.read_frame_sync(sock)
                assert reply.meta["code"] == "bad_handshake"


class TestFidelity:
    """Gateway results are byte-identical to in-process predict_one."""

    def test_classify_matches_predict_one(self, fitted, toy_data):
        reference = InferenceEngine(fitted)
        samples = _samples(toy_data, 6)
        server = GatewayServer(fitted)
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port, tenant="edge-0") as client:
                for sample in samples:
                    # deadline 0: flush immediately (latency-first caller).
                    wire = client.classify(sample, deadline_ms=0.0)
                    local = reference.predict_one(protocol.quantise_sample(sample))
                    assert wire.gesture == local.gesture
                    assert wire.user == local.user
                    assert np.array_equal(wire.gesture_probs, local.gesture_probs)
                    assert np.array_equal(wire.user_probs, local.user_probs)

    def test_pipelined_submits_batch_and_all_resolve(self, fitted, toy_data):
        samples = _samples(toy_data, 24, seed=3)
        server = GatewayServer(fitted, max_batch_size=16)
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port, tenant="edge-0") as client:
                ids = [client.submit(sample) for sample in samples]
                outcomes = client.collect_all(ids)
                assert sorted(outcomes) == sorted(ids)
                assert not any(
                    isinstance(outcome, GatewayError)
                    for outcome in outcomes.values()
                )
                stats = client.stats()
        assert stats["engine"]["requests"] == 24
        assert stats["engine"]["mean_batch"] > 1.0  # actually micro-batched
        assert stats["tenants"]["edge-0"]["delivered"] == 24
        assert stats["tenants"]["edge-0"]["in_flight"] == 0

    def test_async_client_concurrent_classify(self, fitted, toy_data):
        samples = _samples(toy_data, 16, seed=5)
        server = GatewayServer(fitted)
        with BackgroundGateway(server) as (host, port):

            async def run():
                clients = [
                    await AsyncGatewayClient.connect(host, port, tenant=f"dev-{i}")
                    for i in range(4)
                ]
                try:
                    chunks = np.array_split(samples, 4)
                    results = await asyncio.gather(
                        *(
                            asyncio.gather(
                                *(c.classify(s, deadline_ms=0.0) for s in chunk)
                            )
                            for c, chunk in zip(clients, chunks)
                        )
                    )
                finally:
                    for c in clients:
                        await c.aclose()
                return [wire for chunk in results for wire in chunk]

            wires = asyncio.run(run())
        reference = InferenceEngine(fitted)
        for sample, wire in zip(samples, wires):
            local = reference.predict_one(protocol.quantise_sample(sample))
            assert np.array_equal(wire.gesture_probs, local.gesture_probs)

    def test_malformed_submit_gets_per_request_error(self, fitted, toy_data):
        server = GatewayServer(fitted)
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port) as client:
                # Channel count below the network's requirement: engine
                # validation fails per-request, connection survives.
                bad_id = client.submit(np.zeros((4, 2)), deadline_ms=0.0)
                with pytest.raises(GatewayError):
                    client.collect(bad_id)
                good = client.classify(_samples(toy_data, 1)[0], deadline_ms=0.0)
                assert good.gesture >= 0


class TestWorkConservingDefaults:
    """A default gateway answers in about one forward pass when idle."""

    def test_lone_request_answers_well_inside_standard_slo(self, fitted, toy_data):
        """Stock tenants, inline backend, no client deadline: the request
        must not be held for most of its 200 ms ``standard`` SLO."""
        server = GatewayServer(fitted)
        latencies = []
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port, tenant="anyone") as client:
                assert client.slo_class == "standard" and client.slo_ms == 200.0
                for sample in _samples(toy_data, 3, seed=11):
                    start = time.perf_counter()
                    client.classify(sample)
                    latencies.append(time.perf_counter() - start)
        assert sorted(latencies)[1] < 0.100, latencies

    def test_stats_keep_the_keys_benchmarks_read(self, fitted, toy_data):
        """The STATS snapshot keeps its scheduler/engine counter keys;
        ``deadline_flushes`` stays, and reads 0 — nothing is held."""
        server = GatewayServer(fitted)
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port, tenant="anyone") as client:
                client.classify(_samples(toy_data, 1)[0])
                stats = client.stats()
        scheduler, engine = stats["scheduler"], stats["engine"]
        assert scheduler["deadline_flushes"] == 0
        assert scheduler["depth_flushes"] == 0
        assert scheduler["slot_flushes"] == 1
        for key in ("batches", "batched_samples", "hedged_batches", "retried_batches"):
            assert isinstance(engine[key], int)
        assert engine["batches"] == 1


class TestPooledBackends:
    """The gateway over thread/process pools: overlap without drift."""

    def test_thread_backend_results_byte_identical(self, fitted, toy_data):
        from repro.serving import ThreadPoolBackend

        reference = InferenceEngine(fitted)
        samples = _samples(toy_data, 12, seed=7)
        with ThreadPoolBackend(workers=2) as backend:
            server = GatewayServer(fitted, backend=backend)
            with BackgroundGateway(server) as (host, port):
                with GatewayClient(host, port, tenant="edge-0") as client:
                    ids = [client.submit(sample) for sample in samples]
                    outcomes = client.collect_all(ids)
                    stats = client.stats()
            for request_id, sample in zip(ids, samples):
                wire = outcomes[request_id]
                assert not isinstance(wire, GatewayError)
                local = reference.predict_one(protocol.quantise_sample(sample))
                assert np.array_equal(wire.gesture_probs, local.gesture_probs)
                assert np.array_equal(wire.user_probs, local.user_probs)
        assert stats["engine"]["backend"]["name"] == "thread"
        assert stats["engine"]["in_flight"] == 0
        assert stats["scheduler"]["backend"] == "thread"

    def test_rate_limited_submit_gets_distinct_code(self, fitted, toy_data):
        samples = _samples(toy_data, 4, seed=9)
        tenants = TenantDirectory(
            classes={
                "metered": SLOClass(
                    "metered", priority=0, slo_ms=50.0,
                    rate_per_s=0.001, burst=2.0,  # two tokens, then dry
                )
            },
            default_class="metered",
        )
        server = GatewayServer(fitted, tenants=tenants)
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port, tenant="edge-0") as client:
                assert client.classify(samples[0], deadline_ms=0.0)
                assert client.classify(samples[1], deadline_ms=0.0)
                with pytest.raises(GatewayError) as excinfo:
                    client.classify(samples[2], deadline_ms=0.0)
                assert excinfo.value.code == "rate_limited"
                stats = client.stats()
        assert stats["gateway"]["rate_limited"] == 1
        assert stats["tenants"]["edge-0"]["rate_limited"] == 1
        assert stats["tenants"]["edge-0"]["delivered"] == 2


class TestOverload:
    def test_batch_class_sheds_premium_survives(self, fitted, toy_data):
        """A batch flood into a tiny admission room sheds batch requests
        (oldest first) while premium requests all deliver."""
        samples = _samples(toy_data, 40, seed=7)
        tenants = TenantDirectory(
            assignments={"vip": "premium", "bulk": "batch"}
        )
        server = GatewayServer(
            _SlowSystem(fitted, delay_s=0.02),
            tenants=tenants,
            max_batch_size=4,
            queue_limit=4,
            slo_ms=None,  # depth-driven: keeps the pile-up deterministic
        )
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port, tenant="bulk") as bulk, GatewayClient(
                host, port, tenant="vip"
            ) as vip:
                bulk_ids = [bulk.submit(sample) for sample in samples]
                # Premium is interactive: sequential round trips, never
                # more in flight than its own rate — raises if rejected.
                vip_results = [vip.classify(sample) for sample in samples[:8]]
                bulk_outcomes = bulk.collect_all(bulk_ids)
                stats = vip.stats()
        shed = [
            outcome
            for outcome in bulk_outcomes.values()
            if isinstance(outcome, GatewayError)
        ]
        assert shed, "the batch flood should have been shed"
        assert all(error.code == "shed" for error in shed)
        assert len(vip_results) == 8  # every premium request delivered
        assert stats["tenants"]["vip"]["shed"] == 0
        assert stats["tenants"]["vip"]["delivered"] == 8
        assert stats["tenants"]["bulk"]["shed"] == len(shed)
        assert stats["gateway"]["shed"] == len(shed)

    def test_in_flight_cap_gives_over_capacity(self, fitted, toy_data):
        samples = _samples(toy_data, 12, seed=9)
        tenants = TenantDirectory(
            classes={
                "capped": SLOClass("capped", priority=0, max_in_flight=2),
            },
            default_class="capped",
        )
        server = GatewayServer(
            _SlowSystem(fitted, delay_s=0.05), tenants=tenants, queue_limit=64
        )
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port, tenant="t") as client:
                ids = [client.submit(sample) for sample in samples]
                outcomes = client.collect_all(ids)
        rejected = [
            outcome
            for outcome in outcomes.values()
            if isinstance(outcome, GatewayError)
        ]
        assert rejected and all(e.code == "over_capacity" for e in rejected)
        assert len(rejected) < len(samples)  # the capped share still served


class TestDisconnect:
    def test_dead_connection_requests_are_reclaimed(self, fitted, toy_data):
        """A client that floods and vanishes must not burn batch capacity:
        its queued requests are purged/cancelled and its tenant's
        in-flight count returns to zero."""
        samples = _samples(toy_data, 30, seed=11)
        server = GatewayServer(
            _SlowSystem(fitted, delay_s=0.03),
            max_batch_size=4,
            queue_limit=64,
            slo_ms=None,
        )
        with BackgroundGateway(server) as (host, port):
            ghost = GatewayClient(host, port, tenant="ghost")
            for sample in samples:
                ghost.submit(sample)
            ghost.close()  # vanish with ~30 requests outstanding
            with GatewayClient(host, port, tenant="watcher") as watcher:
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    stats = watcher.stats()
                    tenant = stats["tenants"].get("ghost", {})
                    if (
                        stats["connections"] == 1
                        and tenant.get("in_flight") == 0
                        and stats["queued"] == 0
                    ):
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail(f"ghost work never reclaimed: {stats}")
                # Far fewer classifications ran than were submitted.
                assert stats["tenants"]["ghost"]["delivered"] < len(samples)


    def test_slow_consumer_dropped_at_outbox_cap(self):
        """A client that never reads must not grow server memory without
        bound: once TCP backpressure stalls the writer and the outbox
        hits its cap, the connection is closed instead of buffering."""
        from repro.serving.gateway.server import _Connection

        class _StalledWriter:
            closed = False

            def close(self):
                self.closed = True

        writer = _StalledWriter()
        connection = _Connection(None, writer, max_outbox=4)
        frame = protocol.stats_frame({"x": 1})
        for _ in range(4):
            connection.send(frame)
        assert not connection.closed
        connection.send(frame)  # cap hit: dropped, not buffered
        assert connection.closed and writer.closed
        connection.send(frame)  # post-close sends are silently dropped
        assert connection.outbox.qsize() == 5  # 4 frames + stop sentinel


class TestReload:
    def test_reload_frame_swaps_and_tags_versions(self, fitted, fitted_b, toy_data):
        engine = InferenceEngine(fitted)
        server = GatewayServer(
            engine=engine,
            reload_hook=lambda: engine.swap_system(fitted_b),
        )
        sample = _samples(toy_data, 1)[0]
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port) as client:
                before = client.classify(sample, deadline_ms=0.0)
                assert before.model_version == 0
                reply = client.reload()
                assert reply == {"model_version": 1, "swapped": True}
                after = client.classify(sample, deadline_ms=0.0)
                assert after.model_version == 1
                # Same cloud, new weights: posteriors actually changed.
                assert not np.array_equal(
                    before.gesture_probs, after.gesture_probs
                )
                # Idempotent second reload: same system, no swap.
                assert client.reload() == {"model_version": 1, "swapped": False}

    def test_reload_without_hook_is_an_error(self, fitted):
        server = GatewayServer(fitted)
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port) as client:
                with pytest.raises(GatewayError) as excinfo:
                    client.reload()
                assert excinfo.value.code == "reload_unavailable"
