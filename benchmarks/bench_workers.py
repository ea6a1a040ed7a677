"""Execution-backend frontier: inline vs thread vs process worker pools.

PR 1-3 made the serving stack batch well, but everything still executed
on one thread — the gateway's event loop stalled on every NumPy forward
and one core bounded throughput no matter how many tenants connected.
This bench drives the same localhost-TCP gateway workload
(:mod:`bench_gateway`'s concurrent phase: 8 async clients pipelining
their requests) over each execution backend:

* **inline** — the single-process baseline: exec blocks the event loop;
* **thread** — a thread pool over per-thread replicas: socket IO
  overlaps exec, BLAS releases the GIL;
* **process** — ``--backend process --workers 4``: worker processes
  attached to one read-only mmap'd weight arena, true multi-core exec.

**Fidelity is asserted unconditionally**: every backend's wire results
must be byte-identical to an in-process ``predict_one`` of the same
(float32-quantised) cloud.

**The >= 2x process-vs-inline throughput bar** is asserted in strict
mode only (``BENCH_WORKERS_STRICT`` unset or ``1``) *and* when the host
actually has >= ``MIN_STRICT_CORES`` usable cores — a worker pool cannot
beat the inline path by 2x on a single-core container, and pretending
otherwise would just teach everyone to ignore the bench.  Smoke mode
(``BENCH_WORKERS_STRICT=0``, the CI setting) still runs every backend
end-to-end over real sockets and records the measured frontier in
``benchmarks/results/bench_workers.json``.
"""

import asyncio
import json
import os
import time
from concurrent.futures import wait as wait_futures

import numpy as np
import pytest

from benchmarks.common import (
    RESULTS_DIR,
    cached_fitted_system,
    cached_selfcollected,
    emit,
    format_row,
)
from repro.serving import BatchScheduler, InferenceEngine, create_backend
from repro.serving.gateway import (
    AsyncGatewayClient,
    BackgroundGateway,
    GatewayClient,
    GatewayServer,
    quantise_sample,
)

NUM_CLIENTS = 8
EVENTS_PER_CLIENT = 20  # 8 x 20 = 160 events per backend
FIDELITY_EVENTS = 6
SLO_MS = 50.0
MAX_BATCH = 32
PROCESS_WORKERS = 4
THREAD_WORKERS = 4
#: Acceptance bar: the 4-process pool must at least double the inline
#: (single-process) gateway throughput — asserted in strict mode on
#: hosts with enough cores for the claim to be physically possible.
MIN_SPEEDUP = 2.0
MIN_STRICT_CORES = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _strict() -> bool:
    return (
        os.environ.get("BENCH_WORKERS_STRICT", "1") != "0"
        and _usable_cores() >= MIN_STRICT_CORES
    )


def _samples(count: int, seed: int = 3) -> np.ndarray:
    dataset = cached_selfcollected()
    rng = np.random.default_rng(seed)
    return dataset.inputs[rng.integers(0, dataset.num_samples, size=count)]


def _make_backend(name: str):
    workers = {"inline": None, "thread": THREAD_WORKERS, "process": PROCESS_WORKERS}
    return create_backend(name, workers=workers[name])


def _warm_backend(backend, system, samples: np.ndarray) -> None:
    """Spawn workers / build replicas / export arenas off the clock."""
    batch = np.asarray(samples[:4], dtype=np.float64)
    futures = [backend.submit(system, batch) for _ in range(backend.slots)]
    done, not_done = wait_futures(futures, timeout=180.0)
    assert not not_done, f"{backend.name} backend never warmed up"
    for future in done:
        future.result()  # surface worker import/attach failures here


def _server(system, backend) -> GatewayServer:
    scheduler = BatchScheduler(slo_ms=SLO_MS, max_batch=MAX_BATCH, safety=0.25)
    engine = InferenceEngine(
        system, max_batch_size=MAX_BATCH, scheduler=scheduler, backend=backend
    )
    return GatewayServer(engine=engine)


def _concurrent_phase(host: str, port: int, samples: np.ndarray) -> dict:
    """8 async clients, each pipelining its events on one connection."""

    async def run() -> tuple[int, float]:
        clients = [
            await AsyncGatewayClient.connect(host, port, tenant=f"edge-{i}")
            for i in range(NUM_CLIENTS)
        ]

        async def one_client(index: int, client: AsyncGatewayClient) -> int:
            futures = []
            for j in range(EVENTS_PER_CLIENT):
                sample = samples[(index * EVENTS_PER_CLIENT + j) % len(samples)]
                futures.append(client.submit_nowait(sample)[1])
            await client.drain()
            return len(await asyncio.gather(*futures))

        start = time.perf_counter()
        try:
            counts = await asyncio.gather(
                *(one_client(i, c) for i, c in enumerate(clients))
            )
        finally:
            for client in clients:
                await client.aclose()
        return sum(counts), time.perf_counter() - start

    events, elapsed = asyncio.run(run())
    return {"clients": NUM_CLIENTS, "events": events, "eps": events / elapsed}


def _fidelity_check(host: str, port: int, system, samples: np.ndarray) -> int:
    """Wire results must be byte-identical to in-process predict_one."""
    reference = InferenceEngine(system)
    with GatewayClient(host, port, tenant="fidelity-probe") as client:
        for sample in samples[:FIDELITY_EVENTS]:
            wire = client.classify(sample, deadline_ms=0.0)
            local = reference.predict_one(quantise_sample(sample))
            assert wire.gesture == local.gesture and wire.user == local.user
            assert np.array_equal(wire.gesture_probs, local.gesture_probs)
            assert np.array_equal(wire.user_probs, local.user_probs)
    return FIDELITY_EVENTS


def _run_backend(name: str, system, samples: np.ndarray) -> dict:
    backend = _make_backend(name)
    try:
        _warm_backend(backend, system, samples)
        server = _server(system, backend)
        with BackgroundGateway(server) as (host, port):
            # Best-of-2 rides out machine-wide noise; the first run also
            # finishes fitting the scheduler's latency model.
            phase = max(
                (_concurrent_phase(host, port, samples) for _ in range(2)),
                key=lambda result: result["eps"],
            )
            checked = _fidelity_check(host, port, system, samples)
            snapshot = server.snapshot()
        return {
            **phase,
            "backend": snapshot["engine"]["backend"],
            "fidelity_checked": checked,
            "byte_identical": True,
            "mean_batch": snapshot["engine"]["mean_batch"],
            "executor_wait_ms": snapshot["scheduler"]["executor_wait_ms"],
        }
    finally:
        backend.close()


def _experiment() -> dict:
    system = cached_fitted_system(epochs=4)
    samples = _samples(NUM_CLIENTS * EVENTS_PER_CLIENT)
    backends = {
        name: _run_backend(name, system, samples)
        for name in ("inline", "thread", "process")
    }
    inline_eps = backends["inline"]["eps"]
    return {
        "clients": NUM_CLIENTS,
        "events_per_client": EVENTS_PER_CLIENT,
        "slo_ms": SLO_MS,
        "usable_cores": _usable_cores(),
        "strict": _strict(),
        "backends": backends,
        "speedup_thread": backends["thread"]["eps"] / inline_eps,
        "speedup_process": backends["process"]["eps"] / inline_eps,
    }


def _report(results: dict) -> list[str]:
    widths = (30, 16)
    rows = [
        f"Worker-pool frontier — {NUM_CLIENTS} TCP clients, "
        f"{results['usable_cores']} usable core(s), "
        f"{'strict' if results['strict'] else 'smoke'} mode",
        format_row(("backend", "events/sec"), widths),
    ]
    for name, result in results["backends"].items():
        workers = result["backend"].get("workers", 1)
        rows.append(
            format_row((f"{name} (workers={workers})", f"{result['eps']:.1f}"), widths)
        )
    rows.append(
        format_row(("process speedup", f"{results['speedup_process']:.2f}x"), widths)
    )
    rows.append(
        format_row(("thread speedup", f"{results['speedup_thread']:.2f}x"), widths)
    )
    rows.append(format_row(("wire fidelity", "byte-identical x3"), widths))
    return rows


def _emit_json(results: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_workers.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )


def _check(results: dict) -> None:
    for name, result in results["backends"].items():
        assert result["byte_identical"], f"{name} backend drifted"
        assert result["events"] == NUM_CLIENTS * EVENTS_PER_CLIENT
    if results["strict"]:
        assert results["speedup_process"] >= MIN_SPEEDUP, (
            f"process pool ({PROCESS_WORKERS} workers) reached only "
            f"{results['speedup_process']:.2f}x the inline gateway "
            f"(need >= {MIN_SPEEDUP}x)"
        )


@pytest.mark.benchmark(group="serving")
def test_worker_pool_frontier(benchmark):
    results = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    emit("workers_frontier", _report(results))
    _emit_json(results)
    _check(results)


if __name__ == "__main__":
    results = _experiment()
    print("\n".join(_report(results)))
    _emit_json(results)
    _check(results)
