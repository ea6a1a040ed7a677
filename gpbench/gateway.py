"""The two gateway workloads: ``repro serve --listen`` driven over TCP.

One client process holds one connection per tenant (the protocol binds
a tenant at HELLO) and sends an open-loop Poisson schedule fixed by the
seed before timing starts.  Each request is timed from its due time, so
a stall also charges the requests queued behind it.  The server is a
child process started through :mod:`gpbench.serve_child`; the traced
run switches on its lifecycle JSONL (``--trace-log``), the forward-pass
probes and STATS snapshots, and nothing else.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from gpbench import fixture, hostspeed, probes
from gpbench.stats import (
    GateError,
    check_identical,
    median,
    peak_rss_mb,
    percentile,
    poisson_schedule,
    posterior_bytes,
    stage_split,
)
from repro.core.persistence import load_system
from repro.serving import InferenceEngine
from repro.serving.gateway import AsyncGatewayClient, GatewayClient, GatewayError
from repro.serving.gateway.protocol import WireResult, quantise_sample

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass(frozen=True)
class GatewayWorkload:
    rate_per_s: float
    #: Tenant ids, one connection each, and their share of arrivals.
    tenants: tuple[str, ...]
    mix: tuple[float, ...]


WORKLOADS = {
    # Mostly idle: latency is the scheduler's hold plus a batch-1 pass.
    "gateway_paced": GatewayWorkload(
        rate_per_s=20.0,
        tenants=("bench-standard", "bench-premium"),
        mix=(0.9, 0.1),
    ),
    # Busy enough that every pass is a multi-sample batch (about six), yet
    # under capacity in the host's slow phases: at 240/s batches were always
    # full and runs in a 1.6x-slower phase overloaded the server.
    "gateway_flood": GatewayWorkload(
        rate_per_s=160.0,
        tenants=("bench-premium", "bench-standard", "bench-batch"),
        mix=(0.2, 0.3, 0.5),
    ),
}

#: The tenant whose p99 the validity record reports as ``premium_p99_ms``.
PREMIUM = "bench-premium"

#: The stock SLO tiers, assigned by tenant id.
TENANTS_CONFIG = {
    "tenants": {
        "bench-premium": "premium",
        "bench-standard": "standard",
        "bench-batch": "batch",
    },
    "default_class": "standard",
}

#: Leading part of every schedule that warms the server and is not counted.
WARMUP_S = 2.0
#: Server spawns per run whose spawn-to-first-reply times give ``setup_s``.
SETUP_SPAWNS = 7
#: How long stragglers may take once the schedule has been sent.
DRAIN_TIMEOUT_S = 30.0
#: Generator lateness (p99, ms) past which the run is invalid.
LAG_P99_BOUND_MS = 25.0


# ----------------------------------------------------------------------
class ServerChild:
    """One ``repro serve --listen`` child and its lifecycle."""

    def __init__(self, run_dir: pathlib.Path, model_dir, *, tag: str, traced: bool) -> None:
        self.trace_log = run_dir / f"{tag}.traces.jsonl" if traced else None
        self.probe_out = run_dir / f"{tag}.probes.json" if traced else None
        argv = [sys.executable, str(HERE / "serve_child.py")]
        if self.probe_out is not None:
            argv += ["--probe-out", str(self.probe_out)]
        argv += [
            "serve", "--model-dir", str(model_dir), "--listen", "127.0.0.1:0",
            "--tenants", str(run_dir / "tenants.json"),
        ]
        if self.trace_log is not None:
            argv += ["--trace-log", str(self.trace_log)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._stderr = open(run_dir / f"{tag}.stderr", "wb")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._stderr, env=env, cwd=str(ROOT)
        )

    def wait_listening(self, timeout_s: float = 120.0) -> tuple[str, int]:
        """The bound address from the child's first JSON stdout line."""
        deadline = time.monotonic() + timeout_s
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("server child did not start listening in time")
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(f"server child exited with {self.proc.wait()}")
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(message, dict) and "listening" in message:
                    host, _, port = message["listening"].rpartition(":")
                    return host, int(port)

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM (the CLI's graceful drain), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        finally:
            self._stderr.close()


# ----------------------------------------------------------------------
@dataclass
class Drive:
    """Everything one open-loop phase observed, client side."""

    start: float
    sent: np.ndarray
    received: np.ndarray
    outcomes: list
    request_ids: np.ndarray
    slo_ms: list
    orphans: int
    stats_before: dict | None = None
    stats_after: dict | None = None


async def _drive(address, workload: GatewayWorkload, pool, schedule, *, traced: bool) -> Drive:
    clients = []
    try:
        for tenant in workload.tenants:
            clients.append(await AsyncGatewayClient.connect(
                *address, tenant=tenant, client=f"gpbench-{tenant}"))
        return await _send_schedule(clients, pool, schedule, traced=traced)
    finally:
        for client in clients:
            await client.aclose()


async def _send_schedule(clients, pool, schedule, *, traced: bool) -> Drive:
    """Send every request at its due time, then wait for every outcome."""
    due, tenant_of, sample_of = schedule
    loop = asyncio.get_running_loop()
    orphans = [0]

    def count_orphan(_frame) -> None:
        orphans[0] += 1

    for client in clients:
        client.on_orphan = count_orphan
    n = due.size
    sent = np.full(n, np.nan)
    received = np.full(n, np.nan)
    request_ids = np.zeros(n, dtype=np.int64)
    outcomes: list = [None] * n

    def on_done(index: int, future: asyncio.Future) -> None:
        received[index] = loop.time()
        error = future.exception()
        outcomes[index] = error if error is not None else future.result()

    futures = []
    stats_task = None
    start = loop.time() + 0.05
    for index in range(n):
        delay = start + due[index] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if traced and stats_task is None and due[index] >= WARMUP_S:
            stats_task = asyncio.create_task(clients[0].stats())
        client = clients[tenant_of[index]]
        sent[index] = loop.time()
        request_id, future = client.submit_nowait(pool[sample_of[index]])
        request_ids[index] = request_id
        future.add_done_callback(partial(on_done, index))
        futures.append(future)
        if index % 8 == 7:
            await client.drain()
    await asyncio.wait(futures, timeout=DRAIN_TIMEOUT_S)
    result = Drive(
        start=start, sent=sent, received=received, outcomes=outcomes,
        request_ids=request_ids, slo_ms=[client.slo_ms for client in clients],
        orphans=orphans[0],
    )
    if traced:
        result.stats_before = await stats_task
        result.stats_after = await clients[0].stats()
    return result


# ----------------------------------------------------------------------
class GatewayBench:
    """Inputs, reference results and server lifecycle for one run."""

    def __init__(self, name: str, seed: int, seconds: float, run_dir: pathlib.Path) -> None:
        self.workload = WORKLOADS[name]
        self.seconds = float(seconds)
        self.run_dir = run_dir
        self.model_dir = fixture.bundle_dir()
        (run_dir / "tenants.json").write_text(json.dumps(TENANTS_CONFIG))
        rng = np.random.default_rng(seed)
        pool = fixture.gateway_pool(seed)
        schedule = poisson_schedule(
            rng,
            rate_per_s=self.workload.rate_per_s,
            duration_s=WARMUP_S + self.seconds,
            mix=self.workload.mix,
            pool_size=pool.shape[0],
        )
        inputs, self.input_sha256 = fixture.write_gateway_inputs(run_dir, pool, schedule)
        self.pool = inputs["pool"]
        self.schedule = (inputs["due_s"], inputs["tenant"], inputs["sample"])
        # The in-process reference every wire result must match.
        engine = InferenceEngine(load_system(self.model_dir))
        self.expected = []
        for sample in self.pool:
            result = engine.predict_one(quantise_sample(sample))
            self.expected.append(posterior_bytes(
                result.gesture, result.user, result.gesture_probs, result.user_probs))

    def _check_reply(self, reply: WireResult, sample_index: int, what: str) -> None:
        check_identical(
            posterior_bytes(reply.gesture, reply.user, reply.gesture_probs, reply.user_probs),
            self.expected[sample_index],
            what=what,
        )

    def setup_times(self) -> tuple[list[float], list[float], ServerChild, tuple[str, int]]:
        """Seconds from spawn to first correct reply, and the start-up
        calibrations taken between spawns; the last server stays up."""
        times, calibrations = [], [hostspeed.startup_s(ROOT)]
        for attempt in range(SETUP_SPAWNS):
            start = time.perf_counter()
            child = ServerChild(self.run_dir, self.model_dir, tag=f"setup{attempt}", traced=False)
            try:
                address = child.wait_listening()
                with GatewayClient(*address, tenant=self.workload.tenants[0]) as client:
                    reply = client.classify(self.pool[0], deadline_ms=0.0)
                self._check_reply(reply, 0, "setup probe")
                times.append(time.perf_counter() - start)
                calibrations.append(hostspeed.startup_s(ROOT))
            except BaseException:
                child.stop()
                raise
            if attempt < SETUP_SPAWNS - 1:
                child.stop()
        return times, calibrations, child, address

    def phase(self, *, traced: bool, child: ServerChild | None = None,
              address=None) -> dict:
        """One open-loop pass over the schedule; returns its measurements."""
        if child is None:
            child = ServerChild(self.run_dir, self.model_dir,
                                tag="traced" if traced else "plain", traced=traced)
        try:
            if address is None:
                address = child.wait_listening()
            drive = asyncio.run(_drive(address, self.workload, self.pool, self.schedule,
                                       traced=traced))
            # VmHWM of the server, the process running the model.
            rss_mb = peak_rss_mb(child.proc.pid)
        finally:
            child.stop()
        measured = self._evaluate(drive)
        measured["peak_rss_mb"] = rss_mb
        if traced:
            measured["layers"] = self._layers(drive, child)
        return measured

    # ------------------------------------------------------------------
    def _evaluate(self, drive: Drive) -> dict:
        """Gate every outcome; summarise the timed (post-warm-up) window."""
        due, tenant_of, sample_of = self.schedule
        if drive.orphans:
            raise GateError(f"{drive.orphans} result/error frame(s) arrived twice")
        latency_ms, lag_ms, premium_ms = [], [], []
        attempted = failed = good = 0
        codes: dict[str, int] = {}
        premium = self.workload.tenants.index(PREMIUM)
        for index, outcome in enumerate(drive.outcomes):
            timed = due[index] >= WARMUP_S
            if isinstance(outcome, WireResult):
                self._check_reply(outcome, int(sample_of[index]), f"request {index}")
            elif isinstance(outcome, GatewayError):
                codes[outcome.code] = codes.get(outcome.code, 0) + 1
            else:
                raise GateError(f"request {index} ended without a result or error frame "
                                f"({outcome!r})")
            if not timed:
                continue
            attempted += 1
            lag_ms.append((drive.sent[index] - drive.start - due[index]) * 1e3)
            if not isinstance(outcome, WireResult):
                failed += 1
                continue
            latency = (drive.received[index] - drive.start - due[index]) * 1e3
            latency_ms.append(latency)
            slo = drive.slo_ms[tenant_of[index]]
            good += slo is None or latency <= slo
            if tenant_of[index] == premium:
                premium_ms.append(latency)
        if not latency_ms:
            raise GateError("no request in the timed window was delivered")
        result = {
            "attempted": attempted,
            "failed": failed,
            "error_codes": codes,
            "p50_ms": percentile(latency_ms, 50),
            "p90_ms": percentile(latency_ms, 90),
            "p99_ms": percentile(latency_ms, 99),
            "goodput_rps": good / self.seconds,
            "samples": len(latency_ms),
            "lag_p99_ms": percentile(lag_ms, 99),
            "lag_max_ms": max(lag_ms),
        }
        if premium_ms:
            result["premium_p99_ms"] = percentile(premium_ms, 99)
            result["premium_samples"] = len(premium_ms)
        return result

    def _layers(self, drive: Drive, child: ServerChild) -> dict:
        """Per-layer metrics from the trace JSONL, STATS and probes."""
        due, tenant_of, _ = self.schedule
        records: dict[tuple[str, int], dict] = {}
        with open(child.trace_log, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                key = (record["tenant"], record["request_id"])
                if key in records:
                    raise GateError(f"request {key} has two terminal trace records")
                records[key] = record
        stages: dict[str, list[float]] = {}
        terminals = {"delivered": 0, "shed": 0, "rate_limited": 0}
        for index in range(due.size):
            key = (self.workload.tenants[tenant_of[index]], int(drive.request_ids[index]))
            record = records.get(key)
            if record is None:
                raise GateError(f"request {key} has no terminal trace record")
            if due[index] < WARMUP_S:
                continue
            if record["terminal"] == "delivered":
                terminals["delivered"] += 1
            elif record["code"] in ("shed", "rate_limited"):
                terminals[record["code"]] += 1
            if not isinstance(drive.outcomes[index], WireResult):
                continue
            base = drive.start + due[index]
            split = stage_split(
                record,
                client_ms=(drive.received[index] - base) * 1e3,
                roundtrip_ms=(drive.received[index] - drive.sent[index]) * 1e3,
            )
            for stage, value in split.items():
                stages.setdefault(stage, []).append(value)
        before, after = drive.stats_before, drive.stats_after

        def delta(section: str, key: str) -> int:
            return int(after[section][key]) - int(before[section][key])

        batches = delta("engine", "batches")
        with open(child.probe_out, encoding="utf-8") as handle:
            forward = probes.forward_metrics(json.load(handle))
        layers = {
            "scheduler.hold_ms.p50": percentile(stages["hold"], 50),
            "scheduler.hold_ms.p99": percentile(stages["hold"], 99),
            "scheduler.deadline_flushes": delta("scheduler", "deadline_flushes"),
            "scheduler.depth_flushes": delta("scheduler", "depth_flushes"),
            "engine.batch_ms.p50": percentile(stages["batch"], 50),
            "engine.batch_ms.p99": percentile(stages["batch"], 99),
            "engine.batch_size.mean": (
                delta("engine", "batched_samples") / batches if batches else 0.0),
            "engine.batches": batches,
            "engine.hedged_batches": delta("engine", "hedged_batches"),
            "engine.retried_batches": delta("engine", "retried_batches"),
            "gateway.egress_ms.p50": percentile(stages["egress"], 50),
            "gateway.egress_ms.p99": percentile(stages["egress"], 99),
            "gateway.wire_ms.p50": percentile(stages["wire"], 50),
            "gateway.delivered": terminals["delivered"],
            "gateway.shed": terminals["shed"],
            "gateway.rate_limited": terminals["rate_limited"],
            "trace.unattributed_ms.p50": percentile(stages["unattributed"], 50),
            **forward,
        }
        layers["stage_ms"] = {
            stage: median(values) for stage, values in stages.items()
            if stage in ("admit", "hold", "batch", "egress", "wire")
        }
        return layers


def run(name: str, seed: int, seconds: float, run_dir: pathlib.Path, *, trace: bool) -> dict:
    """One benchmark run of a gateway workload (see ``gpbench/run.py``)."""
    bench = GatewayBench(name, seed, seconds, run_dir)
    record = {"input_sha256": bench.input_sha256}
    if not trace:
        times, calibrations, child, address = bench.setup_times()
        measured = bench.phase(traced=False, child=child, address=address)
        measured["setup_s"] = median([
            hostspeed.scaled(raw, before, after, hostspeed.STARTUP_REFERENCE_S)
            for raw, before, after in zip(times, calibrations, calibrations[1:])
        ])
        measured["raw_setup_s"] = times
        measured["setup_calibration_drift_max"] = max(hostspeed.drift(calibrations))
        record["plain"] = measured
        return record
    record["plain"] = bench.phase(traced=False)
    record["traced"] = bench.phase(traced=True)
    return record
