"""Tail-latency killers: request hedging and the float32 fast path.

PR 5 healed *dead* workers, but a worker that hangs (stuck syscall,
page-fault storm, runaway GC) holds its batch hostage until the
supervisor's hang deadline — seconds of p99 for a pool that is
otherwise healthy.  This bench drives the two tail cures end to end:

* **Tail phase** — a paced request stream (bursts of ``BURST`` arrivals
  every ``BURST_PERIOD_S``, each burst submitted together and dispatched
  as one micro-batch by the next poll that finds a free slot) runs over
  a 2-worker process pool while ``inject_fault("hang_in_task")`` wedges
  a worker at three points during the run.  Dispatch is work-conserving,
  so the healthy latency distribution is *narrow*: p50 ≈ exec plus
  executor queueing.  The *baseline* leg serves with hedging off: every
  hang stalls its batch for the full hang deadline and the run's p99
  explodes past ``TAIL_RATIO`` x p50.  The *hedged* leg re-runs the
  identical schedule with ``hedge_ms`` armed (plus worker CPU pinning):
  outlived batches are duplicated to a spare slot, first result wins,
  and the victims land at threshold + exec, which the strict-mode bar
  holds under ``TAIL_RATIO`` x p50.  Both legs assert zero lost /
  duplicated / failed tickets unconditionally — hedging must never
  double-deliver.
* **Precision phase** — a full-size random-weight parallel system runs
  one batch through the float64 reference and the ``apply_precision``
  float32 / int8 variants: the float32 fast path must clear
  ``SPEEDUP_FLOOR`` x single-batch speedup *and* pass the fidelity gate
  (posterior drift + EER delta) that ``repro serve`` applies before
  switching precision.

Latency-ratio and speedup bars are asserted in strict mode only
(``BENCH_TAIL_STRICT`` unset or ``1`` *and* >= ``MIN_STRICT_CORES``
usable cores); smoke mode (``BENCH_TAIL_STRICT=0``, the CI setting)
still runs every leg and records the measured numbers in
``benchmarks/results/bench_tail.json``.
"""

import json
import os
import time

import numpy as np
import pytest

from benchmarks.common import (
    RESULTS_DIR,
    cached_fitted_system,
    cached_selfcollected,
    emit,
    format_row,
    latency_summary,
)
from repro.core import GesturePrint, GesturePrintConfig, IdentificationMode
from repro.core.gesidnet import GesIDNet, GesIDNetConfig
from repro.serving import (
    BatchScheduler,
    InferenceEngine,
    ProcessPoolBackend,
)
from repro.serving.observability import MetricsRegistry, parse_text, render_text
from repro.serving.precision import apply_precision, assert_fidelity, fidelity_report

WORKERS = 2
HEARTBEAT_MS = 50.0
SLO_MS = 150.0
MAX_BATCH = 8
TOTAL_REQUESTS = 240
#: Arrival shape: ``BURST`` requests land together every
#: ``BURST_PERIOD_S``.  The burst is smaller than ``MAX_BATCH``, so it
#: leaves as one batch on the free-slot trigger, and the period far
#: exceeds a batch's execution so bursts never merge into one oversized
#: batch with smeared waits.
BURST = 4
BURST_PERIOD_S = 0.15
HEDGE_MS = "auto"  # scheduler-fitted tail threshold, not a guessed constant
#: Hang deadline for the supervisor.  Deliberately long: the baseline
#: leg pays it in full (that is the disease), the hedged leg's duplicate
#: dispatch wins the race long before it (that is the cure).
HANG_TIMEOUT_S = 0.5
HANG_FRACTIONS = (0.25, 0.5, 0.75)
PHASE_TIMEOUT_S = 180.0
TAIL_RATIO = 2.0
SPEEDUP_FLOOR = 1.5
PRECISION_BATCH = 64
PRECISION_REPEATS = 5
MIN_STRICT_CORES = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _strict() -> bool:
    return (
        os.environ.get("BENCH_TAIL_STRICT", "1") != "0"
        and _usable_cores() >= MIN_STRICT_CORES
    )


def _samples(count: int, seed: int = 7) -> np.ndarray:
    dataset = cached_selfcollected()
    rng = np.random.default_rng(seed)
    return dataset.inputs[rng.integers(0, dataset.num_samples, size=count)]


def _scraped_counters(metrics: MetricsRegistry) -> dict:
    """End-of-leg /metrics scrape (in-process render + parse).

    The hedge/retry counters this bench's JSON records from
    ``engine.stats``, pulled back out through the exposition text a
    Prometheus scraper would see — ``_check`` holds the two equal, so a
    dashboard's hedge-rate panel cannot drift from ground truth.
    """
    page = parse_text(render_text(metrics))
    label = (("backend", "process"),)

    def counter(name: str) -> float:
        return page.get((name, label), 0.0)

    return {
        "hedged_batches": counter("repro_engine_hedged_batches_total"),
        "hedge_wins": counter("repro_engine_hedge_wins_total"),
        "retried_batches": counter("repro_engine_retried_batches_total"),
        "crashes": counter("repro_backend_crashes_total"),
    }


def _phase_tail(system, *, hedge_ms, pin_cores: bool) -> dict:
    """One paced-burst leg: steady load + three injected hangs."""
    samples = _samples(TOTAL_REQUESTS)
    hang_points = {max(int(TOTAL_REQUESTS * f), 1) for f in HANG_FRACTIONS}
    metrics = MetricsRegistry()  # fresh per leg: counters stay per-run
    scheduler = BatchScheduler(slo_ms=SLO_MS, max_batch=MAX_BATCH)
    backend = ProcessPoolBackend(
        workers=WORKERS,
        heartbeat_ms=HEARTBEAT_MS,
        hang_timeout_s=HANG_TIMEOUT_S,
        max_respawns=8,
        pin_cores=pin_cores,
        metrics=metrics,
    )
    engine = InferenceEngine(
        system,
        max_batch_size=MAX_BATCH,
        scheduler=scheduler,
        backend=backend,
        hedge_ms=hedge_ms,
        metrics=metrics,
    )
    try:
        # Warm-up off the clock: the first batch pays worker spawn and
        # arena export/attach, which would poison the exec EWMA — and
        # with it the auto hedge threshold's 2x(predicted + wait) floor
        # — for the first injected hang.  Run enough batches that the
        # model converges to steady-state exec before measuring.
        for _ in range(8):
            engine.predict_many(samples[:BURST])
        delivered: dict[int, int] = {}
        failed: list[int] = []
        latencies: list[float] = []
        submitted = 0
        hangs = 0
        pending_hangs = sorted(hang_points)
        hard_deadline = time.monotonic() + PHASE_TIMEOUT_S
        next_burst = time.monotonic()
        while sum(delivered.values()) + len(failed) < TOTAL_REQUESTS:
            assert time.monotonic() < hard_deadline, "tail phase wedged"
            # Hangs are serialized: the next one arms only once the pool
            # healed from the last (two simultaneous hangs wedge the
            # whole 2-worker pool, which tests the respawn path, not
            # hedging).  Arm only while *every* worker is idle: both
            # ``inject_fault`` and the dispatcher pick the first idle
            # worker in pool order, so a fully idle pool guarantees the
            # armed worker is the one the next batch lands on — arming
            # while one worker is busy can leave the trap on a worker
            # the light paced load never routes to again.
            if pending_hangs and submitted >= pending_hangs[0]:
                health = backend.describe()
                healed = (
                    health["alive_workers"] == WORKERS
                    and health["crashes"] == hangs
                    and all(
                        not row["busy"]
                        for row in health["worker_health"]
                        if row["alive"]
                    )
                )
                if healed and backend.inject_fault("hang_in_task") is not None:
                    hangs += 1
                    pending_hangs.pop(0)
            if submitted < TOTAL_REQUESTS and time.monotonic() >= next_burst:
                for _ in range(min(BURST, TOTAL_REQUESTS - submitted)):
                    index = submitted
                    submitted_at = engine.clock()

                    def on_result(_result, index=index, submitted_at=submitted_at):
                        delivered[index] = delivered.get(index, 0) + 1
                        latencies.append(engine.clock() - submitted_at)

                    def on_error(_error, index=index):
                        failed.append(index)

                    engine.submit(
                        samples[index],
                        deadline_ms=SLO_MS,
                        callback=on_result,
                        on_error=on_error,
                        # poll() right below dispatches without blocking;
                        # a plain submit would auto-flush *synchronously*
                        # on a full batch and serialize the whole run.
                        defer_flush=True,
                    )
                    submitted += 1
                # No catch-up after a slow iteration: missed slots are
                # dropped, never compressed into a backlog burst.
                next_burst = max(next_burst, time.monotonic()) + BURST_PERIOD_S
            engine.poll()
            time.sleep(0.001)
        engine.flush(raise_on_error=False)
        health = backend.describe()
        tail = latency_summary(latencies, scale=1e3)
        pinned = [
            row.get("pinned_cpu")
            for row in health["worker_health"]
            if row.get("pinned_cpu") is not None
        ]
        return {
            "hedge_ms": None if hedge_ms is None else hedge_ms,
            "requests": TOTAL_REQUESTS,
            "delivered": sum(delivered.values()),
            "duplicates": sum(1 for count in delivered.values() if count > 1),
            "lost": TOTAL_REQUESTS - len(delivered) - len(failed),
            "failed": len(failed),
            "hangs_injected": hangs,
            "hedged_batches": engine.stats.hedged_batches,
            "hedge_wins": engine.stats.hedge_wins,
            "retried_batches": engine.stats.retried_batches,
            "excluded_latency_samples": scheduler.stats.excluded_latency_samples,
            "crashes": health["crashes"],
            "respawns": health["respawns"],
            "prefetched_pages": health["prefetched_pages"],
            "pinned_cpus": pinned,
            "p50_ms": round(tail["p50"], 2),
            "p95_ms": round(tail["p95"], 2),
            "p99_ms": round(tail["p99"], 2),
            "max_ms": round(tail["max"], 2),
            "tail_ratio": round(tail["p99"] / tail["p50"], 2),
            "scrape": _scraped_counters(metrics),
        }
    finally:
        backend.close()


def _random_parallel_system(seed: int = 3) -> GesturePrint:
    """Full-size random-weight system: inference cost without a fit()."""
    config = GesturePrintConfig(
        network=GesIDNetConfig(), mode=IdentificationMode.PARALLEL
    )
    system = GesturePrint(config)
    system.num_gestures = 6
    system.num_users = 8
    rng = np.random.default_rng(seed)
    system.gesture_model = GesIDNet(6, config.network, rng=rng)
    system.gesture_model.eval()
    system.parallel_user_model = GesIDNet(8, config.network, rng=rng)
    system.parallel_user_model.eval()
    return system


def _time_predict(system, batch) -> float:
    best = float("inf")
    for _ in range(PRECISION_REPEATS):
        start = time.perf_counter()
        system.predict(batch)
        best = min(best, time.perf_counter() - start)
    return best


def _phase_precision() -> dict:
    system = _random_parallel_system()
    network = system.config.network
    rng = np.random.default_rng(17)
    batch = rng.standard_normal(
        (PRECISION_BATCH, network.num_points, max(3, network.in_feature_channels))
    )
    labels = rng.integers(0, system.num_users, size=PRECISION_BATCH)

    float32 = apply_precision(system, "float32")
    int8 = apply_precision(system, "int8")
    reference_s = _time_predict(system, batch)
    float32_s = _time_predict(float32, batch)

    # The same gate `repro serve --precision` applies before switching.
    float32_gate = assert_fidelity(
        fidelity_report(system, float32, batch, user_labels=labels)
    ).to_dict()
    int8_report = fidelity_report(system, int8, batch, user_labels=labels).to_dict()
    return {
        "batch": PRECISION_BATCH,
        "float64_ms": round(reference_s * 1e3, 2),
        "float32_ms": round(float32_s * 1e3, 2),
        "speedup": round(reference_s / float32_s, 3),
        "float32_gate": float32_gate,
        "int8_report": int8_report,
    }


def _experiment() -> dict:
    system = cached_fitted_system(epochs=4)
    return {
        "workers": WORKERS,
        "heartbeat_ms": HEARTBEAT_MS,
        "hang_timeout_s": HANG_TIMEOUT_S,
        "burst": BURST,
        "burst_period_s": BURST_PERIOD_S,
        "usable_cores": _usable_cores(),
        "strict": _strict(),
        "baseline": _phase_tail(system, hedge_ms=None, pin_cores=False),
        "hedged": _phase_tail(system, hedge_ms=HEDGE_MS, pin_cores=True),
        "precision": _phase_precision(),
    }


def _report(results: dict) -> list[str]:
    baseline, hedged, precision = (
        results["baseline"],
        results["hedged"],
        results["precision"],
    )
    widths = (34, 22)
    return [
        f"Tail-latency killers — {results['workers']} workers, "
        f"{baseline['hangs_injected']} hangs injected per leg, "
        f"{'strict' if results['strict'] else 'smoke'} mode",
        format_row(("metric", "value"), widths),
        format_row(
            ("baseline p50 / p99", f"{baseline['p50_ms']} / {baseline['p99_ms']} ms"),
            widths,
        ),
        format_row(("baseline p99 / p50 ratio", baseline["tail_ratio"]), widths),
        format_row(
            ("hedged p50 / p99", f"{hedged['p50_ms']} / {hedged['p99_ms']} ms"),
            widths,
        ),
        format_row(("hedged p99 / p50 ratio", hedged["tail_ratio"]), widths),
        format_row(
            ("hedges placed -> won",
             f"{hedged['hedged_batches']} -> {hedged['hedge_wins']}"),
            widths,
        ),
        format_row(
            ("tickets lost / duplicated",
             f"{baseline['lost'] + hedged['lost']} / "
             f"{baseline['duplicates'] + hedged['duplicates']}"),
            widths,
        ),
        format_row(("pinned cpus", hedged["pinned_cpus"] or "-"), widths),
        format_row(("prefetched pages", hedged["prefetched_pages"]), widths),
        format_row(
            ("float32 speedup (batch "
             f"{precision['batch']})", f"{precision['speedup']}x"),
            widths,
        ),
        format_row(
            ("float32 EER delta",
             precision["float32_gate"]["eer_delta"]),
            widths,
        ),
    ]


def _emit_json(results: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_tail.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )


def _check(results: dict) -> None:
    baseline, hedged, precision = (
        results["baseline"],
        results["hedged"],
        results["precision"],
    )
    # Delivery invariants hold on any host, loaded or not: hedging must
    # never lose a ticket or deliver one twice.
    for name, leg in (("baseline", baseline), ("hedged", hedged)):
        assert leg["lost"] == 0, f"{name}: lost {leg['lost']} tickets"
        assert leg["duplicates"] == 0, f"{name}: a hedged batch delivered twice"
        assert leg["failed"] == 0, f"{name}: {leg['failed']} tickets failed"
        assert leg["hangs_injected"] == len(HANG_FRACTIONS)
        # The leg's /metrics scrape must agree with engine.stats exactly
        # — a hedge-rate dashboard drifting from ground truth is a bug.
        for key in ("hedged_batches", "hedge_wins", "retried_batches", "crashes"):
            assert leg["scrape"][key] == float(leg[key]), (
                f"{name}: scraped {key} {leg['scrape'][key]} "
                f"!= observed {leg[key]}"
            )
    assert baseline["hedged_batches"] == 0, "hedging fired with hedge_ms=None"
    assert hedged["hedged_batches"] >= 1, "no batch outlived the hedge threshold"
    assert hedged["hedge_wins"] >= 1, "no hedge beat its hung primary"
    assert hedged["excluded_latency_samples"] >= hedged["hedged_batches"], (
        "hedged deliveries leaked into the scheduler's latency window"
    )
    # The serve-time fidelity gate is deterministic — assert it everywhere.
    gate = precision["float32_gate"]
    assert gate["gesture_agreement"] == 1.0 and gate["user_agreement"] == 1.0
    if results["strict"]:
        assert baseline["tail_ratio"] > TAIL_RATIO, (
            f"baseline p99/p50 {baseline['tail_ratio']}: the hangs never "
            f"showed up in the tail (bound > {TAIL_RATIO})"
        )
        assert hedged["tail_ratio"] <= TAIL_RATIO, (
            f"hedged p99/p50 {hedged['tail_ratio']}: hedging did not "
            f"contain the tail (bound <= {TAIL_RATIO})"
        )
        assert hedged["p99_ms"] < baseline["p99_ms"], (
            "hedging did not improve absolute p99"
        )
        assert precision["speedup"] >= SPEEDUP_FLOOR, (
            f"float32 fast path {precision['speedup']}x "
            f"(floor {SPEEDUP_FLOOR}x)"
        )
        assert hedged["prefetched_pages"] > 0, (
            "workers attached the arena without prefetching its pages"
        )


@pytest.mark.benchmark(group="serving")
def test_tail_latency_killers(benchmark):
    results = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    emit("tail_killers", _report(results))
    _emit_json(results)
    _check(results)


if __name__ == "__main__":
    results = _experiment()
    print("\n".join(_report(results)))
    _emit_json(results)
    _check(results)
