"""Run one workload of the repo's benchmark and print its metrics.

Usage, from the repository root::

    python3 gpbench/run.py --workload gateway_paced --seed 1 --seconds 25 --trace 0
    python3 gpbench/run.py --workload gateway_paced --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
seed untraced and then traced, and prints the per-layer metrics plus the
tracing overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run's validity record.  A failed correctness gate prints
``"correct": false`` with no metrics and exits 1; a run whose load
generator fell behind its bound exits 3 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    # Measure the checkout's own source, never an installed copy.
    sys.exit(f"error: no program source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gpbench import fixture, gateway, stream  # noqa: E402
from gpbench.stats import GateError  # noqa: E402

WORKLOADS = {
    "gateway_paced": gateway.run,
    "gateway_flood": gateway.run,
    "stream_frames": stream.run,
}

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric.  A workload that bypasses a
#: layer reports 0 for it: the gateway never runs preprocessing or the
#: hub, and the stream has no gateway or scheduler in front of its engine.
PER_LAYER = (
    ("scheduler.hold_ms.p50", "ms"),
    ("scheduler.hold_ms.p99", "ms"),
    ("scheduler.deadline_flushes", "count"),
    ("scheduler.depth_flushes", "count"),
    ("engine.batch_ms.p50", "ms"),
    ("engine.batch_ms.p99", "ms"),
    ("engine.batch_size.mean", "count"),
    ("engine.batches", "count"),
    ("engine.hedged_batches", "count"),
    ("engine.retried_batches", "count"),
    ("pipeline.predict_ms_per_sample", "ms"),
    ("nn.fps_ms", "ms"),
    ("nn.ball_query_ms", "ms"),
    ("nn.group_ms", "ms"),
    ("nn.set_abstraction_self_ms", "ms"),
    ("nn.global_feature_ms", "ms"),
    ("gateway.egress_ms.p50", "ms"),
    ("gateway.egress_ms.p99", "ms"),
    ("gateway.wire_ms.p50", "ms"),
    ("gateway.delivered", "count"),
    ("gateway.shed", "count"),
    ("gateway.rate_limited", "count"),
    ("preprocessing.segment_push_us", "us"),
    ("preprocessing.denoise_ms", "ms"),
    ("preprocessing.denoise_points", "count"),
    ("preprocessing.normalize_ms", "ms"),
    ("realtime.prepare_span_ms", "ms"),
    ("hub.push_round_ms.p50", "ms"),
    ("hub.push_round_ms.p99", "ms"),
    ("hub.engine_batch_size.mean", "count"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.unattributed_ms.p50", "ms"),
)


def environment() -> dict:
    """Host facts a reader needs to compare two runs."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    thread_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_thread_env": {key: os.environ.get(key) for key in thread_env},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "model_config_sha256": fixture.config_hash(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run_dir = fixture.WORK_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        record = WORKLOADS[args.workload](
            args.workload, args.seed, args.seconds, run_dir, trace=bool(args.trace))
    except GateError as error:
        print(json.dumps({"gate": str(error)}), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = record["plain"]
    phases = [plain] + ([record["traced"]] if args.trace else [])
    lag_p99 = max((phase.get("lag_p99_ms", 0.0) for phase in phases), default=0.0)
    validity = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(),
        "input_sha256": record["input_sha256"],
        "generator_lag_p99_ms": lag_p99,
        "generator_lag_bound_ms": gateway.LAG_P99_BOUND_MS,
        "valid": lag_p99 <= gateway.LAG_P99_BOUND_MS,
        "detail": {k: v for k, v in plain.items() if k != "layers"},
    }
    if args.trace:
        validity["largest_stage"] = max(
            record["traced"]["layers"]["stage_ms"].items(), key=lambda kv: kv[1])[0]
        validity["stage_ms"] = record["traced"]["layers"]["stage_ms"]
    print(json.dumps(validity, default=str))
    if not validity["valid"]:
        return 3

    if args.trace:
        traced = record["traced"]
        layers = dict(traced["layers"])
        layers["trace.overhead_p50_pct"] = (traced["p50_ms"] / plain["p50_ms"] - 1.0) * 100.0
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
        attempted, failed = traced["attempted"], traced["failed"]
    else:
        metrics = {name: {"value": float(plain[name]), "unit": unit}
                   for name, unit in END_TO_END}
        attempted, failed = plain["attempted"], plain["failed"]
    print(json.dumps({
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
