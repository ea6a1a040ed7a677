"""The ``stream_frames`` workload: recorded radar streams through one hub.

Closed loop: 8 streams (4 office, 4 meeting-room recordings) are pushed
through one :class:`~repro.serving.StreamHub` with ``push_round``, back
to back, with no SLO.  A replay is one pass over every stream's frames
with a fresh hub; the run repeats replays until ``--seconds`` of replay
time has passed, and every replay's events must equal a standalone
:class:`~repro.core.GesturePrintRuntime` replay of the same frames with
the same seed.

The run's own process makes the recordings and the standalone
reference; the replays run in a fresh child process
(``python3 -m gpbench.stream``) that only reads those back, loads the
model and replays.  So ``peak_rss_mb`` is the peak of a process that
runs the model and nothing else: not the radar simulation, not the
reference runtime, not the one-off fit of the bundle.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np

from gpbench import fixture, hostspeed, probes
from gpbench.stats import GateError, median, peak_rss_mb, percentile, posterior_bytes
from repro.core import GesturePrintRuntime
from repro.core.persistence import load_system
from repro.serving import InferenceEngine, StreamHub, Tracer, derive_stream_seed

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Set-up replays per run whose model-load-to-first-event times give
#: ``setup_s``.
SETUP_REPEATS = 9
#: The standalone reference events, hex per stream, handed to the child.
REFERENCE_FILE = "stream_reference.json"
#: How long the replay child may take (the whole run must end in 180 s).
CHILD_TIMEOUT_S = 150.0


def _event_key(event) -> bytes:
    """Everything an event reports, as exact bytes."""
    head = np.asarray(
        [event.start_frame, event.end_frame, event.num_points], dtype=np.int64
    ).tobytes()
    confidences = np.asarray(
        [event.gesture_confidence, event.user_confidence], dtype=np.float64
    ).tobytes()
    return head + confidences + posterior_bytes(
        event.gesture, event.user, [], event.user_probs)


def _rounds(streams: dict, lead: dict[str, int]) -> list[dict]:
    """Round ``r`` carries frame ``r - lead[stream]`` of every started stream."""
    total = max(lead[stream_id] + len(data["frames"]) for stream_id, data in streams.items())
    rounds = []
    for index in range(total):
        frames = {}
        for stream_id, data in streams.items():
            offset = index - lead[stream_id]
            if 0 <= offset < len(data["frames"]):
                frames[stream_id] = data["frames"][offset]
        rounds.append(frames)
    return rounds


def reference_events(system, seed: int, streams: dict) -> dict[str, list[bytes]]:
    """Each stream replayed alone through a standalone runtime."""
    reference = {}
    for stream_id, data in streams.items():
        runtime = GesturePrintRuntime(system, seed=derive_stream_seed(seed, stream_id))
        events = [runtime.push_frame(frame) for frame in data["frames"]]
        events.append(runtime.flush())
        reference[stream_id] = [_event_key(e) for e in events if e is not None]
    return reference


class StreamBench:
    """The replays of one run, gated against the standalone reference."""

    def __init__(self, seed: int, seconds: float, model_dir: pathlib.Path,
                 streams: dict, reference: dict[str, list[bytes]]) -> None:
        self.seed = seed
        self.seconds = float(seconds)
        self.model_dir = model_dir
        self.streams = streams
        self.rounds = [
            _rounds(self.streams, {sid: d["lead_in"][draw] for sid, d in self.streams.items()})
            for draw in range(fixture.LEAD_IN_DRAWS)
        ]
        # Set-up replays start every stream at once, so the first event
        # (the shortest recording's) is the same work for every seed.
        self.setup_rounds = _rounds(self.streams, dict.fromkeys(self.streams, 0))
        self.frames_per_replay = sum(len(d["frames"]) for d in self.streams.values())
        self.system = load_system(self.model_dir)
        self.reference = reference
        self.spans_per_replay = sum(len(events) for events in self.reference.values())

    def _hub(self, system, tracer=None) -> StreamHub:
        engine = InferenceEngine(system, tracer=tracer)
        hub = StreamHub(engine=engine, base_seed=self.seed)
        for stream_id in self.streams:
            hub.open_stream(stream_id)
        return hub

    @staticmethod
    def _calibrate() -> float:
        """Host-speed calibration, taken out of the previous replay's wake."""
        hostspeed.settle()
        return hostspeed.compute_s()

    def setup_times(self) -> tuple[list[float], list[float]]:
        """Seconds from model load to the first event of a fresh replay,
        and the calibrations taken between set-ups."""
        times, calibrations = [], [self._calibrate()]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            hub = self._hub(load_system(self.model_dir))
            for frames in self.setup_rounds:
                if hub.push_round(frames):
                    break
            else:
                raise GateError("set-up replay produced no event")
            times.append(time.perf_counter() - start)
            calibrations.append(self._calibrate())
        return times, calibrations

    def _replay(self, draw: int, tracer=None, probe=None) -> dict:
        """One timed pass over the rounds of lead-in ``draw``; events are
        gated afterwards.  With a ``probe``, each call's time outside the
        probed stages is recorded as its unattributed time."""
        hub = self._hub(self.system, tracer)
        clock = time.perf_counter
        round_start, round_ms, unattributed, events, latencies = [], [], [], [], []
        busy = 0.0

        def probed_s() -> float:
            total = probe.total_s
            return total["segment_push"] + total["prepare_span"] + total["predict"]

        def timed_call(call, *args) -> float:
            nonlocal busy
            before = probed_s() if probe is not None else 0.0
            start = clock()
            if args:  # a push_round: its start times the events it carries
                round_start.append(start)
            delivered = call(*args)
            end = clock()
            busy += end - start
            if probe is not None:
                unattributed.append(((end - start) - (probed_s() - before)) * 1e3)
            for item in delivered:
                events.append(item)
                lead = self.streams[item.stream_id]["lead_in"][draw]
                latencies.append((end - round_start[lead + item.event.end_frame - 1]) * 1e3)
            return end - start

        for frames in self.rounds[draw]:
            round_ms.append(timed_call(hub.push_round, frames) * 1e3)
        timed_call(hub.flush_streams)
        errors = hub.pop_errors()
        got: dict[str, list[bytes]] = {stream_id: [] for stream_id in self.streams}
        for item in events:
            got[item.stream_id].append(_event_key(item.event))
        for stream_id, expected in self.reference.items():
            if got[stream_id] != expected:
                raise GateError(f"stream {stream_id}: events differ from a standalone replay")
        return {
            "busy_s": busy,
            "round_ms": round_ms,
            "unattributed_ms": unattributed,
            "latency_ms": latencies,
            "failed": len(errors),
            "engine": hub.engine.stats,
        }

    def phase(self, *, traced: bool) -> dict:
        """Replays until ``seconds`` of replay time; summarised."""
        probe = patches = tracer = None
        if traced:
            probe = probes.Probe()
            patches = probes.install_forward(probe) + probes.install_preprocessing(probe)
            tracer = Tracer(capacity=4 * self.spans_per_replay)
        try:
            busy = scaled_busy = 0.0
            replays, rounds, unattributed, latencies, failed = 0, [], [], [], 0
            scaled_latencies, scales, calibrations = [], [], [self._calibrate()]
            records, batches, batched = [], 0, 0
            while busy < self.seconds:
                replay = self._replay(replays % fixture.LEAD_IN_DRAWS, tracer, probe)
                replays += 1
                calibrations.append(self._calibrate())
                scale = hostspeed.scaled(1.0, calibrations[-2], calibrations[-1],
                                         hostspeed.COMPUTE_REFERENCE_S)
                busy += replay["busy_s"]
                scaled_busy += replay["busy_s"] * scale
                scales.append(scale)
                scaled_latencies += [ms * scale for ms in replay["latency_ms"]]
                rounds += replay["round_ms"]
                unattributed += replay["unattributed_ms"]
                latencies += replay["latency_ms"]
                failed += replay["failed"]
                batches += replay["engine"].batches
                batched += replay["engine"].batched_samples
                if tracer is not None:
                    records += tracer.drain()
        finally:
            if patches is not None:
                probes.uninstall(patches)
        measured = {
            "replays": replays,
            "attempted": replays * self.spans_per_replay,
            "failed": failed,
            "events": len(latencies),
            # At the reference host speed (see gpbench/hostspeed.py) ...
            "p50_ms": percentile(scaled_latencies, 50),
            "p90_ms": percentile(scaled_latencies, 90),
            "p99_ms": percentile(scaled_latencies, 99),
            "goodput_rps": len(latencies) / scaled_busy,
            "frames_per_s": replays * self.frames_per_replay / scaled_busy,
            # ... and as timed on this host.
            "host_scale_median": median(scales),
            "raw_p50_ms": percentile(latencies, 50),
            "raw_p90_ms": percentile(latencies, 90),
            "raw_goodput_rps": len(latencies) / busy,
            "calibration_drift_p50": median(hostspeed.drift(calibrations)),
            "calibration_drift_max": max(hostspeed.drift(calibrations)),
        }
        if traced:
            measured["layers"] = self._layers(
                probe, records, rounds, unattributed, batches, batched)
        return measured

    def _layers(self, probe, records, rounds, unattributed, batches, batched) -> dict:
        totals = probe.to_dict()
        calls, total_s = totals["calls"], totals["total_s"]
        hold = [r["queue_wait_ms"] for r in records if r["terminal"] == "delivered"]
        batch = [r["exec_ms"] for r in records if r["terminal"] == "delivered"]
        return {
            "scheduler.hold_ms.p50": percentile(hold, 50),
            "scheduler.hold_ms.p99": percentile(hold, 99),
            "engine.batch_ms.p50": percentile(batch, 50),
            "engine.batch_ms.p99": percentile(batch, 99),
            "engine.batch_size.mean": batched / batches,
            "engine.batches": batches,
            "preprocessing.segment_push_us":
                total_s["segment_push"] * 1e6 / calls["segment_push"],
            "preprocessing.denoise_ms": total_s["denoise"] * 1e3 / calls["denoise"],
            "preprocessing.denoise_points": totals["denoise_points"] / calls["denoise"],
            "preprocessing.normalize_ms": total_s["normalize"] * 1e3 / calls["normalize"],
            "realtime.prepare_span_ms":
                total_s["prepare_span"] * 1e3 / calls["prepare_span"],
            "hub.push_round_ms.p50": percentile(rounds, 50),
            "hub.push_round_ms.p99": percentile(rounds, 99),
            "hub.engine_batch_size.mean": batched / batches,
            "trace.unattributed_ms.p50": percentile(unattributed, 50),
            **probes.forward_metrics(totals),
            "stage_ms": {
                "hold": median(hold),
                "batch": median(batch),
                "denoise": total_s["denoise"] * 1e3 / calls["denoise"],
            },
        }

    def measure(self, *, trace: bool) -> dict:
        """The run's phases: the untraced replays and the set-ups, or the
        untraced and the traced replays."""
        if trace:
            return {"plain": self.phase(traced=False), "traced": self.phase(traced=True)}
        plain = self.phase(traced=False)
        # Read before the set-ups: each builds an engine over a freshly
        # loaded model, and the program keeps every engine it has built
        # alive (each registers a metrics collector), so the set-ups
        # would add their models to the peak of a process that, serving,
        # loads one.
        plain["peak_rss_mb"] = peak_rss_mb()
        times, calibrations = self.setup_times()
        plain["setup_s"] = median([
            hostspeed.scaled(raw, before, after, hostspeed.COMPUTE_REFERENCE_S)
            for raw, before, after in zip(times, calibrations, calibrations[1:])
        ])
        plain["raw_setup_s"] = times
        plain["setup_calibration_drift_max"] = max(hostspeed.drift(calibrations))
        return {"plain": plain}


def run(name: str, seed: int, seconds: float, run_dir: pathlib.Path, *, trace: bool) -> dict:
    """One benchmark run of ``stream_frames`` (see ``gpbench/run.py``)."""
    model_dir = fixture.bundle_dir()
    streams, input_sha256 = fixture.write_stream_inputs(
        run_dir, fixture.stream_recordings(seed))
    reference = reference_events(load_system(model_dir), seed, streams)
    (run_dir / REFERENCE_FILE).write_text(json.dumps(
        {stream_id: [key.hex() for key in keys] for stream_id, keys in reference.items()}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-m", "gpbench.stream", str(run_dir), str(model_dir),
         str(seed), repr(float(seconds)), str(int(trace))],
        cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = child.stdout.strip().splitlines()
    message = json.loads(lines[-1]) if lines else {}
    if "gate" in message:
        raise GateError(message["gate"])
    if child.returncode != 0 or "plain" not in message:
        raise RuntimeError(f"replay child exited with {child.returncode}:\n{child.stderr[-3000:]}")
    return {"input_sha256": input_sha256, **message}


def child_main(argv: list[str]) -> int:
    """The replay child: ``RUN_DIR MODEL_DIR SEED SECONDS TRACE``.

    Prints the measured phases as one JSON line, or ``{"gate": ...}``
    and exit code 1 when a replay's events differ from the reference.
    """
    run_dir, model_dir = pathlib.Path(argv[0]), pathlib.Path(argv[1])
    seed, seconds, trace = int(argv[2]), float(argv[3]), bool(int(argv[4]))
    reference = {
        stream_id: [bytes.fromhex(key) for key in keys]
        for stream_id, keys in json.loads((run_dir / REFERENCE_FILE).read_text()).items()
    }
    bench = StreamBench(seed, seconds, model_dir, fixture.read_stream_inputs(run_dir), reference)
    try:
        record = bench.measure(trace=trace)
    except GateError as error:
        print(json.dumps({"gate": str(error)}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
