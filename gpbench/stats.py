"""Pure helpers of the benchmark: ranks, schedules, and its two gates.

Nothing here touches the program under test, so every rule the
benchmark applies to its measurements is unit-testable on its own
(``gpbench/tests``).
"""

from __future__ import annotations

import math
import pathlib

import numpy as np

#: The serving stages a gateway trace record splits a request into, in
#: lifecycle order: submit->admitted, admitted->dispatched,
#: dispatched->landed.  Egress (landed->finished) is what is left of the
#: server's submit->finished total once these three are taken out.
TRACE_STAGES = ("admission_wait_ms", "queue_wait_ms", "exec_ms")

#: Trace durations are rounded to the microsecond by the server; four
#: rounded terms can disagree with their rounded sum by this much.
ROUNDING_MS = 0.004


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the value some sample actually took.

    Rank ``ceil(q/100 * n)`` (1-based) of the sorted values, so ``q=50``
    of ``[1, 2, 3, 4]`` is 2 and ``q=100`` is the maximum.  Raises on an
    empty sample: a metric with no samples must not print a number.
    """
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values) -> float:
    """Nearest-rank median (the lower middle value of an even sample)."""
    return percentile(values, 50.0)


def poisson_schedule(
    rng: np.random.Generator,
    *,
    rate_per_s: float,
    duration_s: float,
    mix: tuple[float, ...],
    pool_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Open-loop arrivals: ``(due_s, tenant_index, sample_index)``.

    A Poisson process at ``rate_per_s`` over ``duration_s``, conditioned
    on its expected count: ``round(rate * duration)`` arrival times drawn
    uniformly and sorted.  Gaps stay exponential-like, but every seed
    offers the same number of requests, so a rate's share of its count
    noise does not show up as a throughput difference between seeds.
    For the same reason each tenant gets exactly its share of the
    arrivals (largest remainder), dealt out in a seeded order; each
    arrival draws its sample uniformly from a pool of ``pool_size``.
    Everything comes from ``rng``, so one seed fixes the whole schedule
    before timing starts.
    """
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    shares = np.asarray(mix, dtype=np.float64)
    if shares.ndim != 1 or shares.size == 0 or np.any(shares < 0) or shares.sum() <= 0:
        raise ValueError(f"bad tenant mix {mix!r}")
    count = max(int(round(rate_per_s * duration_s)), 1)
    due = np.sort(rng.uniform(0.0, duration_s, size=count))
    quotas = shares / shares.sum() * count
    per_tenant = np.floor(quotas).astype(np.int64)
    per_tenant[np.argsort(per_tenant - quotas, kind="stable")[:count - per_tenant.sum()]] += 1
    tenants = rng.permutation(np.repeat(np.arange(shares.size), per_tenant))
    samples = rng.integers(0, pool_size, size=count)
    return due, tenants.astype(np.int64), samples.astype(np.int64)


class GateError(AssertionError):
    """A correctness gate failed: the run prints ``correct: false``."""


def posterior_bytes(gesture: int, user: int, gesture_probs, user_probs) -> bytes:
    """The exact bytes a result is compared by: labels plus float64
    posteriors, in wire order."""
    head = np.asarray([gesture, user], dtype=np.int64).tobytes()
    body = (
        np.ascontiguousarray(gesture_probs, dtype=np.float64).tobytes()
        + np.ascontiguousarray(user_probs, dtype=np.float64).tobytes()
    )
    return head + body


def check_identical(got: bytes, expected: bytes, *, what: str) -> None:
    """Byte-identity gate: raise :class:`GateError` on any difference."""
    if got != expected:
        raise GateError(f"{what}: result is not byte-identical to the in-process reference")


def stage_split(record: dict, *, client_ms: float, roundtrip_ms: float) -> dict:
    """Attribute one delivered request's client latency to stages.

    ``record`` is the server's trace record (``TraceRecord.to_dict``);
    ``client_ms`` runs from the request's due time to its result and
    ``roundtrip_ms`` from its send to its result.  Returns
    ``{admit, hold, batch, egress, wire, unattributed}`` in ms, where
    ``wire`` is the round trip minus the server's submit->finished total
    and ``unattributed`` is the client latency minus every stage.

    Raises :class:`GateError` when a stage is missing or the stages
    overrun the server's own total: then the parts cannot add up to the
    whole, and per-stage numbers would mislead.
    """
    missing = [key for key in (*TRACE_STAGES, "total_ms") if record.get(key) is None]
    if missing:
        raise GateError(f"trace {record.get('trace_id')}: missing stage(s) {missing}")
    admit, hold, batch = (float(record[key]) for key in TRACE_STAGES)
    total = float(record["total_ms"])
    egress = total - admit - hold - batch
    if min(admit, hold, batch) < 0 or egress < -ROUNDING_MS:
        raise GateError(
            f"trace {record.get('trace_id')}: stages {admit}+{hold}+{batch} "
            f"do not fit in the total {total}"
        )
    wire = roundtrip_ms - total
    return {
        "admit": admit,
        "hold": hold,
        "batch": batch,
        "egress": max(egress, 0.0),
        "wire": wire,
        "unattributed": client_ms - wire - admit - hold - batch - max(egress, 0.0),
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of process ``pid``, in MB."""
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
