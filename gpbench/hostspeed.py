"""Host speed, for timings that are pure compute on a shared host.

The 2-vCPU VM this benchmark was built on changes speed by itself: a
fixed numpy loop ran at one of three speeds, up to 2.3 times apart, in
phases lasting from seconds to minutes.  A closed compute loop (the
stream replay) and process start-up (``setup_s``) slow down with it, so
two sets of runs made a few minutes apart could differ by more than any
useful bound.

Such timings are reported at a reference host speed: each is multiplied
by ``reference / t``, where ``t`` is the geometric mean of two timings of
a fixed, benchmark-owned calibration taken right before and right after
it.  Two calibrations fit two kinds of timing:

* :func:`compute_s` — a small numpy loop, for in-process compute (the
  stream replays and the stream's set-up).  It runs only after
  :func:`settle`, so the program's wake (BLAS worker threads still
  spinning after a matrix call, garbage not yet collected) does not land
  in the divisor.
* :func:`startup_s` — a fresh interpreter that imports numpy, for the
  gateway's server spawn, which is mostly the same kind of work.

Neither calls the program, so a slower program still reads slower; a
host that runs everything slower does not.  The raw timings and each
timing's before/after calibration drift stay in the validity record.
"""

from __future__ import annotations

import gc
import math
import pathlib
import subprocess
import sys
import time

import numpy as np

#: What :func:`compute_s` takes on the reference host (seconds).
COMPUTE_REFERENCE_S = 0.002
#: What :func:`startup_s` takes on the reference host (seconds).
STARTUP_REFERENCE_S = 0.11
#: Untimed busy time before a compute calibration: longer than OpenBLAS's
#: default worker-thread spin (2**28 cycles, about 0.13 s at 2.1 GHz).
SETTLE_S = 0.15

# Small numpy calls under a Python loop: the instruction mix of DBSCAN's
# region queries and of module imports, not of large BLAS calls.
_POINTS = np.random.default_rng(0).uniform(-1.0, 1.0, (250, 3))


def settle() -> None:
    """Collect garbage, then keep the CPU busy past the BLAS threads'
    spin with the calibration loop itself (untimed).

    Busy, not asleep: on the VM this was tuned on, a vCPU that has idled
    for a tenth of a second comes back at a random one of two speeds, so
    a calibration taken after a sleep says little about a replay that
    runs flat out.
    """
    gc.collect()
    deadline = time.perf_counter() + SETTLE_S
    while time.perf_counter() < deadline:
        _loop()


def _loop() -> None:
    for index in range(150):
        diff = _POINTS - _POINTS[index]
        for neighbour in np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= 0.5)[:20]:
            int(neighbour)


def compute_s(repeats: int = 5) -> float:
    """Best of ``repeats`` timings of the fixed compute loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def startup_s(cwd: pathlib.Path) -> float:
    """Time of a fresh interpreter importing numpy and exiting."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=str(cwd), check=True)
    return time.perf_counter() - start


def scaled(raw_s: float, before_s: float, after_s: float, reference_s: float) -> float:
    """``raw_s`` at the reference host speed, from the calibrations
    taken right before and right after it."""
    return raw_s * reference_s / math.sqrt(before_s * after_s)


def drift(calibrations: list[float]) -> list[float]:
    """How far each calibration moved from the one before it, as
    ``|after / before - 1|``: a large move means the host changed speed
    during the timing between them, and its scaling is less certain."""
    return [abs(after / before - 1.0) for before, after in zip(calibrations, calibrations[1:])]
