"""Machine-speed sampling for the end-to-end task times.

On a shared host the speed available to one process drifts while a run
goes on, so raw times spread more between seeded runs than the
benchmark's steadiness target allows (README.md has both spreads). A
background thread runs a short fixed kernel, independent of entdyn, every
PERIOD_S while tasks run, and records how long it took. Each task's wall
time is then scaled by the kernel's REFERENCE_S over its median time
during the task: a task that takes t ms while the kernel runs at reference
speed reports t ms, and the same task during a slow spell reports about
the same figure. The kernel holds the interpreter lock for under 1% of
the time. Raw wall times are kept in the result file beside the scaled
ones.

A slow spell does not slow all code alike, so there are two kernels and
each workload uses the one closer to its own hot code (tasks.SPEED_KERNEL):
plain interpreter arithmetic for CSV formatting, small-array numpy calls
for ODE steps, ``expm`` and per-sample observables.

Set-up runs in fresh interpreters, whose start-up cost follows file and
memory load rather than interpreter speed, so it is scaled by a reference
interpreter that only imports numpy, started just before each probe.
"""
from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

#: median time of each kernel on the 2-core x86-64 host the baseline was
#: measured on (Python 3.11.7, numpy 2.4.6, one OpenBLAS thread)
REFERENCE_S = {"interpreter": 250e-6, "numpy": 300e-6}

#: median wall time of a fresh ``python -c "import numpy"`` on the same host;
#: set-up times are scaled by it over the reference probe next to them
REFERENCE_IMPORT_S = 0.127

PERIOD_S = 0.05

#: a task's speed is the median over at least this much time around it
MIN_WINDOW_S = 0.5


def _interpreter_kernel():
    """Interpreter arithmetic only: it shares no hot code with any workload,
    so what ran just before it barely changes its time."""
    acc = 0
    for k in range(3000):
        acc += (k * k) % 7
    return acc


_MATRIX = np.random.default_rng(0).standard_normal((16, 16)) * 0.1
_VECTOR = np.ones(16)


def _numpy_kernel():
    """Small matrix-vector products and reductions on a 16-dimensional state,
    the call pattern of an ODE step, through numpy rather than entdyn."""
    v = _VECTOR
    peak = 0.0
    for _ in range(40):
        v = _MATRIX @ v + _VECTOR
        peak = float(np.max(np.abs(v)))
    return peak


KERNELS = {"interpreter": _interpreter_kernel, "numpy": _numpy_kernel}


class SpeedSampler:
    """Runs the kernel in a background thread for the duration of a ``with`` block.

    ``scale`` may be called while the thread runs: appends are atomic, and a
    ``took`` list one entry behind ``at`` only shortens the slice.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.reference_s = REFERENCE_S[kernel]
        self._run_kernel = KERNELS[kernel]
        self.at: list[float] = []
        self.took: list[float] = []
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)

    def _loop(self):
        while not self._halt.wait(PERIOD_S):
            t0 = time.perf_counter()
            self._run_kernel()
            t1 = time.perf_counter()
            self.at.append(0.5 * (t0 + t1))
            self.took.append(t1 - t0)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._halt.set()
        self._thread.join()
        return False

    def scale(self, start: float, end: float) -> float:
        """The kernel's REFERENCE_S over its median time around the interval [start, end]."""
        pad = max(0.0, 0.5 * (MIN_WINDOW_S - (end - start)))
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        # one sample beyond each edge, so a window is empty only before the first sample
        near = self.took[max(lo - 1, 0):hi + 1]
        return self.reference_s / statistics.median(near) if near else 1.0

    def summary(self) -> dict:
        return {
            "kernel": self.kernel,
            "reference_s": self.reference_s,
            "samples": len(self.took),
            "median_s": statistics.median(self.took) if self.took else None,
        }
