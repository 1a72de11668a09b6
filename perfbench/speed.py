"""The host's momentary CPU speed, for rescaling the benchmark's timings.

The machines this benchmark runs on share their cores with other tenants:
the same code runs up to 1.7x slower for stretches of a second to over a
minute, and a whole run can fall in one. Raw wall times of a 5-second phase
then spread by 30-40% across runs, and the median of ten runs moves with
the host's load. So every timing the benchmark reports is rescaled to a
fixed CPU speed: a small reference kernel (numpy calls on a tiny array, the
kind of work blockcast's hot paths do) is timed alongside the work, and

    reported = wall time * REFERENCE_S / (reference kernel's time meanwhile)

The kernel is the benchmark's own code, so a change to blockcast moves the
reported time exactly as it moves the wall time; a change in host load
moves both and cancels. The raw wall times are kept in the run's record.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# The reference kernel's time on an unloaded core of a 2.1 GHz Xeon VM.
REFERENCE_S = 30e-6
# Seconds between reference samples while a phase runs.
SAMPLE_INTERVAL_S = 0.05


class SpeedProbe:
    """Times the reference kernel on demand, and every SAMPLE_INTERVAL_S
    (on SIGALRM) between ``start`` and ``stop``."""

    def __init__(self):
        self._buf = np.linspace(-1.0, 1.0, 768).reshape(8, 96)
        self.samples: list[tuple[float, float]] = []   # (start, kernel seconds)
        self._active = False
        self._previous = signal.SIG_DFL

    def measure(self, *_signal_args) -> float:
        """Time the kernel once warm, so that the caches the interrupted code
        left behind do not count."""
        np.tanh(self._buf)
        np.tanh(self._buf)
        start = time.perf_counter()
        for _ in range(10):
            np.tanh(self._buf)
        seconds = time.perf_counter() - start
        self.samples.append((start, seconds))
        return seconds

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.measure) or signal.SIG_DFL
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._active = True

    def stop(self) -> None:
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._active = False

    @contextmanager
    def paused(self):
        """No samples inside the block (they would land in timed calls)."""
        active = self._active
        self.stop()
        try:
            yield
        finally:
            if active:
                self.start()

    def factor_now(self, n: int = 5) -> float:
        """Slowdown relative to REFERENCE_S right now (median of n timings)."""
        return statistics.median(self.measure() for _ in range(n)) / REFERENCE_S

    def factor(self, start: float, end: float) -> float:
        """Mean slowdown over [start, end] relative to REFERENCE_S; measured
        now when no sample fell in the interval."""
        inside = [s for t, s in self.samples if start <= t <= end]
        return (statistics.fmean(inside) if inside else self.measure()) / REFERENCE_S

    def scaled(self, start: float, end: float) -> float:
        """Wall time of [start, end] rescaled to the reference speed."""
        return (end - start) / self.factor(start, end)
