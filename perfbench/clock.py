"""Host time scaled to a nominal machine speed.

On a shared virtual machine the speed of one core drifts by up to a
factor of two within seconds, as neighbours come and go, so two runs of
the same code a minute apart disagree by more than any regression worth
catching. `Clock` measures the drift while a call runs: a SIGALRM every
SAMPLE_PERIOD_S times a short fixed loop (integer arithmetic only, no
ltesim code and no allocation the garbage collector tracks), and once
more after the call. The call's host time, less the time the samples
took, is scaled by NOMINAL_REF_S over the mean sample: it reads as the
host seconds the call would take on a machine where the loop takes
NOMINAL_REF_S. A change to ltesim moves the timed call and not the
loop, so it shows in full. Signals need no second thread or process.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_ITERATIONS = 25_000
# The loop's median on the 2-vCPU KVM guest (Python 3.11) the first
# baseline was measured on; it only sets the scale of every figure.
NOMINAL_REF_S = 0.0019
SAMPLE_PERIOD_S = 0.05


def reference_loop() -> int:
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return s


class Clock:
    def __init__(self) -> None:
        self.samples: list[float] = []  # every loop sample, for speed()
        self._spans: list[tuple[float, float]] = []  # (start, end) of each sample in this call

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_loop()
        self._spans.append((start, time.perf_counter()))

    def time(self, fn):
        """Run fn(); return (its result, scaled seconds)."""
        self._spans = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        # A sample that began before `end` ran inside the timed interval.
        host_s = end - start - sum(e - s for s, e in self._spans if s < end)
        durations = [e - s for s, e in self._spans]
        self.samples += durations
        return result, host_s * NOMINAL_REF_S / statistics.mean(durations)

    def speed(self) -> float:
        """Machine speed over the samples so far relative to nominal
        (1.0 = nominal, 0.5 = half as fast)."""
        return NOMINAL_REF_S / statistics.median(self.samples)


def host_time(fn):
    """Run fn(); return (its result, unscaled host seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start
