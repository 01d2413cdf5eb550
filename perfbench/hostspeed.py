"""Host-speed correction for the benchmark's timings.

On a shared VM the speed of a vCPU drifts: the same pass can take half as
long again from one minute to the next, or within one long call, with no
steal time recorded.  A fixed pure-Python loop, shaped like
``Element.__mul__`` but never touching subwordlab, slows down with it.

``HostSpeed`` times that loop every ``PERIOD_S`` in a background thread
while the benchmark runs.  A call from ``start`` to ``end`` is then scaled by
``NOMINAL_S / mean loop time`` over the samples taken during it, or over the
``NEAREST`` samples closest to it when it holds fewer; the mean drops the
highest and lowest tenth (at least one each way).  A corrected time is in
seconds on a host where the loop takes ``NOMINAL_S``.  A change to
subwordlab moves it just as it moves the wall time, because the loop does
not depend on the library.  The sampler holds the interpreter lock for about
3% of the time, the same on every commit.
"""

from __future__ import annotations

import statistics
import threading
import time
from time import perf_counter

PERIOD_S = 0.02
NEAREST = 5
# The loop's typical time on the 2-vCPU x86_64 VM the bounds were set on.
NOMINAL_S = 0.0006

_LEFT = tuple(range(1, 61))
_RIGHT = tuple((-1) ** i * ((7 * i) % 60 + 1) for i in range(60))


def _loop() -> None:
    a = _LEFT
    for _ in range(100):
        a = tuple(a[v - 1] if v > 0 else -a[-v - 1] for v in _RIGHT)


class HostSpeed:
    """Background sampler of the loop time; use it as a context manager."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (end time, loop seconds)
        self._stop = threading.Event()
        self._first = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def __enter__(self) -> HostSpeed:
        self._thread.start()
        self._first.wait()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while True:
            start = perf_counter()
            _loop()
            end = perf_counter()
            self._samples.append((end, end - start))
            self._first.set()
            if self._stop.wait(PERIOD_S):
                return

    def corrected(self, start: float, end: float) -> float:
        """The seconds from ``start`` to ``end``, scaled to the nominal host speed."""
        while True:
            samples = self._samples[:]
            during = [seconds for t, seconds in samples if start <= t <= end]
            if len(during) >= NEAREST:
                break
            if sum(t > end for t, _ in samples) > NEAREST // 2:
                middle = (start + end) / 2
                nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
                during = [seconds for _, seconds in nearest[:NEAREST]]
                break
            time.sleep(PERIOD_S / 2)
        during.sort()
        trim = max(1, len(during) // 10)
        return (end - start) * NOMINAL_S / statistics.fmean(during[trim:-trim])


class Clock:
    """Sums the host-corrected and the raw seconds of timed calls."""

    def __init__(self, host: HostSpeed):
        self.host = host
        self.seconds = 0.0
        self.raw_seconds = 0.0

    def time(self, call):
        """Run ``call``; return (result, exception or None, corrected seconds)."""
        start = perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # reported by the caller as a failed op
            result, error = None, exc
        end = perf_counter()
        seconds = self.host.corrected(start, end)
        self.seconds += seconds
        self.raw_seconds += end - start
        return result, error, seconds
