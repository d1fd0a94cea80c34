"""Host-speed probe that samples the machine while a repetition runs.

On a shared host, neighbours' load changes how fast the same code runs by
up to 2x, often from one second to the next, so wall times of identical
runs spread widely.  A probe times a fixed kernel every few tens of
milliseconds from an interval-timer signal handler, which runs between the
timed code's own bytecodes.  Its samples therefore describe the host's
speed during the very interval that code ran.  The runner multiplies the
interval's time, less the handler's own time, by ``scale``: reference
kernel time over the mean sample.  The result is the time the interval
would have taken on a host where the kernel takes its reference time.

Each phase gets the kernel that tracked it best on this host:
- the import of ``phyllo.cli`` and its numpy/scipy stack: a pure-Python
  loop, since numpy is not loaded yet (correlation 0.79 with the import
  time over 30 imports);
- the workload: Python calling small numpy operations, the pattern most of
  ``phyllo``'s time is spent in (correlation 0.91-0.94 over a dozen
  repetitions of each of three workloads, where a pure-Python loop reached
  0.2-0.6 and a memory walk 0.45-0.74).

The kernel runs twice per tick and only the second run is timed, so the
sample measures the host rather than how much of the kernel the timed code
evicted from the caches.
"""

from __future__ import annotations

import signal
import time
from typing import Callable


class HostProbe:
    """Samples ``kernel``'s time every ``interval_s`` from SIGALRM while
    started; ``ref_s`` is the kernel's time on the reference host."""

    def __init__(self, kernel: Callable[[], object], interval_s: float, ref_s: float):
        self._kernel = kernel
        self._interval_s = interval_s
        self._ref_s = ref_s
        self._samples: list[float] = []
        self._spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self._kernel()
        t2 = time.perf_counter()
        self._samples.append(t2 - t1)
        self._spent += t2 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._interval_s, self._interval_s)

    def stop(self) -> dict:
        """Stops sampling; returns the mean sample, the tick count, the time
        the handler took out of the timed code and the scale.

        Three extra samples are taken here, after the timed code, so that a
        phase shorter than one tick still gets a speed.
        """
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        spent, ticks = self._spent, len(self._samples)
        for _ in range(3):
            self._tick()
        probe_s = sum(self._samples) / len(self._samples)
        return {"probe_s": probe_s, "ticks": ticks, "spent_s": spent, "scale": self._ref_s / probe_s}


def _python_kernel() -> int:
    s = 0
    for i in range(1500):
        s += i * i
    return s


def import_probe() -> HostProbe:
    """Probe for the import; each tick costs about 2 x 0.1 ms, 1%.

    The reference times here and below are the kernels' medians on a quiet
    2-vCPU Intel Xeon VM, so reported times read as wall seconds there.
    """
    return HostProbe(_python_kernel, 0.02, 1.2e-4)


def run_probe() -> HostProbe:
    """Probe for the workload, once numpy is imported; each tick costs
    about 2 x 0.25 ms, 1%."""
    import numpy as np

    a = np.arange(16.0)

    def kernel() -> float:
        s = 0.0
        for _ in range(15):
            s += float(np.dot(a, np.roll(a, 1)))
        return s

    return HostProbe(kernel, 0.05, 2.0e-4)
