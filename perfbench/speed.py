"""Machine-speed sampling, so that op times can be scaled to a reference speed.

The machine the benchmark was written on is a shared 2-vCPU VM. Its speed
shifts by 20 to 40% over minutes, which moves raw wall times by more than a
regression bound. So a SIGALRM interval timer interrupts the main thread
every INTERVAL_S, and the handler times a fixed pure-Python loop that never
touches the package. An interval's speed is REF_PROBE_S divided by the
median probe time inside it. Multiplying the interval's time, net of the
probes, by that speed gives its time at the reference speed.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
PROBE_LOOPS = 4000
# median probe time on the machine the benchmark was added on (Python 3.11)
REF_PROBE_S = 0.00036


class SpeedSampler:
    """Context manager that samples machine speed while it is active."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        self.samples.append(perf_counter() - t0)

    def mark(self) -> int:
        return len(self.samples)

    def measure(self, start: int) -> tuple[float, float]:
        """(speed, seconds spent probing) for the interval since mark `start`.

        An interval with fewer than 3 probes takes its speed from the last 3.
        """
        inside = self.samples[start:]
        probe_s = sum(inside)
        if len(inside) < 3:
            while len(self.samples) < 3:
                self._probe()
            inside = self.samples[-3:]
        return REF_PROBE_S / statistics.median(inside), probe_s
