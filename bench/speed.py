"""Machine-speed probe for runs on shared machines.

On a shared machine the speed available to one process drifts by a fifth
or more over seconds and over minutes, and a raw pass time follows it. A
daemon thread here times a fixed piece of interpreter work every 50 ms for
as long as the benchmark runs. A time measured over some stretch, multiplied
by ``scale`` for the same stretch, is the time the same work takes on a
machine where the probe work takes exactly ``REFERENCE_S``. In a test on a
shared 2-CPU machine this brought the coefficient of variation of ten
identical audit passes from 0.18 to 0.02, and of eight greedy passes from
0.07 to 0.02.

The probe touches no crossflip code, so it never shows up in a trace.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

PERIOD_S = 0.05
#: Probe duration that defines the reference speed: about its median on a
#: shared 2-CPU Xeon virtual machine under Python 3.11.
REFERENCE_S = 6e-4
#: Probes this far before and after a stretch also count for it, so that a
#: stretch shorter than the period still has samples.
MARGIN_S = 0.5

_POINTS = tuple((i * 7919 % 1013, i * 104729 % 997) for i in range(64))


def probe_work() -> int:
    """A fixed mix of tuple arithmetic, calls and dict stores, the kind of
    work the library does."""
    pts = _POINTS

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (v > 0) - (v < 0)

    seen = {}
    total = 0
    for i in range(0, 64, 2):
        for j in range(64):
            total += orient(pts[i], pts[i + 1], pts[j])
        seen[i] = total
    return total


class SpeedProbe:
    """Context manager that samples ``(start, duration)`` of the probe work
    in a background thread and stops and joins the thread on exit."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        t0 = perf_counter()
        probe_work()
        self.samples.append((t0, perf_counter() - t0))

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median probe time during [t0, t1]."""
        near = [d for s, d in self.samples if t0 - MARGIN_S <= s <= t1 + MARGIN_S]
        return REFERENCE_S / statistics.median(near or [d for _, d in self.samples])
