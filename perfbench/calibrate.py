"""The CPU's current speed, sampled while the benchmark runs.

On a shared host the same request can take 1.5x as long for seconds at
a time while other tenants load the CPU it runs on.  A
:class:`Speedometer` samples the speed every ``PERIOD_S`` seconds from
a ``SIGALRM`` handler, by timing two fixed pure-Python loops (an
interpreter loop and a wide-integer loop, like the packed fault-lane
engine).  Every timing the benchmark reports is then

    scaled seconds = net seconds x NOMINAL_S / median loop time

where the net seconds exclude the handler's own time and the median is
over the samples taken during the request (its nearest samples, for
requests shorter than a few periods).  The loops depend on nothing in
``src/``, so a change to the program moves scaled and raw seconds
alike; the report prints the raw seconds beside the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from typing import List, Tuple

#: Sampling period of the speedometer.
PERIOD_S = 0.05

#: Roughly what one sample reads on an idle 2-vCPU x86-64 KVM runner
#: (Xeon, 2.1 GHz) with CPython 3.11: scaled seconds are seconds at
#: that speed.
NOMINAL_S = 0.0005

#: Fewest samples a request's speed is taken from.
MIN_SAMPLES = 3


def _interpreter_loop() -> int:
    table = {}
    x = 0
    for i in range(6000):
        table[i & 255] = x
        x = (x * 31 + i) & 0xFFFF
    return x


def _bigint_loop() -> int:
    a = (1 << 4000) - 12345
    b = (1 << 3999) + 999
    x = 0
    for _ in range(600):
        x ^= (a & ~b) | (b >> 3)
        a, b = b, a ^ x
    return x


class Speedometer:
    """Speed samples ``(start, end, loop seconds)``, in time order.

    The loop seconds are the geometric mean of the two loops' times:
    interpreter-bound and wide-integer code slow down by different
    amounts under contention, and the workloads mix both.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []
        self._starts: List[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum: int, frame: object) -> None:
        started = time.perf_counter()
        _interpreter_loop()
        middle = time.perf_counter()
        _bigint_loop()
        ended = time.perf_counter()
        self._starts.append(started)
        self.samples.append(
            (started, ended, math.sqrt((middle - started) * (ended - middle)))
        )

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """``(net seconds, speed factor)`` of the interval ``[start, end]``."""
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_left(self._starts, end)
        inside = self.samples[first:last]
        net = (end - start) - sum(e - s for s, e, _ in inside)
        nearby = inside
        if len(nearby) < MIN_SAMPLES:
            pad = MIN_SAMPLES - len(nearby)
            nearby = self.samples[max(0, first - pad):last + pad]
        if not nearby:
            raise RuntimeError("no speed samples: is the speedometer running?")
        return net, NOMINAL_S / statistics.median(s for _, _, s in nearby)
