"""A fixed probe of the host's speed, to take host slowdowns out of timings.

The shared host this suite was written on slows down when other tenants
load it, for spells of a few seconds to many minutes: in a slow spell
the program takes up to 1.6–1.9 times as long, and a spell can last
longer than a run, so no median or minimum over one run's rounds can
take it out.  Every process that times calls therefore also
times :func:`probe` right before and right after each of them, and each
time is multiplied by :data:`REFERENCE_PROBE_S` over the mean of the two
probes: it then reads as seconds on the reference host at its fast
speed.

The probe was chosen for slowing down as much as the program does.  In
a mild slow spell a scale-0.1 ``build_world`` slowed 1.61 times and the
twelve artefacts 1.75 times; in a heavy one 1.80 and 1.90 times.
Lookups in a small dict slowed 1.81 and 1.99 times, a pure arithmetic
loop 1.52 and 1.62 times, lookups in a dict too large for the caches
only 1.28 and 1.37 times.  The probe does equal shares of the first two,
which slow by about as much as the program in both spells.  It calls no
code of the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import time

#: The probe's fastest time on the host the suite was calibrated on
#: (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11).
REFERENCE_PROBE_S = 0.0045

#: A probe that ended this recently is reused as the next timing's
#: "before" probe: it is the previous timing's "after" probe.
REUSE_S = 0.05

_TABLE_SIZE = 4096
#: The probe's lookup table.
_TABLE = {str(i): (i, i + 1) for i in range(_TABLE_SIZE)}


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes.

    Ten thousand lookups of freshly made string keys in a small table,
    then forty thousand steps of integer arithmetic.  Nothing it
    allocates outlives an iteration, so it runs in memory the allocator
    already holds: a probe that grew its own structures ran 40% faster
    in a process that had built a world than in a fresh one, because a
    fresh process first faults in new pages.  The collector is off for
    its duration, for the same reason.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(10_000):
            first, second = _TABLE[str(i * 7919 % _TABLE_SIZE)]
            total += first * second % 97
        for i in range(40_000):
            total += i * i % 7
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Prober:
    """Host-speed probes of one process, paired with the timings they adjust.

    Usage::

        before = prober.start()
        start = time.perf_counter()
        ...                                   # the timed work
        seconds = prober.adjust(time.perf_counter() - start, before)
    """

    def __init__(self) -> None:
        #: Every probe time taken in this process, in order.
        self.samples: list[float] = []
        self.ended = float("-inf")

    def probe(self) -> float:
        self.samples.append(probe())
        self.ended = time.perf_counter()
        return self.samples[-1]

    def start(self) -> float:
        """The probe time before a timing: a new probe unless one just ended."""
        if time.perf_counter() - self.ended > REUSE_S:
            return self.probe()
        return self.samples[-1]

    def adjust(self, seconds: float, before: float) -> float:
        """``seconds`` as they would read on the reference host at its fast speed.

        ``before`` is what :meth:`start` returned when the timing began;
        this probes again for the host's speed at its end.
        """
        return seconds * 2 * REFERENCE_PROBE_S / (before + self.probe())
