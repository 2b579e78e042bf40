"""The host's speed, read from two fixed pure-Python routines.

On a shared host the same code runs up to twice as fast or slow from one
minute to the next, as other tenants load the cores and caches; per-run
medians of the library's time per request spread by a third across runs.
`HostSpeed.sample` times two routines of the benchmark's own, a few
milliseconds in all, between requests of the timed phase: an arithmetic
loop, which follows the core's speed, and a scan over scattered objects,
shaped like `Fleet._max_span`, which follows cache and memory contention.
Consecutive request times correlate (0.93 at a lag of one request, 0.45
at 250), so a sample every few dozen requests follows the host's speed.

The factor of one sample is the geometric mean of both times over their
nominal times, so 1.0 is the speed on which the nominal times were read
and 2.0 a host twice as slow.  Dividing a measured time by the factor
gives the time at nominal speed.

Neither routine calls the library, so a change to the library leaves the
factor alone and moves only the time it divides.
"""

from __future__ import annotations

import math
import random
import time

#: Typical times of the two routines between requests on an x86-64 Xeon
#: with 2 CPUs, CPython 3.11.  They only set the scale: 1.0 is that speed.
NOMINAL_ALU_NS = 1.5e6
NOMINAL_SCAN_NS = 1.0e6
ALU_STEPS = 8_000
SCAN_ITEMS = 6_000


class _Span:
    __slots__ = ("span",)

    def __init__(self, span: int):
        self.span = span


class _Job:
    __slots__ = ("window",)

    def __init__(self, span: int):
        self.window = _Span(span)


class HostSpeed:
    def __init__(self):
        rng = random.Random(0)
        # Allocate twice the objects kept and keep a random half, so the
        # scan follows pointers over scattered memory as a filled fleet does.
        pool = [_Job(rng.randrange(1 << 20)) for _ in range(2 * SCAN_ITEMS)]
        rng.shuffle(pool)
        self.jobs = {str(i): job for i, job in enumerate(pool[:SCAN_ITEMS])}
        #: Factor of every sample taken.
        self.factors: list[float] = []

    def sample(self) -> float:
        """Time both routines once; returns and records the sample's factor."""
        clock = time.perf_counter_ns
        started = clock()
        acc = 0
        for i in range(ALU_STEPS):
            acc += i * i % 7
        alu = clock() - started
        started = clock()
        max((job.window.span for job in self.jobs.values()), default=0)
        scan = clock() - started
        factor = math.sqrt(alu / NOMINAL_ALU_NS * scan / NOMINAL_SCAN_NS)
        self.factors.append(factor)
        return factor
