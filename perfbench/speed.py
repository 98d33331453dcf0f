"""A speed probe, to take the host's CPU speed drift out of request times.

On a shared virtual machine the speed one process sees changes from one
moment to the next (by 1.5x between fast and slow spells on a 2-core VM),
and slow spells can last minutes.  A slow spell slows a request and the
probe run beside it alike, so a request time divided by the probe times
around it no longer depends on the spell.  ``scaled`` multiplies that ratio
by ``REFERENCE_S``: the result is the request's time, in seconds, on a CPU
that runs the probe in ``REFERENCE_S``.  The probe is the benchmark's code,
so a change to the program cannot speed it up or slow it down, except by
competing with it for the CPU, which a single-process benchmark does not.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The probe's time at the reference speed.  Its median on a 2-core virtual
# machine (Python 3.11) is about 0.36 ms; only the ratio of two runs'
# results matters, so the constant is never re-measured.
REFERENCE_S = 0.0004


def _work() -> float:
    """Time of a fixed piece of interpreter work: small-int and big-int
    arithmetic, dict stores, fractions and a sort."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(960):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = acc
    big = 3 ** 200
    for i in range(96):
        big = (big * 7 + i) // 3
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 2)
    sorted(table.values(), reverse=True)
    return time.perf_counter() - start


def probe() -> float:
    """The median of three timings of ``_work``, so that one interrupt does
    not count as a slow spell.  The collector is off while it runs, so the
    heap the program leaves behind does not slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_work() for _ in range(3))
    finally:
        if was_enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes that took ``before`` and
    ``after``, as seconds at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
