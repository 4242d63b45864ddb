"""Host speed, measured by a fixed pure-Python kernel run between the calls timed.

On a shared host the same dimfox verdict takes 0.42 s in one minute and
0.70 s in the next, CPU time as much as wall time, and slow spells last
longer than a run.  The reference kernel below does the same kind of
work as dimfox (integer row operations in list comprehensions, dict
lookups, set closure) but does not touch dimfox, so a change to the
program leaves it alone while a change in host speed moves both.

The runner calls `Pacer.after(work_s)` after each timed call; it runs the
kernel once per REF_EVERY seconds of timed work.  `Pacer.factor(t0, t1)`
is the median kernel time in a window around [t0, t1] over NOMINAL_S: the
host's slowdown then.  Times are divided by it, which reports them in
seconds at the speed where the kernel takes NOMINAL_S.  On 2 shared
vCPUs (x86-64, 2.1 GHz) the ratio of a verdict's median time to the
kernel's median time stayed within 6% of its mean over minutes in which
the raw verdict time moved by 1.7x.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left, bisect_right

NOMINAL_S = 0.0022  # median kernel time on 2 shared vCPUs (x86-64, 2.1 GHz) when the host is quiet
REF_EVERY = 0.05  # seconds of timed work per kernel call (about 4% of the run)
WINDOW_S = 1.5  # kernel samples this far either side of a call count towards its factor
MIN_SAMPLES = 9


def reference_kernel() -> int:
    rows = [[(i * 7919 + j * 104729) % 97 - 48 for j in range(48)] for i in range(24)]
    acc = 0
    for k in range(len(rows) - 1):
        piv = rows[k]
        a = piv[k] or 1
        for r in range(k + 1, len(rows)):
            b = rows[r][k]
            rows[r] = [(a * y - b * x) % 1000003 for x, y in zip(piv, rows[r])]
        acc ^= sum(rows[k])
    n = 96
    table = {(x, y): (x * 5 + y * 11 + x * y) % n for x in range(n) for y in range(0, n, 3)}
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for x in frontier:
            for g in (3, 6, 9):
                z = table[(x, g)]
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return acc + len(seen)


class Pacer:
    """Runs the reference kernel between timed calls and keeps its times."""

    def __init__(self):
        self.at: list[float] = []  # start of each kernel call, ascending
        self.took: list[float] = []
        self.owed = 0.0

    def sample(self, count: int = 1) -> None:
        # the kernel makes no cycles; with the collector off its time does
        # not depend on how many objects the program keeps alive
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                reference_kernel()
                self.at.append(t0)
                self.took.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def after(self, work_s: float) -> None:
        self.owed += work_s
        if self.owed >= REF_EVERY:
            count = int(self.owed / REF_EVERY)
            self.owed -= count * REF_EVERY
            self.sample(count)

    def factor(self, t0: float, t1: float) -> float:
        """Host slowdown around [t0, t1]: median kernel time there over NOMINAL_S."""
        lo, hi = bisect_left(self.at, t0 - WINDOW_S), bisect_right(self.at, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:  # widen to the nearest MIN_SAMPLES samples
            mid = bisect_left(self.at, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = min(len(self.at), lo + MIN_SAMPLES)
        return statistics.median(self.took[lo:hi]) / NOMINAL_S

    def overall(self) -> float:
        return statistics.median(self.took) / NOMINAL_S
