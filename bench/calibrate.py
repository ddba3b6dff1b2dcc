"""Host-speed calibration: a fixed pure-Python kernel timed during a run.

The benchmark was defined on a shared 2-vCPU virtual machine whose speed
drifts with the load of other guests: a fixed loop took from 0.6x to 1.4x
its usual time, over tens of seconds to minutes, and by as much within a
tenth of a second; both vCPUs drifted together.  That drift moves every
wall-clock figure of a run by more than a useful bound.  So the benchmark
times this kernel 20 times a second while the workload runs, and scales
each op's time by how much slower or faster than `KERNEL_REF_S` the kernel
ran during it.  The scaled times are in milliseconds "at reference
speed": the wall time the op would have taken on the host while the kernel
took `KERNEL_REF_S`.

The kernel does the kind of work weylhom does, without importing it, so
that a change to the program never changes the yardstick: a recursive
enumeration of compositions through closures that builds tuples, a dict of
tuple keys accumulated mod p, and Gauss-Jordan elimination of list rows over
GF(p).  Keep it fixed; if it must change, re-measure `KERNEL_REF_S`.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# median kernel time on the host the benchmark was defined on (Intel Xeon,
# 2 vCPUs, Python 3.11), quiet; only the scale of the reported numbers
# depends on it
KERNEL_REF_S = 0.0024

_P = 7
_N = 56


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    slots = [0] * parts

    def rec(slot, left):
        if slot == parts - 1:
            slots[slot] = left
            out.append(tuple(slots))
            return
        for v in range(left + 1):
            slots[slot] = v
            rec(slot + 1, left - v)

    rec(0, total)
    return out


def kernel() -> int:
    """One fixed unit of pure-Python work; returns a checksum."""
    acc: dict[tuple[int, ...], int] = {}
    for comp in _compositions(10, 4):
        key = tuple(sorted(comp))
        acc[key] = (acc.get(key, 0) + sum(i * v for i, v in enumerate(comp, 1))) % _P
    rows = [[(i * j + i + 3 * j) % _P for j in range(_N)] for i in range(_N)]
    rank = 0
    for c in range(_N):
        piv = next((i for i in range(rank, _N) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], _P - 2, _P)
        prow = rows[rank] = [v * inv % _P for v in rows[rank]]
        for i in range(_N):
            f = rows[i][c]
            if i != rank and f:
                rows[i] = [(a - f * b) % _P for a, b in zip(rows[i], prow)]
        rank += 1
    return rank + sum(acc.values())


class Speed:
    """Kernel timings taken while a workload runs, and the host's slowness.

    Between `start()` and `stop()` a wall-clock timer interrupts the process
    every `interval` seconds and times one kernel, with the garbage collector
    held off; `excluded` adds up the time those interruptions took, so that
    the caller can take it out of what it times.  `burst(n)` times n kernels
    in a row, before the timer starts.  `factor(t0, dt)` is the mean kernel
    time of the samples within the interval [t0, t0 + dt] widened to at
    least `window` seconds either side of its middle (at least the
    `nearest` nearest samples), over `KERNEL_REF_S`: above 1 while the host
    ran slow.
    """

    def __init__(self, interval: float = 0.05, window: float = 0.15, nearest: int = 3):
        self.interval = interval
        self.window = window
        self.nearest = nearest
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self.excluded = 0.0

    def _sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.kernel_s.append(t1 - t0)

    def burst(self, reps: int) -> None:
        for _ in range(reps):
            self._sample()

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._sample()
        finally:
            if collecting:
                gc.enable()
            self.excluded += perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float, dt: float) -> float:
        times = self.times
        mid, half = t0 + dt / 2, max(dt / 2, self.window)
        picked = self.kernel_s[bisect_left(times, mid - half):bisect_right(times, mid + half)]
        if len(picked) < self.nearest:
            near = sorted(range(len(times)), key=lambda i: abs(times[i] - mid))
            picked = [self.kernel_s[i] for i in near[: self.nearest]]
        return statistics.fmean(picked) / KERNEL_REF_S

    def median_factor(self) -> float:
        return statistics.median(self.kernel_s) / KERNEL_REF_S
