"""Host-speed correction for the benchmark's timings.

On a shared machine the speed of one CPU drifts by tens of percent over a few
seconds, so raw seconds of the same pass spread too widely to gate a change.
`HostSpeed` samples that speed while a pass runs: every `interval` seconds of
wall time a SIGALRM handler times fixed reference kernels that do not depend
on the code under test.  An interval's corrected seconds are its wall seconds,
less the time spent in the handler, scaled by the kernels' reference seconds
over their mean sampled seconds in and next to that interval: the seconds the
same work would take on the reference host when it is quiet.

The kernels mirror the kind of work a workload does, because different work
slows by different amounts when the host is busy: `python_kernel` is exact
integer elimination, `Fraction` arithmetic and dict traffic in the interpreter;
`numpy_kernel` is a mod-p row reduction on an int64 array, the shape of the
numpy mod-p rank backend.  The handler costs 1-4% of a pass.

The samples are taken on the benchmark's one thread, between the program's
bytecodes, so no second thread or process competes with the program.
"""

from __future__ import annotations

import functools
import random
import signal
import statistics
import time
from fractions import Fraction

_clock = time.perf_counter

_rng = random.Random(12345)
_ROWS = [[_rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
_FRACTIONS = [Fraction(_rng.randint(-9, 9), _rng.randint(1, 7)) for _ in range(40)]
_MODP_SHAPE, _MODP_PIVOTS, _P = (64, 133), 16, 30011
INTERVAL_S = 0.05  # between samples: about 6 of them in the shortest set-up


def python_kernel() -> int:
    """About 0.5 ms of interpreter work; returns the rank of a fixed matrix."""
    rows = [r[:] for r in _ROWS]
    n = len(rows)
    prev, rank = 1, 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if rows[i][col]), -1)
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pc = rows[rank][col]
        for i in range(rank + 1, n):
            ri, ric = rows[i], rows[i][col]
            for j in range(col + 1, n):
                ri[j] = (pc * ri[j] - ric * rows[rank][j]) // prev
            ri[col] = 0
        prev = pc
        rank += 1
    acc = Fraction(0)
    for a in _FRACTIONS:
        acc = acc * a + 1 / (a + 11)
    table: dict = {}
    for k in range(200):
        table[(k, k % 7)] = table.get((k % 13, k % 7), 0) + k
    return rank


@functools.cache
def _modp_matrix():
    import numpy as np

    # from `random`, as numpy.random would add megabytes to peak_rss_mb
    gen = random.Random(12345)
    n, m = _MODP_SHAPE
    return np.array([[gen.randrange(1, _P) for _ in range(m)] for _ in range(n)],
                    dtype=np.int64)


def numpy_kernel() -> int:
    """About 1 ms of mod-p row reduction in numpy; returns the pivots done."""
    import numpy as np

    a = _modp_matrix().copy()
    for r in range(_MODP_PIVOTS):
        nz = np.nonzero(a[r:, r])[0]
        if nz.size == 0:
            continue
        inv = pow(int(a[r + nz[0], r]), -1, _P)
        f = (a[r + 1:, r] * inv) % _P
        a[r + 1:, r:] = (a[r + 1:, r:] - f[:, None] * a[r, r:]) % _P
    return _MODP_PIVOTS


# Kernel seconds on the reference host, a 2-vCPU Intel Xeon VM with Python
# 3.11 and numpy 2.4, when quiet.  Fixed, so that corrected seconds stay
# comparable across commits.
KERNELS = {
    "python": (python_kernel, 0.0005),
    "numpy": (numpy_kernel, 0.0010),
}


class HostSpeed:
    """Samples the named kernels every INTERVAL_S seconds between start and stop."""

    def __init__(self, kernels=("python",)):
        self._kernels = [KERNELS[k][0] for k in kernels]
        self._ref_s = sum(KERNELS[k][1] for k in kernels)
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._warmup = (0.0, 0.0)  # (start, seconds) of the first, unsampled run
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a slow kernel overran the interval
            return
        self._busy = True
        start = _clock()
        for k in self._kernels:
            k()
        self.samples.append((start, _clock() - start))
        self._busy = False

    def start(self):
        if numpy_kernel in self._kernels:
            # timed with the caller's set-up: orbitatlas imports numpy as well
            import numpy  # noqa: F401
        start = _clock()
        self._sample()  # warms the kernels up ...
        self._warmup = (start, _clock() - start)
        self.samples.clear()
        self._sample()  # ... and gives every interval a sample near it
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, start: float, end: float) -> float:
        """Corrected seconds of program work between two `_clock()` readings."""
        spent = sum(d for t, d in self.samples + [self._warmup] if start <= t < end)
        near = [d for t, d in self.samples if start - INTERVAL_S <= t < end + INTERVAL_S]
        if not near:  # only before start() or after stop()
            near = [d for _, d in self.samples]
        return (end - start - spent) * self._ref_s / statistics.fmean(near)

    def slowdown(self) -> float:
        """Median sampled kernel time over the reference; above 1 is a slow host."""
        return statistics.median(d for _, d in self.samples) / self._ref_s
