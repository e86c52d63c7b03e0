"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the speed of the same code drifts by tens of
percent over minutes and drops by up to 1.6x in episodes of seconds, as other
tenants come and go.  The benchmark runs this kernel while it times satedge
and scales each job's time to a machine on which the kernel takes
REFERENCE_S.  The kernel is pure Python in the style of satedge's inner
loops (bitmask clique enumeration on Python ints) and never calls satedge.
The benchmark runs it only while satedge runs in the benchmark's own
process, so a change to the program moves it only by making such a call
run work in other threads or processes.

`Sampler` runs the kernel every INTERVAL_S of wall time from a SIGALRM
handler, so the samples fall inside long satedge calls too, not only
between them.  The handler's own time is kept in `spent`, for the caller to
subtract from what it timed.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

REFERENCE_S = 0.0003
INTERVAL_S = 0.01
_N = 48
_ADJ = [0] * _N
_rng = random.Random(12345)
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.3:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u


def _cliques(cand: int, depth: int, found: list):
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        if depth == 1:
            found.append(v)
        else:
            _cliques(cand & _ADJ[v], depth - 1, found)


def reference() -> float:
    """Seconds one run of the kernel took (about 0.3 ms on a 2-vCPU Xeon VM)."""
    found: list[int] = []
    t0 = time.perf_counter()
    _cliques((1 << _N) - 1, 4, found)
    return time.perf_counter() - t0


def scale(samples: list[float], power: float = 1.0) -> float:
    """Factor that takes a time measured alongside these kernel times to a
    machine on which the kernel takes REFERENCE_S.

    With `power` < 1 the factor follows only part of the kernel's slowdown,
    for code that slows down less than the kernel when the machine is busy.
    """
    return (REFERENCE_S / statistics.median(samples)) ** power


class Sampler:
    """Runs the kernel every INTERVAL_S of wall time inside `with sampler:`.

    Samples accumulate in `samples`; `spent` is the wall time the handler
    took, kernel included.  Only the main thread may create or enter it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._active = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self._active:
            t0 = time.perf_counter()
            self.samples.append(reference())
            self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False
