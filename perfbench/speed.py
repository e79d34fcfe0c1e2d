"""The host's speed, probed through a run, to put timings on one scale.

This benchmark runs on a few cores of a shared host.  Other tenants slow
the CPU by up to ~1.7x, in episodes that last from seconds to minutes, so
the same operation takes up to 1.7x longer in one run than in the next.
The runner therefore times a fixed reference routine around each set-up
and every PROBE_INTERVAL_S between operations, and scales each timing by
how long the routine took around it:

    scaled = measured * REFERENCE_S / (probe time around the measurement)

A scaled time is what the measurement would have read had the host run
the routine in REFERENCE_S: "seconds at reference speed".  Only eccipher
changes move it; the host's load moves the routine and the operations
together, and cancels out.

The routine imports nothing from eccipher, so a change to the package
cannot move it.  It has the same kind of work as the package's hot paths
in plain ints: affine point additions on E_1048573(2,3), a modular inverse
by the extended Euclidean algorithm, small slotted objects allocated per
residue, and hashing points into a dict, as a baby-step table does.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# The routine's time at reference speed: about its time on a quiet 2-vCPU
# 2.1 GHz Xeon VM with Python 3.11.7.
REFERENCE_S = 0.0016

# A probe at most this often during traffic; each costs ~REFERENCE_S, <1% of the run.
PROBE_INTERVAL_S = 0.25

WARM_UP_RUNS = 3

_P, _A = 1048573, 2
_G = (4, 5120)
_STEPS = 600


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % _P


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = _Residue(x)
        self.y = _Residue(y)

    def __eq__(self, other) -> bool:
        return self.x.v == other.x.v and self.y.v == other.y.v

    def __hash__(self) -> int:
        return hash((self.x.v, self.y.v))


def _inverse(v: int) -> int:
    a, b, x0, x1 = v % _P, _P, 1, 0
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
    return x0 % _P


def _add(p: _Point, q: _Point) -> _Point:
    x1, y1, x2, y2 = p.x.v, p.y.v, q.x.v, q.y.v
    if x1 == x2:
        slope = (3 * x1 * x1 + _A) * _inverse(2 * y1)
    else:
        slope = (y2 - y1) * _inverse(x2 - x1)
    x3 = (slope * slope - x1 - x2) % _P
    return _Point(x3, slope * (x1 - x3) - y1)


def reference_routine() -> int:
    """_STEPS multiples of G, each hashed into a table; returns the table's size."""
    g = _Point(*_G)
    acc = _add(g, g)
    table = {}
    for i in range(_STEPS):
        table[acc] = i
        acc = _add(acc, g)
    return len(table)


class SpeedLog:
    """Probe times of the reference routine, with when each was taken."""

    def __init__(self):
        self.at: list[float] = []     # perf_counter() when each probe ended
        self.took: list[float] = []   # seconds each probe took
        self._next = 0.0
        # The routine's first runs in a process are up to 1.5x slow; they are not kept.
        for _ in range(WARM_UP_RUNS):
            reference_routine()

    def probe(self) -> None:
        # With the collector off, the probe does not pay for collecting the
        # garbage the benchmark left behind, which varies from probe to probe.
        gc.disable()
        try:
            t0 = perf_counter()
            if reference_routine() != _STEPS:
                raise RuntimeError("the reference routine lost table entries")
            t1 = perf_counter()
        finally:
            gc.enable()
        self.at.append(t1)
        self.took.append(t1 - t0)
        self._next = t1 + PROBE_INTERVAL_S

    def probe_if_due(self) -> None:
        if perf_counter() >= self._next:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe taken from start to end.

        With no probe in that interval, the nearest probe on each side stands in.
        """
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.took)
