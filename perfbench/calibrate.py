"""A fixed reference kernel that measures how fast the host runs right now.

The kernel does the kinds of work the program does -- Python calls on small
objects, small numpy arrays and Fraction arithmetic -- and never touches the
program, so a change to the program does not move it.  Its time, taken
between runs of a workload, tracks the host's speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

#: seconds of one kernel call on the 2-vCPU Xeon virtual machine of the
#: first baseline while no other tenant slowed it down
REFERENCE_S = 0.0043


class _Vec:
    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = coords

    def __add__(self, other):
        return _Vec(self.coords + other.coords)

    def scale(self, s):
        return _Vec(self.coords * s)

    def dot(self, other):
        return float(self.coords @ other.coords)


def kernel() -> float:
    """About 10 ms of mixed work on a quiet host; returns a checksum."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 13 - 6, 997 + i) * Fraction(i, 31)
    v = _Vec(np.array([1.0, 0.5, -0.25]))
    w = _Vec(np.array([0.3, -0.2, 0.1]))
    total = 0.0
    for i in range(700):
        v = (v + w.scale(0.001 * (i % 5))).scale(0.999)
        total += v.dot(w)
    m = np.eye(3) + 0.01 * np.outer(v.coords, w.coords)
    for _ in range(120):
        m = np.linalg.solve(m, np.eye(3)) @ m + 1e-9
    return float(acc) + total + float(m[0, 0])


def host_speed(pieces: int = 3) -> float:
    """Median wall seconds of a few kernel calls."""
    times = []
    for _ in range(pieces):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
