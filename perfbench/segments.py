"""Cut each run of a workload into short segments and time each one against
the host's speed at that moment.

A workload names a few functions that its run calls many times, in the
namespace where the run looks them up (for example ``cli.random_frame_shape``
for ``detq``).  While installed, each call of one of them records the wall
and CPU clocks, so a run from start to verdict falls into segments of about a
millisecond each.  At the first call after every ``every`` seconds, and at the
start and end of each run, the reference kernel of calibrate.py runs once
and its time is recorded; its own time is left out of the run's clocks.

The host is shared, and its speed switches within seconds between states
about 1.7 times apart (the kernel takes about 4.3 or 7.5 ms on a 2-vCPU Xeon
virtual machine), so a run's raw time depends mostly on what other tenants
did meanwhile.  ``normalized`` divides each segment's time by the host's
speed around it, measured by the nearest calibrations, and so gives the
seconds the run would take with the kernel at ``calibrate.REFERENCE_S``.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

import calibrate


class Segments:
    def __init__(self, targets, every: float):
        #: (owner, attribute) of each function whose calls cut the run
        self.targets = tuple(targets)
        self.every = every
        self._wall = array("d")
        self._cpu = array("d")
        self._cal_at = array("d")
        self._cal = array("d")
        self._cal_cpu = array("d")
        self._skip_wall = 0.0
        self._skip_cpu = 0.0
        self._last_cal = 0.0
        self._patches: list[tuple[object, str, object]] = []
        #: per run: segment ends (wall, cpu) and calibrations (at, wall and cpu seconds)
        self.runs: list[dict[str, np.ndarray]] = []

    def _mark(self, calibrate_now: bool = False) -> None:
        now = time.perf_counter()
        if calibrate_now or now - self._last_cal >= self.every:
            c0 = time.process_time()
            calibrate.kernel()
            done, cpu = time.perf_counter(), time.process_time() - c0
            self._cal_at.append(now - self._skip_wall)
            self._cal.append(done - now)
            self._cal_cpu.append(cpu)
            self._skip_wall += done - now
            self._skip_cpu += cpu
            self._last_cal = now = done
        self._wall.append(now - self._skip_wall)
        self._cpu.append(time.process_time() - self._skip_cpu)

    def install(self) -> None:
        mark = self._mark
        for owner, attr in self.targets:
            fn = getattr(owner, attr)

            def cut(*args, _fn=fn, **kwargs):
                mark()
                return _fn(*args, **kwargs)

            self._patches.append((owner, attr, fn))
            setattr(owner, attr, functools.update_wrapper(cut, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def start(self) -> None:
        for a in (self._wall, self._cpu, self._cal_at, self._cal, self._cal_cpu):
            del a[:]
        self._mark(calibrate_now=True)

    def stop(self) -> tuple[float, float]:
        """End a run; return its wall and CPU seconds, calibrations left out."""
        self._mark(calibrate_now=True)
        run = {
            name: np.frombuffer(a).copy()
            for name, a in (
                ("wall", self._wall),
                ("cpu", self._cpu),
                ("cal_at", self._cal_at),
                ("cal", self._cal),
                ("cal_cpu", self._cal_cpu),
            )
        }
        self.runs.append(run)
        return float(run["wall"][-1] - run["wall"][0]), float(run["cpu"][-1] - run["cpu"][0])

    def normalized(self) -> tuple[list[float], list[float]]:
        """Wall and CPU seconds of each run at the reference host speed."""
        walls, cpus = [], []
        for run in self.runs:
            mid = (run["wall"][1:] + run["wall"][:-1]) / 2
            for clock, cal, out in (("wall", "cal", walls), ("cpu", "cal_cpu", cpus)):
                speed = np.interp(mid, run["cal_at"], _median3(run[cal]))
                out.append(float(np.sum(np.diff(run[clock]) * (calibrate.REFERENCE_S / speed))))
        return walls, cpus


def _median3(x: np.ndarray) -> np.ndarray:
    """Running median over three neighbours, which drops a single outlying calibration."""
    if len(x) < 3:
        return x
    padded = np.concatenate(([x[0]], x, [x[-1]]))
    return np.median(np.stack([padded[:-2], padded[1:-1], padded[2:]]), axis=0)
