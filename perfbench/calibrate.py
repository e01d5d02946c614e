"""Calibration kernel: scales each execution to a fixed machine speed.

Other tenants of a shared machine slow whole stretches of a run down, for
milliseconds to minutes and by up to about 1.8 times. A short piece of work
meets quiet moments in most runs; a long one, such as a 0.6 s cluster
command, rarely does, and some runs have no quiet moment at all. So a fixed
kernel that uses no chorddiv code runs in blocks between the timed
executions, and each execution is timed in units of the kernel's time
around it, then converted to seconds at NOMINAL_KERNEL_S a unit. The worker
imports this module after its set-up is timed.
"""

import math
import time
from array import array

import numpy as np

#: Executions between two blocks of the calibration kernel: at least this
#: much of their time.
SEGMENT_S = 0.02
#: A block of the kernel lasts this share of the segment before it, and at
#: least BLOCK_MIN_S.
BLOCK_SHARE = 0.25
BLOCK_MIN_S = 0.002
#: The kernel block that follows set-up, in the worker and in each probe.
SETUP_BLOCK_S = 0.05
#: Seconds a kernel unit stands for: its time at quiet moments on the
#: 2-vCPU machine of the baseline (its 1 % quantile there read 64.8-67.3 us
#: over three 40-second runs). Fixed, because a quantile of the run itself
#: rises in runs that have no quiet moment.
NOMINAL_KERNEL_S = 65e-6

_CAL_WEIGHTS = np.array([0.4, 1.3])
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _cal_objective(v: float) -> float:
    t = _CAL_WEIGHTS * v + 0.2
    return float(np.sum(t * np.log(t)))


def calibration_unit() -> float:
    """A fixed piece of work in the library's style, Python loops over small
    numpy arrays, that uses no chorddiv code: a golden-section search of 14
    steps on a 2-vector objective."""
    lo, hi = 0.1, 3.0
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = _cal_objective(c), _cal_objective(d)
    for _ in range(14):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = _cal_objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = _cal_objective(d)
    return c


def calibration_block(seconds: float) -> list:
    """Times of back-to-back kernel units over at least ``seconds``."""
    clock = time.perf_counter
    times = []
    start = clock()
    while True:
        t = clock()
        calibration_unit()
        now = clock()
        times.append(now - t)
        if now - start >= seconds:
            return times


class Scaled:
    """Each execution's latency at the nominal machine speed, per case.

    The kernel runs in a block after every SEGMENT_S of executions. Each
    execution's time is divided by the mean kernel time of the blocks before
    and after its segment and multiplied by NOMINAL_KERNEL_S.
    """

    def __init__(self, n_cases: int):
        self.per_case = [array("d") for _ in range(n_cases)]
        self._pending = []
        self._segment_s = 0.0
        self._before = None

    def block(self, seconds: float) -> float:
        """Run a kernel block; scale the executions since the last one.
        Returns the block's mean kernel time."""
        times = calibration_block(seconds)
        mean = math.fsum(times) / len(times)
        around = mean if self._before is None else 0.5 * (self._before + mean)
        for case, took in self._pending:
            self.per_case[case].append(NOMINAL_KERNEL_S * took / around)
        self._pending.clear()
        self._segment_s = 0.0
        self._before = mean
        return mean

    def add(self, case: int, took: float) -> None:
        self._pending.append((case, took))
        self._segment_s += took
        if self._segment_s >= SEGMENT_S:
            self.block(max(BLOCK_MIN_S, BLOCK_SHARE * self._segment_s))

    def finish(self) -> None:
        if self._pending:
            self.block(max(BLOCK_MIN_S, BLOCK_SHARE * self._segment_s))
