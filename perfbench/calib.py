"""Host-speed calibration for wall times measured on a shared machine.

On a small shared host the speed of pure-Python code switches between
states that differ by up to a factor of two, on a time scale of a few
hundred milliseconds. A raw wall time therefore does not repeat, while its
ratio to a fixed pure-Python loop timed at the same moments does.

The loop is timed in a short block immediately before and immediately
after every timed region, and also inside the region: a SIGALRM interval
timer runs it every PERIOD_S seconds between the program's bytecodes. The
region's time spent in those in-run samples is subtracted from its wall
time, and the remainder is divided by the mean loop time. The in-run
samples matter for long regions: flanking blocks alone cannot follow a
speed change that happens in the middle of an eight-second grid.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

LOOP_STEPS = 60  # about 0.3 ms per loop
FLANK_LOOPS = 20
PERIOD_S = 0.025


def _vdp(y):
    return [y[1], (1.0 - y[0] * y[0]) * y[1] - y[0]]


def calibration_loop() -> list[float]:
    """Fixed pure-Python work, independent of lyapset: classical RK4 steps of
    the Van der Pol field on float lists. Of the loops tried, a small ODE
    stepper made of calls and list comprehensions followed the program's
    speed changes best; loops over a large list or many small objects did
    worse."""
    y = [0.5, 0.0]
    h = 1e-3
    for _ in range(LOOP_STEPS):
        k1 = _vdp(y)
        k2 = _vdp([y[i] + 0.5 * h * k1[i] for i in range(2)])
        k3 = _vdp([y[i] + 0.5 * h * k2[i] for i in range(2)])
        k4 = _vdp([y[i] + h * k3[i] for i in range(2)])
        y = [y[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(2)]
    return y


def time_loop() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def _flank() -> float:
    return statistics.fmean(time_loop() for _ in range(FLANK_LOOPS))


@dataclass(frozen=True)
class Timing:
    """One timed region. `cal` is the gated quantity; the rest is for readers."""

    wall_s: float  # raw wall time of the region, in-run samples included
    net_s: float  # wall_s minus the time the in-run samples took
    loop_s: float  # mean calibration-loop time around and inside the region
    cal_before_s: float
    cal_after_s: float
    in_run_samples: int

    @property
    def cal(self) -> float:
        return self.net_s / self.loop_s

    def to_json(self) -> dict:
        return {
            "wall_cal": self.cal,
            "wall_s": self.wall_s,
            "net_s": self.net_s,
            "loop_s": self.loop_s,
            "cal_before_s": self.cal_before_s,
            "cal_after_s": self.cal_after_s,
            "in_run_samples": self.in_run_samples,
        }


class Sampler:
    """Times regions in calibration units. `on_sample(t0, t1)`, if set, is
    told about every in-run sample so a tracer can exclude it."""

    def __init__(self):
        self.on_sample = None
        self._samples: list[float] = []

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self._samples.append(t1 - t0)
        if self.on_sample is not None:
            self.on_sample(t0, t1)

    def measure(self, fn):
        """Run fn() as one timed region; return (Timing, fn's result)."""
        before = _flank()
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        samples = self._samples
        after = _flank()
        # Each flanking block counts as one sample: it covers a few
        # milliseconds of host state, not FLANK_LOOPS independent moments.
        loop_s = statistics.fmean(samples + [before, after])
        timing = Timing(
            wall_s=t1 - t0,
            net_s=(t1 - t0) - sum(samples),
            loop_s=loop_s,
            cal_before_s=before,
            cal_after_s=after,
            in_run_samples=len(samples),
        )
        return timing, result
