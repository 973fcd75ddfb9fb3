"""Reference-speed clock for a host whose speed drifts.

On a shared virtual machine the same pure-Python work can take 10-40 % longer
for minutes at a time, because of load outside the guest that it cannot see
or control.  To keep that drift out of the end-to-end times, a SIGALRM timer
runs a fixed probe loop every PERIOD seconds while a pass runs and records
how long each probe took.  A job that took `dt` seconds while the probes
around it averaged `p` seconds is reported as `dt * P_REF / p` reference
seconds: the time it would have taken with the probe running at P_REF.
P_REF is close to the probe's usual duration on the reference machine, so
reference seconds read close to wall seconds there.

The probe costs about 0.6 % of the run.  The timer is off outside passes.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.025
P_REF = 1.6e-4
MIN_SAMPLES = 3


def probe() -> float:
    """Duration of a fixed integer loop (about 0.15 ms)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(2000):
        s += i * i
    return time.perf_counter() - t0


def probe_mean(count: int = 100) -> float:
    return statistics.mean(probe() for _ in range(count))


class SpeedSampler:
    """Collects (time, probe duration) samples while active."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def mean_between(self, t0: float, t1: float):
        xs = [d for t, d in self.samples if t0 <= t <= t1]
        return statistics.mean(xs) if len(xs) >= MIN_SAMPLES else None

    def reference_seconds(self, t0: float, t1: float, fallback: float) -> float:
        """Reference seconds of the interval [t0, t1], using the probes taken
        in it, or `fallback` (a mean probe duration) when it holds too few."""
        p = self.mean_between(t0, t1) or fallback
        return (t1 - t0) * P_REF / p
