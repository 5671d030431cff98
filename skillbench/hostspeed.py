"""Scaling measured times to a nominal host speed.

On a shared 2-vCPU VM the same pure-Python loop took anywhere from 0.9 s to
1.8 s within one hour, and the host's speed drifts over minutes, so raw
times of separate runs differ by more than any useful regression bound.
The drift reaches the program and a fixed calibration loop alike.  Over
9 s windows of maintain-2k operations with calibration samples between
them, the operation time varied by 6.7% (coefficient of variation) and its
ratio to the calibration time by 3.4%.  In ten runs of each workload, during
which one unit took between 2.9 and 5.6 ms, the spread of op_p50_ms across
runs (interquartile range over median) was 0.33, 0.32 and 0.47 as measured
and 0.13, 0.09 and 0.08 scaled, on maintain-2k, diagnose-wide-8k and
plan-queries-1k; most of what remains on maintain-2k is work that differs
from seed to seed.

`HostSpeed.sample` runs the calibration unit, a fixed mix of string
formatting, dict and set building and sorting that uses nothing of
skillops, for a set share of the time just measured.  The unit allocates
no object the garbage collector tracks, so its time does not depend on how
large the program's heap is.  Interleaving the samples with the timed work
spreads them over the whole run.  `factor` turns a measured time into the
time it would have taken on a host where one unit takes `UNIT_S`.
"""

from __future__ import annotations

from time import perf_counter

# Nominal time of one unit: about its time on the 2-vCPU x86_64 VM of the
# baseline at the VM's quietest.  It only sets the scale of scaled times.
UNIT_S = 2.9e-3
SHARE = 0.25  # calibration time per second of timed work


def unit() -> int:
    d = {}
    for i in range(5000):
        k = f"s{i * 7919 % 1000}-{i}"
        d[k] = i ^ len(k)
    return len({k[:3] for k in d}) + len(sorted(d, key=d.__getitem__))


class HostSpeed:
    def __init__(self) -> None:
        self.seconds = 0.0
        self.units = 0

    def sample(self, timed_s: float) -> None:
        """Run whole units for SHARE of `timed_s`, and at least one."""
        budget = SHARE * timed_s
        t0 = perf_counter()
        while True:
            unit()
            self.units += 1
            elapsed = perf_counter() - t0
            if elapsed >= budget:
                break
        self.seconds += elapsed

    @property
    def unit_s(self) -> float:
        """Mean measured time of one unit."""
        return self.seconds / self.units

    @property
    def factor(self) -> float:
        """Measured time x factor = time at the nominal host speed."""
        return UNIT_S / self.unit_s
