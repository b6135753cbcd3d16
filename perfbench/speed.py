"""Machine-speed probe, so that reported times do not follow the machine.

The machine the benchmark was written on changes speed by up to 2x, over
seconds as well as over minutes, with process CPU time moving with wall time
(the CPU itself gets slower, the process is not descheduled). A time measured
once is then as much a reading of the machine as of the program.

A Probe times a fixed piece of reference work (`reference_work`, a loop of
small numpy matrix-vector steps, the kind of work the program's hot path
does; it tracks the program's speed about twice as closely as a loop of
scalar arithmetic does) every INTERVAL_S seconds while a workload runs. It
runs from a SIGALRM handler in the main thread, so it needs no extra thread
and samples the speed evenly in time. Times are then reported at reference
speed: a measured time, minus the probe's own time, times the mean of REF_S
over the probe times around it. The reference work is sized to take about
REF_S on the machine the benchmark was written on (2 CPUs, Python 3.11.7,
numpy 2.4.6) in its fast state, so reported seconds read as seconds there.
The reference work is the benchmark's own and fixed: a change to the program
changes the measured time, not the probe.
"""

import bisect
import signal
from time import perf_counter

import numpy as np

REF_S = 1.0e-3
INTERVAL_S = 0.05
_M = np.array([[0.9, 0.01, 0.0], [0.02, 0.95, 0.01], [0.0, 0.03, 0.97]])
_V = np.array([0.1, 0.0, 0.2])
_C = np.array([1.0, 0.5, 0.25])
_STEPS = 220


def reference_work():
    x = np.zeros(3)
    for _ in range(_STEPS):
        x = _M @ x + _V
        z = 0.5 + _C @ x
        if not (np.abs(x) <= 1e6).all() or not abs(z) <= 1e6:
            break
    return x


class Probe:
    """Samples the speed while active (`with probe:`); `spent` is the time the
    probes themselves took, to be subtracted from any time measured across
    them."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.starts = []  # perf_counter at each probe
        self.durations = []
        self.spent = 0.0
        self._saved = None

    def _on_alarm(self, signum, frame):
        t = perf_counter()
        reference_work()
        d = perf_counter() - t
        self.starts.append(t)
        self.durations.append(d)
        self.spent += d

    def sample(self, n):
        """Take n probes now, outside any measured interval."""
        for _ in range(n):
            self._on_alarm(None, None)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def factor(self, start, end, margin=0.0):
        """The mean of REF_S over each probe's time, over the probes in
        [start - margin, end + margin]; None if no probe fell there. Speed,
        not probe time, is averaged: probes sample time evenly, and the work
        done in a stretch of time is its length times the mean speed."""
        lo = bisect.bisect_left(self.starts, start - margin)
        hi = bisect.bisect_right(self.starts, end + margin)
        if hi <= lo:
            return None
        return sum(REF_S / d for d in self.durations[lo:hi]) / (hi - lo)
