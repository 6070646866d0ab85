"""Host-speed probe: rescale measured times to a fixed host speed.

On a shared host the speed of one core changes by up to 1.8x within
seconds, as neighbours start and stop: a fixed pure-Python loop flips
between about 0.14 s and 0.23 s from one second to the next on a 2-core
Xeon guest.  That drift is larger than the bounds the benchmark keeps, so
each timed interval is rescaled by the host speed measured during it.

While the probe runs, a timer signal every ``PERIOD_S`` runs a short,
fixed piece of interpreter work (``probe_work``) in the measuring process
and records how long it took.  The probe shares no code with su3mag, so a
change to su3mag cannot move it.  For an interval of wall time ``T`` with
probe durations ``d_i``::

    normalized = (T - sum(d_i)) * REFERENCE_PROBE_S * mean(1 / d_i)

``1 / d_i`` is the host speed at one moment, and the probes are spread
evenly over wall time, so ``mean(1 / d_i)`` is the mean speed over the
interval.  ``REFERENCE_PROBE_S`` is a fixed probe time: a normalized second
is the time the interval would have taken on a host where one probe takes
exactly that long.  It is about the probe's time on a 2-core Xeon guest
under its usual load, so normalized and measured times are of one size.
Under equal host load the ratio of two normalized times equals the ratio
of the measured ones.  The probes cost about 0.5% of the interval and are
subtracted from it.

The probe is interpreter work because that tracked the workloads best: in
one process running passes for 60-150 s, it cut the pass-to-pass
coefficient of variation from 0.12-0.19 to 0.02-0.03 on all three
workloads, where probes reading random entries of a 32 MB buffer or of a
1M-entry list left 0.04-0.12.
"""

from __future__ import annotations

import signal
import time
from array import array

PERIOD_S = 0.005
REFERENCE_PROBE_S = 2e-5


def probe_work():
    x = 0
    d = {}
    for k in range(150):
        x += (k * k) % 7
        d[k & 15] = x
    return x


def normalize(wall_s, durations):
    """``wall_s`` rescaled by the host speed the probe durations show."""
    if not durations:
        raise ValueError("no probe ran during the interval")
    speed = sum(1.0 / d for d in durations) / len(durations)
    return (wall_s - sum(durations)) * REFERENCE_PROBE_S * speed


class HostSpeed:
    """Runs the probe on a timer signal and keeps every probe's duration."""

    def __init__(self):
        self.durations = array("d")

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
