"""Host speed, sampled while the untraced passes run, to take a shared
host's changing speed out of the end-to-end times.

On a shared 2-vCPU host the same pass ran up to twice as slow from one
minute to the next, and a whole run can sit in a slow stretch, so no choice
of passes within a run is steady.  ``HostProbe`` runs a fixed probe
(``probe``: a pure-Python loop and sums over a 256 KiB array, about 0.5 ms;
benchmark code only, so no change to the program moves it) from SIGALRM
every ``PERIOD_S`` while the passes run.  ``normalised(a, b)`` rescales the
program's time in ``[a, b]``, the probes' own time taken out, to a host on
which the probe takes ``REF_PROBE_S``, using the median probe time around
``[a, b]``.  Over ten 26 s runs of each workload on that host the median
rescaled pass spread (IQR over median) 0.045-0.097 where the median raw
pass spread 0.08-0.36.  The probe tracks the program's slowdowns only in
part: in the slowest stretches a pass ran 2x slower while the probe ran
1.5x slower.  Probes that also touched a 16 MiB array, called small
LAPACK routines, encoded JSON or built strings and dicts tracked them no
better, and the median probe time tracked them better than the mean.

Python runs signal handlers only between bytecodes of the main thread, so
during a long call into C (a SuperLU factorisation) sampling pauses; the
window around a stretch then widens until it holds ``MIN_SAMPLES``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
# The probe's typical time on the host the benchmark was tuned on (Intel
# Xeon, 2 vCPUs, Python 3.11, numpy 2.4), so rescaled figures read as
# seconds on that host.
REF_PROBE_S = 5.0e-4
MIN_SAMPLES = 9

_BUF = np.arange(32768.0)


def probe() -> None:
    """The fixed unit of work whose time measures the host's speed."""
    s = 0
    for i in range(4000):
        s += i * i
    for _ in range(20):
        _BUF.sum()


def time_probe(n: int) -> list[float]:
    """Times of ``n`` back-to-back probes."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        probe()
        out.append(time.perf_counter() - t0)
    return out


class HostProbe:
    """Times the probe every ``PERIOD_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        probe()                                    # warm before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._t = np.asarray(self.starts)
        self._d = np.asarray(self.durations)
        self._cum = np.concatenate([[0.0], np.cumsum(self._d)])

    def normalised(self, a: float, b: float) -> float:
        """Program time in ``[a, b]`` at the reference host speed.

        The probes that started in ``[a, b]`` are taken out, and the rest
        is scaled by ``REF_PROBE_S`` over the median probe time in the
        narrowest window ``[a - m, b + m]`` (``m`` = 0, 0.25 s, 0.5 s, ...)
        that holds ``MIN_SAMPLES`` samples, or all of them.
        """
        t, d = self._t, self._d
        if len(t) == 0:
            raise RuntimeError("no host-speed samples were taken")
        lo, hi = np.searchsorted(t, [a, b])
        own = b - a - (self._cum[hi] - self._cum[lo])
        m = 0.0
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(t)):
            m = max(2.0 * m, 0.25)
            lo, hi = np.searchsorted(t, [a - m, b + m])
        return own * REF_PROBE_S / float(np.median(d[lo:hi]))
