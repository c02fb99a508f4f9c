"""Host-speed probe: the benchmark's correction for a host whose speed drifts.

On a shared host the same pure-Python work can run at about 1.0x or 1.9x
its fastest time, in regimes that switch every few seconds and can last a
whole run.  CPU time follows wall time there, so neither clock removes it.
``probe()`` times a fixed piece of the package's kind of work (sparse
multiply-adds over ``fractions.Fraction`` in dicts) and ``scale(h)`` turns a
probe time into the factor that brings a time measured next to it to the
speed the probe has at ``REF_S``.  The probe uses no package code, so a
change to the package moves a scaled time exactly as it moves the raw one;
it runs with the garbage collector off, so the size of the program's heap
does not move it either.

A verdict can take seconds, longer than a regime, so ``Clock`` also probes
on a timer signal while the program runs and scales each stretch between two
probes by their mean.
"""

import gc
import signal
from fractions import Fraction
from time import perf_counter

# The probe's fastest time on the host the benchmark was built on (2 vCPUs,
# Python 3.11.7); scaled times read as if the host always ran at that speed.
REF_S = 1.0e-3
REPEATS = 3         # runs of the fixed work in one probe
INTERVAL_S = 0.05   # timer period of the clock's probes

_ROW = {j: Fraction(j % 7 - 3, 1 + j % 5) for j in range(0, 64, 2)}
_COEFS = [Fraction(i, 7) for i in range(1, 13)]


def _work():
    acc = {}
    for c in _COEFS:
        for j, v in _ROW.items():
            acc[j] = acc.get(j, 0) + c * v
    return acc


def probe():
    """Median time of REPEATS runs of the fixed work, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t = perf_counter()
            _work()
            times.append(perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[len(times) // 2]


def scale(*probes):
    """Factor for a time measured between these probe times."""
    return REF_S * len(probes) / sum(probes)


class Clock:
    """Raw and scaled time of the whole run, cut into stretches by probes.

    ``mark()`` probes now and returns the running totals ``(raw, scaled)``
    of the time outside the probes; the difference of two totals is the time
    of the work done between the two marks.  Between ``start`` and ``stop`` a
    timer signal also marks every INTERVAL_S seconds.
    """

    def __init__(self):
        self.raw = self.scaled = 0.0
        self.probing = 0.0  # time spent in marks so far
        self._busy = False
        self._last_probe = self._last_end = None

    def start(self, since):
        """Start with a probe; the stretch from ``since`` counts at its speed."""
        t = perf_counter()
        self._last_probe = probe()
        self._last_end = perf_counter()
        self.raw = t - since
        self.scaled = self.raw * scale(self._last_probe)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        if not self._busy:
            self.mark()

    def mark(self):
        self._busy = True
        start = perf_counter()
        p = probe()
        end = perf_counter()
        stretch = start - self._last_end
        self.raw += stretch
        self.scaled += stretch * scale(self._last_probe, p)
        self._last_probe, self._last_end = p, end
        self.probing += end - start
        self._busy = False
        return self.raw, self.scaled

    def work_time(self):
        """``perf_counter()`` less the time spent in marks so far; a mark
        that interrupts this call makes it read again."""
        while True:
            probing = self.probing
            t = perf_counter()
            if self.probing == probing:
                return t - probing
