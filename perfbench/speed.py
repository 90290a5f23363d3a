"""Machine-speed probe: every time the benchmark reports is at a reference speed.

The small shared VMs this benchmark is meant for change speed by up to ~1.8x,
in stretches that last from a second to minutes, and process CPU time slows
with wall time. No amount of work in one run averages that out, so each
measuring window also times a fixed probe: a short, fixed mix of interpreter,
small-array and 2 MB-array numpy work, much like statsynth's own (a probe of
interpreter work alone followed the loop workloads' slowdowns less well). A
timer signal runs it every `PERIOD_S` (the handler runs in the main thread,
between bytecodes), and once at each end of the window. Each stretch of time
between two probes is then reported as

    its length x REFERENCE_PROBE_S / median time of the probes nearest it,

that is, in seconds on a machine where the probe takes `REFERENCE_PROBE_S`,
and a measured interval is the sum of its stretches. Scaling by nearby
probes, not by the whole window's, follows a speed change within a run.
The probe's own time is left out of every measured time: `SpeedProbe.now` is
`time.perf_counter` less all probe time so far. The probe touches nothing of
the program's, so outputs do not change, and a program that gets faster or
slower reads faster or slower by the same share.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# about the probe's median time on a 2-vCPU Intel Xeon VM
REFERENCE_PROBE_S = 0.0045
PERIOD_S = 0.1
# probes around a stretch of time whose median gives its speed
NEAREST = 6

_ARITH = range(8000)
_TABLE = {f"k{i}": i for i in range(300)}
_SMALL = np.arange(256.0)
_LARGE = np.random.default_rng(0).random(1 << 18)


def _kernel() -> float:
    """Fixed work: an arithmetic loop, dict and tuple churn, small numpy calls,
    then passes over a 2 MB array that allocate a temporary as large."""
    s = 0
    for i in _ARITH:
        s += i * i % 7
    rows = [(k.upper(), v * 2, len(k)) for k, v in _TABLE.items()]
    for _ in range(4):
        rows.sort(key=lambda r: -r[1])
        s += len({r[0]: r for r in rows})
    for _ in range(120):
        x = _SMALL * 2.0 + 1.0
        s += float(np.sqrt(x).sum()) + int(np.searchsorted(_SMALL, 50.5))
    for _ in range(3):
        s += float(np.add(_LARGE, 1.0).sum())
    return s


class Window:
    """The probes of one measuring window: when each ran and how long it took.

    Filled in when the window closes; read it after that.
    """

    def close(self, at: list[float], samples: list[float]) -> None:
        self.at = at
        self.samples = samples
        # factor of the stretch between probe j and j+1, from the probes nearest it
        half = NEAREST // 2
        self._factors = [
            REFERENCE_PROBE_S / statistics.median(samples[max(j + 1 - half, 0):j + 1 + half])
            for j in range(len(samples) - 1)]

    @property
    def probe_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def mean_factor(self) -> float:
        """Reference seconds per probe-clock second over the whole window."""
        a, b = self.at[0], self.at[-1]
        return self.seconds(a, b) / (b - a) if b > a else self._factors[0]

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the interval [a, b] of the probe clock."""
        last = len(self._factors) - 1
        j = min(max(bisect.bisect_right(self.at, a) - 1, 0), last)
        total = 0.0
        while a < b:
            # the first and last stretches reach past the window's ends
            end = min(self.at[j + 1], b) if j < last else b
            total += (end - a) * self._factors[j]
            a, j = end, j + 1
        return total


class SpeedProbe:
    """Times the probe kernel on a timer while a window is open."""

    def __init__(self) -> None:
        self.total = 0.0
        self._at: list[float] = []
        self._samples: list[float] = []
        self._busy = False
        _kernel()  # warm

    def now(self) -> float:
        """perf_counter less all probe time so far."""
        return time.perf_counter() - self.total

    def sample(self) -> None:
        self._at.append(self.now())
        t0 = time.perf_counter()
        _kernel()
        d = time.perf_counter() - t0
        self._samples.append(d)
        self.total += d

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    @contextmanager
    def window(self):
        """Probe at both ends and every period in between; yields the Window."""
        win = Window()
        first = len(self._samples)
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield win
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()
            win.close(self._at[first:], self._samples[first:])
