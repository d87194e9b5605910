"""Host-speed probe for normalising measured time.

On a shared host the same single-threaded work takes from 1x to about 1.8x
as long, depending on what the machine's other tenants run; a slow spell
lasts from a fraction of a second to tens of seconds, long enough to move a
whole run. The probe is a fixed kernel of this benchmark's own (interpreted
Python with attribute access, sorting, and small numpy calls, the mix the
program runs). `HostClock` cuts a timed phase into segments of about
SEGMENT_S, times the kernel at every cut (about 2% of the phase), and converts each segment's wall
seconds into seconds on a host where the kernel takes REFERENCE_S, using
the mean of the kernel times at the segment's two ends. Kernel time is left
out of the segments. The kernel runs none of the program's code, so a
change to the program moves the normalised time as it moves the wall time.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.0017  # kernel time on a quiet 2-core x86 VM
SEGMENT_S = 0.25

_W = np.random.default_rng(0).standard_normal((100, 100)).astype(np.float32) * 0.1
_X = np.ones((1, 100), dtype=np.float32)


class _Item:
    def __init__(self, v: float):
        self.v = v


def _kernel() -> float:
    acc = 0.0
    items = [_Item(float(i)) for i in range(50)]
    for i in range(200):
        y = np.tanh(_X @ _W)
        acc += float(y[0, i % 100])
        items.sort(key=lambda o: (o.v * 7.3) % 11.0)
        for o in items[:10]:
            acc += math.sqrt(o.v + 1.0)
    return acc


def probe() -> float:
    """Seconds the kernel takes now: the best of three runs, so that the
    first run's cold caches, which depend on the program run just before,
    do not count as host speed."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class HostClock:
    """Accumulates wall and normalised seconds between `start` and `stop`.

    `tick` may be called as often as convenient (the benchmark calls it at
    every env step); it cuts a segment once SEGMENT_S has passed. A traced
    run passes `probe_fn` wrapped in a span, so the spans around a tick
    leave the kernel's time out of their self time.
    """

    def __init__(self, probe_fn=probe):
        self.probe = probe_fn
        self.wall_s = 0.0
        self.normalised_s = 0.0
        self._t = None
        self._p = 0.0

    def start(self):
        self._p = self.probe()
        self._t = time.perf_counter()

    def tick(self):
        if self._t is not None and time.perf_counter() - self._t >= SEGMENT_S:
            self._cut()

    def stop(self):
        self._cut()
        self._t = None

    def _cut(self):
        dt = time.perf_counter() - self._t
        p = self.probe()
        self.wall_s += dt
        self.normalised_s += dt * REFERENCE_S / (0.5 * (self._p + p))
        self._p = p
        self._t = time.perf_counter()
