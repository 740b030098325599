"""A fixed reference computation run between the program's calls.

The benchmark's host runs at a speed that drifts by tens of percent between
runs and within one. A fixed numpy kernel shaped like one tower layer
(forward, backward and a scatter-add of row gradients) slows down with it,
so the ratio of the program's time to the kernel's time, taken over the
same stretch of the same run, is steadier than either. The kernel depends
on nothing in tinyclap and nothing in the workload seed.

Installed, the clock runs the kernel at the entry of a layer call once at
least ``period`` seconds have passed since its last run, and keeps the time
it spent so the workload can take it out of its own timings. Kernel runs
are stamped on that same program-time axis, so each stretch of ops can be
paired with the kernel runs made during it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import LAYER_SITES, Patches

# Nominal duration of one kernel run, in ms: a scaled time reads as the
# time the program would take on a host where the kernel takes this long.
NOMINAL_MS = 4.0
WINDOW_S = 1.0  # ops are grouped into stretches of at least this much program time


class RefClock:
    def __init__(self, modules: dict, period: float):
        rng = np.random.default_rng(20240427)
        rows, dim, hidden, table = 640, 64, 192, 60
        self._x = rng.standard_normal((rows, dim))
        self._w1 = 0.1 * rng.standard_normal((dim, hidden))
        self._w2 = 0.1 * rng.standard_normal((hidden, dim))
        self._rows = rng.integers(0, table, size=rows)
        # every buffer is allocated once, so a run's time does not depend
        # on the state of the heap the program leaves behind
        self._hidden = np.empty((rows, hidden))
        self._active = np.empty((rows, hidden), dtype=bool)
        self._grad_out = np.empty((rows, dim))
        self._grad_hidden = np.empty((rows, hidden))
        self._grad_w1 = np.empty((dim, hidden))
        self._grad_x = np.empty((rows, dim))
        self._table = np.empty((table, dim))
        self.modules = modules
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (program time, seconds) per kernel run
        self.spent = 0.0  # seconds spent in kernel runs while installed
        self._last = time.perf_counter()
        self._patches = Patches()

    def kernel(self) -> float:
        """One run of the reference computation; returns its wall time."""
        t0 = time.perf_counter()
        np.matmul(self._x, self._w1, out=self._hidden)
        np.maximum(self._hidden, 0.0, out=self._hidden)
        np.matmul(self._hidden, self._w2, out=self._grad_out)
        self._grad_out *= 1e-3
        np.matmul(self._grad_out, self._w2.T, out=self._grad_hidden)
        np.greater(self._hidden, 0.0, out=self._active)
        self._grad_hidden *= self._active
        np.matmul(self._x.T, self._grad_hidden, out=self._grad_w1)
        np.matmul(self._grad_hidden, self._w1.T, out=self._grad_x)
        self._table.fill(0.0)
        np.add.at(self._table, self._rows, self._grad_x)
        if not np.isfinite(self._table.sum() + self._grad_w1.sum()):
            raise FloatingPointError("reference kernel produced a non-finite value")
        return time.perf_counter() - t0

    def now(self) -> float:
        """Program time: wall time minus the kernel runs made while installed."""
        return time.perf_counter() - self.spent

    def tick(self) -> None:
        """Run the kernel if a period has passed since the last run."""
        t0 = time.perf_counter()
        if t0 - self._last >= self.period:
            self.samples.append((t0 - self.spent, self.kernel()))
            self._last = time.perf_counter()
            self.spent += self._last - t0

    def install(self) -> None:
        def make(fn):
            def wrapper(*args, **kwargs):
                self.tick()
                return fn(*args, **kwargs)

            return wrapper

        for module, attr in LAYER_SITES:
            self._patches.replace(self.modules[module], attr, make)

    def uninstall(self) -> None:
        self._patches.restore()

    def median_ms(self) -> float:
        return 1e3 * statistics.median(d for _, d in self.samples)

    def scaled_ms(self, ops: list[tuple[float, float]]) -> float:
        """Median op time in ms at the kernel's nominal speed.

        ``ops`` are (start, seconds) on the program-time axis. Consecutive
        ops are grouped into stretches of at least WINDOW_S; each stretch
        gives the ratio of its median op to the median kernel run made
        during it, and the result is the median of those ratios.
        """
        ops = sorted(ops)
        ratios = []
        i = 0
        while i < len(ops):
            j, span = i, 0.0
            while j < len(ops) and span < WINDOW_S:
                span += ops[j][1]
                j += 1
            lo, hi = ops[i][0], ops[j - 1][0] + ops[j - 1][1]
            runs = [d for t, d in self.samples if lo <= t <= hi]
            if runs:
                ratios.append(statistics.median(d for _, d in ops[i:j]) / statistics.median(runs))
            i = j
        if not ratios:
            raise ValueError("no reference-kernel run fell inside the timed ops")
        return NOMINAL_MS * statistics.median(ratios)
