"""The machine's speed, measured during and between operations, to take host drift out of times.

On a shared host the same solve can take 1.0 s one minute and 1.6 s a few
minutes later, inside one process: the host's load, not the program, sets
the pace, and wall time follows CPU time. Medians over a longer run do not
remove that drift; it outlasts any run. So the benchmark runs a fixed
calibration kernel once a second, between operations and, driven by a timer
signal, inside the in-process ones, and reports every time as

    wall time x REFERENCE_S / (mean kernel time over the operation)

where the mean is over the samples taken inside the operation and the one
just before and just after it; that is, in seconds at the machine speed at
which the kernel takes REFERENCE_S. The kernel's own time is taken out of the
wall time. The kernel uses none of wlflow, so a change to the program moves
the scaled time as much as it moves the wall time; only the host's drift
cancels. The raw wall times and the speed factor are printed beside the
metrics.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median kernel time on the machine the bounds were set on (2-vCPU Xeon VM,
# numpy 2.4, OpenBLAS), so that scaled times read close to its wall times.
REFERENCE_S = 0.04
# Seconds between samples, inside an operation and between operations.
INTERVAL_S = 1.0


def kernel() -> float:
    """A fixed mix of the work wlflow does: elementwise maths, scattered adds, a
    sort and interpreted Python on a 128x128 raster. Its footprint is about
    1 MiB, so that running it inside an operation barely moves peak_rss_mb."""
    rng = np.random.default_rng(12345)
    a, b = rng.normal(size=(2, 128, 128))
    idx = rng.integers(0, 128 * 128, 8000)
    acc = 0.0
    for _ in range(120):
        c = np.sqrt(a * a + b * b) + np.exp(-np.abs(a))
        grid = np.zeros(128 * 128)
        np.add.at(grid, idx, c.ravel()[idx])
        acc += float(np.sort(c, axis=None)[100]) + float(grid.sum())
        acc += sum({k: k * 0.5 for k in range(150)}.values())
    return acc


@dataclass
class Timing:
    """One operation: when it ran, its wall time less the kernel's, and its scale."""

    start: float
    end: float = 0.0
    wall: float = 0.0
    scale: float = float("nan")  # set by Speed.finish

    @property
    def s(self) -> float:
        """Seconds at the reference machine speed."""
        return self.wall * self.scale


class Speed:
    """Kernel samples taken during one run, and the operations they scale."""

    def __init__(self):
        for _ in range(2):  # first calls pay for page faults and allocator growth
            kernel()
        self.at: list[float] = []  # when each sample ended
        self.took: list[float] = []
        self.timings: list[Timing] = []
        self._spent = 0.0  # kernel seconds so far, to be taken out of wall times
        self._depth = 0
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)
        self._spent += t1 - t0

    def tick(self) -> None:
        """Take a sample if none was taken in the last INTERVAL_S."""
        if time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextlib.contextmanager
    def measure(self, inside: bool = True):
        """Time the block as one operation. With `inside`, samples are also taken
        within it; leave it off around a subprocess, which the kernel would compete with."""
        timing = Timing(time.perf_counter())
        spent = self._spent
        armed = inside and self._depth == 0
        if armed:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self._depth += 1
        try:
            yield timing
        finally:
            self._depth -= 1
            if armed:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            timing.end = time.perf_counter()
            timing.wall = timing.end - timing.start - (self._spent - spent)
            self.timings.append(timing)

    def finish(self) -> None:
        """Take the closing sample and scale every operation by the samples around it."""
        self.sample()
        for t in self.timings:
            first = max(bisect.bisect_right(self.at, t.start) - 1, 0)
            last = bisect.bisect_left(self.at, t.end)
            t.scale = REFERENCE_S / statistics.fmean(self.took[first:last + 1])

    def factor(self) -> float:
        """The whole run's scale, for the record."""
        return REFERENCE_S / statistics.median(self.took)
