"""Times at the speed of a reference host.

The shared host's speed drifts: by about 20 % from second to second on one
vCPU, and by as much again from minute to minute with the load of other
guests.  A plain Python loop shows it as much as the program does, so raw
times of the same code disagree by more than any useful bound.

While a pass runs, a SIGALRM timer runs a small fixed kernel, which does not
use `rislink`, every INTERVAL_S seconds on the main thread, between two
bytecodes of the program.  The kernel and the program then see the same
host at the same moments.  A pass's time, less the time the kernel took
inside it, times REF_KERNEL_S over the kernel's mean time during the pass,
is the pass's time on a host where the kernel takes REF_KERNEL_S.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
# Median wall time of `kernel()` on the host the benchmark was written on
# (2-vCPU Xeon VM, Python 3.11, numpy 2.4, one BLAS thread).
REF_KERNEL_S = 0.008

# The kernel's arrays are made once, so that a sample taken at the program's
# memory peak does not raise `peak_rss_mb`.
_PHASES = 1j * np.linspace(0.0, 50.0, 16_000).reshape(1_000, 16)
_FIELD = np.empty(_PHASES.shape, dtype=complex)
_MAGNITUDE = np.empty(_PHASES.shape)


def kernel() -> float:
    """About 10 ms of the two kinds of work the workloads do: a plain
    Python loop, and complex exponentials over a 1 000 x 16 array."""
    acc = 0.0
    for i in range(60_000):
        acc += i * 0.5
    for _ in range(6):
        np.exp(_PHASES, out=_FIELD)
        acc += np.abs(_FIELD, out=_MAGNITUDE).sum()
    return acc


class HostSpeed:
    """Kernel samples taken inside a block of code, and the block's times
    scaled by them."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:     # a late timer tick inside a sample
            return
        self._busy = True
        t0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel every INTERVAL_S seconds inside the block."""
        self.wall.clear()
        self.cpu.clear()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, wall: float, cpu: float) -> tuple[float, float]:
        """(wall, cpu) seconds of the last sampled block, less the kernel's
        share, at the reference host's speed.  Wall time is scaled by the
        kernel's wall time and CPU time by its CPU time; medians, because
        a sample now and then loses its vCPU for a while."""
        inside_wall, inside_cpu = sum(self.wall), sum(self.cpu)
        if not self.wall:   # a block shorter than one interval
            self.sample()
        return ((wall - inside_wall) * REF_KERNEL_S
                / statistics.median(self.wall),
                (cpu - inside_cpu) * REF_KERNEL_S
                / statistics.median(self.cpu))

    def calibrate(self) -> float:
        """REF_KERNEL_S over the median of five kernel samples taken now."""
        self.wall.clear()
        self.cpu.clear()
        for _ in range(5):
            self.sample()
        return REF_KERNEL_S / statistics.median(self.wall)
