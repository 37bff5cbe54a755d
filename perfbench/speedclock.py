"""Wall and CPU time rescaled to a fixed reference speed of the machine.

On a host whose cores are shared with other tenants, the same code runs at
one of two speeds about 1.75x apart, switching every few seconds to every
few minutes. Raw pass times then move by 15-35% between runs and between
sets of runs, more than any regression worth catching.

A ``SpeedClock`` runs a fixed calibration kernel every ``TICK_S`` seconds,
from a SIGALRM handler in the main thread, and cuts the elapsed time into
slices at those ticks. Each slice is scaled by ``REFERENCE_KERNEL_S`` over
the kernel's time around it (a median over neighbouring ticks, so one
preempted tick does not count), which turns it into seconds at the
reference speed. The kernel's own time is left out of every total.

The kernel is interpreter-bound small-array numpy work, like tadlab's
descent steps, so its slowdown under contention matches theirs. Code that
slows less, such as a large matrix-vector product, is over-corrected in
proportion to the time the machine spends slow; the raw totals are kept
beside the rescaled ones so that this stays visible.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

TICK_S = 0.05
#: the kernel's time at the reference speed; a constant that must never
#: change, since rescaled times are compared only with each other
REFERENCE_KERNEL_S = 2.0e-4
_SMOOTH = 2  # ticks on each side in the median

_X = np.linspace(0.0, 1.0, 18).reshape(2, 3, 3)


def _kernel():
    for _ in range(20):
        z = _X - _X.max(axis=2, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=2, keepdims=True)
        float(np.einsum("ijk,ijk->", p, _X))


def kernel_seconds():
    """Time one run of the calibration kernel, after an untimed warm-up run
    (the code it interrupts may have left the caches cold)."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedClock:
    """Context manager: raw and reference-speed wall and CPU time of its body."""

    def __init__(self):
        self.slices = []  # (wall_s, cpu_s, kernel_s) per slice

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _close_slice(self):
        wall, cpu = time.perf_counter(), time.process_time()
        kernel = kernel_seconds()
        self.slices.append((wall - self._wall, cpu - self._cpu, kernel))
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def _tick(self, signum, frame):
        self._close_slice()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close_slice()
        return False

    def totals(self):
        """(wall_s, cpu_s, ref_wall_s, ref_cpu_s) of the body, kernel excluded."""
        kernels = [k for _, _, k in self.slices]
        wall = cpu = ref_wall = ref_cpu = 0.0
        for i, (w, c, _) in enumerate(self.slices):
            k = statistics.median(kernels[max(0, i - _SMOOTH): i + _SMOOTH + 1])
            scale = REFERENCE_KERNEL_S / k
            wall += w
            cpu += c
            ref_wall += w * scale
            ref_cpu += c * scale
        return wall, cpu, ref_wall, ref_cpu
