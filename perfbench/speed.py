"""How fast the host runs right now, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed changes
from second to second, and from one core to the other: the same code
on the same seeds reads up to 2.5x slower when other tenants are busy,
and one core can run the kernel up to 1.6x slower than the other, while
the guest's process time keeps pace with wall time (the time is not
stolen, the CPU is slower).  A :class:`SpeedProbe` times a fixed kernel
on each core the benchmark may use, between slices of load and never
while a request is in flight, and the run's times are reported at the
speed of a reference host (``perfbench/README.md``, "Host speed").

The kernel does not touch the program, so a change to the program moves
the reported times as it moves the measured ones; only a change in the
host's speed, which slows the kernel about as much as the program,
cancels out.  It mixes what the compiler spends its time on: Python
dicts, tuples and sorting, and small numpy matrix work.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import numpy as np

#: Seconds of one :func:`kernel` call on a quiet 2-core x86-64 host
#: (Python 3.11, numpy with one BLAS thread); it only sets the scale.
REFERENCE_S = 0.0013
#: Timed kernel calls per probe, after one untimed call that brings
#: the kernel back into the CPU caches.
PROBE_REPS = 3
#: Seconds of load between two probes.
SLICE_S = 0.25


def kernel() -> float:
    """A fixed piece of work; returns a checksum so nothing is skipped."""
    weights: dict[tuple[int, int], float] = {}
    for i in range(3000):
        edge = (i % 61, (i * 7) % 53)
        weights[edge] = weights.get(edge, 0.0) + 0.5 * i
    order = sorted(weights.items(), key=lambda item: (item[1], item[0]))
    matrix = np.arange(48 * 48, dtype=float).reshape(48, 48) / 2304.0
    total = 0.0
    for _ in range(40):
        matrix = np.tanh(matrix @ matrix.T) + 0.01
        permutation = np.argsort(matrix[:, 0])
        total += float(matrix[permutation, permutation].sum())
    return total + order[-1][1]


def pin_to_one_core() -> None:
    """Keep the calling thread, and the threads and processes it starts,
    on one core, so a serial workload and its probe see the same core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Collects kernel times over one run."""

    def __init__(self) -> None:
        self.durations: list[float] = []

    def measure(self) -> float:
        """Time the kernel on each core the calling thread may run on, in
        turn; returns the mean seconds of one call.  The collector is off
        meanwhile: a collection costs in proportion to the program's
        heap, which the probe would read as host speed."""
        cores = sorted(os.sched_getaffinity(0))
        enabled = gc.isenabled()
        gc.disable()
        times = []
        try:
            for core in cores:
                if len(cores) > 1:
                    os.sched_setaffinity(0, {core})
                kernel()
                for _ in range(PROBE_REPS):
                    start = time.perf_counter()
                    kernel()
                    times.append(time.perf_counter() - start)
        finally:
            os.sched_setaffinity(0, cores)
            if enabled:
                gc.enable()
        self.durations.extend(times)
        return statistics.fmean(times)

    def factor(self) -> float:
        """``REFERENCE_S`` over the mean kernel time; 1 if never probed.
        Multiply a measured time by it for the time at reference speed."""
        if not self.durations:
            return 1.0
        return REFERENCE_S / statistics.fmean(self.durations)
