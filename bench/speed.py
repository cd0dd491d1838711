"""Host-speed reference for the benchmark's times.

On a shared host the same job can run a third slower for seconds to minutes
at a time while neighbours load the machine, which no number of repetitions
inside one run averages out.  `SpeedProbe.measure` times two fixed kernels,
one for each kind of work mdssd's jobs do: table-lookup integer arithmetic
in Python (the scalar field operations, locators, minors) and int64 numpy
gathers and reductions over a k x n matrix (Gram, rank, codeword
enumeration).  It returns the host's slowness: the two kernels' times over
their times on the reference host, averaged with the workload's noise
weight on the Python kernel.  Host slowdowns hit the two kinds of work
differently, so the weight matters; it is fitted per workload to the weight
that leaves the least spread (workloads.WORKLOADS).  The kernels never call mdssd, so a change to the
program does not move them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# each kernel's time on the reference host: the 2-core host the reference
# figures in README.md come from, at its usual speed
PYTHON_REFERENCE_S = 0.004
NUMPY_REFERENCE_S = 0.0025
PROBE_REPEATS = 3
TABLE = 22800


class SpeedProbe:
    def __init__(self, noise_weight: float):
        rng = np.random.default_rng(0)
        self.noise_weight = noise_weight
        self.exp = rng.permutation(TABLE).astype(np.int64)
        self.logs = rng.integers(0, TABLE, size=(200, 400))
        self.table = self.exp.tolist()
        self.samples: list[float] = []

    def _python(self) -> float:
        table = self.table
        start = perf_counter()
        acc = 1
        for i in range(30_000):
            acc = table[(acc * 7 + table[i % TABLE]) % TABLE]
        return perf_counter() - start

    def _numpy(self) -> float:
        exp, logs = self.exp, self.logs
        start = perf_counter()
        for i in range(3):
            prods = exp[(logs[i][None, :] + logs) % TABLE]
            (prods % 151).sum(axis=1) % 151
        return perf_counter() - start

    def measure(self) -> float:
        """Slowness now: 1 on the reference host, 1.3 where work takes 30 %
        longer.  Each kernel's time is the fastest of PROBE_REPEATS, since an
        interrupt can only slow a sample down."""
        py = min(self._python() for _ in range(PROBE_REPEATS))
        npy = min(self._numpy() for _ in range(PROBE_REPEATS))
        slowness = (self.noise_weight * py / PYTHON_REFERENCE_S
                    + (1 - self.noise_weight) * npy / NUMPY_REFERENCE_S)
        self.samples.append(slowness)
        return slowness

    def median(self) -> float:
        return statistics.median(self.samples)
