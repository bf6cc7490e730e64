"""Machine-speed probe used to scale the end-to-end timings.

On a shared machine the speed of one core drifts by 20-30% over minutes,
which no amount of repetition inside one run can average out. The probe
times a fixed numpy kernel mix shaped like the workloads' own work: a 3x3
conv run the way sakit runs it (an im2col gather, then one GEMM), and
batchnorm/relu-style elementwise passes and a 2x2 max reduction over a
256x56x56 map. It writes into buffers allocated once, so sampling leaves the
heap as it found it and cannot move the workloads' peak RSS. It is sampled
before the first set-up, after every set-up and every unit of work, and
inside a pipeline unit at the start of each epoch after the first (see
``workloads.py``); the time spent sampling is left out of every timing. Each
timing (a set-up, a unit, a batch or a training step) is divided by the
slowdown the probe saw around it: the mean of the last sample before it, the
first after it and any taken while it ran, over ``NOMINAL_S``. So it reads
as it would on a machine whose probe takes ``NOMINAL_S``. The samples jump
between a fast and a slow level (a quarter apart, say) from one to the next;
a timing follows the share of it spent at each level, which the mean of the
samples around it estimates and their median does not. The raw timings and
the probe samples are kept in the run's details.
"""

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.040  # probe median on a 2-core x86-64 VM, one OpenBLAS thread


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((2, 64, 58, 58), dtype=np.float32)  # padded 56x56 maps
        self.w = rng.random((576, 64), dtype=np.float32)
        self.e = rng.random((1, 256, 56, 56), dtype=np.float32)
        self.cols = np.empty((2 * 56 * 56, 576), dtype=np.float32)
        self.y = np.empty((2 * 56 * 56, 64), dtype=np.float32)
        self.t = np.empty_like(self.e)
        self.mask = np.empty(self.e.shape, dtype=bool)
        self.pooled = np.empty((1, 256, 28, 28), dtype=np.float32)
        self.samples = []
        self.at = []  # perf_counter time at which each sample ended
        self.spent = 0.0  # seconds spent sampling
        self._kernels()  # the first call pays one-off costs

    def _kernels(self):
        win = np.lib.stride_tricks.sliding_window_view(self.x, (3, 3), axis=(2, 3))
        np.copyto(self.cols.reshape(2, 56, 56, 64, 3, 3), win.transpose(0, 2, 3, 1, 4, 5))
        np.matmul(self.cols, self.w, out=self.y)
        np.multiply(self.e, 1.5, out=self.t)
        np.add(self.t, 0.1, out=self.t)
        np.greater(self.e, 0.5, out=self.mask)
        np.multiply(self.t, self.mask, out=self.t)
        self.e.reshape(1, 256, 28, 2, 28, 2).max(axis=(3, 5), out=self.pooled)

    def sample(self, repeats=3):
        start = time.perf_counter()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._kernels()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        self.at.append(time.perf_counter())
        self.spent += self.at[-1] - start

    def slowdown(self, t0, t1):
        """How much slower than nominal the machine ran from ``t0`` to ``t1``,
        by the samples from the last one before ``t0`` to the first one after
        ``t1``."""
        first = max(bisect.bisect_right(self.at, t0) - 1, 0)
        last = bisect.bisect_left(self.at, t1)
        return statistics.mean(self.samples[first:last + 1]) / NOMINAL_S
