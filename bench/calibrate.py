"""Machine-speed reference for the benchmark's timings.

On a shared host a core's speed drifts by 15-30 % over tens of seconds,
and flips between a fast and a slow state every few seconds, for reasons
outside the program.  A `Calibrator` times two fixed loops that depend on
nothing in dscodes, one in pure Python and one a numpy gather over a
table that fits in L2, and scales each to its nominal time on the
reference machine (a 2-vCPU Xeon VM).  One sample is the mean of the two
ratios: about 1.0 when the machine runs at reference speed, 1.2 when it
runs 20 % slower.  The benchmark takes samples between jobs and before
each set-up, and divides each pass's or set-up's time by the mean of the
samples around it, which gives its time at reference speed.  The arrays
are small (1.25 MiB) so that they barely move the peak RSS that is
measured.
"""

from __future__ import annotations

import time

import numpy as np

REF_PY_S = 0.0070  # nominal time of _python_loop
REF_NP_S = 0.0060  # nominal time of _numpy_gather
PY_ITERS = 40_000
NP_ROUNDS = 20


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 1 << 30, size=1 << 18, dtype=np.int32)
        self._index = rng.integers(0, 1 << 18, size=1 << 16, dtype=np.int32)

    def _python_loop(self) -> int:
        acc, seen = 0, {}
        for i in range(PY_ITERS):
            acc += i * 7 % 13
            seen[i & 1023] = acc
        return acc

    def _numpy_gather(self) -> int:
        acc = 0
        for _ in range(NP_ROUNDS):
            acc ^= int(self._table[self._index].sum())
        return acc

    @staticmethod
    def _best_of_two(loop) -> float:
        """Faster of two timings: the first may pay for caches a job evicted."""
        best = float("inf")
        for _ in range(2):
            t = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - t)
        return best

    def sample(self) -> float:
        """Time of the two loops now over their reference time."""
        return (self._best_of_two(self._python_loop) / REF_PY_S
                + self._best_of_two(self._numpy_gather) / REF_NP_S) / 2
