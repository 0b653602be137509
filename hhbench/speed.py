"""CPU speed gauge for normalizing timings on a shared machine.

On a machine shared with other tenants the same trial can take 30% longer
for seconds at a time, while this process keeps the CPU (its CPU time
equals its wall time).  A gauge is a fixed set of kernels that run no
hhmat code.  Timing it after every trial and scaling each trial's time by
(reference gauge time) / (gauge time) expresses trial times at one
reference speed, which removes most of that drift.  One gauge reading is
noisy, so each trial is scaled by the median of the SMOOTH readings
nearest to it.  Raw times are recorded beside the scaled ones.

Contention slows interpreter-bound and LAPACK-bound code by different
amounts, so each workload names the kernels that resemble its hot layers.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

# Kernel seconds that define the reference speed; typical of a 2-core x86 VM.
REFERENCE_S = {
    "eigh4": 0.00115,  # 40 eigendecompositions and products at n=4: call overhead
    "eigh24": 0.0022,  # 8 at n=24, with exp of the eigenvalues
    "eigh48": 0.00055,  # 1 real one at n=48
    "floats": 0.00046,  # a Python loop of 3000 math.exp calls
    "fractions": 0.00097,  # 300 float -> Fraction -> float round trips
}
SMOOTH = 3


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


class SpeedGauge:
    def __init__(self, kernels: tuple[str, ...]):
        rng = np.random.default_rng(20120323)
        self._m4 = _hermitian(rng, 4)
        self._m24 = _hermitian(rng, 24)
        self._m48 = _hermitian(rng, 48).real.copy()
        self._samples = rng.standard_normal(300).tolist()
        self._kernels = [getattr(self, "_" + name) for name in kernels]
        self.reference_s = sum(REFERENCE_S[name] for name in kernels)
        self.measure()  # first call pays one-time numpy dispatch costs

    def _eigh4(self):
        for _ in range(40):
            w, v = np.linalg.eigh(self._m4)
            (v * w) @ v.conj().T

    def _eigh24(self):
        for _ in range(8):
            w, v = np.linalg.eigh(self._m24)
            (v * np.exp(w)) @ v.conj().T

    def _eigh48(self):
        w, v = np.linalg.eigh(self._m48)
        (v * w) @ v.T

    def _floats(self):
        acc = 0.0
        for i in range(3000):
            acc += math.exp(i * 1e-4)

    def _fractions(self):
        for x in self._samples:
            float(Fraction(x))

    def measure(self, repeats: int = 1) -> float:
        """Median seconds of ``repeats`` runs of the gauge's kernels."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for kernel in self._kernels:
                kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, repeats: int = 1) -> float:
        """Factor that converts seconds measured now to reference seconds."""
        return self.reference_s / self.measure(repeats)

    def scale_trials(self, times: list[float], readings: list[float]) -> tuple[list[float], list[float]]:
        """Scale each trial time by the smoothed gauge reading taken after it.

        Returns (scaled trial seconds, factor used for each trial).
        """
        half = SMOOTH // 2
        factors = [self.reference_s / statistics.median(readings[max(0, i - half): i + half + 1])
                   for i in range(len(readings))]
        return [t * f for t, f in zip(times, factors)], factors
