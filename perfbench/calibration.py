"""Reference kernel that calibrates timings against machine-speed drift.

On small shared machines the speed available to one process drifts by a
fifth or more over tens of seconds, independently of the program measured.
A run therefore times this fixed kernel right before and after every timed
interval, and scales the interval by NOMINAL_S / (mean kernel time): the
result reads as the time the interval would take on the machine at the
speed where the kernel takes NOMINAL_S.  The kernel mixes interpreter work
(an edit-distance loop over lists) and small numpy calls, the two kinds of
work flowtts spends its time in, and is owned by the benchmark, so no change
to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the machine the benchmark was defined on (2-core
# Intel Xeon VM, Python 3.11, numpy 2.4, OPENBLAS_NUM_THREADS=1).
NOMINAL_S = 0.0016

_A = "abcdefghij" * 4 + "abcde"
_B = "bcdefghijk" * 4 + "bcdef"
_X = np.linspace(-1.0, 1.0, 2 * 64, dtype=np.float32).reshape(2, 64)
_W = np.linspace(-0.1, 0.1, 64 * 64, dtype=np.float32).reshape(64, 64)


def kernel() -> float:
    """Fixed work: one interpreted edit distance and a small numpy loop."""
    prev = list(range(len(_B) + 1))
    for i, ca in enumerate(_A, start=1):
        cur = [i]
        for j, cb in enumerate(_B, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    y = _X
    for _ in range(55):
        y = _X @ _W + 1.0
        y = y - y.mean(axis=-1, keepdims=True)
        y = np.exp(y - y.max(axis=-1, keepdims=True))
    return prev[-1] + float(y[0, 0])


class Calibration:
    """Times the kernel on demand and turns kernel times into scale factors."""

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        begin = time.perf_counter()
        kernel()
        return time.perf_counter() - begin

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale for an interval bracketed by kernel times before and after."""
        return NOMINAL_S / (0.5 * (before + after))

    def timed_units(self, module, attr: str, fn, *args, **kwargs):
        """Call ``fn`` and split its time into units of work at each call of
        ``module.attr``, a function the program calls once per unit.

        The kernel runs at every split and at both ends, outside the timed
        units, so each unit is scaled by the kernels right next to it.  Unit
        k runs from the k-th call of the hook to the next one; the first unit
        also holds what precedes the first call and the last unit what
        follows the last.  Returns (result, unit milliseconds, scale factors).
        """
        original = getattr(module, attr)
        kernels = [self.sample()]
        starts = [time.perf_counter()]
        ends: list[float] = []
        calls = 0

        def hook(*a, **kw):
            nonlocal calls
            if calls:
                ends.append(time.perf_counter())
                kernels.append(self.sample())
                starts.append(time.perf_counter())
            calls += 1
            return original(*a, **kw)

        setattr(module, attr, hook)
        try:
            result = fn(*args, **kwargs)
        finally:
            ends.append(time.perf_counter())
            setattr(module, attr, original)
        kernels.append(self.sample())
        millis = [(e - s) * 1000.0 for s, e in zip(starts, ends)]
        return result, millis, [self.factor(a, b) for a, b in zip(kernels, kernels[1:])]

    def _median_sample(self) -> float:
        return sorted(self.sample() for _ in range(3))[1]

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` between kernel samples (the median of three on each
        side, as one call gets no samples inside); returns (result, raw
        seconds, scale factor)."""
        before = self._median_sample()
        begin = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - begin
        return result, elapsed, self.factor(before, self._median_sample())


class Uncalibrated(Calibration):
    """Runs no kernel and scales by 1, for the traced replay: a kernel run
    inside a traced call would count towards that call's span."""

    def sample(self) -> float:
        return NOMINAL_S
