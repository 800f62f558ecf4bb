"""Host-speed reference for timings taken on a shared, noisy machine.

On a shared VM the speed of the whole host drifts: an identical pure-Python
loop reads 0.18 s and 0.28 s a few seconds apart, and a workload's passes
run 40-60% faster or slower for minutes at a time as neighbours come and
go.  Absolute medians then move more between runs than any change worth
gating.  The benchmark therefore times a fixed reference kernel between
its passes and reports each timing at the reference host speed: the raw
time multiplied by ``REFERENCE_S`` over the kernel time measured around it.
The raw figures are printed beside the normalised ones.

The kernel mixes what the program spends its time on: interpreted loops of
small function calls on floats and short numpy expressions.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference-kernel time that defines the reference host speed.
REFERENCE_S = 0.02
#: Kernel runs per measurement; their median is used.
REPEATS = 3


def _step(charge: float, amount: float, capacity: float) -> tuple[float, float]:
    charge = charge + amount * 0.9
    return (capacity, amount) if charge > capacity else (charge, 0.0)


def reference_kernel() -> float:
    """A fixed amount of interpreter and numpy work."""
    charge = 0.0
    for i in range(120_000):
        charge, _spill = _step(charge, (i % 7) * 0.1, 50.0)
        charge -= 0.3 if charge > 0.3 else charge
    values = np.arange(2000.0)
    for _ in range(200):
        values = np.sqrt(values * 1.0001 + 1.0)
    return charge + float(values[-1])


def kernel_seconds() -> float:
    """Median wall time of ``REPEATS`` reference-kernel runs, now."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_factor(*kernel_times: float) -> float:
    """Multiplier taking a raw time to the reference host speed (>1 on a fast host)."""
    return REFERENCE_S / statistics.fmean(kernel_times)
