"""Cold and warm ``emulate()`` throughput on one hour-long thermal cycle.

``NodeEmulator.emulate()`` is one integration path: one cycle walk, one
batch resolve of the quantized revolution energies the cache lacks, one
storage-ledger kernel call.  A *cold* run starts from an empty
revolution-energy cache (a fresh emulator on a shared, prebuilt evaluator —
what every ``Study.run("emulate")`` row pays); a *warm* run repeats the
cycle on the same emulator, so every bin is a cache hit.

The benchmark reports rows/s for both as the median of repeated samples
(with the interquartile range) and *asserts* that the cold result, the warm
result and the scalar step-by-step oracle
(``tests/core/emulation_oracle.py``) are bitwise equal.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from benchmarks.conftest import emit_result, emit_timing
from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import NodeEmulator
from repro.core.evaluator import EnergyEvaluator
from repro.scavenger.storage import supercapacitor
from repro.vehicle.drive_cycle import DriveCycle, DriveCyclePhase
from tests.core.emulation_oracle import oracle

#: Timed samples per variant; rows/s is reported from their median.
SAMPLES = 7


def _varied_cycle() -> DriveCycle:
    """An hour-long cycle sweeping 20..170 km/h so many speed bins are touched."""
    times = np.linspace(0.0, 3600.0, 121)
    speeds = 95.0 + 75.0 * np.sin(times / 240.0)
    phases = [
        DriveCyclePhase(
            duration_s=float(times[i + 1] - times[i]),
            start_kmh=float(speeds[i]),
            end_kmh=float(speeds[i + 1]),
        )
        for i in range(len(times) - 1)
    ]
    return DriveCycle(phases=phases, name="bench-varied")


def _emulator(node, database, scavenger, evaluator) -> NodeEmulator:
    return NodeEmulator(
        node,
        database,
        scavenger,
        supercapacitor(initial_fraction=0.5),
        thermal_model=TyreThermalModel(time_constant_s=120.0, max_rise_c=70.0),
        evaluator=evaluator,
    )


def _describe(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": median, "iqr_s": q3 - q1, "min_s": min(samples)}


def test_cold_and_warm_emulate_throughput(node, database, scavenger):
    cycle = _varied_cycle()
    evaluator = EnergyEvaluator(node, database)
    evaluator.compiled  # build the compiled table outside the timed regions

    cold_samples, cold_results = [], []
    for _ in range(SAMPLES):
        emulator = _emulator(node, database, scavenger, evaluator)
        start = time.perf_counter()
        cold_results.append(emulator.emulate(cycle))
        cold_samples.append(time.perf_counter() - start)

    warm_samples, warm_results = [], []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        warm_results.append(emulator.emulate(cycle))
        warm_samples.append(time.perf_counter() - start)

    cold, warm = _describe(cold_samples), _describe(warm_samples)
    rows = [
        {
            "variant": name,
            "samples": SAMPLES,
            "rows_per_s": 1.0 / stats["median_s"],
            "median_ms": stats["median_s"] * 1e3,
            "iqr_ms": stats["iqr_s"] * 1e3,
            "min_ms": stats["min_s"] * 1e3,
        }
        for name, stats in (("cold", cold), ("warm", warm))
    ]
    emit_result(
        "emulate_throughput",
        rows,
        title="emulate() on an hour-long 20-170 km/h thermal cycle",
    )
    emit_timing(
        "emulate_throughput",
        wall_times_s={"cold_median": cold["median_s"], "warm_median": warm["median_s"]},
        speedups={"warm_vs_cold": cold["median_s"] / warm["median_s"]},
        extra={
            "samples": SAMPLES,
            "cold_rows_per_s": 1.0 / cold["median_s"],
            "warm_rows_per_s": 1.0 / warm["median_s"],
            "cold_iqr_s": cold["iqr_s"],
            "warm_iqr_s": warm["iqr_s"],
            "revolutions": cold_results[0].revolutions,
        },
    )

    expected, _storage = oracle(_emulator(node, database, scavenger, evaluator), cycle)
    reference = expected.sample_arrays()
    for result in cold_results + warm_results:
        arrays = result.sample_arrays()
        for key, column in reference.items():
            assert arrays[key].tobytes() == column.tobytes(), key
        assert result == expected
