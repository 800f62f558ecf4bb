"""Thermal fleet fast path vs the per-vehicle thermal ``emulate()`` loop.

With a :class:`ThermalSpec` on the fleet, each (cycle, speed-scale,
ambient-bin) cohort replays the tyre thermal model ONCE and the group's
bin union spans (speed, temperature, phase-pattern) triples in the same
single cross-vehicle sweep — so thermal variation rides the fast path
instead of demoting every vehicle to a cold ``NodeEmulator.emulate()``.

This benchmark measures that on a 200-vehicle fleet (log-normal speed
scales, correlated zero-mean ambient offsets snapped to ambient-bin
centers, Gaussian tolerances) and *asserts*:

* >= 3x throughput of the thermal fast path over a per-vehicle
  ``emulate()`` loop with everything but the cohort sharing shared: a fresh
  :class:`NodeEmulator` per vehicle on its group's evaluator, its cache
  seeded (``seed_energy_cache``) with the group's bins from an untimed
  warm-up;
* bitwise-identical per-vehicle figures against the naive thermal loop
  (fresh emulator + fresh thermal model per vehicle) AND against that
  per-vehicle loop, across worker counts and backends.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import emit_result, emit_timing
from repro.core.emulator import NodeEmulator
from repro.core.evaluator import EnergyEvaluator
from repro.fleet import FleetRunner, FleetSpec, ThermalSpec, default_fleet_distributions
from repro.scavenger.storage import scaled_storage
from repro.scenario import ScenarioSpec

#: Local headroom is above the 3x acceptance bar (~3.5-4x measured); shared CI
#: runners are noisy, so workflows may lower the enforced floor via the
#: environment while the measured number is still reported.
REQUIRED_SPEEDUP = float(os.environ.get("FLEET_THERMAL_FLOOR", "3.0"))

VEHICLES = 200


def _bench_fleet() -> FleetSpec:
    base = ScenarioSpec(
        name="bench-thermal",
        drive_cycle={"name": "urban", "params": {"repetitions": 2}},
    )
    distributions = {
        key: value
        for key, value in default_fleet_distributions(base).items()
        if key != "temperature_c"
    }
    distributions["ambient_offset_c"] = {
        "kind": "correlated-normal",
        "params": {"std": 6.0, "correlation": 0.6},
    }
    return FleetSpec(
        name="bench-thermal",
        base=base,
        vehicles=VEHICLES,
        seed=11,
        distributions=distributions,
        thermal=ThermalSpec(),
    )


def _per_vehicle_loop(vehicles, thermal, evaluators, bins) -> list[dict]:
    """One fresh thermal emulator per vehicle on its group's shared evaluator,
    seeded with the group's bins: the per-vehicle work without cohort sharing."""
    summaries = []
    for vehicle in vehicles:
        spec = vehicle.scenario
        evaluator = evaluators[spec.evaluator_group_key()]
        emulator = NodeEmulator(
            evaluator.node,
            evaluator.source_database,
            spec.build_scavenger(),
            scaled_storage(spec.build_storage(), vehicle.storage_scale),
            base_point=spec.operating_point(),
            thermal_model=thermal.build(spec.temperature_c),
            evaluator=evaluator,
        )
        emulator.seed_energy_cache(bins[spec.evaluator_group_key()])
        cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
        summaries.append(emulator.emulate(cycle).summary())
    return summaries


def test_thermal_fast_path_beats_per_vehicle_loop():
    """The thermal cohort fast path is >= 3x the per-vehicle emulate() loop.

    Three runs over the identical 200-vehicle population: the naive loop
    (fresh emulator and thermal model per vehicle — what a user would write
    without the fleet subsystem), the per-vehicle loop on shared evaluators
    and pre-evaluated bins (everything shared but the cohort tables), and
    the thermal fast path.  All three must agree bit for bit; only the wall
    clock may differ.
    """
    fleet = _bench_fleet()
    thermal = fleet.thermal
    vehicles = fleet.materialize()

    # Naive baseline: one fresh thermal emulator per vehicle.
    start = time.perf_counter()
    naive_summaries = []
    for vehicle in vehicles:
        spec = vehicle.scenario
        emulator = NodeEmulator(
            spec.build_node(),
            spec.build_database(),
            spec.build_scavenger(),
            scaled_storage(spec.build_storage(), vehicle.storage_scale),
            base_point=spec.operating_point(),
            thermal_model=thermal.build(spec.temperature_c),
        )
        cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
        naive_summaries.append(emulator.emulate(cycle).summary())
    naive_s = time.perf_counter() - start

    # Per-vehicle loop: shared evaluators, and every group's bins evaluated
    # by an untimed warm-up — isolates the cohort sharing itself.
    evaluators: dict[str, EnergyEvaluator] = {}
    warm: dict[str, NodeEmulator] = {}
    for vehicle in vehicles:
        spec = vehicle.scenario
        key = spec.evaluator_group_key()
        if key not in evaluators:
            node, database, evaluators[key] = spec.build_components()
            warm[key] = NodeEmulator(
                node,
                database,
                spec.build_scavenger(),
                spec.build_storage(),
                base_point=spec.operating_point(),
                evaluator=evaluators[key],
            )
        warm[key].thermal_model = thermal.build(spec.temperature_c)
        warm[key].emulate(spec.build_drive_cycle().scaled(vehicle.speed_scale))
    bins = {key: dict(emulator._energy_cache) for key, emulator in warm.items()}
    start = time.perf_counter()
    per_vehicle_summaries = _per_vehicle_loop(vehicles, thermal, evaluators, bins)
    per_vehicle_s = time.perf_counter() - start

    # Thermal fast path (sequential, so the comparison is CPU-for-CPU).
    start = time.perf_counter()
    result = FleetRunner(fleet).run()
    fleet_s = time.perf_counter() - start

    speedup_vs_per_vehicle = per_vehicle_s / fleet_s
    speedup_vs_naive = naive_s / fleet_s

    metadata = result.metadata
    assert metadata["fast_path_vehicles"] == VEHICLES

    emit_result(
        "fleet_thermal",
        [
            {
                "vehicles": VEHICLES,
                "cohorts": metadata["cohorts"],
                "shared_energy_bins": metadata["shared_energy_bins"],
                "fast_path_vehicles": metadata["fast_path_vehicles"],
                "naive_s": naive_s,
                "per_vehicle_s": per_vehicle_s,
                "fleet_s": fleet_s,
                "speedup_vs_per_vehicle_x": speedup_vs_per_vehicle,
                "speedup_vs_naive_x": speedup_vs_naive,
            }
        ],
        title="Thermal fleet: cohort fast path vs per-vehicle thermal emulate",
        workers=1,
        backend="thread",
    )
    emit_timing(
        "fleet_thermal",
        wall_times_s={
            "naive_loop": naive_s,
            "per_vehicle_loop": per_vehicle_s,
            "fleet_runner": fleet_s,
        },
        speedups={
            # The CI results package pins its floor on this key.
            "fast_vs_forced": speedup_vs_per_vehicle,
            "fast_vs_naive": speedup_vs_naive,
        },
        extra={
            "vehicles": VEHICLES,
            "cohorts": metadata["cohorts"],
            "groups": metadata["groups"],
            "shared_energy_bins": metadata["shared_energy_bins"],
            "ambient_quantum_c": metadata["ambient_quantum_c"],
            "required_speedup": REQUIRED_SPEEDUP,
        },
        workers=1,
        backend="thread",
    )

    # Correctness before speed: fast path == naive thermal emulate(), bit
    # for bit, and == the per-vehicle loop and parallel variants.
    assert len(result.vehicle_rows) == len(naive_summaries)
    for row, summary in zip(result.vehicle_rows, naive_summaries):
        for key, value in summary.items():
            assert row[key] == value, (
                f"thermal fleet row diverged from naive emulate() on {key!r}: "
                f"{row[key]!r} != {value!r}"
            )
    assert per_vehicle_summaries == naive_summaries

    threaded = FleetRunner(fleet, workers=2, backend="thread").run()
    assert threaded.vehicle_rows == result.vehicle_rows
    processed = FleetRunner(fleet, workers=2, backend="process").run()
    assert processed.vehicle_rows == result.vehicle_rows

    assert speedup_vs_per_vehicle >= REQUIRED_SPEEDUP, (
        f"thermal cohort fast path is only {speedup_vs_per_vehicle:.1f}x faster than "
        f"the per-vehicle emulate() loop (per-vehicle {per_vehicle_s:.2f} s vs fast "
        f"{fleet_s:.2f} s for {VEHICLES} vehicles); the acceptance bar is "
        f"{REQUIRED_SPEEDUP:.0f}x"
    )
