"""Backend matrix: every available array backend over the three hot kernels.

The array-backend seam (:mod:`repro.backend`) lets the three hottest
kernels — the batch schedule-energy engine
(``EnergyEvaluator._schedule_energy_batch``), the storage ledger scan
(:func:`repro.scavenger.storage.trajectory`) and the emulator's bin-union
sweep (:meth:`NodeEmulator.evaluate_energy_bins`) — run on alternative
implementations (``numba`` JIT, ``float32`` precision policy) without
touching their call sites.  This benchmark runs each *available* backend
over all three kernels against the numpy floor and asserts:

* the numpy reference numbers exist and are positive (the floor itself);
* every non-default backend first passes its equivalence gate against the
  numpy results (numba: 1e-9 relative; float32: the pinned reduced-precision
  tolerance) — a backend that fails the gate fails the bench, its timings
  are never reported;
* every non-default backend clears the conservative no-regression floor
  ``numpy_s / backend_s >= BACKEND_MATRIX_FLOOR`` (default 0.2 — a policy
  backend may trade some straight-line speed for precision or warmup, but a
  5x regression means the seam broke something).

The per-(kernel, backend) wall times land in
``benchmarks/results/backend_matrix.timing.json``; the environment stamp
records the *ambient* backend plus the numba version when the package is
present, so the trajectory stays machine-readable across commits.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import emit_result, emit_timing
from repro.backend import available_backends, resolve_backend
from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import NodeEmulator
from repro.core.evaluator import EnergyEvaluator
from repro.scavenger.storage import supercapacitor, trajectory
from repro.scenario.montecarlo import MonteCarloConfig
from repro.scenario.spec import ScenarioSpec
from repro.vehicle.drive_cycle import DriveCycle, DriveCyclePhase

SWEEP_SAMPLES = 2000
TRAJECTORY_STEPS = 200_000
REPEATS = 3
#: Conservative no-regression floor for non-default backends relative to the
#: numpy reference.  CI may tighten or loosen it through the environment;
#: the measured speedups are always reported regardless of the floor.
FLOOR = float(os.environ.get("BACKEND_MATRIX_FLOOR", "0.2"))
#: Equivalence gates: numba mirrors the float64 operation set, so it must
#: match at the suite-wide 1e-9 everywhere; float32 is a declared precision
#: policy — energies carry its pinned relative tolerance, while the ledger
#: recurrence is gated in *absolute* charge terms (a fraction of capacity),
#: because near-empty steps make relative error meaningless (see
#: tests/backend/test_float32_policy.py for the same pins).
NUMBA_RTOL = 1e-9
FLOAT32_RTOL = 5e-4
#: Charge-trajectory gate for float32, as a fraction of storage capacity.
FLOAT32_CHARGE_FRAC = 0.02

_GATES = {"numba": NUMBA_RTOL, "float32": FLOAT32_RTOL}


def _timed(kernel, repeats: int = REPEATS):
    """Best-of-N wall time and the (final) result of ``kernel()``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = kernel()
        best = min(best, time.perf_counter() - start)
    return best, result


def _hour_cycle() -> DriveCycle:
    """An hour-long mixed profile: many distinct speed/temperature bins."""
    phases = [
        DriveCyclePhase(duration_s=600.0, start_kmh=30.0, end_kmh=120.0),
        DriveCyclePhase(duration_s=900.0, start_kmh=120.0, end_kmh=120.0),
        DriveCyclePhase(duration_s=300.0, start_kmh=120.0, end_kmh=0.0),
        DriveCyclePhase(duration_s=300.0, start_kmh=0.0, end_kmh=0.0),
        DriveCyclePhase(duration_s=600.0, start_kmh=0.0, end_kmh=90.0),
        DriveCyclePhase(duration_s=900.0, start_kmh=90.0, end_kmh=45.0),
    ]
    return DriveCycle(phases=phases, name="bench-hour")


def _sweep_inputs(node, spec):
    config = MonteCarloConfig(samples=SWEEP_SAMPLES, seed=11)
    draws = config.draw(node, spec.operating_point(), config.rng_for(spec.to_json()))
    return draws.conditions, draws.patterns


def _trajectory_inputs():
    rng = np.random.default_rng(23)
    harvest = rng.uniform(0.0, 2e-4, TRAJECTORY_STEPS)
    load = rng.uniform(0.0, 2.5e-4, TRAJECTORY_STEPS)
    leak = np.full(TRAJECTORY_STEPS, 0.05)
    return harvest, load, leak


def test_backend_matrix(node, database, scavenger):
    """Every available backend over all three kernels vs the numpy floor."""
    backends = available_backends()
    assert "numpy" in backends, backends
    # Time the reference first so every other backend has its denominator.
    ordered = ["numpy"] + [name for name in backends if name != "numpy"]

    spec = ScenarioSpec(name="bench-backend-matrix")
    conditions, patterns = _sweep_inputs(node, spec)
    harvest, load, leak = _trajectory_inputs()
    cycle = _hour_cycle()

    wall_times: dict[str, float] = {}
    speedups: dict[str, float] = {}
    reference: dict[str, object] = {}
    rows: list[dict[str, object]] = []

    for name in ordered:
        backend = resolve_backend(name)

        evaluator = EnergyEvaluator(node, database, backend=backend)
        evaluator.compiled  # table compilation stays outside the timed region
        storage = supercapacitor(initial_fraction=0.3)
        emulator = NodeEmulator(
            node,
            database,
            scavenger,
            supercapacitor(initial_fraction=0.3),
            thermal_model=TyreThermalModel(time_constant_s=120.0),
            evaluator=evaluator,
        )
        table = emulator.materialize_cycle(cycle, thermal_model=emulator.thermal_model)
        pending: dict = {}
        emulator.collect_bins(
            table, emulator.round_keys(table, table.temps), {}, pending, {}
        )
        assert pending, "the bin-union kernel needs a non-empty pending map"

        # One untimed call per kernel: numba pays its JIT compilation here,
        # every backend pays cache warmup, so the timed region measures the
        # steady state the fleet runner actually lives in.
        evaluator.schedule_energy_sweep(conditions, patterns)
        trajectory(storage, harvest, load, leak, backend=backend)

        sweep_s, energies = _timed(
            lambda: evaluator.schedule_energy_sweep(conditions, patterns)
        )
        traj_s, ledger = _timed(
            lambda: trajectory(storage, harvest, load, leak, backend=backend)
        )
        bins_s, bins = _timed(lambda: emulator.evaluate_energy_bins(dict(pending)))
        bin_keys = sorted(bins, key=repr)
        bin_energies = np.array([bins[key][0] for key in bin_keys])

        if name == "numpy":
            reference = {
                "sweep": energies,
                "trajectory": ledger.charge_j,
                "final_charge": ledger.final_charge_j,
                "bins": bin_energies,
            }
        else:
            # Equivalence gate: numbers are only reported for a backend that
            # reproduces the numpy reference within its declared tolerance.
            rtol = _GATES[name]
            np.testing.assert_allclose(energies, reference["sweep"], rtol=rtol)
            np.testing.assert_allclose(bin_energies, reference["bins"], rtol=rtol)
            if name == "float32":
                atol = FLOAT32_CHARGE_FRAC * storage.capacity_j
                np.testing.assert_allclose(
                    ledger.charge_j, reference["trajectory"], rtol=0.0, atol=atol
                )
                np.testing.assert_allclose(
                    ledger.final_charge_j,
                    reference["final_charge"],
                    rtol=0.0,
                    atol=atol,
                )
            else:
                np.testing.assert_allclose(
                    ledger.charge_j, reference["trajectory"], rtol=rtol, atol=rtol
                )
                np.testing.assert_allclose(
                    ledger.final_charge_j,
                    reference["final_charge"],
                    rtol=rtol,
                    atol=rtol,
                )

        for kernel, seconds in (
            ("schedule_sweep", sweep_s),
            ("trajectory", traj_s),
            ("bin_union", bins_s),
        ):
            wall_times[f"{kernel}:{name}"] = seconds
            row: dict[str, object] = {
                "kernel": kernel,
                "backend": name,
                "wall_time_s": seconds,
                "speedup_vs_numpy": 1.0,
            }
            if name != "numpy":
                speedup = wall_times[f"{kernel}:numpy"] / seconds
                speedups[f"{kernel}:{name}"] = speedup
                row["speedup_vs_numpy"] = speedup
            rows.append(row)

    # The numpy floor: the reference numbers must exist and be positive...
    for kernel in ("schedule_sweep", "trajectory", "bin_union"):
        assert wall_times[f"{kernel}:numpy"] > 0.0
    # ...and no gated backend may regress past the conservative floor.
    for label, speedup in speedups.items():
        assert speedup >= FLOOR, (
            f"{label} speedup {speedup:.3f} fell below the no-regression "
            f"floor {FLOOR} (BACKEND_MATRIX_FLOOR)"
        )

    emit_result(
        "backend_matrix",
        rows,
        title="Array-backend matrix over the three hot kernels",
        columns=["kernel", "backend", "wall_time_s", "speedup_vs_numpy"],
    )
    emit_timing(
        "backend_matrix",
        wall_times,
        speedups,
        extra={
            "backends": ordered,
            "floor": FLOOR,
            "sweep_samples": SWEEP_SAMPLES,
            "trajectory_steps": TRAJECTORY_STEPS,
            "bin_count": len(reference["bins"]),
            "gates_rtol": _GATES,
            "repeats": REPEATS,
        },
    )
