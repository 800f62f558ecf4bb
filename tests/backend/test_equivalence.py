"""Backend equivalence: numpy is bit-identical, float32 is close by policy.

The promotion gate of the seam: the default numpy backend must be
indistinguishable — byte for byte — from not having a backend at all, and
every alternative backend must reproduce the reference within its declared
tolerance.  These tests run the three hot kernels (schedule-energy batch,
storage ledger scan, bin-union sweep) under explicit backend selections and
compare against the default path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import available_backends, resolve_backend
from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import NodeEmulator
from repro.core.evaluator import EnergyEvaluator
from repro.scavenger.storage import supercapacitor, trajectory
from repro.scenario.montecarlo import MonteCarloConfig
from repro.scenario.spec import ScenarioSpec
from repro.vehicle.drive_cycle import urban_cycle

#: Pinned reduced-precision tolerance of the float32 policy (relative, on
#: energies).  The benchmark matrix gates on the same number.
FLOAT32_RTOL = 5e-4


def _sweep_inputs(node, samples: int = 300):
    spec = ScenarioSpec(name="backend-equivalence")
    config = MonteCarloConfig(samples=samples, seed=3)
    draws = config.draw(node, spec.operating_point(), config.rng_for(spec.to_json()))
    return draws.conditions, draws.patterns


def _ledger_inputs(steps: int = 5000):
    rng = np.random.default_rng(17)
    harvest = rng.uniform(0.0, 2e-4, steps)
    load = rng.uniform(0.0, 2.5e-4, steps)
    leak = np.full(steps, 0.05)
    return harvest, load, leak


class TestNumpyBackendIsBitIdentical:
    def test_schedule_sweep_bytes(self, node, database):
        conditions, patterns = _sweep_inputs(node)
        default = EnergyEvaluator(node, database)
        explicit = EnergyEvaluator(node, database, backend="numpy")
        ours = explicit.schedule_energy_sweep(conditions, patterns)
        theirs = default.schedule_energy_sweep(conditions, patterns)
        assert ours.tobytes() == theirs.tobytes()

    def test_trajectory_bytes(self, storage):
        harvest, load, leak = _ledger_inputs()
        default = trajectory(storage, harvest, load, leak)
        explicit = trajectory(storage, harvest, load, leak, backend="numpy")
        assert explicit.charge_j.tobytes() == default.charge_j.tobytes()
        assert explicit.banked_j.tobytes() == default.banked_j.tobytes()
        assert explicit.drawn_j.tobytes() == default.drawn_j.tobytes()
        assert (explicit.active == default.active).all()
        assert explicit.final_charge_j == default.final_charge_j
        assert explicit.brownout_events == default.brownout_events

    def test_environment_selection_of_numpy_is_equally_identical(
        self, node, database, monkeypatch
    ):
        conditions, patterns = _sweep_inputs(node, samples=64)
        reference = EnergyEvaluator(node, database).schedule_energy_sweep(
            conditions, patterns
        )
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "numpy")
        via_env = EnergyEvaluator(node, database).schedule_energy_sweep(
            conditions, patterns
        )
        assert via_env.tobytes() == reference.tobytes()

    def test_emulation_is_byte_identical(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=1)

        def run(backend):
            evaluator = EnergyEvaluator(node, database, backend=backend)
            emulator = NodeEmulator(
                node,
                database,
                scavenger,
                supercapacitor(initial_fraction=0.3),
                thermal_model=TyreThermalModel(time_constant_s=120.0),
                evaluator=evaluator,
            )
            return emulator.emulate(cycle)

        ours, theirs = run("numpy").sample_arrays(), run(None).sample_arrays()
        for key in ours:
            assert ours[key].tobytes() == theirs[key].tobytes(), key


class TestFloat32Policy:
    def test_schedule_sweep_dtype_and_closeness(self, node, database):
        conditions, patterns = _sweep_inputs(node)
        reference = EnergyEvaluator(node, database).schedule_energy_sweep(
            conditions, patterns
        )
        float32 = EnergyEvaluator(
            node, database, backend="float32"
        ).schedule_energy_sweep(conditions, patterns)
        assert float32.dtype == np.float32
        np.testing.assert_allclose(float32, reference, rtol=FLOAT32_RTOL)

    def test_trajectory_dtype_and_absolute_closeness(self, storage):
        harvest, load, leak = _ledger_inputs()
        reference = trajectory(storage, harvest, load, leak)
        float32 = trajectory(storage, harvest, load, leak, backend="float32")
        assert float32.charge_j.dtype == np.float32
        # The ledger is a long recurrence with thresholds: the policy's pin
        # is absolute (a fraction of capacity), not relative — near-empty
        # steps make relative error meaningless.
        atol = 0.02 * storage.capacity_j
        np.testing.assert_allclose(
            float32.charge_j, reference.charge_j, rtol=0.0, atol=atol
        )
        assert abs(float32.final_charge_j - reference.final_charge_j) <= atol

    def test_bin_union_closeness(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=1)

        def bins(backend):
            evaluator = EnergyEvaluator(node, database, backend=backend)
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
            keys = emulator.round_keys(table, table.temps)
            emulator.collect_bins(table, keys, {}, pending, {})
            assert pending
            evaluated = emulator.evaluate_energy_bins(pending)
            return np.array(
                [evaluated[key][0] for key in sorted(evaluated, key=repr)]
            )

        np.testing.assert_allclose(bins("float32"), bins(None), rtol=FLOAT32_RTOL)


NUMBA_AVAILABLE = "numba" in available_backends()


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba is not installed")
class TestNumbaBackend:
    """Runs only where numba wheels exist (the CI backend-matrix leg)."""

    def test_schedule_sweep_within_1e9(self, node, database):
        conditions, patterns = _sweep_inputs(node)
        reference = EnergyEvaluator(node, database).schedule_energy_sweep(
            conditions, patterns
        )
        numba = EnergyEvaluator(
            node, database, backend="numba"
        ).schedule_energy_sweep(conditions, patterns)
        np.testing.assert_allclose(numba, reference, rtol=1e-9)

    def test_trajectory_is_bitwise(self, storage):
        harvest, load, leak = _ledger_inputs()
        reference = trajectory(storage, harvest, load, leak)
        numba = trajectory(storage, harvest, load, leak, backend="numba")
        assert numba.charge_j.tobytes() == reference.charge_j.tobytes()
        assert numba.brownout_events == reference.brownout_events
        assert numba.final_charge_j == reference.final_charge_j


class TestSelectionDoesNotLeakIntoResults:
    def test_evaluator_group_key_is_backend_free(self, node, database):
        spec = ScenarioSpec(name="backend-free")
        key = spec.evaluator_group_key()
        assert "numpy" not in key
        assert "float32" not in key
        assert "backend" not in key

    def test_backend_attribute_is_resolved(self, node, database):
        evaluator = EnergyEvaluator(node, database, backend="float32")
        assert evaluator.backend is resolve_backend("float32")
        assert EnergyEvaluator(node, database).backend is resolve_backend("numpy")
