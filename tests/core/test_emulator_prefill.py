"""``emulate()`` against the scalar, step-by-step oracle.

``emulate()`` walks the cycle once, resolves every quantized revolution
energy with one batch call and integrates through the pure ``trajectory``
kernel.  The reference it must match *byte for byte* is
:func:`emulation_oracle.oracle`, a mutating ``StorageElement`` replay over
scalar per-round energies.
"""

from __future__ import annotations

import numpy as np
import pytest
from emulation_oracle import oracle

from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import EmulationResult, NodeEmulator
from repro.core.quantize import speed_bin_center_kmh, temperature_bin_center_c
from repro.errors import ScheduleError
from repro.scavenger.storage import supercapacitor
from repro.vehicle.drive_cycle import DriveCycle, DriveCyclePhase, urban_cycle


def _thermal_emulator(node, database, scavenger, storage=None) -> NodeEmulator:
    return NodeEmulator(
        node,
        database,
        scavenger,
        storage or supercapacitor(initial_fraction=0.3),
        thermal_model=TyreThermalModel(time_constant_s=120.0),
    )


def _hour_cycle() -> DriveCycle:
    """An hour-long profile mixing cruises, ramps and a stop."""
    phases = [
        DriveCyclePhase(duration_s=600.0, start_kmh=30.0, end_kmh=120.0),
        DriveCyclePhase(duration_s=900.0, start_kmh=120.0, end_kmh=120.0),
        DriveCyclePhase(duration_s=300.0, start_kmh=120.0, end_kmh=0.0),
        DriveCyclePhase(duration_s=300.0, start_kmh=0.0, end_kmh=0.0),
        DriveCyclePhase(duration_s=600.0, start_kmh=0.0, end_kmh=90.0),
        DriveCyclePhase(duration_s=900.0, start_kmh=90.0, end_kmh=45.0),
    ]
    return DriveCycle(phases=phases, name="hour")


def _assert_byte_identical(ours: EmulationResult, theirs: EmulationResult) -> None:
    left, right = ours.sample_arrays(), theirs.sample_arrays()
    for key in left:
        assert left[key].tobytes() == right[key].tobytes(), key
    assert ours == theirs


class TestPrefillByteIdentity:
    def test_hour_long_cycle_samplelog_is_byte_identical(
        self, node, database, scavenger
    ):
        emulator = _thermal_emulator(node, database, scavenger)
        expected, _storage = oracle(emulator, _hour_cycle())
        _assert_byte_identical(emulator.emulate(_hour_cycle()), expected)

    def test_trace_window_is_identical(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=1)
        window = (10.0, 12.0)
        emulator = _thermal_emulator(node, database, scavenger)
        expected, _storage = oracle(emulator, cycle, trace_window=window)
        result = emulator.emulate(cycle, trace_window=window)
        assert not result.trace.is_empty
        assert result.trace == expected.trace

    def test_constant_temperature_run_is_identical(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=2)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        expected, _storage = oracle(emulator, cycle)
        _assert_byte_identical(emulator.emulate(cycle), expected)


class TestPrefillMechanics:
    @staticmethod
    def _count_bins(monkeypatch) -> list[int]:
        sizes: list[int] = []
        original = NodeEmulator.evaluate_energy_bins

        def counting(self, pending):
            sizes.append(len(pending))
            return original(self, pending)

        monkeypatch.setattr(NodeEmulator, "evaluate_energy_bins", counting)
        return sizes

    def test_prefill_fills_the_cache_before_the_loop(
        self, node, database, scavenger, monkeypatch
    ):
        sizes = self._count_bins(monkeypatch)
        emulator = _thermal_emulator(node, database, scavenger)
        emulator.emulate(_hour_cycle())
        # ONE batch call resolved every bin of the cycle.
        assert len(sizes) == 1 and sizes[0] > 0
        assert len(emulator._energy_cache) == sizes[0]

    def test_second_prefill_is_a_no_op(self, node, database, scavenger, monkeypatch):
        emulator = _thermal_emulator(node, database, scavenger)
        cycle = _hour_cycle()
        first = emulator.emulate(cycle)
        sizes = self._count_bins(monkeypatch)
        assert emulator.emulate(cycle) == first
        assert sizes == [0], "a warm run evaluated bins again"

    def test_prefill_resets_the_thermal_model(self, node, database, scavenger):
        emulator = _thermal_emulator(node, database, scavenger)
        ambient = emulator.thermal_model.current_celsius
        # An isothermal table leaves the emulator's own model untouched ...
        table = emulator.materialize_cycle(_hour_cycle())
        emulator.resolve(table, table.temps)
        assert emulator.thermal_model.current_celsius == ambient
        assert np.all(table.temps == emulator.base_point.temperature_c)
        # ... and every emulate() replays its model from the reset state.
        first = emulator.emulate(_hour_cycle())
        assert emulator.thermal_model.current_celsius != ambient
        assert emulator.emulate(_hour_cycle()) == first

    def test_prefill_skips_infeasible_bins(self, node, database, scavenger, monkeypatch):
        """Rounds whose schedule cannot be built stay unresolved, not evaluated."""
        from repro.blocks.node import SensorNode

        original = SensorNode.schedule_for

        def limited(self, speed_kmh, revolution_index=0):
            if speed_kmh >= 100.0:
                raise ScheduleError("limited test node")
            return original(self, speed_kmh, revolution_index)

        monkeypatch.setattr(SensorNode, "schedule_for", limited)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        cycle = DriveCycle(
            phases=[DriveCyclePhase(duration_s=60.0, start_kmh=80.0, end_kmh=130.0)],
            name="ramp-past-limit",
        )
        table = emulator.materialize_cycle(cycle)
        _keys, _entries, demand = emulator.resolve(table, table.temps)
        assert all(
            not (isinstance(key[0], int) and key[0] >= 200)
            for key in emulator._energy_cache
        ), "a bin past the feasibility limit was evaluated"
        assert demand.unresolved.size > 0
        assert np.all(np.isinf(demand.load[demand.unresolved]))
        # The run then raises at the first unsustainable round the node tries.
        with pytest.raises(ScheduleError):
            emulator.emulate(cycle)

    def test_prefill_entries_match_miss_entries(self, node, database, scavenger):
        """Batch-resolved values are bitwise the width-1 compiled evaluation."""
        emulator = _thermal_emulator(node, database, scavenger)
        table = emulator.materialize_cycle(
            _hour_cycle(), thermal_model=TyreThermalModel(time_constant_s=120.0)
        )
        _keys, entries, _demand = emulator.resolve(table, table.temps)
        assert entries
        for key, value in entries.items():
            speed_key, temperature_bin_index, *pattern = key
            speed = (
                speed_key[1] if isinstance(speed_key, tuple) else speed_bin_center_kmh(speed_key)
            )
            center = temperature_bin_center_c(temperature_bin_index)
            point = emulator.base_point.at_speed(speed).at_temperature(center)
            schedule = node.schedule_for_pattern(speed, *pattern)
            assert emulator.evaluator.schedule_energy_compiled(schedule, point) == value, key

    def test_infeasible_center_rounds_key_on_exact_speeds(
        self, node, database, scavenger, monkeypatch
    ):
        """A bin whose center fails while its upper edge passes keys its
        rounds on their exact speeds (and memoizes the center)."""
        from repro.blocks.node import SensorNode

        original = SensorNode.schedule_for
        center = speed_bin_center_kmh(200)

        def pocket(self, speed_kmh, revolution_index=0):
            if speed_kmh == center:
                raise ScheduleError("feasibility pocket")
            return original(self, speed_kmh, revolution_index)

        monkeypatch.setattr(SensorNode, "schedule_for", pocket)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        cycle = DriveCycle(
            phases=[DriveCyclePhase(duration_s=60.0, start_kmh=80.0, end_kmh=130.0)],
            name="ramp-through-pocket",
        )
        expected, _storage = oracle(emulator, cycle)
        _assert_byte_identical(emulator.emulate(cycle), expected)
        assert any(key[0] == 200 for key in emulator._infeasible_center_keys)
        assert all(key[0] != 200 for key in emulator._energy_cache)


class TestArrayCoreByteIdentity:
    """The array-based integration core against the scalar oracle."""

    def test_kernel_path_is_actually_taken(self, node, database, scavenger, monkeypatch):
        import repro.core.emulator as emulator_module

        calls = []
        original = emulator_module.trajectory

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(emulator_module, "trajectory", counting)
        _thermal_emulator(node, database, scavenger).emulate(_hour_cycle())
        assert calls, "emulate() should integrate through the kernel"

    def test_forced_stepwise_loop_is_byte_identical(self, node, database, scavenger):
        """A brown-out-heavy run: restart hysteresis and failed withdrawals."""
        emulator = _thermal_emulator(
            node, database, scavenger, supercapacitor(capacity_j=0.01, initial_fraction=0.3)
        )
        expected, _storage = oracle(emulator, _hour_cycle())
        assert expected.brownout_events > 0
        _assert_byte_identical(emulator.emulate(_hour_cycle()), expected)

    def test_stepwise_trace_matches_kernel_trace(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=1)
        window = (20.0, 24.0)
        emulator = _thermal_emulator(
            node, database, scavenger, supercapacitor(capacity_j=0.002, initial_fraction=0.3)
        )
        expected, _storage = oracle(emulator, cycle, trace_window=window)
        result = emulator.emulate(cycle, trace_window=window)
        assert result.trace == expected.trace

    def test_storage_holds_the_final_charge(self, node, database, scavenger):
        """emulate() leaves the element where the scalar replay leaves it."""
        cycle = _hour_cycle()
        emulator = _thermal_emulator(node, database, scavenger)
        emulator.emulate(cycle)
        _expected, storage = oracle(emulator, cycle)
        assert 0.0 <= emulator.storage.charge_j <= emulator.storage.capacity_j
        assert emulator.storage.charge_j == storage.charge_j

    def test_harvest_rides_the_vectorized_sweep(
        self, node, database, scavenger, monkeypatch
    ):
        """emulate() calls energy_sweep_j once instead of N scalar calls."""
        from repro.scavenger.piezoelectric import PiezoelectricScavenger

        sweeps = []
        scalars = []
        original_sweep = PiezoelectricScavenger.energy_sweep_j
        original_scalar = PiezoelectricScavenger.energy_per_revolution_j

        def counting_sweep(self, speeds):
            sweeps.append(len(speeds))
            return original_sweep(self, speeds)

        def counting_scalar(self, speed):
            scalars.append(speed)
            return original_scalar(self, speed)

        monkeypatch.setattr(PiezoelectricScavenger, "energy_sweep_j", counting_sweep)
        monkeypatch.setattr(
            PiezoelectricScavenger, "energy_per_revolution_j", counting_scalar
        )
        result = NodeEmulator(
            node, database, PiezoelectricScavenger(), supercapacitor()
        ).emulate(urban_cycle(repetitions=1))
        assert sweeps == [result.revolutions]
        assert scalars == []


class TestEnergyCacheCap:
    def test_cache_cap_eviction_clears_and_refills(
        self, node, database, scavenger, monkeypatch
    ):
        """Hitting the entry cap drops the cache, and emulation still works."""
        import repro.core.emulator as emulator_module

        monkeypatch.setattr(emulator_module, "_MAX_ENERGY_CACHE_ENTRIES", 8)
        emulator = _thermal_emulator(node, database, scavenger)
        result = emulator.emulate(_hour_cycle())
        assert result.revolutions > 0
        assert len(emulator._energy_cache) <= 8
        fresh = _thermal_emulator(node, database, scavenger).emulate(_hour_cycle())
        assert result == fresh
        assert emulator.emulate(_hour_cycle()) == result

    def test_cap_applies_to_prefill_inserts(
        self, node, database, scavenger, monkeypatch
    ):
        import repro.core.emulator as emulator_module

        monkeypatch.setattr(emulator_module, "_MAX_ENERGY_CACHE_ENTRIES", 8)
        emulator = _thermal_emulator(node, database, scavenger)
        table = emulator.materialize_cycle(_hour_cycle())
        _keys, entries, _demand = emulator.resolve(table, table.temps)
        assert len(entries) > 8
        assert len(emulator._energy_cache) <= 8

    def test_capped_run_matches_uncapped_run(
        self, node, database, scavenger, monkeypatch
    ):
        """Eviction is a perf knob only: results must not change."""
        import repro.core.emulator as emulator_module

        cycle = _hour_cycle()
        uncapped = _thermal_emulator(node, database, scavenger).emulate(cycle)
        monkeypatch.setattr(emulator_module, "_MAX_ENERGY_CACHE_ENTRIES", 4)
        capped = _thermal_emulator(node, database, scavenger).emulate(cycle)
        assert capped == uncapped
