"""Regression tests: emulator cache reuse and the columnar sample log.

The emulator keeps its revolution-energy and standstill-power caches warm
across ``emulate()`` runs (the evaluator and database are fixed per
instance).  Reusing cached values must not change any ``EmulationResult``
totals, and the columnar :class:`SampleLog` hands out read-only views.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import EmulationResult, NodeEmulator, SampleLog
from repro.scavenger.storage import supercapacitor
from repro.vehicle.drive_cycle import constant_cruise, urban_cycle


def result_totals(result: EmulationResult) -> dict[str, float]:
    return {
        "harvested_j": result.harvested_j,
        "consumed_j": result.consumed_j,
        "discarded_j": result.discarded_j,
        "revolutions": result.revolutions,
        "active_revolutions": result.active_revolutions,
        "brownout_events": result.brownout_events,
        "moving_time_s": result.moving_time_s,
        "active_time_s": result.active_time_s,
    }


class TestCacheReuse:
    def test_warm_cache_reproduces_cold_cache_totals(self, node, database, scavenger):
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        cycle = urban_cycle(repetitions=1)
        cold = emulator.emulate(cycle)
        assert len(emulator._energy_cache) > 0
        warm = emulator.emulate(cycle)  # same instance: every lookup cache-hits
        assert result_totals(warm) == pytest.approx(result_totals(cold))
        for key, column in cold.sample_arrays().items():
            assert np.array_equal(column, warm.sample_arrays()[key]), key

    def test_cache_persists_across_runs(self, node, database, scavenger):
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        emulator.emulate(constant_cruise(80.0, duration_s=30.0))
        entries_after_first = len(emulator._energy_cache)
        assert entries_after_first > 0
        emulator.emulate(constant_cruise(80.0, duration_s=30.0))
        assert len(emulator._energy_cache) == entries_after_first

    def test_warm_emulator_matches_fresh_emulator(self, node, database, scavenger):
        cycle = constant_cruise(70.0, duration_s=60.0)
        warm = NodeEmulator(node, database, scavenger, supercapacitor())
        warm.emulate(constant_cruise(110.0, duration_s=30.0))  # populate caches
        fresh = NodeEmulator(node, database, scavenger, supercapacitor())
        assert result_totals(warm.emulate(cycle)) == pytest.approx(
            result_totals(fresh.emulate(cycle))
        )

    def test_in_place_database_mutation_invalidates_caches(
        self, node, database, scavenger
    ):
        cycle = constant_cruise(70.0, duration_s=60.0)
        warm = NodeEmulator(node, database, scavenger, supercapacitor())
        warm.emulate(cycle)  # populate caches from the original database
        entry = warm.evaluator.database.entry("rf_tx", "active")
        warm.evaluator.database.remove("rf_tx", "active")
        warm.evaluator.database.add(entry.scaled(dynamic_factor=100.0))
        mutated = warm.emulate(cycle)
        fresh = NodeEmulator(node, warm.evaluator.database, scavenger, supercapacitor())
        assert mutated.consumed_j == pytest.approx(fresh.emulate(cycle).consumed_j)

    def test_base_point_reassignment_invalidates_caches(
        self, node, database, scavenger
    ):
        from repro.conditions.operating_point import OperatingPoint
        from repro.conditions.supply import SupplyCondition, SupplyRail

        cycle = constant_cruise(70.0, duration_s=60.0)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        emulator.emulate(cycle)
        low_rail = SupplyRail(name="vdd_core", nominal_v=1.0, tolerance=0.0)
        low_point = OperatingPoint(supply=SupplyCondition(rail=low_rail))
        emulator.base_point = low_point
        warm = emulator.emulate(cycle)
        fresh = NodeEmulator(
            node, database, scavenger, supercapacitor(), base_point=low_point
        ).emulate(cycle)
        assert warm.consumed_j == pytest.approx(fresh.consumed_j)

    @staticmethod
    def _one_round(node, speed):
        """A cruise lasting exactly one wheel round at ``speed``."""
        return constant_cruise(speed, duration_s=node.wheel.revolution_period_s(speed))

    def test_feasibility_boundary_round_falls_back_to_exact_speed(
        self, node, database, scavenger, monkeypatch
    ):
        """A round feasible at its exact speed but not at the bin-center speed
        must still emulate, keyed on the exact speed."""
        from repro.blocks.node import SensorNode
        from repro.errors import ScheduleError

        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        original = SensorNode.schedule_for

        def limited(self, speed_kmh, revolution_index=0):
            if speed_kmh >= 180.0:
                raise ScheduleError("busy phases exceed the wheel-round period")
            return original(self, speed_kmh, revolution_index)

        monkeypatch.setattr(SensorNode, "schedule_for", limited)
        speed = 179.9  # feasible, but its bin center (180.0) is not
        cycle = self._one_round(node, speed)
        first = emulator.emulate(cycle)
        assert first.revolutions == 1 and first.active_revolutions == 1
        assert first.consumed_j > 0.0
        assert any(key[0] == ("exact", speed) for key in emulator._energy_cache)
        # The boundary (bin, pattern) is classified once as exact-keyed so
        # later rounds in the same bin skip the doomed schedule build.
        assert any(key[0] == round(speed / 0.5) for key in emulator._exact_speed_keys)
        assert emulator.emulate(cycle) == first

    def test_cached_bin_does_not_mask_faster_infeasible_speed(
        self, node, database, scavenger, monkeypatch
    ):
        """A bin entry seeded by a feasible speed must not suppress the
        ScheduleError for a later, faster, infeasible speed in the same bin."""
        from repro.blocks.node import SensorNode
        from repro.errors import ScheduleError

        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        original = SensorNode.schedule_for

        def limited(self, speed_kmh, revolution_index=0):
            if speed_kmh >= 180.1:
                raise ScheduleError("busy phases exceed the wheel-round period")
            return original(self, speed_kmh, revolution_index)

        monkeypatch.setattr(SensorNode, "schedule_for", limited)
        # 179.9 and 180.2 share bin 360 (center 180.0, feasible).
        emulator.emulate(self._one_round(node, 179.9))  # seeds the bin
        with pytest.raises(ScheduleError):
            emulator.emulate(self._one_round(node, 180.2))

    def test_infeasible_exact_speed_still_raises(
        self, node, database, scavenger, monkeypatch
    ):
        """A feasible bin center must not mask an infeasible actual speed."""
        from repro.blocks.node import SensorNode
        from repro.errors import ScheduleError

        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        original = SensorNode.schedule_for

        def limited(self, speed_kmh, revolution_index=0):
            if speed_kmh > 180.0:
                raise ScheduleError("busy phases exceed the wheel-round period")
            return original(self, speed_kmh, revolution_index)

        monkeypatch.setattr(SensorNode, "schedule_for", limited)
        # 180.1 is infeasible, but its bin center (180.0) is feasible.
        with pytest.raises(ScheduleError):
            emulator.emulate(self._one_round(node, 180.1))

    def test_bin_sharing_speeds_do_not_leak_history(self, node, database, scavenger):
        """Two speeds in the same 0.5 km/h bin must not cross-contaminate runs.

        80.24 and 80.49 km/h share a quantization bin; a warm emulator that
        saw 80.24 first must report the same totals for an 80.49 cycle as a
        fresh emulator, because cached energies are evaluated at the
        bin-representative speed, not at the first speed seen.
        """
        cycle = constant_cruise(80.49, duration_s=60.0)
        warm = NodeEmulator(node, database, scavenger, supercapacitor())
        warm.emulate(constant_cruise(80.24, duration_s=60.0))
        fresh = NodeEmulator(node, database, scavenger, supercapacitor())
        assert result_totals(warm.emulate(cycle)) == pytest.approx(
            result_totals(fresh.emulate(cycle))
        )

    def test_thermal_warm_emulator_matches_fresh_emulator(
        self, node, database, scavenger
    ):
        """Standstill memoization must not make emulate() history-dependent.

        The warm emulator seeds its temperature bins while running a hotter
        cycle; re-running the reference cycle must still match a fresh
        emulator exactly because bins are evaluated at their representative
        temperature, not at the first temperature seen.
        """
        cycle = constant_cruise(90.0, duration_s=120.0)
        warm = NodeEmulator(
            node, database, scavenger, supercapacitor(),
            thermal_model=TyreThermalModel(time_constant_s=60.0),
        )
        warm.emulate(constant_cruise(130.0, duration_s=300.0))
        fresh = NodeEmulator(
            node, database, scavenger, supercapacitor(),
            thermal_model=TyreThermalModel(time_constant_s=60.0),
        )
        assert result_totals(warm.emulate(cycle)) == pytest.approx(
            result_totals(fresh.emulate(cycle))
        )

    def test_node_and_evaluator_reassignment_invalidates_caches(
        self, node, optimized, database, scavenger
    ):
        from repro.core.evaluator import EnergyEvaluator

        cycle = constant_cruise(70.0, duration_s=60.0)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        emulator.emulate(cycle)
        emulator.node = optimized
        emulator.evaluator = EnergyEvaluator(optimized, database)
        warm = emulator.emulate(cycle)
        fresh = NodeEmulator(optimized, database, scavenger, supercapacitor()).emulate(cycle)
        assert warm.consumed_j == pytest.approx(fresh.consumed_j)

    def test_standstill_power_is_memoized_per_temperature_quantum(
        self, node, database, scavenger
    ):
        emulator = NodeEmulator(
            node,
            database,
            scavenger,
            supercapacitor(),
            thermal_model=TyreThermalModel(time_constant_s=60.0),
        )
        emulator.emulate(constant_cruise(120.0, duration_s=120.0))
        assert len(emulator._standstill_cache) >= 1
        # Far fewer cache entries than wheel rounds: the memoization works.
        assert len(emulator._standstill_cache) < 50


class TestSampleLog:
    def test_arrays_are_views_not_copies(self):
        log = SampleLog.from_columns([0.0], [10.0], [20.0], [0.9], [True])
        assert len(log) == 1
        arrays = log.arrays()
        assert arrays["speed_kmh"].base is not None
        with pytest.raises(ValueError):
            arrays["speed_kmh"][0] = 0.0


class TestErrorTiming:
    """The simulated instant at which an infeasible speed or an out-of-range
    temperature raises, pinned on an 80 -> 130 km/h ramp against a node
    whose schedules cannot be built at or above 100 km/h."""

    LIMIT_KMH = 100.0

    @pytest.fixture
    def limited_node(self, monkeypatch):
        from repro.blocks.node import SensorNode
        from repro.errors import ScheduleError

        original = SensorNode.schedule_for_pattern
        limit = self.LIMIT_KMH

        def limited(self, speed_kmh, *args, **kwargs):
            if speed_kmh >= limit:
                raise ScheduleError(f"limited test node: {speed_kmh!r} km/h")
            return original(self, speed_kmh, *args, **kwargs)

        monkeypatch.setattr(SensorNode, "schedule_for_pattern", limited)

    @staticmethod
    def _ramp():
        from repro.vehicle.drive_cycle import DriveCycle, DriveCyclePhase

        return DriveCycle(
            phases=[DriveCyclePhase(duration_s=60.0, start_kmh=80.0, end_kmh=130.0)],
            name="ramp-past-limit",
        )

    @staticmethod
    def _never_restarting():
        from repro.scavenger.storage import StorageElement

        return StorageElement(
            capacity_j=0.25, initial_charge_j=0.0, restart_level_j=0.25
        )

    def test_node_that_never_restarts_does_not_raise(
        self, node, database, scavenger, limited_node
    ):
        result = NodeEmulator(
            node, database, scavenger, self._never_restarting()
        ).emulate(self._ramp())
        assert result.revolutions == 906
        assert result.active_revolutions == 0
        assert result.consumed_j == 0.0

    def test_live_node_raises_on_first_attempted_infeasible_speed(
        self, node, database, scavenger, limited_node
    ):
        from repro.errors import ScheduleError
        from repro.timing.wheel_round import WheelRound, iter_wheel_rounds

        cycle = self._ramp()
        first = next(
            unit.speed_kmh
            for unit in iter_wheel_rounds(cycle, node.wheel, idle_step_s=1.0)
            if isinstance(unit, WheelRound) and unit.speed_kmh >= self.LIMIT_KMH
        )
        assert first == pytest.approx(100.0407, abs=1e-4)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        with pytest.raises(ScheduleError) as error:
            emulator.emulate(cycle)
        assert str(error.value) == f"limited test node: {first!r} km/h"

    def test_out_of_range_temperature_raises_while_browned_out(
        self, node, database, scavenger, limited_node
    ):
        from repro.errors import ConfigurationError
        from repro.timing.wheel_round import WheelRound, iter_wheel_rounds

        cycle = self._ramp()

        def thermal():
            return TyreThermalModel(ambient_celsius=195.0, time_constant_s=30.0)

        replay = thermal()
        offending = None
        for unit in iter_wheel_rounds(cycle, node.wheel, idle_step_s=1.0):
            if isinstance(unit, WheelRound):
                temperature = replay.advance(unit.period_s, unit.speed_kmh / 3.6)
            else:
                temperature = replay.advance(unit.duration_s, 0.0)
            if temperature > 200.0:
                offending = temperature
                break
        assert offending is not None
        emulator = NodeEmulator(
            node,
            database,
            scavenger,
            self._never_restarting(),
            thermal_model=thermal(),
        )
        with pytest.raises(ConfigurationError) as error:
            emulator.emulate(cycle)
        assert str(error.value) == (
            f"temperature {offending} degC is outside the modelled range"
        )
