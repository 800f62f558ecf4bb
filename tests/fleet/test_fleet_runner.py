"""Tests for the fleet runner: sharing, determinism, aggregate correctness."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.emulator import NodeEmulator
from repro.errors import ConfigError
from repro.fleet import FleetResult, FleetRunner, FleetSpec, run_fleet
from repro.scavenger.storage import scaled_storage
from repro.scenario.spec import ScenarioSpec


def _fleet(vehicles: int = 10, seed: int = 7, **base_overrides) -> FleetSpec:
    kwargs = {
        "name": "base",
        "drive_cycle": {"name": "urban", "params": {"repetitions": 1}},
    }
    kwargs.update(base_overrides)
    return FleetSpec.from_base(ScenarioSpec(**kwargs), vehicles=vehicles, seed=seed)


@pytest.fixture(scope="module")
def sequential_result() -> FleetResult:
    """One sequential reference run shared by the comparison tests."""
    return FleetRunner(_fleet()).run()


class TestValidation:
    def test_needs_a_fleet_spec(self):
        with pytest.raises(ConfigError, match="FleetSpec"):
            FleetRunner({"vehicles": 3})

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            FleetRunner(_fleet(), workers=0)

    def test_invalid_record_interval_rejected(self):
        with pytest.raises(ConfigError, match="record interval"):
            FleetRunner(_fleet(), record_interval_s=0.0)

    @pytest.mark.parametrize("bad", ["x", None, True])
    def test_non_numeric_intervals_rejected(self, bad):
        with pytest.raises(ConfigError, match="idle step"):
            FleetRunner(_fleet(), idle_step_s=bad)

    def test_evaluator_cache_must_expose_get(self):
        with pytest.raises(ConfigError, match=r"get\(key, builder\)"):
            FleetRunner(_fleet(), evaluator_cache=object())

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ConfigError, match="buckets"):
            FleetRunner(_fleet(), survival_buckets=0)


class TestSharing:
    def test_one_evaluator_per_group(self, sequential_result):
        # Every vehicle shares the base architecture/workload/database.
        assert sequential_result.metadata["groups"] == 1
        assert sequential_result.metadata["evaluator_builds"] == 1

    def test_cohorts_far_fewer_than_vehicles(self, sequential_result):
        metadata = sequential_result.metadata
        assert 1 <= metadata["cohorts"] < metadata["vehicles"]
        assert metadata["fast_path_vehicles"] == metadata["vehicles"]

    def test_bins_swept_once_cover_the_population(self, sequential_result):
        assert sequential_result.metadata["shared_energy_bins"] > 0

    def test_quantization_constants_are_single_sourced(self, sequential_result):
        from repro.core import quantize

        assert sequential_result.metadata["speed_quantum_kmh"] == quantize.SPEED_QUANTUM_KMH
        assert sequential_result.metadata["temperature_quantum_c"] == quantize.TEMPERATURE_QUANTUM_C


class TestCorrectness:
    def test_rows_bit_identical_to_naive_per_vehicle_emulate(self, sequential_result):
        """The acceptance bar: sharing can never change a vehicle's figures."""
        fleet = _fleet()
        for vehicle, row in zip(fleet.materialize(), sequential_result.vehicle_rows):
            spec = vehicle.scenario
            emulator = NodeEmulator(
                spec.build_node(),
                spec.build_database(),
                spec.build_scavenger(),
                scaled_storage(spec.build_storage(), vehicle.storage_scale),
                base_point=spec.operating_point(),
            )
            cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
            summary = emulator.emulate(cycle).summary()
            for key, value in summary.items():
                assert row[key] == value

    def test_summary_row_matches_vehicle_rows(self, sequential_result):
        rows = sequential_result.vehicle_rows
        summary = sequential_result.summary
        assert summary["vehicles"] == len(rows)
        assert summary["mean_coverage_pct"] == pytest.approx(
            float(np.mean([row["revolution_coverage_pct"] for row in rows]))
        )
        assert summary["net_mj_p50"] == pytest.approx(
            float(np.percentile([row["net_mj"] for row in rows], 50.0))
        )
        assert summary["brownout_per_hour_p90"] == pytest.approx(
            float(np.percentile([row["brownout_per_hour"] for row in rows], 90.0))
        )

    def test_survival_curve_shape(self, sequential_result):
        survival = sequential_result.survival
        assert len(survival) == sequential_result.metadata["survival_buckets"]
        for row in survival:
            assert 0.0 <= row["surviving_pct"] <= 100.0
            assert row["vehicles"] == sequential_result.metadata["vehicles"]

    def test_deficit_fleet_reports_brownouts(self):
        # An undersized scavenger on a long cycle must brown out: the fleet
        # statistics have to see it.
        fleet = FleetSpec.from_base(
            ScenarioSpec(
                name="deficit",
                scavenger_size=0.05,
                drive_cycle={"name": "urban", "params": {"repetitions": 2}},
            ),
            vehicles=6,
            seed=3,
        )
        result = FleetRunner(fleet).run()
        assert result.summary["brownout_per_hour_p90"] > 0.0
        assert result.summary["surviving_at_end_pct"] < 100.0
        curve = [row["surviving_pct"] for row in result.survival]
        assert min(curve) < 100.0


class TestDeterminism:
    def test_thread_workers_identical_aggregates(self, sequential_result):
        """A wider pool (workers=4) splits the vehicles differently and must
        still reproduce the sequential aggregates exactly."""
        parallel = FleetRunner(_fleet(), workers=4).run()
        assert parallel.metadata["backend"] == "process"
        assert parallel.summary == sequential_result.summary
        assert parallel.survival == sequential_result.survival
        assert parallel.vehicle_rows == sequential_result.vehicle_rows

    def test_process_backend_identical_aggregates(self, sequential_result):
        process = FleetRunner(_fleet(), workers=2).run()
        assert process.metadata["backend"] == "process"
        assert process.summary == sequential_result.summary
        assert process.survival == sequential_result.survival
        assert process.vehicle_rows == sequential_result.vehicle_rows

    def test_same_seed_reproduces_the_run(self, sequential_result):
        again = FleetRunner(_fleet()).run()
        assert again.summary == sequential_result.summary
        assert again.survival == sequential_result.survival

    def test_different_seed_changes_the_run(self, sequential_result):
        other = FleetRunner(_fleet(seed=8)).run()
        assert other.summary != sequential_result.summary

    def test_200_vehicle_fleet_is_worker_count_independent(self):
        """The acceptance bar: seeded aggregates on a >=200-vehicle fleet are
        identical whatever worker count executes them."""
        fleet = _fleet(vehicles=200, seed=13)
        sequential = FleetRunner(fleet, keep_vehicle_rows=False).run()
        parallel = FleetRunner(fleet, workers=2, keep_vehicle_rows=False).run()
        assert parallel.summary == sequential.summary
        assert parallel.survival == sequential.survival
        assert sequential.summary["vehicles"] == 200


class TestConcurrentRuns:
    def test_concurrent_pool_runs_keep_their_own_cohort_tables(self):
        """Run B starts (and stashes its shared state) between two chunks of
        pool run A.  B's idle step differs, so its cohort tables differ under
        the same cohort keys; each run's pools must still fork with its own."""
        fleet = _fleet(vehicles=40, seed=3).with_population(chunk_vehicles=10)
        expected_a = FleetRunner(fleet).run().vehicle_rows
        expected_b = FleetRunner(fleet, idle_step_s=5.0).run().vehicle_rows
        b_stashed = threading.Event()
        a_done = threading.Event()
        b_results: list = []
        b_threads: list[threading.Thread] = []

        def b_should_stop() -> bool:
            # B has stashed by the time it polls; its first chunk waits for A.
            b_stashed.set()
            a_done.wait(timeout=120)
            return False

        def run_b() -> None:
            runner = FleetRunner(fleet, workers=2, idle_step_s=5.0, should_stop=b_should_stop)
            b_results.append(runner.run())

        polls: list[int] = []

        def a_should_stop() -> bool:
            polls.append(len(polls))
            if len(polls) == 2:  # before A's second chunk
                thread = threading.Thread(target=run_b, daemon=True)
                thread.start()
                b_threads.append(thread)
                assert b_stashed.wait(timeout=120)
            return False

        try:
            result = FleetRunner(fleet, workers=2, should_stop=a_should_stop).run()
        finally:
            a_done.set()
            for thread in b_threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in b_threads)
        assert result.metadata["backend"] == "process"
        assert result.vehicle_rows == expected_a
        assert [b.vehicle_rows for b in b_results] == [expected_b]


class TestResultSurface:
    def test_to_study_result_rides_existing_exports(self, sequential_result, tmp_path):
        study_result = sequential_result.to_study_result()
        assert study_result.kind == "fleet"
        assert len(study_result) == 1
        path = study_result.to_csv(tmp_path / "fleet.csv")
        assert path.read_text().startswith("fleet,")
        assert "surviving_at_end_pct" in study_result.as_table()

    def test_exports(self, sequential_result, tmp_path):
        sequential_result.to_csv(tmp_path / "summary.csv")
        sequential_result.to_json(tmp_path / "summary.json")
        sequential_result.survival_to_csv(tmp_path / "survival.csv")
        sequential_result.vehicles_to_csv(tmp_path / "vehicles.csv")
        lines = (tmp_path / "vehicles.csv").read_text().splitlines()
        assert len(lines) == sequential_result.metadata["vehicles"] + 1

    def test_streaming_only_mode_drops_vehicle_rows(self):
        result = FleetRunner(_fleet(vehicles=4), keep_vehicle_rows=False).run()
        assert result.vehicle_rows is None
        with pytest.raises(ConfigError, match="per-vehicle rows"):
            result.vehicles_to_csv("anywhere.csv")
        # Aggregates are unaffected.
        assert result.summary["vehicles"] == 4

    def test_run_fleet_convenience(self):
        result = run_fleet(_fleet(vehicles=3), workers=2)
        assert isinstance(result, FleetResult)
        assert len(result) == 3
        assert result.metadata["workers"] == 2
        assert result.metadata["backend"] == "process"

    def test_metadata_records_the_run(self, sequential_result):
        metadata = sequential_result.metadata
        assert metadata["kind"] == "fleet"
        assert metadata["vehicles"] == 10
        assert metadata["backend"] == "sequential"
        assert "engine_backend" not in metadata
        assert metadata["wall_time_s"] > 0.0
        assert len(metadata["vehicle_wall_times_s"]) == 10
        assert metadata["fleet_document"]["vehicles"] == 10


class TestCycleMixAndTolerances:
    def test_cycle_mix_produces_multiple_cohorts(self):
        fleet = FleetSpec(
            base=ScenarioSpec(
                name="mixed", drive_cycle={"name": "urban", "params": {"repetitions": 1}}
            ),
            vehicles=12,
            seed=5,
            distributions={
                "drive_cycle": {
                    "kind": "categorical",
                    "params": {
                        "choices": [{"name": "urban", "params": {"repetitions": 1}}, "nedc"]
                    },
                },
            },
        )
        result = FleetRunner(fleet).run()
        cycles = {row["cycle"] for row in result.vehicle_rows}
        assert cycles == {"urban-x1", "nedc-like"}

    def test_storage_tolerance_scales_every_threshold(self):
        fleet = _fleet(vehicles=6)
        for vehicle in fleet.materialize():
            storage = scaled_storage(vehicle.scenario.build_storage(), vehicle.storage_scale)
            reference = vehicle.scenario.build_storage()
            ratio = storage.capacity_j / reference.capacity_j
            assert ratio == pytest.approx(vehicle.storage_scale)
            assert storage.restart_level_j / reference.restart_level_j == pytest.approx(
                vehicle.storage_scale
            )


class TestBatchedChunkFailures:
    """One failing vehicle inside a chunk whose ledgers run as one batch."""

    @staticmethod
    def _fleet() -> FleetSpec:
        base = ScenarioSpec(
            name="one-bad",
            drive_cycle={
                "name": "ramp",
                "params": {
                    "start_kmh": 80.0,
                    "end_kmh": 97.0,
                    "ramp_duration_s": 60.0,
                    "hold_duration_s": 20.0,
                },
            },
        )
        return FleetSpec.from_base(base, vehicles=12, seed=5)

    def test_only_the_failing_vehicle_fails_and_the_rest_equal_emulate(self, monkeypatch):
        from repro.blocks.node import SensorNode
        from repro.errors import ReproError, ScheduleError

        fleet = self._fleet()
        vehicles = fleet.materialize()
        assert len(vehicles) <= fleet.chunk_vehicles
        # A node that cannot schedule above a speed only the fastest vehicle
        # of the chunk reaches (the others are nowhere near it).
        top, runner_up = sorted({97.0 * v.speed_scale for v in vehicles})[-1:-3:-1]
        limit = (top + runner_up) / 2.0
        (bad,) = [v.index for v in vehicles if 97.0 * v.speed_scale > limit]
        original = SensorNode.schedule_for_pattern

        def limited(self, speed_kmh, *args, **kwargs):
            if speed_kmh >= limit:
                raise ScheduleError(f"limited test node: {speed_kmh!r} km/h")
            return original(self, speed_kmh, *args, **kwargs)

        monkeypatch.setattr(SensorNode, "schedule_for_pattern", limited)
        result = FleetRunner(fleet, retries=1).run()
        failures = result.metadata["failures"]
        assert [failure["index"] for failure in failures] == [bad]
        assert failures[0]["attempts"] == 2
        rows = {row["vehicle"]: row for row in result.vehicle_rows}
        assert sorted(rows) == [v.index for v in vehicles if v.index != bad]
        for vehicle in vehicles:
            spec = vehicle.scenario
            emulator = NodeEmulator(
                spec.build_node(),
                spec.build_database(),
                spec.build_scavenger(),
                scaled_storage(spec.build_storage(), vehicle.storage_scale),
                base_point=spec.operating_point(),
            )
            cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
            if vehicle.index == bad:
                with pytest.raises(ReproError) as raised:
                    emulator.emulate(cycle)
                error = raised.value
                assert failures[0]["error"] == f"{type(error).__name__}: {error}"
                continue
            summary = emulator.emulate(cycle).summary()
            for key, value in summary.items():
                assert rows[vehicle.index][key] == value, (vehicle.index, key)


class TestScheduleStraddlingCohorts:
    """Cohorts whose scaled cycle crosses the node's feasibility limit."""

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
    def _fleet() -> FleetSpec:
        # A small scavenger and a nearly empty store: some vehicles are
        # browned out while their cycle crosses the limit (and complete),
        # others are live there (and fail).
        base = ScenarioSpec(
            name="straddle",
            scavenger_size=0.1,
            storage={"name": "supercapacitor", "params": {"initial_fraction": 0.02}},
            drive_cycle={
                "name": "ramp",
                "params": {
                    "start_kmh": 80.0,
                    "end_kmh": 97.0,
                    "ramp_duration_s": 60.0,
                    "hold_duration_s": 20.0,
                },
            },
        )
        return FleetSpec.from_base(base, vehicles=8, seed=4)

    def test_rows_and_errors_match_per_vehicle_emulate(self, limited_node):
        from repro.errors import ReproError

        fleet = self._fleet()
        result = FleetRunner(fleet, retries=1).run()
        rows = {row["vehicle"]: row for row in result.vehicle_rows}
        failures = {failure["index"]: failure for failure in result.metadata["failures"]}
        assert rows and failures, "the fleet must have both completing and failing vehicles"
        crossing = [
            v for v in fleet.materialize() if 97.0 * v.speed_scale >= self.LIMIT_KMH
        ]
        assert any(v.index in rows for v in crossing), "no completing vehicle crosses"
        for vehicle in fleet.materialize():
            spec = vehicle.scenario
            emulator = NodeEmulator(
                spec.build_node(),
                spec.build_database(),
                spec.build_scavenger(),
                scaled_storage(spec.build_storage(), vehicle.storage_scale),
                base_point=spec.operating_point(),
            )
            cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
            try:
                summary = emulator.emulate(cycle).summary()
            except ReproError as error:
                assert vehicle.index not in rows
                assert failures[vehicle.index]["error"] == (
                    f"{type(error).__name__}: {error}"
                )
                continue
            assert vehicle.index not in failures
            row = rows[vehicle.index]
            for key, value in summary.items():
                assert row[key] == value, (vehicle.index, key)
