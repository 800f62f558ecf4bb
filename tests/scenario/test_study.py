"""Tests for the Study runner: grid expansion, evaluator sharing, analysis kinds."""

from __future__ import annotations

import json

import pytest

from repro.core.evaluator import EnergyEvaluator
from repro.errors import ConfigError
from repro.power.compiled import CompiledPowerTable
from repro.scenario.spec import ScenarioSpec
from repro.scenario.study import STUDY_KINDS, Study, run_study


@pytest.fixture
def grid_study():
    """The acceptance grid: 3 temperatures x 2 architectures."""
    return Study(
        ScenarioSpec(name="grid"),
        axes={
            "temperature": [-20.0, 25.0, 85.0],
            "architecture": ["baseline", "optimized"],
        },
    )


class TestGridExpansion:
    def test_grid_size(self, grid_study):
        assert len(grid_study) == 6
        assert len(grid_study.scenarios()) == 6

    def test_scenarios_carry_overrides(self, grid_study):
        overrides, spec = grid_study.scenarios()[0]
        assert overrides == {"temperature": -20.0, "architecture": "baseline"}
        assert spec.temperature_c == -20.0
        assert spec.architecture.name == "baseline"

    def test_no_axes_is_single_scenario(self):
        study = Study(ScenarioSpec())
        assert len(study) == 1
        assert study.scenarios()[0][0] == {}

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario axis"):
            Study(ScenarioSpec(), axes={"humidity": [0.1]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="at least one value"):
            Study(ScenarioSpec(), axes={"temperature": []})

    def test_non_spec_rejected(self):
        with pytest.raises(ConfigError, match="needs a ScenarioSpec"):
            Study({"architecture": "baseline"})

    def test_alias_collision_rejected(self):
        with pytest.raises(ConfigError, match="both drive the scenario field"):
            Study(
                ScenarioSpec(),
                axes={"temperature": [-20.0, 85.0], "temperature_c": [25.0]},
            )


class TestEvaluatorSharing:
    def test_one_evaluator_per_architecture(self, grid_study):
        result = grid_study.run("balance")
        assert result.metadata["evaluator_builds"] == 2
        assert result.metadata["evaluator_cache_hits"] == 4

    def test_single_compiled_table_per_database(self, grid_study, monkeypatch):
        """The acceptance bar: the 3x2 grid compiles one table per database."""
        compilations = []
        original = CompiledPowerTable.from_database.__func__

        def counting(cls, database):
            compilations.append(database.name)
            return original(cls, database)

        monkeypatch.setattr(CompiledPowerTable, "from_database", classmethod(counting))
        result = grid_study.run("balance")
        assert len(result) == 6
        # Two architectures on one characterization library: exactly two
        # (node-adapted) databases, one compiled table each.
        assert len(compilations) == 2

    def test_workload_override_splits_the_cache(self):
        study = Study(
            ScenarioSpec(),
            axes={"tx_interval_revs": [1, 4], "temperature": [25.0, 85.0]},
        )
        result = study.run("report")
        assert result.metadata["evaluator_builds"] == 2
        assert result.metadata["evaluator_cache_hits"] == 2

    def test_counters_are_per_run(self):
        study = Study(ScenarioSpec(), axes={"temperature": [-20.0, 25.0]})
        first = study.run("report")
        assert first.metadata["evaluator_builds"] == 1
        assert first.metadata["evaluator_cache_hits"] == 1
        second = study.run("report")
        # The warm study rebuilds nothing; the metadata reports this run only.
        assert second.metadata["evaluator_builds"] == 0
        assert second.metadata["evaluator_cache_hits"] == 2

    def test_unhashable_component_params_are_cacheable(self):
        from repro.scenario.registry import ARCHITECTURES

        def nicknamed(nicknames=()):
            node = ARCHITECTURES.create("baseline")
            return node.renamed("-".join(["custom", *nicknames]))

        ARCHITECTURES.register("custom", nicknamed)
        try:
            spec = ScenarioSpec(
                architecture={"name": "custom", "params": {"nicknames": ["a", "b"]}}
            )
            result = Study(spec, axes={"temperature": [25.0, 85.0]}).run("report")
            assert len(result) == 2
            assert result.metadata["evaluator_builds"] == 1
        finally:
            ARCHITECTURES.unregister("custom")


class TestKinds:
    def test_balance_rows(self, grid_study):
        result = grid_study.run("balance")
        assert result.kind == "balance"
        row = result.rows[0]
        assert set(row) == {
            "scenario",
            "temperature",
            "architecture",
            "break_even_kmh",
            "required_uj_per_rev",
            "generated_uj_per_rev",
            "margin_uj_per_rev",
            "surplus",
        }
        for value in result.column("break_even_kmh"):
            assert 20.0 < value < 100.0

    def test_balance_matches_scalar_reference(self):
        spec = ScenarioSpec()
        result = run_study(spec, kind="balance")
        evaluator = EnergyEvaluator(spec.build_node(), spec.build_database())
        point = spec.operating_point()
        scalar = evaluator.energy_per_revolution_j(point)
        scalar = spec.build_node().pmu.referred_to_storage(scalar)
        assert result.rows[0]["required_uj_per_rev"] == pytest.approx(scalar * 1e6, rel=1e-9)

    def test_report_rows_match_scalar_reference(self):
        spec = ScenarioSpec(temperature_c=85.0)
        result = run_study(spec, kind="report")
        report = EnergyEvaluator(
            spec.build_node(), spec.build_database()
        ).average_report(spec.operating_point())
        row = result.rows[0]
        assert row["energy_per_rev_uj"] == pytest.approx(report.total_energy_j * 1e6, rel=1e-9)
        assert row["dynamic_uj"] == pytest.approx(report.dynamic_energy_j * 1e6, rel=1e-9)

    def test_optimize_rows_report_a_saving(self):
        result = run_study(ScenarioSpec(), kind="optimize")
        row = result.rows[0]
        assert row["energy_after_uj"] < row["energy_before_uj"]
        assert row["saving_pct"] > 0.0
        assert row["techniques"] >= 1

    def test_emulate_rows(self):
        spec = ScenarioSpec(drive_cycle={"name": "urban", "params": {"repetitions": 1}})
        result = run_study(spec, kind="emulate")
        row = result.rows[0]
        assert row["cycle_name"] == "urban-x1"
        assert row["revolutions"] > 0
        assert "brownout_events" in row

    def test_emulate_cycle_axis_column_keeps_the_axis_value(self):
        spec = ScenarioSpec()
        result = run_study(spec, axes={"cycle": ["urban", "nedc"]}, kind="emulate")
        # The swept axis value survives; the cycle's own label sits beside it.
        assert result.column("cycle") == ["urban", "nedc"]
        assert result.column("cycle_name") == ["urban-x4", "nedc-like"]

    def test_emulate_requires_cycle(self):
        with pytest.raises(ConfigError, match="drive_cycle"):
            run_study(ScenarioSpec(), kind="emulate")

    def test_emulate_requires_storage(self):
        spec = ScenarioSpec(storage=None, drive_cycle="nedc")
        with pytest.raises(ConfigError, match="storage"):
            run_study(spec, kind="emulate")

    def test_explore_rows(self):
        result = run_study(ScenarioSpec(), axes={"scavenger_size": [0.5, 1.0, 2.0]}, kind="explore")
        break_evens = result.column("break_even_kmh")
        # A larger scavenger activates earlier.
        assert break_evens[0] > break_evens[1] > break_evens[2]
        assert all(result.column("activates"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown analysis kind"):
            run_study(ScenarioSpec(), kind="interpolate")

    def test_every_kind_is_runnable(self):
        spec = ScenarioSpec(drive_cycle={"name": "urban", "params": {"repetitions": 1}})
        for kind in STUDY_KINDS:
            result = run_study(spec, kind=kind)
            assert len(result) == 1


class TestStudyResult:
    def test_rows_share_columns(self, grid_study):
        result = grid_study.run("balance")
        columns = list(result.rows[0])
        for row in result.rows:
            assert list(row) == columns

    def test_exports(self, grid_study, tmp_path):
        result = grid_study.run("balance")
        csv_path = result.to_csv(tmp_path / "grid.csv")
        json_path = result.to_json(tmp_path / "grid.json")
        assert len(csv_path.read_text().splitlines()) == 7
        assert len(json.loads(json_path.read_text())) == 6

    def test_as_table_renders(self, grid_study):
        table = grid_study.run("balance").as_table()
        assert "break_even_kmh" in table

    def test_unknown_column_rejected(self, grid_study):
        result = grid_study.run("balance")
        with pytest.raises(ConfigError, match="no column"):
            result.column("flux_capacitance")

    def test_metadata_records_the_grid(self, grid_study):
        result = grid_study.run("balance")
        assert result.metadata["grid_points"] == 6
        assert result.metadata["axes"]["temperature"] == [-20.0, 25.0, 85.0]
        assert result.metadata["base_scenario"]["name"] == "grid"


class TestParallelExecution:
    """Study.run(workers=N): identical rows, deterministic order, shared caches."""

    @pytest.mark.parametrize("kind", ["balance", "report", "montecarlo", "explore"])
    def test_workers_match_sequential_rows(self, kind):
        spec = ScenarioSpec(name="parallel")
        axes = {
            "temperature": [-20.0, 25.0, 85.0],
            "architecture": ["baseline", "optimized"],
        }
        sequential = Study(spec, axes=axes).run(kind)
        parallel = Study(spec, axes=axes).run(kind, workers=2)
        assert parallel.rows == sequential.rows
        assert parallel.axes == sequential.axes
        assert parallel.metadata["backend"] == "process"

    def test_workers_match_sequential_emulate(self):
        spec = ScenarioSpec(drive_cycle={"name": "urban", "params": {"repetitions": 1}})
        axes = {"temperature": [0.0, 40.0]}
        sequential = Study(spec, axes=axes).run("emulate")
        parallel = Study(spec, axes=axes).run("emulate", workers=2)
        assert parallel.rows == sequential.rows

    def test_workers_share_the_evaluator_cache(self):
        # The parent counts its own builds, so the sharing is observable on
        # the in-process path (a pool builds in its workers, see below).
        spec = ScenarioSpec(name="shared")
        axes = {"temperature": [-20.0, 0.0, 25.0, 50.0, 85.0]}
        result = Study(spec, axes=axes).run("report", workers=1)
        metadata = result.metadata
        assert metadata["evaluator_builds"] == 1
        assert metadata["evaluator_cache_hits"] == 4
        assert metadata["workers"] == 1

    def test_invalid_workers_rejected(self):
        study = Study(ScenarioSpec())
        for bad in (0, -2, 1.5, True, "many"):
            with pytest.raises(ConfigError, match="workers"):
                study.run("report", workers=bad)

    def test_single_worker_is_sequential(self):
        result = Study(ScenarioSpec()).run("report", workers=1)
        assert result.metadata["workers"] == 1
        assert result.metadata["backend"] == "sequential"


class TestProcessBackend:
    """Study.run(workers=N) on the process pool: rows identical, spec shipped as JSON."""

    @pytest.mark.parametrize("kind", ["balance", "optimize", "montecarlo"])
    def test_process_rows_match_sequential(self, kind):
        spec = ScenarioSpec(name="proc")
        axes = {"temperature": [-20.0, 25.0, 85.0]}
        sequential = Study(spec, axes=axes).run(kind)
        process = Study(spec, axes=axes).run(kind, workers=3)
        assert process.rows == sequential.rows
        assert process.metadata["backend"] == "process"
        # Same columns in the same order: the exports must not care which
        # path produced the rows.
        assert [list(row) for row in process.rows] == [
            list(row) for row in sequential.rows
        ]

    def test_process_emulate_matches_sequential(self):
        spec = ScenarioSpec(
            drive_cycle={"name": "urban", "params": {"repetitions": 1}},
            storage="supercapacitor",
        )
        axes = {"temperature": [0.0, 40.0]}
        sequential = Study(spec, axes=axes).run("emulate")
        process = Study(spec, axes=axes).run("emulate", workers=2)
        assert process.rows == sequential.rows

    def test_process_backend_timing_metadata(self):
        spec = ScenarioSpec(name="proc-meta")
        axes = {"temperature": [0.0, 25.0]}
        metadata = Study(spec, axes=axes).run("report", workers=2).metadata
        assert metadata["workers"] == 2
        assert metadata["wall_time_s"] > 0.0
        assert len(metadata["row_wall_times_s"]) == 2
        assert all(elapsed > 0.0 for elapsed in metadata["row_wall_times_s"])
        # Evaluators are built inside the worker processes, not the parent.
        assert metadata["evaluator_builds"] == 0
        assert metadata["evaluator_cache_hits"] == 0

    def test_process_workers_see_user_registrations(self):
        """Forked workers inherit register_*-ed components from the parent."""
        from repro.scenario.registry import SCAVENGERS
        from repro.scavenger import PiezoelectricScavenger

        @SCAVENGERS.register("test-study-proc-scavenger")
        def _scavenger(size_factor: float = 2.0):
            return PiezoelectricScavenger().scaled(size_factor)

        try:
            spec = ScenarioSpec(
                name="proc-registry", scavenger="test-study-proc-scavenger"
            )
            axes = {"temperature": [0.0, 25.0]}
            sequential = Study(spec, axes=axes).run("balance")
            process = Study(spec, axes=axes).run("balance", workers=2)
            assert process.rows == sequential.rows
        finally:
            SCAVENGERS.unregister("test-study-proc-scavenger")

    def test_worker_components_memo_shares_evaluators(self):
        """Within one worker process, equal specs share one evaluator."""
        from repro.scenario.spec import _WORKER_COMPONENTS, worker_components

        _WORKER_COMPONENTS.clear()
        try:
            spec = ScenarioSpec(name="memo")
            first = worker_components(spec)
            cold = worker_components(spec.with_axis("temperature", 85.0))
            assert cold is first  # temperature is not part of the evaluator key
            assert len(_WORKER_COMPONENTS) == 1
            other = worker_components(spec.with_axis("architecture", "optimized"))
            assert other is not first
            assert len(_WORKER_COMPONENTS) == 2
        finally:
            _WORKER_COMPONENTS.clear()

    def test_run_study_passes_workers_through(self):
        spec = ScenarioSpec(name="proc-conv")
        result = run_study(
            spec,
            axes={"temperature": [0.0, 25.0]},
            kind="report",
            workers=2,
        )
        assert result.metadata["backend"] == "process"
        assert len(result) == 2


class TestTimingMetadata:
    def test_wall_time_and_per_row_timings_recorded(self, grid_study):
        result = grid_study.run("balance")
        metadata = result.metadata
        assert metadata["wall_time_s"] > 0.0
        assert len(metadata["row_wall_times_s"]) == len(result)
        assert all(elapsed > 0.0 for elapsed in metadata["row_wall_times_s"])
        # Sequentially, the per-row times cannot exceed the total wall time.
        assert sum(metadata["row_wall_times_s"]) <= metadata["wall_time_s"] * 1.5

    def test_timing_metadata_present_for_every_kind(self):
        spec = ScenarioSpec(drive_cycle={"name": "urban", "params": {"repetitions": 1}})
        for kind in STUDY_KINDS:
            metadata = run_study(spec, kind=kind).metadata
            assert metadata["kind"] == kind
            assert "wall_time_s" in metadata
            assert "row_wall_times_s" in metadata
            assert "workers" in metadata
