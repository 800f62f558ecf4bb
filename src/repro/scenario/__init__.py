"""Declarative scenario API: spec → registry → study runner.

This package is the canonical front door of the toolkit.  A
:class:`ScenarioSpec` names one experiment declaratively (architecture,
power database, scavenger + sizing, storage, drive cycle, environment and
workload overrides) through string-keyed component registries; a
:class:`Study` expands a spec plus axis overrides into a scenario grid and
runs any analysis kind over it on the vectorized batch path, returning a
uniform :class:`StudyResult` that exports through
:mod:`repro.reporting.export`.

Quickstart::

    from repro.scenario import ScenarioSpec, Study

    spec = ScenarioSpec.from_dict({
        "architecture": "baseline",
        "scavenger": "piezoelectric",
        "environment": {"temperature_c": 25.0, "speed_kmh": 60.0},
    })
    result = Study(spec, axes={"temperature": [-20.0, 25.0, 85.0]}).run("balance")
    print(result.as_table())
"""

from repro.scenario.registry import (
    ARCHITECTURES,
    DRIVE_CYCLES,
    POWER_DATABASES,
    SCAVENGERS,
    STORAGE_ELEMENTS,
    register_architecture,
    register_drive_cycle,
    register_power_database,
    register_scavenger,
    register_storage,
)
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.engine import ChunkedEngine, EngineFailure, EngineReport
from repro.scenario.montecarlo import MonteCarloConfig, MonteCarloDraws
from repro.scenario.spec import ComponentRef, ScenarioSpec, load_scenario
from repro.scenario.study import STUDY_KINDS, Study, StudyResult, run_study

__all__ = [
    "ScenarioSpec",
    "ComponentRef",
    "load_scenario",
    "Study",
    "StudyResult",
    "run_study",
    "STUDY_KINDS",
    "CheckpointStore",
    "ChunkedEngine",
    "EngineFailure",
    "EngineReport",
    "MonteCarloConfig",
    "MonteCarloDraws",
    "ARCHITECTURES",
    "POWER_DATABASES",
    "SCAVENGERS",
    "STORAGE_ELEMENTS",
    "DRIVE_CYCLES",
    "register_architecture",
    "register_power_database",
    "register_scavenger",
    "register_storage",
    "register_drive_cycle",
]
