"""Fleet chunks as columns: draw validation, scalar equivalence, no per-vehicle spec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conditions.operating_point import TEMPERATURE_RANGE_C
from repro.core.quantize import ambient_bin, ambient_bin_center_c
from repro.errors import ConfigError
from repro.fleet import FleetRunner, FleetSpec
from repro.fleet.distributions import DISTRIBUTIONS, Distribution, register_distribution
from repro.fleet.spec import ThermalSpec
from repro.scenario.spec import ScenarioSpec


def _base(**fields) -> ScenarioSpec:
    return ScenarioSpec(
        name="columns", drive_cycle={"name": "urban", "params": {"repetitions": 1}}, **fields
    )


@pytest.fixture
def nan_distribution():
    class _AllNaN(Distribution):
        def sample(self, rng, count):
            return np.full(count, np.nan)

    register_distribution("test-all-nan", _AllNaN)
    try:
        yield "test-all-nan"
    finally:
        DISTRIBUTIONS.unregister("test-all-nan")


class TestDrawValidation:
    @pytest.mark.parametrize("target", ["speed_scale", "scavenger_size", "storage_capacity"])
    def test_non_finite_draws_fail_at_materialization(self, nan_distribution, target):
        fleet = FleetSpec(
            name="nan", base=_base(), vehicles=4, distributions={target: nan_distribution}
        )
        with pytest.raises(ConfigError, match=f"fleet {target} distribution produced nan"):
            fleet.materialize()
        with pytest.raises(ConfigError, match=f"fleet {target} distribution"):
            FleetRunner(fleet).run()

    @pytest.mark.parametrize("target", ["speed_scale", "scavenger_size", "storage_capacity"])
    def test_non_positive_factors_rejected(self, target):
        constant = {"kind": "constant", "params": {"value": 0.0}}
        fleet = FleetSpec(name="zero", base=_base(), vehicles=3, distributions={target: constant})
        with pytest.raises(ConfigError, match="finite and positive"):
            fleet.materialize()

    def test_non_finite_ambient_offset_rejected(self, nan_distribution):
        fleet = FleetSpec(
            name="nan",
            base=_base(),
            vehicles=3,
            distributions={"ambient_offset_c": nan_distribution},
        )
        with pytest.raises(ConfigError, match="ambient_offset_c"):
            fleet.materialize()


def _scalar_row(fleet: FleetSpec, samples: dict, offset: int) -> tuple:
    """One vehicle's values by the per-vehicle scalar expressions."""
    low_t, high_t = TEMPERATURE_RANGE_C
    scale = float(samples["speed_scale"][offset])
    quantum = fleet.scale_quantum
    if quantum > 0.0:
        scale = max(round(scale / quantum) * quantum, quantum)
    ambient = fleet.base.temperature_c + float(samples["ambient_offset_c"][offset])
    temperature = float(np.clip(ambient, low_t, high_t))
    if fleet.thermal is not None:
        temperature = ambient_bin_center_c(ambient_bin(temperature))
    size = fleet.base.scavenger_size * float(samples["scavenger_size"][offset])
    return scale, temperature, size, float(samples["storage_capacity"][offset])


class TestColumnsEqualScalarExpressions:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        quantum=st.sampled_from([0.0, 0.05, 0.1, 1, 0.25]),
        base_temperature=st.sampled_from([0, 0.5, -0.75, 20, 124.0]),
        offset_std=st.sampled_from([0.3, 2.0, 40.0]),
        thermal=st.booleans(),
    )
    def test_every_column_is_its_scalar_expression(
        self, seed, quantum, base_temperature, offset_std, thermal
    ):
        fleet = FleetSpec(
            name="oracle",
            base=_base(temperature_c=base_temperature, scavenger_size=1.5),
            vehicles=9,
            seed=seed,
            scale_quantum=quantum,
            chunk_vehicles=9,
            distributions={
                "speed_scale": {"kind": "lognormal", "params": {"sigma": 0.3}},
                "ambient_offset_c": {"kind": "normal", "params": {"mean": 0.0, "std": offset_std}},
                "scavenger_size": {"kind": "gaussian-tolerance", "params": {"rel_std": 0.1}},
                "storage_capacity": {"kind": "gaussian-tolerance", "params": {"rel_std": 0.1}},
            },
            thermal=ThermalSpec() if thermal else None,
        )
        samplers = fleet._samplers()
        shared = fleet._shared_states(samplers)
        samples = fleet._sample_chunk(samplers, shared, 0, fleet.vehicles)
        chunk = next(fleet.iter_chunks())
        columns = zip(
            chunk.speed_scale, chunk.temperature_c, chunk.scavenger_size, chunk.storage_scale
        )
        # repr tells -0.0 from 0.0 and 2 from 2.0: the row bytes do too.
        assert [repr(row) for row in columns] == [
            repr(_scalar_row(fleet, samples, offset)) for offset in range(fleet.vehicles)
        ]

    def test_an_undistributed_int_ambient_stays_an_int(self):
        fleet = FleetSpec(name="int", base=_base(temperature_c=20), vehicles=3)
        assert [type(v.temperature_c) for v in fleet.materialize()] == [int] * 3


class TestNoSpecPerVehicle:
    def test_spec_builds_do_not_grow_with_the_fleet(self, monkeypatch):
        """A one-cohort fleet builds as many specs at 256 vehicles as at 16."""
        real = ScenarioSpec.__post_init__
        calls = {"count": 0}

        def counting(self):
            calls["count"] += 1
            real(self)

        def builds(vehicles: int) -> int:
            fleet = FleetSpec(
                name="one-cohort",
                base=_base(),
                vehicles=vehicles,
                seed=5,
                chunk_vehicles=32,
                distributions={
                    "scavenger_size": {"kind": "gaussian-tolerance", "params": {"rel_std": 0.05}},
                    "storage_capacity": {"kind": "gaussian-tolerance", "params": {"rel_std": 0.05}},
                },
            )
            calls["count"] = 0
            result = FleetRunner(fleet).run()
            assert result.metadata["cohorts"] == 1
            assert len(result.vehicle_rows) == vehicles
            return calls["count"]

        monkeypatch.setattr(ScenarioSpec, "__post_init__", counting)
        assert builds(16) == builds(256)
