"""Tests for the scenario component registries."""

from __future__ import annotations

import pytest

from repro.blocks.architectures import baseline_node
from repro.errors import ConfigError, ConfigurationError
from repro.registry import Registry
from repro.scenario.registry import (
    ARCHITECTURES,
    DRIVE_CYCLES,
    POWER_DATABASES,
    SCAVENGERS,
    STORAGE_ELEMENTS,
    register_architecture,
)


class TestSeededRegistries:
    def test_architectures_seeded_from_catalogue(self):
        assert {"baseline", "optimized", "legacy-tpms"} <= set(ARCHITECTURES.names())

    def test_power_databases_seeded(self):
        assert {"reference", "low-power", "high-performance"} <= set(POWER_DATABASES.names())

    def test_scavengers_seeded(self):
        assert {"piezoelectric", "electromagnetic", "electrostatic"} <= set(SCAVENGERS.names())

    def test_storage_seeded(self):
        assert {"supercapacitor", "thin-film-battery"} <= set(STORAGE_ELEMENTS.names())

    def test_cycles_seeded(self):
        assert {"urban", "nedc", "highway", "constant", "ramp"} <= set(DRIVE_CYCLES.names())

    def test_contains_and_len(self):
        assert "baseline" in ARCHITECTURES
        assert "warp-drive" not in ARCHITECTURES
        assert len(ARCHITECTURES) >= 3

    def test_create_builds_components(self):
        node = ARCHITECTURES.create("baseline")
        assert node.name == "baseline"
        cycle = DRIVE_CYCLES.create("constant", speed_kmh=80.0)
        assert cycle.max_speed_kmh() == 80.0


class TestErrors:
    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigError, match="unknown architecture 'warp-drive'"):
            ARCHITECTURES.create("warp-drive")
        with pytest.raises(ConfigError, match="baseline"):
            ARCHITECTURES.create("warp-drive")

    def test_bad_params_reported_as_config_error(self):
        with pytest.raises(ConfigError, match="invalid parameters"):
            DRIVE_CYCLES.create("urban", warp_factor=9)

    def test_factory_internal_type_error_is_not_masked(self):
        registry = Registry("thing")

        def buggy():
            return None + 1

        registry.register("buggy", buggy)
        with pytest.raises(TypeError, match="unsupported operand"):
            registry.create("buggy")

    def test_config_error_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            ARCHITECTURES.create("warp-drive")


class TestUserExtension:
    def test_register_decorator_and_unregister(self):
        @register_architecture("test-only-node")
        def factory():
            return baseline_node().renamed("test-only-node")

        try:
            assert "test-only-node" in ARCHITECTURES
            node = ARCHITECTURES.create("test-only-node")
            assert node.name == "test-only-node"
        finally:
            ARCHITECTURES.unregister("test-only-node")
        assert "test-only-node" not in ARCHITECTURES

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            ARCHITECTURES.register("baseline", baseline_node)

    def test_unregister_unknown_rejected(self):
        registry = Registry("thing")
        with pytest.raises(ConfigError, match="no thing named"):
            registry.unregister("ghost")

    def test_empty_name_rejected(self):
        registry = Registry("thing")
        with pytest.raises(ConfigError, match="non-empty string"):
            registry.register("", baseline_node)


class TestSignatureMemo:
    def test_re_registered_factory_is_validated_against_its_new_signature(self):
        registry = Registry("thing")
        registry.register("widget", lambda size=1.0: ("old", size))
        assert registry.create("widget", size=2.0) == ("old", 2.0)
        registry.unregister("widget")
        registry.register("widget", lambda width=1.0: ("new", width))
        assert registry.create("widget", width=3.0) == ("new", 3.0)
        with pytest.raises(ConfigError, match="invalid parameters"):
            registry.create("widget", size=2.0)

    def test_parameters_are_validated_on_every_call(self):
        registry = Registry("thing")
        registry.register("widget", lambda size=1.0: size)
        assert registry.create("widget", size=2.0) == 2.0
        for _ in range(2):
            with pytest.raises(ConfigError, match="invalid parameters"):
                registry.create("widget", colour="red")
