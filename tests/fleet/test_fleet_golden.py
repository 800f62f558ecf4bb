"""Pinned fleet result bytes.

The other fleet tests compare two paths of one commit (chunked vs eager,
sequential vs pool, resumed vs uninterrupted).  These pins compare a fleet
run against the bytes an earlier implementation produced, so a change in
how the per-vehicle columns are derived (``round`` vs ``np.rint``, the
sign of a snapped zero, the operand order of a product, an int that turns
into a float) fails here even when every in-commit comparison agrees.

The digests are the sha256 of ``encode_document(fleet_result_document(...))``
— the bytes the serving layer stores and returns.  They MUST NOT change
unless a PR deliberately changes fleet results, and then it says so.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.fleet import FleetRunner, FleetSpec
from repro.fleet.spec import ThermalSpec
from repro.scenario.spec import ScenarioSpec
from repro.serve.jobs import encode_document, fleet_result_document


def _urban() -> FleetSpec:
    """The default population (speed, correlated ambient, both tolerances)."""
    base = ScenarioSpec(
        name="golden-urban",
        drive_cycle={"name": "urban", "params": {"repetitions": 1}},
    )
    return FleetSpec.from_base(base, vehicles=24, seed=7, chunk_vehicles=10)


def _thermal() -> FleetSpec:
    """A thermal fleet whose ambient offsets straddle the 0 degC bin center."""
    base = ScenarioSpec(
        name="golden-thermal",
        drive_cycle={"name": "urban", "params": {"repetitions": 1}},
        temperature_c=0.5,
    )
    return FleetSpec(
        name="golden-thermal",
        base=base,
        vehicles=20,
        seed=3,
        chunk_vehicles=8,
        distributions={
            "speed_scale": {"kind": "lognormal", "params": {"sigma": 0.1}},
            "ambient_offset_c": {"kind": "normal", "params": {"mean": 0.0, "std": 3.0}},
        },
        thermal=ThermalSpec(),
    )


def _mix() -> FleetSpec:
    """A categorical cycle mix with size/storage tolerance at an int ambient."""
    base = ScenarioSpec(
        name="golden-mix",
        drive_cycle="urban",
        temperature_c=20,
        speed_kmh=50,
    )
    return FleetSpec(
        name="golden-mix",
        base=base,
        vehicles=18,
        seed=11,
        scale_quantum=0.1,
        chunk_vehicles=7,
        distributions={
            "speed_scale": {"kind": "uniform", "params": {"low": 0.8, "high": 1.2}},
            "drive_cycle": {
                "kind": "categorical",
                "params": {
                    "choices": [
                        {"name": "urban", "params": {"repetitions": 1}},
                        "nedc",
                        {"name": "urban", "params": {"repetitions": 1}},
                    ],
                    "weights": [2.0, 1.0, 1.0],
                },
            },
            "scavenger_size": {"kind": "gaussian-tolerance", "params": {"rel_std": 0.08}},
            "storage_capacity": {"kind": "gaussian-tolerance", "params": {"rel_std": 0.1}},
        },
    )


#: sha256 of the encoded result document of each fleet, recorded before the
#: per-vehicle materialization became column arithmetic.
_PINNED = {
    "urban": "dab0de1527b092ee567d476f2e6024f4c17bb9564c4df18f8f2b68efa04e0e4e",
    "thermal": "0ff8b05135334efa7a799a4a869317ea62897fae7f4eb78e54c54bfef77a1457",
    "mix": "eaed40fc816005e513f20bd590d1d7ebd1e9be685894ad8b2d747dee2cc7aaf3",
}

_FLEETS = {"urban": _urban, "thermal": _thermal, "mix": _mix}


def _document_sha256(fleet: FleetSpec) -> str:
    encoded = encode_document(fleet_result_document(FleetRunner(fleet).run()))
    return hashlib.sha256(encoded).hexdigest()


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_fleet_result_bytes_are_pinned(name):
    assert _document_sha256(_FLEETS[name]()) == _PINNED[name]
