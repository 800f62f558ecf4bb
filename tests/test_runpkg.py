"""Run packages: write, validate, and every one-line failure mode."""

from __future__ import annotations

import json

import pytest

from repro.errors import PackageError
from repro.runpkg import (
    environment_stamp,
    file_sha256,
    validate_run_package,
    write_run_package,
)


def _write(tmp_path, **overrides):
    source = tmp_path / "rows.json"
    source.write_text('{"rows": [1, 2, 3]}\n', encoding="utf-8")
    arguments = {
        "kind": "test",
        "name": "unit",
        "spec_document": {"name": "unit", "seed": 3},
        "seed": 3,
        "kpis": {"speedup": 4.5, "coverage_pct": 99.0},
        "floors": {"speedup": 2.0},
        "artifacts": {"rows.json": source},
    }
    arguments.update(overrides)
    return write_run_package(tmp_path / "pkg", **arguments)


class TestEnvironmentStamp:
    def test_stamp_carries_runtime_context(self):
        stamp = environment_stamp(workers=4, backend="process")
        assert {"python", "numpy", "platform", "cpu_count"} <= set(stamp)
        assert stamp["workers"] == 4
        assert stamp["backend"] == "process"

    def test_pool_context_is_optional(self):
        assert "workers" not in environment_stamp()


class TestWrite:
    def test_round_trip_validates(self, tmp_path):
        manifest_path = _write(tmp_path)
        summary = validate_run_package(manifest_path.parent)
        assert summary["kind"] == "test"
        assert summary["name"] == "unit"
        assert summary["artifacts"] == 1
        assert summary["kpis"] == 2
        assert summary["floors"] == 1

    def test_manifest_records_digests_and_environment(self, tmp_path):
        manifest_path = _write(tmp_path)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        entry = manifest["artifacts"]["rows.json"]
        assert entry["sha256"] == file_sha256(manifest_path.parent / "rows.json")
        assert manifest["environment"]["python"]
        assert manifest["seed"] == 3

    def test_run_id_is_deterministic_for_the_same_run(self, tmp_path):
        first = json.loads(_write(tmp_path).read_text(encoding="utf-8"))
        second = json.loads(_write(tmp_path).read_text(encoding="utf-8"))
        assert first["run_id"] == second["run_id"]

    def test_floor_without_kpi_is_rejected_at_write(self, tmp_path):
        with pytest.raises(PackageError, match="no matching KPI"):
            _write(tmp_path, floors={"ghost": 1.0})

    def test_non_finite_kpi_is_rejected_at_write(self, tmp_path):
        with pytest.raises(PackageError, match="finite number"):
            _write(tmp_path, kpis={"speedup": float("nan")}, floors={})

    def test_missing_artifact_source_is_rejected(self, tmp_path):
        with pytest.raises(PackageError, match="does not exist"):
            _write(tmp_path, artifacts={"rows.json": tmp_path / "ghost.json"})

    def test_non_bare_artifact_name_is_rejected(self, tmp_path):
        source = tmp_path / "rows.json"
        source.write_text("{}", encoding="utf-8")
        with pytest.raises(PackageError, match="bare file name"):
            _write(tmp_path, artifacts={"nested/rows.json": source})


class TestValidate:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(PackageError, match="not a run package"):
            validate_run_package(tmp_path)

    def test_malformed_manifest(self, tmp_path):
        package = _write(tmp_path).parent
        (package / "package.json").write_text("{ nope", encoding="utf-8")
        with pytest.raises(PackageError, match="not valid JSON"):
            validate_run_package(package)

    def test_unsupported_version(self, tmp_path):
        package = _write(tmp_path).parent
        (package / "package.json").write_text(
            json.dumps({"run_package": 99}), encoding="utf-8"
        )
        with pytest.raises(PackageError, match="unsupported layout"):
            validate_run_package(package)

    def test_tampered_artifact_fails_digest(self, tmp_path):
        package = _write(tmp_path).parent
        (package / "rows.json").write_text('{"rows": [1, 2, 3, 4]}\n', encoding="utf-8")
        with pytest.raises(PackageError, match="digest mismatch"):
            validate_run_package(package)

    def test_missing_artifact_file(self, tmp_path):
        package = _write(tmp_path).parent
        (package / "rows.json").unlink()
        with pytest.raises(PackageError, match="missing from package"):
            validate_run_package(package)

    def test_violated_kpi_floor_is_one_line(self, tmp_path):
        package = _write(tmp_path).parent
        manifest = json.loads((package / "package.json").read_text(encoding="utf-8"))
        manifest["kpis"]["speedup"] = 1.25
        (package / "package.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(PackageError, match=r"KPI floor violated: speedup = 1\.25 < 2"):
            validate_run_package(package)

    def test_floor_added_without_kpi_fails_validation(self, tmp_path):
        package = _write(tmp_path).parent
        manifest = json.loads((package / "package.json").read_text(encoding="utf-8"))
        manifest["floors"]["ghost"] = 1.0
        (package / "package.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(PackageError, match="no matching KPI"):
            validate_run_package(package)

    def test_kpi_exactly_at_floor_passes(self, tmp_path):
        package = _write(tmp_path, kpis={"speedup": 2.0}, floors={"speedup": 2.0}).parent
        validate_run_package(package)
