"""Shared fixtures and result-emission helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures (or a methodology
claim from the text), times it with pytest-benchmark, prints the resulting
rows/series, and writes them to ``benchmarks/results/`` so they can be
inspected or plotted after the run.

Machine-readable trajectory: alongside each ``<name>.csv`` table the harness
writes ``<name>.json`` (the same rows plus an environment stamp) and — for
benchmarks that call :func:`emit_timing` — ``<name>.timing.json`` with the
measured wall times and speedup factors.  A session-level
``bench_wall_times.json`` records the wall time of every benchmark test that
ran, so the perf trajectory can be tracked across commits from CI artifacts
without parsing pytest output.

Every JSON artifact is stamped with the python/numpy versions, the platform
and the CPU count (plus the worker count and pool backend where the
benchmark runs a pool) — without the stamp, a wall-time trajectory across
PRs is uninterpretable once the interpreter, numpy build or runner hardware
moves underneath it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.blocks import baseline_node, legacy_tpms_node, optimized_node
from repro.power import reference_power_database
from repro.reporting.export import json_ready, rows_to_csv
from repro.reporting.tables import render_table

# Single-sourced from the run-package module so benchmark artifacts and run
# packages carry the exact same environment stamp (re-exported for benches).
from repro.runpkg import environment_stamp  # noqa: F401
from repro.scavenger import PiezoelectricScavenger, supercapacitor

RESULTS_DIR = Path(__file__).parent / "results"

#: Per-test wall times collected over the session (nodeid -> seconds).
_SESSION_WALL_TIMES: dict[str, float] = {}


def emit_result(
    name: str,
    rows: list[dict[str, object]],
    title: str,
    columns=None,
    workers: int | None = None,
    backend: str | None = None,
) -> None:
    """Print a result table and persist it as CSV + JSON under benchmarks/results/.

    The JSON document wraps the rows with the environment stamp
    (``{"environment": ..., "rows": [...]}``); the CSV twin keeps the bare
    table for spreadsheet use.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    rows_to_csv(rows, RESULTS_DIR / f"{name}.csv")
    payload = {
        "environment": environment_stamp(workers=workers, backend=backend),
        "rows": json_ready(rows),
    }
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )
    print()
    print(render_table(rows, columns=columns, title=title))


def emit_timing(
    name: str,
    wall_times_s: dict[str, float],
    speedups: dict[str, float] | None = None,
    extra: dict[str, object] | None = None,
    workers: int | None = None,
    backend: str | None = None,
) -> None:
    """Persist a benchmark's wall times and speedup factors as JSON.

    Args:
        name: benchmark name; the payload lands in ``<name>.timing.json``.
        wall_times_s: measured wall times per labelled variant (seconds).
        speedups: speedup factors per labelled comparison (dimensionless).
        extra: any further machine-readable context (workload sizes, floors).
        workers: pool width used by the benchmark, when it ran one.
        backend: pool backend used by the benchmark, when it ran one.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload: dict[str, object] = {
        "bench": name,
        "environment": environment_stamp(workers=workers, backend=backend),
        "wall_times_s": dict(wall_times_s),
        "speedups": dict(speedups or {}),
    }
    if extra:
        payload["extra"] = dict(extra)
    target = RESULTS_DIR / f"{name}.timing.json"
    # Strict JSON throughout: a degenerate speedup (zero wall time, NaN
    # placeholder) must become null, not an unparsable Infinity literal.
    target.write_text(
        json.dumps(json_ready(payload), indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def pytest_runtest_logreport(report) -> None:
    """Collect each benchmark test's call-phase wall time."""
    if report.when == "call" and report.passed:
        _SESSION_WALL_TIMES[report.nodeid] = report.duration


def pytest_sessionfinish(session) -> None:
    """Merge this session's per-bench wall times into one JSON document.

    CI runs the benchmark files as separate pytest invocations, so the
    document is merged with (not overwritten by) previous sessions —
    re-running a bench refreshes its entry, and the uploaded artifact keeps
    every benchmark's wall time.
    """
    if not _SESSION_WALL_TIMES:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "bench_wall_times.json"
    wall_times: dict[str, float] = {}
    if target.exists():
        try:
            wall_times = dict(
                json.loads(target.read_text(encoding="utf-8"))["wall_times_s"]
            )
        except (ValueError, KeyError, TypeError):
            wall_times = {}
    wall_times.update(_SESSION_WALL_TIMES)
    target.write_text(
        json.dumps(
            {"environment": environment_stamp(), "wall_times_s": wall_times},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )


@pytest.fixture(scope="session")
def database():
    """Reference power characterization (shared across benchmarks)."""
    return reference_power_database()


@pytest.fixture(scope="session")
def node():
    """The baseline Cyber Tyre style architecture."""
    return baseline_node()


@pytest.fixture(scope="session")
def optimized():
    """The architecture-level optimized node."""
    return optimized_node()


@pytest.fixture(scope="session")
def legacy():
    """The legacy pressure/temperature TPMS node."""
    return legacy_tpms_node()


@pytest.fixture(scope="session")
def scavenger():
    """The default piezoelectric scavenger."""
    return PiezoelectricScavenger()


@pytest.fixture
def storage():
    """A fresh supercapacitor per benchmark (the emulator mutates it)."""
    return supercapacitor()
