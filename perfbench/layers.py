"""The layer entry points the traced run wraps, and the per-layer metrics.

Each entry names the span recorded around one public entry point of a
``repro`` layer and the counters recorded at the same boundary.  Every
``*_pct`` metric is a self time (span duration minus the time its child
spans cover) as a percentage of the traced pass wall time; counts are per
pass; ratios come with the count they are a share of.
"""

from __future__ import annotations

import numpy as np

from perfbench.tracing import self_time_by_name

#: Per-layer metric name -> unit, in report order.  The benchmark reports
#: all of them on every workload; a layer a workload never enters reads 0.
#: Self times are shares of the traced pass wall time, so an unused layer's
#: 0 is a share, and the absolute seconds are ``pct / 100 * trace.traced_pass_s``.
PER_LAYER_UNITS = {
    "scavenger.storage.trajectory_pct": "%",
    "scavenger.storage.trajectory_calls": "count",
    "scavenger.storage.ledger_steps": "count",
    "scavenger.storage.ledger_bytes_computed": "bytes",
    "core.emulator.materialize_cycle_pct": "%",
    "core.emulator.materialize_cycle_calls": "count",
    "core.emulator.emulate_self_pct": "%",
    "core.emulator.emulate_calls": "count",
    "core.emulator.evaluate_energy_bins_pct": "%",
    "core.emulator.energy_bins": "count",
    "core.evaluator.schedule_energy_sweep_pct": "%",
    "core.evaluator.sweep_points": "count",
    "core.evaluator.build_pct": "%",
    "core.evaluator.build_calls": "count",
    "scenario.spec.build_pct": "%",
    "scenario.spec.build_calls": "count",
    "scavenger.energy_sweep_pct": "%",
    "scavenger.energy_sweep_points": "count",
    "fleet.spec.iter_chunks_pct": "%",
    "fleet.spec.vehicles_drawn": "count",
    "fleet.runner.run_self_pct": "%",
    "fleet.runner.cohorts": "count",
    "fleet.runner.vehicles": "count",
    "fleet.runner.fast_path_ratio": "ratio",
    "fleet.aggregate.add_pct": "%",
    "scenario.engine.run_chunks_self_pct": "%",
    "scenario.engine.run_self_pct": "%",
    "scenario.checkpoint.record_chunk_pct": "%",
    "scenario.checkpoint.bytes_written": "bytes",
    "scenario.study.run_self_pct": "%",
    "serve.client.submit_pct": "%",
    "serve.client.wait_pct": "%",
    "serve.client.fetch_pct": "%",
    "serve.api.handle_pct": "%",
    "serve.api.handled_requests": "count",
    "serve.store.get_pct": "%",
    "serve.store.put_pct": "%",
    "serve.store.lookups": "count",
    "serve.store.hit_ratio": "ratio",
    "serve.store.evictions": "count",
    "serve.cache.lookups": "count",
    "serve.cache.hit_ratio": "ratio",
    "fslock.acquire_wait_pct": "%",
    "bench.operation_self_pct": "%",
    "trace.spans": "count",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Span name -> metric stem.  ``<stem>_pct`` is the span's self time as a
#: percentage of the traced pass wall time; the report also prints the
#: self seconds per pass as ``<stem>_s``.
SPAN_METRICS = {
    "scavenger.storage.trajectory": "scavenger.storage.trajectory",
    "core.emulator.materialize_cycle": "core.emulator.materialize_cycle",
    "core.emulator.emulate": "core.emulator.emulate_self",
    "core.emulator.evaluate_energy_bins": "core.emulator.evaluate_energy_bins",
    "core.evaluator.schedule_energy_sweep": "core.evaluator.schedule_energy_sweep",
    "core.evaluator.build": "core.evaluator.build",
    "scenario.spec.build": "scenario.spec.build",
    "scavenger.energy_sweep": "scavenger.energy_sweep",
    "fleet.spec.iter_chunks": "fleet.spec.iter_chunks",
    "fleet.runner.run": "fleet.runner.run_self",
    "fleet.aggregate.add": "fleet.aggregate.add",
    "scenario.engine.run_chunks": "scenario.engine.run_chunks_self",
    "scenario.engine.run": "scenario.engine.run_self",
    "scenario.checkpoint.record_chunk": "scenario.checkpoint.record_chunk",
    "scenario.study.run": "scenario.study.run_self",
    "serve.client.submit": "serve.client.submit",
    "serve.client.wait": "serve.client.wait",
    "serve.client.fetch": "serve.client.fetch",
    "serve.api.handle": "serve.api.handle",
    "serve.store.get": "serve.store.get",
    "serve.store.put": "serve.store.put",
    "fslock.acquire": "fslock.acquire_wait",
    "bench.operation": "bench.operation_self",
}

_TRAJECTORY_ARRAYS = ("charge_j", "active", "banked_j", "drawn_j", "attempted", "withdrew")


def _count_calls(counter: str):
    def after(tracer, _args, _kwargs, _result, _outer) -> None:
        tracer.count(counter)

    return after


def _after_trajectory(tracer, _args, _kwargs, result, _outer) -> None:
    # Computed, not measured: three float64 input columns per step plus the
    # bytes of the arrays the ledger scan returns.
    steps = len(result)
    tracer.count("scavenger.storage.trajectory_calls")
    tracer.count("scavenger.storage.ledger_steps", steps)
    tracer.count(
        "scavenger.storage.ledger_bytes_computed",
        3 * 8 * steps + sum(getattr(result, name).nbytes for name in _TRAJECTORY_ARRAYS),
    )


def _after_energy_bins(tracer, args, kwargs, _result, _outer) -> None:
    pending = args[1] if len(args) > 1 else kwargs["pending"]
    tracer.count("core.emulator.energy_bins", len(pending))


def _after_schedule_sweep(tracer, args, kwargs, _result, _outer) -> None:
    points = args[1] if len(args) > 1 else kwargs["points"]
    tracer.count("core.evaluator.sweep_points", len(points))


def _after_harvest(tracer, args, kwargs, _result, outer) -> None:
    if outer:  # a conditioned scavenger delegating to its model
        return
    speeds = args[1] if len(args) > 1 else kwargs["speeds_kmh"]
    tracer.count("scavenger.energy_sweep_points", np.size(speeds))


def _after_chunk(tracer, _args, _kwargs, chunk, _outer) -> None:
    tracer.count("fleet.spec.vehicles_drawn", len(chunk))


def _after_fleet_run(tracer, _args, _kwargs, result, _outer) -> None:
    metadata = result.metadata
    tracer.count("fleet.runner.cohorts", metadata["cohorts"])
    tracer.count("fleet.runner.vehicles", metadata["vehicles_run"])
    tracer.count("fleet.runner.fast_path_vehicles", metadata["fast_path_vehicles"])


def _after_record_chunk(tracer, _args, _kwargs, path, _outer) -> None:
    # The chunk file plus the manifest rewritten beside it.
    written = path.stat().st_size + (path.parent / "manifest.json").stat().st_size
    tracer.count("scenario.checkpoint.bytes_written", written)


def install(patches) -> None:
    """Wrap every layer entry point the per-layer metrics are measured at."""
    from repro.core.emulator import NodeEmulator
    from repro.core.evaluator import EnergyEvaluator
    from repro.fleet.aggregate import FleetAccumulator
    from repro.fleet.runner import FleetRunner
    from repro.fleet.spec import FleetSpec
    from repro.fslock import FileLock
    from repro.power.compiled import CompiledPowerTable
    from repro.registry import Registry
    from repro.scavenger.base import EnergyScavenger
    from repro.scenario.checkpoint import CheckpointStore
    from repro.scenario.engine import ChunkedEngine
    from repro.scenario.spec import ScenarioSpec
    from repro.scenario.study import Study
    from repro.serve.api import ServeApp
    from repro.serve.client import ServeClient
    from repro.serve.store import ResultStore

    patches.function(
        "repro.scavenger.storage", "trajectory", "scavenger.storage.trajectory", _after_trajectory
    )
    patches.method(
        NodeEmulator,
        "materialize_cycle",
        "core.emulator.materialize_cycle",
        _count_calls("core.emulator.materialize_cycle_calls"),
    )
    patches.method(
        NodeEmulator,
        "emulate",
        "core.emulator.emulate",
        _count_calls("core.emulator.emulate_calls"),
    )
    patches.method(
        NodeEmulator,
        "evaluate_energy_bins",
        "core.emulator.evaluate_energy_bins",
        _after_energy_bins,
    )
    patches.method(
        EnergyEvaluator,
        "schedule_energy_sweep",
        "core.evaluator.schedule_energy_sweep",
        _after_schedule_sweep,
    )
    build_calls = _count_calls("core.evaluator.build_calls")
    patches.method(EnergyEvaluator, "__init__", "core.evaluator.build", build_calls)
    patches.method(CompiledPowerTable, "from_database", "core.evaluator.build", build_calls)
    spec_calls = _count_calls("scenario.spec.build_calls")
    for attribute in ("build_components", "build_scavenger", "build_storage"):
        patches.method(ScenarioSpec, attribute, "scenario.spec.build", spec_calls)
    patches.method(Registry, "create", "scenario.spec.build")
    for cls in _classes_defining(EnergyScavenger, "energy_sweep_j"):
        patches.method(cls, "energy_sweep_j", "scavenger.energy_sweep", _after_harvest)
    patches.method(
        FleetSpec, "iter_chunks", "fleet.spec.iter_chunks", _after_chunk, generator=True
    )
    patches.method(FleetRunner, "run", "fleet.runner.run", _after_fleet_run)
    patches.method(FleetAccumulator, "add", "fleet.aggregate.add")
    patches.method(ChunkedEngine, "run_chunks", "scenario.engine.run_chunks")
    patches.method(ChunkedEngine, "run", "scenario.engine.run")
    patches.method(
        CheckpointStore, "record_chunk", "scenario.checkpoint.record_chunk", _after_record_chunk
    )
    patches.method(Study, "run", "scenario.study.run")
    # Client calls and request handlers wait on the job worker's thread.
    patches.method(ServeClient, "submit_study", "serve.client.submit", waits=True)
    patches.method(ServeClient, "wait", "serve.client.wait", waits=True)
    patches.method(ServeClient, "result_bytes", "serve.client.fetch", waits=True)
    patches.method(
        ServeApp,
        "handle",
        "serve.api.handle",
        _count_calls("serve.api.handled_requests"),
        waits=True,
    )
    patches.method(ResultStore, "get", "serve.store.get")
    patches.method(ResultStore, "put", "serve.store.put")
    patches.method(FileLock, "__enter__", "fslock.acquire")


def _classes_defining(base, attribute: str) -> list[type]:
    """``base`` and its loaded subclasses that define ``attribute`` themselves."""
    found, pending, seen = [], [base], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attribute in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def layer_seconds(spans, passes: int) -> dict[str, float]:
    """Self seconds per traced pass of every wrapped layer, keyed ``<stem>_s``."""
    seconds = {f"{stem}_s": 0.0 for stem in SPAN_METRICS.values()}
    for name, own in self_time_by_name(spans).items():
        if name in SPAN_METRICS:
            seconds[f"{SPAN_METRICS[name]}_s"] = own / passes
    return seconds


def per_layer_metrics(
    seconds, wall_s: float, counters, passes: int, store_delta, cache_delta
) -> dict[str, float]:
    """Per-pass layer figures of ``passes`` traced passes of mean wall time ``wall_s``.

    ``seconds`` is :func:`layer_seconds`; ``store_delta``/``cache_delta`` are
    the changes of the result store's and evaluator cache's own ``stats()``
    counters over the traced passes (empty when the workload has none).
    """
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for stem in SPAN_METRICS.values():
        metrics[f"{stem}_pct"] = 100.0 * seconds[f"{stem}_s"] / wall_s
    for name, value in counters.items():
        if name in metrics:
            metrics[name] = value / passes
    vehicles = counters.get("fleet.runner.vehicles", 0)
    metrics["fleet.runner.fast_path_ratio"] = _ratio(
        counters.get("fleet.runner.fast_path_vehicles", 0), vehicles
    )
    store_lookups = store_delta.get("hits", 0) + store_delta.get("misses", 0)
    metrics["serve.store.lookups"] = store_lookups / passes
    metrics["serve.store.hit_ratio"] = _ratio(store_delta.get("hits", 0), store_lookups)
    metrics["serve.store.evictions"] = store_delta.get("evictions", 0) / passes
    cache_lookups = cache_delta.get("hits", 0) + cache_delta.get("misses", 0)
    metrics["serve.cache.lookups"] = cache_lookups / passes
    metrics["serve.cache.hit_ratio"] = _ratio(cache_delta.get("hits", 0), cache_lookups)
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
