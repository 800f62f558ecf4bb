"""The fleet runner: cohort-shared emulation of a whole vehicle population.

Running ``NodeEmulator.emulate()`` once per vehicle is correct but wasteful
at fleet scale: every vehicle would rebuild the evaluator (and compiled
power table), re-walk its drive cycle round by round, re-classify the same
quantized speed bins and re-evaluate the same revolution energies.  The
runner runs the emulator's own integration functions
(:mod:`repro.core.emulator`: table -> resolve -> load -> ledger -> result)
and shares every step that does not depend on the individual vehicle:

* **One evaluator per fleet** — no fleet axis changes the architecture,
  workload or power database, so every vehicle shares the base scenario's
  :class:`~repro.core.evaluator.EnergyEvaluator` (one compiled power table)
  and one probe emulator built from ``fleet.base``.
* **Cohorts** — the fleet is drawn as columns
  (:class:`~repro.fleet.spec.FleetChunk`), and vehicles with the same
  (drive cycle, quantized speed scale) share one
  :class:`~repro.core.emulator.CycleTable`: the
  per-unit arrays, the speed-key classification and the state-log sampling
  walk are computed once per cohort, not per vehicle.  Thermal fleets
  (``FleetSpec.thermal``) add the ambient as a third cohort axis:
  the in-tyre :class:`~repro.conditions.temperature.TyreThermalModel` is
  replayed once per (cycle, speed-scale, ambient-bin) cohort over the
  ambient-free walk of its (cycle, speed scale) — ambients are snapped to
  the shared :func:`~repro.core.quantize.ambient_bin` centers at
  materialization — so the table carries each member vehicle's own
  temperature trajectory.  No vehicle gets a
  :class:`~repro.scenario.spec.ScenarioSpec` of its own.
* **One cross-vehicle sweep** — the union of quantized
  (speed, temperature, phase-pattern) energy bins over all vehicles of the
  fleet is evaluated in ONE vectorized batch call
  (:meth:`~repro.core.emulator.NodeEmulator.evaluate_energy_bins`) before
  any vehicle runs.  The load vector (:class:`~repro.core.emulator.Demand`)
  is then built once per (cohort, temperatures): per cohort for thermal
  fleets, per (cohort, temperature bin) otherwise — a constant-temperature
  vehicle is a thermal one whose trajectory is constant.
* **One ledger call per chunk** — the vehicles stream through the shared
  :class:`~repro.scenario.engine.ChunkedEngine` chunk by chunk.  The first
  vehicle of a chunk sets up every vehicle of it (its own scaled storage,
  scavenger and :func:`~repro.core.emulator.unit_harvest` sweep) and
  integrates all their storage ledgers in ONE
  :func:`~repro.core.emulator.integrate_batch` —
  :func:`~repro.scavenger.storage.trajectory` steps the rows together with
  numpy.  Each vehicle then finishes alone: the errors its ledger walk
  reached (:meth:`~repro.core.emulator.Demand.raise_first_error`),
  :func:`~repro.core.emulator.summarize`, its survival samples and its row,
  streamed into the fleet accumulators.

Each row of a batched ledger equals the single-vehicle ledger bit for bit,
so per-vehicle figures are bit-identical to a naive ``emulate()`` of the
same vehicle scenario, which is what makes the aggregates independent of
worker counts (a process-pool worker runs one vehicle through
:func:`~repro.core.emulator.integrate`).  So are errors: a vehicle whose
node is active on a round its schedule cannot cover, or whose thermal
trajectory leaves the modelled range, fails with the message ``emulate()``
raises for it — and fails alone, whatever its chunk holds.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from repro.core.emulator import (
    CycleTable,
    NodeEmulator,
    integrate,
    integrate_batch,
    summarize,
    unit_harvest,
)
from repro.core.quantize import (
    AMBIENT_QUANTUM_C,
    SPEED_QUANTUM_KMH,
    TEMPERATURE_QUANTUM_C,
    temperature_bin,
)
from repro.errors import ConfigError
from repro.fleet.aggregate import (
    DEFAULT_SURVIVAL_BUCKETS,
    FleetAccumulator,
    FleetResult,
)
from repro.fleet.spec import FleetChunk, FleetSpec, ThermalSpec

# ``trajectory`` stays importable from here: perfbench wraps the ledger in
# every module that holds it, and its tests pin this module as one.
from repro.scavenger.storage import scaled_storage, trajectory  # noqa: F401
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.engine import ChunkedEngine
from repro.scenario.spec import (
    WORKER_COMPONENTS,
    ComponentCache,
    ComponentRef,
    ScenarioSpec,
    sized_scavenger,
)

__all__ = ["FleetRunner", "run_fleet"]


class _Vehicle(NamedTuple):
    """One vehicle's columns plus the keys of the cohort state it shares:
    ``cohort`` is (cycle, speed scale), plus the (bin-center) ambient a
    thermal replay is a function of; ``demand`` adds the temperature bin of
    a constant-temperature vehicle."""

    name: str
    speed_scale: float
    temperature_c: float
    scavenger_size: float
    storage_scale: float
    cycle: ComponentRef
    cohort: tuple
    demand: tuple


def _vehicles(chunk: FleetChunk, thermal: ThermalSpec | None) -> list[tuple[int, _Vehicle]]:
    """The engine work items of one chunk: ``(vehicle index, vehicle)`` pairs."""
    items = []
    for row, index in enumerate(chunk.index):
        cycle, scale = chunk.cycle[row], chunk.speed_scale[row]
        temperature = chunk.temperature_c[row]
        if thermal is None:
            cohort = (cycle, scale)
            demand = (cohort, temperature_bin(temperature))
        else:
            cohort = demand = (cycle, scale, temperature)
        vehicle = _Vehicle(
            chunk.name(row),
            scale,
            temperature,
            chunk.scavenger_size[row],
            chunk.storage_scale[row],
            chunk.cycles[cycle],
            cohort,
            demand,
        )
        items.append((index, vehicle))
    return items


def _temperatures(table: CycleTable, vehicle: _Vehicle, thermal: ThermalSpec | None):
    """One vehicle's per-unit temperatures: the replay, or its constant one."""
    return table.temps if thermal is not None else vehicle.temperature_c


def _walk(
    probe: NodeEmulator,
    base: ScenarioSpec,
    vehicle: _Vehicle,
    record_interval_s: float,
    idle_step_s: float,
) -> CycleTable:
    """One (cycle, speed scale) walk through the fleet's probe emulator."""
    cycle = base.with_axis("drive_cycle", vehicle.cycle).build_drive_cycle()
    return probe.materialize_cycle(
        cycle.scaled(vehicle.speed_scale), idle_step_s, record_interval_s=record_interval_s
    )


def _cohort_table(walk: CycleTable, vehicle: _Vehicle, thermal: ThermalSpec | None) -> CycleTable:
    """A cohort's table: the walk, with a fresh thermal model replayed over it
    at the cohort's bin-center ambient (each member vehicle's own ambient)."""
    return walk if thermal is None else walk.with_thermal(thermal.build(vehicle.temperature_c))


def _probe(components: tuple, base: ScenarioSpec) -> NodeEmulator:
    """The fleet's probe emulator: the walks, bin keys and sweep run through it."""
    node, database, evaluator = components
    return NodeEmulator(
        node,
        database,
        base.build_scavenger(),
        base.build_storage(),
        base_point=base.operating_point(),
        evaluator=evaluator,
    )


def _survival_from_samples(
    times: np.ndarray, active: np.ndarray, duration_s: float, buckets: int
) -> tuple:
    """Per-bucket active fraction of one vehicle's sampled state log."""
    if times.size == 0 or duration_s <= 0.0:
        return tuple([float("nan")] * buckets)
    index = np.minimum((times / duration_s * buckets).astype(np.intp), buckets - 1)
    counts = np.bincount(index, minlength=buckets)
    active_counts = np.bincount(index, weights=active.astype(float), minlength=buckets)
    with np.errstate(invalid="ignore"):
        fractions = np.where(counts > 0, active_counts / np.maximum(counts, 1), np.nan)
    return tuple(float(value) for value in fractions)


def _vehicle_outcome(
    vehicle_index: int,
    vehicle: _Vehicle,
    node_name: str,
    table: CycleTable,
    harvest: np.ndarray,
    traj,
    buckets: int,
) -> dict[str, object]:
    """One vehicle's row and survival samples from its ``(harvest, traj)``
    ledger, summarized like a per-vehicle ``emulate()``."""
    result = summarize(node_name, table, harvest, traj)
    sample_active = traj.active[table.sample_units]
    survival = _survival_from_samples(table.sample_times, sample_active, table.duration_s, buckets)
    summary = result.summary()
    hours = result.duration_s / 3600.0
    row: dict[str, object] = {
        "vehicle": vehicle_index,
        "scenario": vehicle.name,
        "cycle": result.cycle_name,
        "speed_scale": vehicle.speed_scale,
        "temperature_c": vehicle.temperature_c,
        "scavenger_size": vehicle.scavenger_size,
        "storage_scale": vehicle.storage_scale,
    }
    row.update(summary)
    row["brownout_per_hour"] = summary["brownout_events"] / hours if hours > 0.0 else float("nan")
    row["active_at_end"] = bool(sample_active[-1]) if sample_active.size else False
    return {"row": row, "survival": survival}


class _ChunkLedgers:
    """The ledgers of the engine chunk in flight, integrated together.

    :meth:`track` wraps the work-item chunks the engine consumes.  The
    first :meth:`get` of a chunk sets up every vehicle of it in vehicle
    order — scaled storage, scavenger, :func:`unit_harvest`, the calls a
    per-vehicle ``emulate()`` makes — and integrates them in ONE
    :func:`integrate_batch`; later calls read their row.  A chunk replayed
    from a checkpoint never calls the kernel, so it computes nothing.

    A setup that raises stops the batch there.  The error belongs to that
    vehicle: its own kernel call raises it (once — a retry sets the vehicle
    up afresh, with the vehicles after it), so setups run in vehicle order
    and are repeated only when a setup itself failed.  A vehicle whose setup
    succeeded keeps its ledger: a retry after its own demand error reuses it.
    """

    def __init__(self, base: ScenarioSpec, tables: dict, demands: dict) -> None:
        self._base = base
        self._tables = tables
        self._demands = demands
        self._chunk: list[tuple[int, _Vehicle]] = []
        self._ledgers: dict[int, tuple] = {}
        self._errors: dict[int, Exception] = {}

    def track(self, chunks):
        for chunk in chunks:
            self._chunk = list(chunk)
            self._ledgers, self._errors = {}, {}
            yield self._chunk

    def get(self, index: int) -> tuple:
        """``(harvest, trajectory)`` of vehicle ``index``; raises its setup error."""
        error = self._errors.pop(index, None)
        if error is not None:
            raise error
        if index not in self._ledgers:
            self._integrate_from(index)
        return self._ledgers[index]

    def _integrate_from(self, first: int) -> None:
        """Set up vehicle ``first`` and the vehicles after it, then integrate them."""
        base = self._base
        runs, indices = [], []
        for index, vehicle in self._chunk[first - self._chunk[0][0] :]:
            table = self._tables[vehicle.cohort]
            try:
                storage = scaled_storage(base.build_storage(), vehicle.storage_scale)
                scavenger = sized_scavenger(base.scavenger, vehicle.scavenger_size)
                harvest = unit_harvest(table, scavenger)
            except Exception as error:
                if index == first:
                    raise
                self._errors[index] = error
                break
            runs.append((table, self._demands[vehicle.demand], storage, harvest))
            indices.append(index)
        batch = integrate_batch(runs)
        for row, index in enumerate(indices):
            self._ledgers[index] = (runs[row][3], batch.row(row))


# ---------------------------------------------------------------------------
# Pool-worker sharing
#
# Each run stashes its cohort tables and demands in a module global under a
# run token of its own *before* the engine creates its process pools: the
# fork context snapshots them into every worker for free (the same mechanism
# that carries user registry registrations), and the payload names the
# token, so concurrent runs in one process (a server running several jobs)
# never read each other's tables.  On platforms without fork the workers
# find no entry and rebuild each cohort they meet through the same
# functions — slower, bit-identical.
# ---------------------------------------------------------------------------

#: run token -> (cohort tables, demands) of every fleet run in progress.
_SHARED_STATE: dict[int, tuple[dict, dict]] = {}
_RUN_TOKENS = itertools.count()


def _process_vehicle(payload) -> dict[str, object]:
    """Pool-worker entry: one vehicle, self-contained."""
    token, base, thermal, vehicle_index, vehicle, buckets, record_interval_s, idle_step_s = payload
    components = WORKER_COMPONENTS.get(base)
    tables, demands = _SHARED_STATE.setdefault(token, ({}, {}))
    table = tables.get(vehicle.cohort)
    demand = demands.get(vehicle.demand)
    if table is None or demand is None:  # pragma: no cover - platform without fork
        probe = _probe(components, base)
        walk = _walk(probe, base, vehicle, record_interval_s, idle_step_s)
        table = tables[vehicle.cohort] = _cohort_table(walk, vehicle, thermal)
        temperatures = _temperatures(table, vehicle, thermal)
        demand = demands[vehicle.demand] = probe.resolve(table, temperatures)[2]
    storage = scaled_storage(base.build_storage(), vehicle.storage_scale)
    harvest, traj = integrate(
        table,
        demand,
        _temperatures(table, vehicle, thermal),
        sized_scavenger(base.scavenger, vehicle.scavenger_size),
        storage,
    )
    return _vehicle_outcome(
        vehicle_index, vehicle, components[0].name, table, harvest, traj, buckets
    )


class FleetRunner:
    """Materializes a fleet and runs it on the shared execution engine.

    Args:
        fleet: the population description.
        workers: engine process-pool width (``None``/1 = sequential); the
            same semantics as ``Study.run``, and aggregate rows are
            identical for every width.
        survival_buckets: normalized-time resolution of the survival curve.
        keep_vehicle_rows: keep per-vehicle rows on the result (``False``
            aggregates streaming-only).
        record_interval_s: state-log sampling interval of each vehicle.
        idle_step_s: stationary-time step of each vehicle.
        checkpoint: optional checkpoint directory.  Completed vehicle chunks
            are journaled there (crash-safe, see
            :class:`~repro.scenario.checkpoint.CheckpointStore`); rerunning
            with the same fleet/seed/parameters replays journaled chunks and
            computes only the rest — byte-identical to an uninterrupted run.
        max_chunks: stop after computing this many NEW chunks this run
            (replayed chunks are free); the result is marked partial.
        retries: per-vehicle retry budget for transient worker failures
            (exceptions and process-worker death).  With ``retries > 0`` the
            run degrades gracefully — failed vehicles are reported on the
            result metadata instead of aborting the whole fleet.
        progress: optional engine observer (per-vehicle and per-chunk
            events, see :meth:`~repro.scenario.engine.ChunkedEngine.run_chunks`);
            the serving layer uses it for live job progress.
        should_stop: optional cancellation hook polled before each new
            chunk; with a checkpoint, stopping this way is equivalent to a
            resumable interruption (the result is marked partial).
        evaluator_cache: optional shared evaluator cache exposing
            ``get(key, builder)`` (the serving layer's bounded LRU); fleets
            then reuse evaluators/compiled tables across runs, observable
            through ``evaluator_builds``/``evaluator_cache_hits``.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        workers: int | None = None,
        survival_buckets: int = DEFAULT_SURVIVAL_BUCKETS,
        keep_vehicle_rows: bool = True,
        record_interval_s: float = 1.0,
        idle_step_s: float = 1.0,
        checkpoint: str | None = None,
        max_chunks: int | None = None,
        retries: int = 0,
        progress=None,
        should_stop=None,
        evaluator_cache=None,
    ) -> None:
        if not isinstance(fleet, FleetSpec):
            raise ConfigError(f"a fleet runner needs a FleetSpec, got {type(fleet).__name__}")
        for name, value in (("record interval", record_interval_s), ("idle step", idle_step_s)):
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0.0:
                raise ConfigError(f"{name} must be a positive number, got {value!r}")
        self.fleet = fleet
        self.workers = workers
        self.survival_buckets = FleetAccumulator.validate_buckets(survival_buckets)
        self.keep_vehicle_rows = keep_vehicle_rows
        self.record_interval_s = record_interval_s
        self.idle_step_s = idle_step_s
        self.checkpoint = checkpoint
        self.max_chunks = max_chunks
        self.progress = progress
        self.should_stop = should_stop
        self.component_cache = ComponentCache(evaluator_cache)
        # Validates workers/retries eagerly (same rules as studies).  With a
        # retry budget the engine collects failed vehicles instead of
        # raising: a caller asking for degradation wants the partial fleet.
        self._engine = ChunkedEngine(workers=workers, retries=retries)

    # -- shared-state construction ------------------------------------------

    def _build_shared_state(self, probe: NodeEmulator, chunks):
        """Cohort tables, the cross-vehicle sweep and the demands.

        One streaming discovery pass: chunks arrive one at a time and are
        *discarded* after inspection — the parent only retains the
        per-cohort structures (whose cardinality is bounded by the distinct
        (cycle, scale, temperature) combinations, not by the population
        size).

        Returns ``(tables, demands, shared_bins)``: the table per cohort key,
        the demand per demand key, and the number of swept bins.
        """
        thermal = self.fleet.thermal
        pending: dict = {}
        errors: dict = {}
        walks: dict[tuple, CycleTable] = {}
        tables: dict[tuple, CycleTable] = {}
        round_keys: dict = {}
        for chunk in chunks:
            for _index, vehicle in _vehicles(chunk, thermal):
                table = tables.get(vehicle.cohort)
                if table is None:
                    # The wheel-round walk does not depend on the ambient:
                    # thermal cohorts of one (cycle, speed scale) share it.
                    walk = walks.get(vehicle.cohort[:2])
                    if walk is None:
                        walk = walks[vehicle.cohort[:2]] = _walk(
                            probe,
                            self.fleet.base,
                            vehicle,
                            self.record_interval_s,
                            self.idle_step_s,
                        )
                    table = tables[vehicle.cohort] = _cohort_table(walk, vehicle, thermal)
                if vehicle.demand not in round_keys:
                    keys = probe.round_keys(table, _temperatures(table, vehicle, thermal))
                    probe.collect_bins(table, keys, {}, pending, errors)
                    round_keys[vehicle.demand] = (table, keys)

        # ONE cross-vehicle sweep: the union of quantized bins over every
        # vehicle of the fleet, evaluated in a single batch call.
        entries = probe.evaluate_energy_bins(pending)
        demands: dict = {}
        while round_keys:
            dkey, (table, keys) = round_keys.popitem()
            demands[dkey] = probe.demand(table, keys, entries, errors)
        return tables, demands, len(entries)

    # -- execution ----------------------------------------------------------

    def checkpoint_key(self) -> dict[str, object]:
        """The run-identifying document journaled checkpoints are keyed by.

        Everything that shapes a vehicle row is in here — the full fleet
        document (population + chunking), and the runner parameters the
        kernels read — so a checkpoint directory can never silently resume
        under different results.
        """
        return {
            "kind": "fleet",
            "fleet": self.fleet.to_dict(),
            "record_interval_s": self.record_interval_s,
            "idle_step_s": self.idle_step_s,
            "survival_buckets": self.survival_buckets,
        }

    def run(self) -> FleetResult:
        """Discover (streaming), share, fan out chunk by chunk, aggregate."""
        fleet = self.fleet
        base = fleet.base
        cache = self.component_cache
        builds_before, hits_before = cache.builds, cache.hits
        # No fleet axis changes what the evaluator is keyed on, so the base
        # scenario's components serve every vehicle.
        components = cache.get(base)
        probe = _probe(components, base)
        # Discovery pass: stream the population once to find the cohorts and
        # energy bins; the parent never holds more than one chunk of it.
        tables, demands, shared_bins = self._build_shared_state(probe, fleet.iter_chunks())
        store = (
            CheckpointStore(self.checkpoint, self.checkpoint_key())
            if self.checkpoint is not None
            else None
        )

        accumulator = FleetAccumulator(
            buckets=self.survival_buckets,
            keep_vehicle_rows=self.keep_vehicle_rows,
        )
        buckets = self.survival_buckets
        thermal = fleet.thermal
        node_name = components[0].name
        token = next(_RUN_TOKENS)
        ledgers = _ChunkLedgers(base, tables, demands)

        def kernel(item) -> dict[str, object]:
            index, vehicle = item
            table = tables[vehicle.cohort]
            harvest, traj = ledgers.get(index)
            demands[vehicle.demand].raise_first_error(
                traj.attempted, _temperatures(table, vehicle, thermal)
            )
            return _vehicle_outcome(index, vehicle, node_name, table, harvest, traj, buckets)

        def payload(item):
            index, vehicle = item
            return (
                token,
                base,
                thermal,
                index,
                vehicle,
                buckets,
                self.record_interval_s,
                self.idle_step_s,
            )

        # Fork-inherited sharing: stash this run's shared state where the
        # worker processes the engine creates below will find it.
        _SHARED_STATE[token] = (tables, demands)
        try:
            report = self._engine.run_chunks(
                ledgers.track(_vehicles(chunk, thermal) for chunk in fleet.iter_chunks()),
                kernel,
                lambda _index, outcome: accumulator.add(outcome),
                checkpoint=store,
                max_new_chunks=self.max_chunks,
                process_worker=_process_vehicle,
                process_payload=payload,
                progress=self.progress,
                should_stop=self.should_stop,
            )
        finally:
            # The forked pools snapshotted the stash at creation; the parent
            # must not keep this run's tables/demands alive once it is over.
            _SHARED_STATE.pop(token, None)

        partial = report.stopped_early or bool(report.failures)
        metadata = {
            "kind": "fleet",
            "fleet": fleet.name,
            "vehicles": fleet.vehicles,
            "seed": fleet.seed,
            "base_scenario": fleet.base.to_dict(),
            "fleet_document": fleet.to_dict(),
            "groups": 1,
            "cohorts": len(tables),
            "fast_path_vehicles": accumulator.vehicles,
            "thermal": thermal.to_dict() if thermal is not None else None,
            "shared_energy_bins": shared_bins,
            "speed_quantum_kmh": SPEED_QUANTUM_KMH,
            "temperature_quantum_c": TEMPERATURE_QUANTUM_C,
            "ambient_quantum_c": AMBIENT_QUANTUM_C if thermal is not None else None,
            "scale_quantum": fleet.scale_quantum,
            "evaluator_builds": cache.builds - builds_before,
            "evaluator_cache_hits": cache.hits - hits_before,
            "survival_buckets": buckets,
            "workers": self.workers or 1,
            "backend": report.backend,
            "wall_time_s": report.wall_time_s,
            "vehicle_wall_times_s": report.item_wall_times_s,
            "chunk_vehicles": fleet.chunk_vehicles,
            "chunks_total": fleet.chunk_count(),
            "chunks_completed": report.chunks,
            "resumed_chunks": report.resumed_chunks,
            "resumed_vehicles": report.resumed_items,
            "vehicles_run": report.items,
            "vehicles_failed": len(report.failures),
            "failures": [failure.to_dict() for failure in report.failures],
            "retries": report.retries,
            "pool_rebuilds": report.pool_rebuilds,
            "partial": partial,
            "checkpoint": self.checkpoint,
        }
        return FleetResult(
            name=fleet.name,
            summary=accumulator.summary_row(fleet.name, fleet.seed),
            survival=accumulator.survival_rows(fleet.name),
            vehicle_rows=accumulator.vehicle_rows if self.keep_vehicle_rows else None,
            metadata=metadata,
        )


def run_fleet(
    fleet: FleetSpec,
    workers: int | None = None,
    **options,
) -> FleetResult:
    """One-call convenience wrapper: build a :class:`FleetRunner` and run it."""
    return FleetRunner(fleet, workers=workers, **options).run()
