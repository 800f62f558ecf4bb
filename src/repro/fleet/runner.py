"""The fleet runner: cohort-shared emulation of a whole vehicle population.

Running ``NodeEmulator.emulate()`` once per vehicle is correct but wasteful
at fleet scale: every vehicle would rebuild the evaluator (and compiled
power table), re-walk its drive cycle round by round, re-classify the same
quantized speed bins and re-evaluate the same revolution energies.  The
runner runs the emulator's own integration functions
(:mod:`repro.core.emulator`: table -> resolve -> load -> ledger -> result)
and shares every step that does not depend on the individual vehicle:

* **Groups** — vehicles with the same (architecture, workload, power
  database) share one :class:`~repro.core.evaluator.EnergyEvaluator` and
  therefore one compiled power table, exactly like study grid points.
* **Cohorts** — vehicles with the same (group, drive cycle, quantized
  speed scale) share one :class:`~repro.core.emulator.CycleTable`: the
  per-unit arrays, the speed-key classification and the state-log sampling
  walk are computed once per cohort, not per vehicle.  Thermal fleets
  (``FleetSpec.thermal``) add the quantized ambient as a third cohort axis:
  the in-tyre :class:`~repro.conditions.temperature.TyreThermalModel` is
  replayed once per (cycle, speed-scale, ambient-bin) cohort over the
  ambient-free walk of its (cycle, speed scale) — ambients are snapped to
  the shared :func:`~repro.core.quantize.ambient_bin` centers at
  materialization — so the table carries each member vehicle's own
  temperature trajectory.
* **One cross-vehicle sweep** — the union of quantized
  (speed, temperature, phase-pattern) energy bins over all vehicles of a
  group is evaluated in ONE vectorized batch call
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

import numpy as np

from repro.core.emulator import (
    CycleTable,
    Demand,
    EmulationResult,
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
    ambient_bin,
    temperature_bin,
)
from repro.errors import ConfigError
from repro.fleet.aggregate import (
    DEFAULT_SURVIVAL_BUCKETS,
    FleetAccumulator,
    FleetResult,
)
from repro.fleet.spec import FleetSpec, FleetVehicle, ThermalSpec

# ``trajectory`` stays importable from here: perfbench wraps the ledger in
# every module that holds it, and its tests pin this module as one.
from repro.scavenger.storage import scaled_storage, trajectory  # noqa: F401
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.engine import ChunkedEngine
from repro.scenario.spec import WORKER_COMPONENTS, ComponentCache, ScenarioSpec

__all__ = ["FleetRunner", "run_fleet"]


def _group_key(spec: ScenarioSpec) -> str:
    """The evaluator-sharing key of one vehicle scenario.

    Single-sourced on the spec (``ScenarioSpec.evaluator_group_key``) so
    fleet groups can never drift from the study evaluator cache keyed the
    same way.
    """
    return spec.evaluator_group_key()


def _cohort_key(vehicle: FleetVehicle, thermal: ThermalSpec | None = None) -> str:
    """The cycle-materialization key: (group, cycle reference, speed scale).

    Thermal fleets add the quantized ambient bin: the replayed temperature
    trajectory is a function of the ambient, so only vehicles in one
    ambient bin (whose ambients were snapped to the *same* bin-center float
    at materialization) can share one trajectory bitwise.
    """
    if thermal is None:
        return repr(
            (
                _group_key(vehicle.scenario),
                vehicle.scenario.drive_cycle,
                vehicle.speed_scale,
            )
        )
    return repr(
        (
            _group_key(vehicle.scenario),
            vehicle.scenario.drive_cycle,
            vehicle.speed_scale,
            ambient_bin(vehicle.scenario.temperature_c),
        )
    )


def _demand_key(cohort_key: str, spec: ScenarioSpec, thermal: ThermalSpec | None):
    """The load-vector sharing key: the cohort, plus the temperature bin of a
    constant-temperature vehicle (a thermal cohort has one trajectory)."""
    if thermal is not None:
        return cohort_key
    return (cohort_key, temperature_bin(spec.temperature_c))


def _temperatures(table: CycleTable, spec: ScenarioSpec, thermal: ThermalSpec | None):
    """One vehicle's per-unit temperatures: the replay, or its constant one."""
    return table.temps if thermal is not None else spec.temperature_c


def _walk(
    probe: NodeEmulator,
    spec: ScenarioSpec,
    speed_scale: float,
    record_interval_s: float,
    idle_step_s: float,
) -> CycleTable:
    """One (cycle, speed scale) walk through the group's probe emulator."""
    return probe.materialize_cycle(
        spec.build_drive_cycle().scaled(speed_scale),
        idle_step_s,
        record_interval_s=record_interval_s,
    )


def _cohort_table(walk: CycleTable, spec: ScenarioSpec, thermal: ThermalSpec | None) -> CycleTable:
    """A cohort's table: the walk, with the thermal model replayed over it.

    Thermal cohorts replay a freshly built model at the cohort's bin-center
    ambient — which IS each member vehicle's (materialization-snapped)
    ambient, so the replayed trajectory equals each member vehicle's own.
    """
    return walk if thermal is None else walk.with_thermal(thermal.build(spec.temperature_c))


def _probe(components: tuple, spec: ScenarioSpec) -> NodeEmulator:
    """A group's probe emulator: the walks, bin keys and sweep run through it."""
    node, database, evaluator = components
    return NodeEmulator(
        node,
        database,
        spec.build_scavenger(),
        spec.build_storage(),
        base_point=spec.operating_point(),
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


def _vehicle_row(
    vehicle_index: int,
    spec: ScenarioSpec,
    speed_scale: float,
    storage_scale: float,
    result: EmulationResult,
    active_at_end: bool,
) -> dict[str, object]:
    """The per-vehicle result row."""
    summary = result.summary()
    hours = result.duration_s / 3600.0
    row: dict[str, object] = {
        "vehicle": vehicle_index,
        "scenario": spec.name,
        "cycle": result.cycle_name,
        "speed_scale": speed_scale,
        "temperature_c": spec.temperature_c,
        "scavenger_size": spec.scavenger_size,
        "storage_scale": storage_scale,
    }
    row.update(summary)
    row["brownout_per_hour"] = summary["brownout_events"] / hours if hours > 0.0 else float("nan")
    row["active_at_end"] = bool(active_at_end)
    return row


def _vehicle_outcome(
    vehicle_index: int,
    spec: ScenarioSpec,
    speed_scale: float,
    storage_scale: float,
    node_name: str,
    table: CycleTable,
    demand: Demand,
    temperatures,
    buckets: int,
    ledger: tuple | None = None,
) -> dict[str, object]:
    """One vehicle over its cohort's shared table and demand.

    ``ledger`` is the vehicle's ``(harvest, trajectory)`` from its chunk's
    batch (:class:`_ChunkLedgers`); without one the vehicle runs
    :func:`integrate` itself.  Either way these are the calls
    ``NodeEmulator.emulate()`` makes — :func:`integrate` and
    :func:`summarize` — with this vehicle's scavenger and scaled storage, so
    the row (or the raised error) is that of a per-vehicle ``emulate()``.
    """
    if ledger is None:
        storage = scaled_storage(spec.build_storage(), storage_scale)
        harvest, traj = integrate(table, demand, temperatures, spec.build_scavenger(), storage)
    else:
        harvest, traj = ledger
        demand.raise_first_error(traj.attempted, temperatures)
    result = summarize(node_name, table, harvest, traj)
    sample_active = traj.active[table.sample_units]
    survival = _survival_from_samples(
        table.sample_times, sample_active, table.duration_s, buckets
    )
    active_at_end = bool(sample_active[-1]) if sample_active.size else False
    return {
        "row": _vehicle_row(
            vehicle_index, spec, speed_scale, storage_scale, result, active_at_end
        ),
        "survival": survival,
    }


class _ChunkLedgers:
    """The ledgers of the engine chunk in flight, integrated together.

    :meth:`track` wraps the chunk stream the engine consumes.  The first
    kernel call of a chunk sets up every vehicle of it in vehicle order —
    scaled storage, scavenger, :func:`unit_harvest`, the calls a
    per-vehicle ``emulate()`` makes — and integrates them in ONE
    :func:`integrate_batch`; later calls read their row.  A chunk replayed
    from a checkpoint never calls the kernel, so it computes nothing.

    A setup that raises stops the batch there.  The error belongs to that
    vehicle: its own kernel call raises it (once — a retry sets the vehicle
    up afresh, with the vehicles after it), so setups run in vehicle order
    and are repeated only when a setup itself failed.  A vehicle whose setup
    succeeded keeps its ledger: a retry after its own demand error reuses it.
    """

    def __init__(self, inputs) -> None:
        #: vehicle -> (cohort table, demand, temperatures).
        self._inputs = inputs
        self._chunk: list[FleetVehicle] = []
        self._ledgers: dict[int, tuple] = {}
        self._errors: dict[int, Exception] = {}

    def track(self, chunks):
        for chunk in chunks:
            self._chunk = list(chunk)
            self._ledgers, self._errors = {}, {}
            yield self._chunk

    def get(self, vehicle: FleetVehicle) -> tuple:
        """``(harvest, trajectory)`` of ``vehicle``; raises its setup error."""
        error = self._errors.pop(vehicle.index, None)
        if error is not None:
            raise error
        if vehicle.index not in self._ledgers:
            self._integrate_from(vehicle)
        return self._ledgers[vehicle.index]

    def _integrate_from(self, first: FleetVehicle) -> None:
        """Set up ``first`` and the vehicles after it, then integrate them."""
        runs, indices = [], []
        for vehicle in self._chunk[self._chunk.index(first) :]:
            spec = vehicle.scenario
            table, demand, _temperatures = self._inputs(vehicle)
            try:
                storage = scaled_storage(spec.build_storage(), vehicle.storage_scale)
                harvest = unit_harvest(table, spec.build_scavenger())
            except Exception as error:
                if vehicle.index == first.index:
                    raise
                self._errors[vehicle.index] = error
                break
            runs.append((table, demand, storage, harvest))
            indices.append(vehicle.index)
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
    (
        token,
        document,
        vehicle_index,
        speed_scale,
        storage_scale,
        cohort_key,
        demand_key,
        buckets,
        record_interval_s,
        idle_step_s,
        thermal_document,
    ) = payload
    spec = ScenarioSpec.from_dict(document)
    thermal = (
        ThermalSpec.coerce(thermal_document) if thermal_document is not None else None
    )
    components = WORKER_COMPONENTS.get(spec)
    tables, demands = _SHARED_STATE.setdefault(token, ({}, {}))
    table = tables.get(cohort_key)
    demand = demands.get(demand_key)
    if table is None or demand is None:  # pragma: no cover - platform without fork
        probe = _probe(components, spec)
        walk = _walk(probe, spec, speed_scale, record_interval_s, idle_step_s)
        table = tables[cohort_key] = _cohort_table(walk, spec, thermal)
        demand = demands[demand_key] = probe.resolve(table, _temperatures(table, spec, thermal))[2]
    return _vehicle_outcome(
        vehicle_index,
        spec,
        speed_scale,
        storage_scale,
        components[0].name,
        table,
        demand,
        _temperatures(table, spec, thermal),
        buckets,
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
            ``get(key, builder)`` (the serving layer's bounded LRU); groups
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

    def _build_shared_state(self, chunks):
        """Groups, cohort tables, the cross-vehicle sweep and the demands.

        One streaming discovery pass: vehicles arrive chunk by chunk and are
        *discarded* after inspection — the parent only retains the per-group
        and per-cohort structures (whose cardinality is bounded by the
        distinct (architecture, cycle, scale, temperature) combinations, not
        by the population size).

        Returns ``(probes, tables, demands, shared_bins)``: the probe
        emulator per group, the table per cohort, the demand per
        :func:`_demand_key`, and the number of swept bins.
        """
        thermal = self.fleet.thermal
        probes: dict[str, NodeEmulator] = {}
        pending: dict[str, dict] = {}
        errors: dict[str, dict] = {}
        walks: dict[str, CycleTable] = {}
        tables: dict[str, CycleTable] = {}
        round_keys: dict = {}
        for chunk in chunks:
            for vehicle in chunk:
                spec = vehicle.scenario
                gkey = _group_key(spec)
                probe = probes.get(gkey)
                if probe is None:
                    probe = probes[gkey] = _probe(self.component_cache.get(spec), spec)
                    pending[gkey], errors[gkey] = {}, {}
                ckey = _cohort_key(vehicle, thermal)
                table = tables.get(ckey)
                if table is None:
                    # The wheel-round walk does not depend on the ambient:
                    # thermal cohorts of one (cycle, speed scale) share it.
                    wkey = _cohort_key(vehicle)
                    walk = walks.get(wkey)
                    if walk is None:
                        walk = walks[wkey] = _walk(
                            probe,
                            spec,
                            vehicle.speed_scale,
                            self.record_interval_s,
                            self.idle_step_s,
                        )
                    table = tables[ckey] = _cohort_table(walk, spec, thermal)
                dkey = _demand_key(ckey, spec, thermal)
                if dkey not in round_keys:
                    keys = probe.round_keys(table, _temperatures(table, spec, thermal))
                    probe.collect_bins(table, keys, {}, pending[gkey], errors[gkey])
                    round_keys[dkey] = (gkey, table, keys)

        # ONE cross-vehicle sweep per group: the union of quantized bins over
        # every vehicle of the group, evaluated in a single batch call.
        entries = {gkey: probes[gkey].evaluate_energy_bins(pending[gkey]) for gkey in probes}
        demands: dict = {}
        while round_keys:
            dkey, (gkey, table, keys) = round_keys.popitem()
            demands[dkey] = probes[gkey].demand(table, keys, entries[gkey], errors[gkey])
        shared_bins = sum(len(group_entries) for group_entries in entries.values())
        return probes, tables, demands, shared_bins

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
        cache = self.component_cache
        builds_before, hits_before = cache.builds, cache.hits
        # Discovery pass: stream the population once to find the groups,
        # cohorts and energy bins; individual vehicles are discarded, so the
        # parent never holds more than one chunk of them.
        probes, tables, demands, shared_bins = self._build_shared_state(
            fleet.iter_chunks()
        )
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
        thermal_document = thermal.to_dict() if thermal is not None else None
        token = next(_RUN_TOKENS)

        def inputs(vehicle: FleetVehicle):
            spec = vehicle.scenario
            ckey = _cohort_key(vehicle, thermal)
            table = tables[ckey]
            return (
                table,
                demands[_demand_key(ckey, spec, thermal)],
                _temperatures(table, spec, thermal),
            )

        ledgers = _ChunkLedgers(inputs)

        def kernel(vehicle: FleetVehicle) -> dict[str, object]:
            spec = vehicle.scenario
            return _vehicle_outcome(
                vehicle.index,
                spec,
                vehicle.speed_scale,
                vehicle.storage_scale,
                probes[_group_key(spec)].node.name,
                *inputs(vehicle),
                buckets,
                ledgers.get(vehicle),
            )

        def payload(vehicle: FleetVehicle):
            ckey = _cohort_key(vehicle, thermal)
            return (
                token,
                vehicle.scenario.to_dict(),
                vehicle.index,
                vehicle.speed_scale,
                vehicle.storage_scale,
                ckey,
                _demand_key(ckey, vehicle.scenario, thermal),
                buckets,
                self.record_interval_s,
                self.idle_step_s,
                thermal_document,
            )

        # Fork-inherited sharing: stash this run's shared state where the
        # worker processes the engine creates below will find it.
        _SHARED_STATE[token] = (tables, demands)
        try:
            report = self._engine.run_chunks(
                ledgers.track(fleet.iter_chunks()),
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
            "groups": len(probes),
            "cohorts": len(tables),
            "fast_path_vehicles": accumulator.vehicles,
            "thermal": thermal_document,
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
