"""Long-window emulation of the Sensor Node against a drive cycle.

The paper's final flow step: *"integrate the model of the energy source with
the estimation of total load current and emulate the energy balance for a
long timing window"*.  The emulator plays a cruising-speed profile revolution
by revolution, charges the storage element with the scavenger output,
discharges it with the node load, tracks the in-tyre temperature, and records
whether the monitoring system could stay active — which is exactly the
information needed to identify the operating windows and to plot the instant
power of Fig. 3.

One integration path serves every caller.  :meth:`NodeEmulator.emulate` is

1. **table** — :meth:`~NodeEmulator.materialize_cycle` walks the cycle once
   into a :class:`CycleTable` (per-unit arrays, the thermal replay, per-round
   (speed key, phase pattern) codes and the state-log sampling walk);
2. **resolve** — :meth:`~NodeEmulator.resolve` keys every round on its
   quantized (speed, temperature, phase pattern) bin and evaluates all the
   bins the cache lacks in ONE batch call; a bin whose schedule cannot be
   built keeps its error instead of a value;
3. **load** — the resolved energies become one per-unit :class:`Demand`
   vector (``+inf`` where a round is unresolved);
4. **ledger** — :func:`integrate` takes the whole harvest from one
   ``energy_sweep_j`` call (:func:`unit_harvest`) and runs the storage
   :func:`~repro.scavenger.storage.trajectory` kernel, then raises the first
   error the ledger walk reaches: an attempted unresolved round or an
   out-of-range temperature, on exactly the unit the step-by-step scalar
   reference raised on (the trajectory before that unit is unaffected by the
   ``+inf`` placeholders);
5. **result** — :func:`summarize` plus the sampled state log.

The fleet runner calls the same functions on tables shared by a whole cohort
of vehicles, and integrates the ledgers of a whole chunk of vehicles in one
:func:`integrate_batch` call.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.blocks.node import SensorNode
from repro.conditions.batch import BatchConditions
from repro.conditions.operating_point import TEMPERATURE_RANGE_C, OperatingPoint
from repro.conditions.temperature import TyreThermalModel
from repro.core.evaluator import EnergyEvaluator
from repro.core.quantize import (
    speed_bin,
    speed_bin_center_kmh,
    speed_bin_upper_edge_kmh,
    temperature_bin_center_c,
    temperature_bins,
)
from repro.core.trace import PowerTrace
from repro.errors import ConfigurationError, EmulationError, ScheduleError
from repro.power.database import PowerDatabase
from repro.scavenger.base import EnergyScavenger
from repro.scavenger.storage import (
    StorageElement,
    StorageTrajectory,
    TrajectoryBatch,
    trajectory,
)
from repro.timing.schedule import RevolutionSchedule
from repro.timing.wheel_round import WheelRound, iter_wheel_rounds
from repro.vehicle.drive_cycle import DriveCycle

#: Upper bound on revolution-energy cache entries.  Ordinary cycles produce a
#: few dozen (binned) entries; only exact-keyed boundary/sub-quantum rounds
#: with continuously varying speeds can accumulate, and the cap keeps the
#: run-persistent cache from growing without bound over an emulator's life.
_MAX_ENERGY_CACHE_ENTRIES = 65536


class SampleLog:
    """Columnar record of the emulation state log.

    One numpy column per field, filled in one go from whole parallel
    columns (:meth:`from_columns`); :meth:`arrays` returns views, not
    copies.
    """

    __slots__ = ("_time", "_speed", "_temperature", "_soc", "_active")

    def __init__(self) -> None:
        self._time = np.empty(0)
        self._speed = np.empty(0)
        self._temperature = np.empty(0)
        self._soc = np.empty(0)
        self._active = np.zeros(0, dtype=bool)

    def __len__(self) -> int:
        return len(self._time)

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded columns as parallel array *views* (no copies).

        The views are marked read-only so a consumer mutating them in place
        fails loudly instead of silently corrupting the log; copy before
        transforming.
        """
        columns = {
            "time_s": self._time[:],
            "speed_kmh": self._speed[:],
            "temperature_c": self._temperature[:],
            "state_of_charge": self._soc[:],
            "node_active": self._active[:],
        }
        for view in columns.values():
            view.setflags(write=False)
        return columns

    @classmethod
    def from_columns(
        cls, time_s, speed_kmh, temperature_c, state_of_charge, node_active
    ) -> "SampleLog":
        """Build a log from whole parallel columns (copied)."""
        log = cls()
        log._time = np.array(time_s, dtype=float)
        log._speed = np.array(speed_kmh, dtype=float)
        log._temperature = np.array(temperature_c, dtype=float)
        log._soc = np.array(state_of_charge, dtype=float)
        log._active = np.array(node_active, dtype=bool)
        return log


class EmulationResult:
    """Outcome of one long-window emulation.

    Samples are stored column-wise in :attr:`log` (a :class:`SampleLog`);
    :meth:`sample_arrays` returns views into it.
    """

    def __init__(
        self,
        node_name: str,
        cycle_name: str,
        duration_s: float,
        harvested_j: float = 0.0,
        consumed_j: float = 0.0,
        discarded_j: float = 0.0,
        revolutions: int = 0,
        active_revolutions: int = 0,
        brownout_events: int = 0,
        moving_time_s: float = 0.0,
        active_time_s: float = 0.0,
        trace: PowerTrace | None = None,
    ) -> None:
        self.node_name = node_name
        self.cycle_name = cycle_name
        self.duration_s = duration_s
        self.log = SampleLog()
        self.harvested_j = harvested_j
        self.consumed_j = consumed_j
        self.discarded_j = discarded_j
        self.revolutions = revolutions
        self.active_revolutions = active_revolutions
        self.brownout_events = brownout_events
        self.moving_time_s = moving_time_s
        self.active_time_s = active_time_s
        self.trace = trace

    @property
    def sample_count(self) -> int:
        """Number of recorded samples."""
        return len(self.log)

    _SCALAR_FIELDS = (
        "node_name",
        "cycle_name",
        "duration_s",
        "harvested_j",
        "consumed_j",
        "discarded_j",
        "revolutions",
        "active_revolutions",
        "brownout_events",
        "moving_time_s",
        "active_time_s",
    )

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._SCALAR_FIELDS)
        return f"EmulationResult({fields}, samples={len(self.log)}, trace={self.trace!r})"

    def __eq__(self, other: object) -> bool:
        # Field-based equality, preserved from the former dataclass: scalar
        # totals, the recorded sample columns, and the trace must all match.
        if not isinstance(other, EmulationResult):
            return NotImplemented
        if any(
            getattr(self, name) != getattr(other, name) for name in self._SCALAR_FIELDS
        ):
            return False
        ours, theirs = self.log.arrays(), other.log.arrays()
        if any(not np.array_equal(ours[key], theirs[key]) for key in ours):
            return False
        return self.trace == other.trace

    # -- derived figures -----------------------------------------------------------

    @property
    def net_energy_j(self) -> float:
        """Harvested minus consumed energy over the window."""
        return self.harvested_j - self.consumed_j

    @property
    def active_fraction(self) -> float:
        """Fraction of the whole window with the node operational."""
        if self.duration_s == 0.0:
            return 0.0
        return self.active_time_s / self.duration_s

    @property
    def moving_active_fraction(self) -> float:
        """Fraction of the *moving* time with the node operational.

        This is the figure of merit the paper cares about: stationary time is
        lost by construction (nothing to harvest, nothing to sense), so the
        quality of an architecture/scavenger pairing shows in how much of the
        rolling time the monitoring system covers.
        """
        if self.moving_time_s == 0.0:
            return 0.0
        return min(1.0, self.active_time_s / self.moving_time_s)

    @property
    def revolution_coverage(self) -> float:
        """Fraction of wheel revolutions that were actually monitored."""
        if self.revolutions == 0:
            return 0.0
        return self.active_revolutions / self.revolutions

    def sample_arrays(self) -> dict[str, np.ndarray]:
        """Recorded samples as parallel numpy array views (zero-copy)."""
        return self.log.arrays()

    def summary(self) -> dict[str, float]:
        """Scalar summary used by reports and benches."""
        return {
            "duration_s": self.duration_s,
            "harvested_mj": self.harvested_j * 1e3,
            "consumed_mj": self.consumed_j * 1e3,
            "net_mj": self.net_energy_j * 1e3,
            "discarded_mj": self.discarded_j * 1e3,
            "revolutions": float(self.revolutions),
            "revolution_coverage_pct": 100.0 * self.revolution_coverage,
            "active_fraction_pct": 100.0 * self.active_fraction,
            "moving_active_fraction_pct": 100.0 * self.moving_active_fraction,
            "brownout_events": float(self.brownout_events),
        }


@dataclass(frozen=True, eq=False)
class CycleTable:
    """One walk of a drive cycle: the arrays every integration over it reads.

    Built by :meth:`NodeEmulator.materialize_cycle` and read-only afterwards,
    so the fleet runner shares one table between every vehicle of a cohort.

    Attributes:
        name: the walked cycle's name.
        duration_s: the walked cycle's duration.
        is_round: per timing unit, True for a wheel round, False for an idle
            interval.
        durations: per unit, the round period or the idle-interval duration.
        speeds: per unit, the round's speed (0 for idle units).
        starts: per unit start time.
        ends: per unit end time.
        temps: per unit temperature — the thermal model's replay, or the
            base point's temperature throughout.
        round_indices: unit positions of the wheel rounds.
        unit_codes: per unit, the index of its entry in ``codes`` (-1 for
            idle units).
        codes: one ``(speed key, evaluation speed, phase pattern, revolution
            index)`` per distinct round class, from the emulator's speed-key
            classification; the revolution index is one round with that
            pattern, for schedule builds.
        sample_units: per state-log sample, the unit it reads.
        sample_times: per state-log sample, its time.
    """

    name: str
    duration_s: float
    is_round: np.ndarray
    durations: np.ndarray
    speeds: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    temps: np.ndarray
    round_indices: np.ndarray
    unit_codes: np.ndarray
    codes: tuple
    sample_units: np.ndarray
    sample_times: np.ndarray

    def with_thermal(self, thermal_model: TyreThermalModel) -> "CycleTable":
        """This walk with ``thermal_model`` replayed over it.

        The model advances unit by unit from its current state (pass a fresh
        or reset one) and is left at the end-of-cycle state; every other
        array is shared with this table.
        """
        temps = [
            thermal_model.advance(duration, speed / 3.6)
            for duration, speed in zip(self.durations.tolist(), self.speeds.tolist())
        ]
        return dataclasses.replace(self, temps=np.array(temps, dtype=float))


@dataclass(frozen=True, eq=False)
class RoundKeys:
    """The revolution-energy cache keys of one (cycle table, temperatures).

    Attributes:
        keys: distinct ``(speed key, temperature bin, *phase pattern)`` keys
            of the rounds before ``stop``.
        key_codes: per key, its table code (which fixes the schedule).
        unit_key: per unit, the index of its key (-1 for idle units and for
            every unit from ``stop`` on).
        temps: per unit temperature.
        stop: the first unit whose temperature is outside the modelled range
            (the unit count when there is none).
    """

    keys: list
    key_codes: list
    unit_key: np.ndarray
    temps: np.ndarray
    stop: int


@dataclass(frozen=True, eq=False)
class Demand:
    """The load side of one (cycle table, temperatures), ready for the ledger.

    Attributes:
        load: per unit, the energy the node draws from the storage while
            active; ``+inf`` for unresolved rounds and from ``stop`` on.
        stop: the first unit whose temperature is outside the modelled range.
        unresolved: ascending unit positions of the rounds whose schedule
            could not be built.
        errors: the recorded error of each unresolved round.
    """

    load: np.ndarray
    stop: int
    unresolved: np.ndarray
    errors: tuple

    def raise_first_error(self, attempted: np.ndarray, temps) -> None:
        """Raise the first error a step-by-step ledger walk would have hit.

        That is the first *attempted* unresolved round (a round the node
        slept through needs no energy), unless an out-of-range temperature
        comes earlier — every unresolved round lies before ``stop``, so the
        temperature error is raised only when no attempted round precedes
        it.  Up to that unit the trajectory never read a placeholder load.
        """
        if self.unresolved.size:
            hits = np.flatnonzero(attempted[self.unresolved])
            if hits.size:
                raise copy.copy(self.errors[hits[0]])
        if self.stop < len(self.load):
            temperature_c = float(np.broadcast_to(temps, self.load.shape)[self.stop])
            raise ConfigurationError(
                f"temperature {temperature_c} degC is outside the modelled range"
            )


def unit_harvest(table: CycleTable, scavenger: EnergyScavenger) -> np.ndarray:
    """Per-unit harvest of one run: every wheel round's from ONE
    ``energy_sweep_j`` call, zero on idle units."""
    rounds = table.round_indices
    harvest = np.zeros(len(table.is_round))
    harvest[rounds] = scavenger.energy_sweep_j(table.speeds[rounds])
    if np.any(harvest < 0.0):
        raise EmulationError("cannot deposit negative energy")
    return harvest


def integrate(
    table: CycleTable,
    demand: Demand,
    temps,
    scavenger: EnergyScavenger,
    storage: StorageElement,
) -> tuple[np.ndarray, StorageTrajectory]:
    """Harvest and ledger of one run: ``(per-unit harvest, trajectory)``.

    The harvest is :func:`unit_harvest`; the storage ledger is the pure
    :func:`~repro.scavenger.storage.trajectory` kernel, which leaves
    ``storage`` untouched.  Raises the first error the run reaches
    (:meth:`Demand.raise_first_error`).
    """
    harvest = unit_harvest(table, scavenger)
    # The storage's initial charge is validated at construction, so it is
    # replayed without the per-call range check.
    traj = trajectory(
        storage,
        harvest,
        demand.load,
        table.durations,
        initially_active=not storage.is_depleted,
    )
    demand.raise_first_error(traj.attempted, temps)
    return harvest, traj


def integrate_batch(runs) -> TrajectoryBatch:
    """The ledgers of many runs in ONE :func:`~repro.scavenger.storage.trajectory` call.

    ``runs`` holds one ``(table, demand, storage, harvest)`` per run, the
    harvest from :func:`unit_harvest`.  Row ``v`` of the result is the
    trajectory :func:`integrate` computes for run ``v``; raising the run's
    :meth:`Demand.raise_first_error` is left to the caller.
    """
    return trajectory(
        [storage for _, _, storage, _ in runs],
        [harvest for _, _, _, harvest in runs],
        [demand.load for _, demand, _, _ in runs],
        [table.durations for table, _, _, _ in runs],
        initially_active=[not storage.is_depleted for _, _, storage, _ in runs],
    )


def summarize(
    node_name: str, table: CycleTable, harvest: np.ndarray, traj: StorageTrajectory
) -> EmulationResult:
    """The totals of one run (no state log, no trace)."""
    result = EmulationResult(
        node_name=node_name, cycle_name=table.name, duration_s=table.duration_s
    )
    result.revolutions = int(table.is_round.sum())
    result.moving_time_s = float(table.durations[table.is_round].sum())
    result.harvested_j = float(traj.banked_j.sum())
    result.discarded_j = float(np.maximum(0.0, harvest - traj.banked_j).sum())
    result.consumed_j = float(traj.drawn_j.sum())
    result.active_revolutions = int((table.is_round & traj.withdrew).sum())
    result.active_time_s = float(table.durations[traj.withdrew].sum())
    result.brownout_events = traj.brownout_events
    return result


def _record_trace_revolution(
    trace: PowerTrace,
    start_s: float,
    end_s: float,
    period_s: float,
    phases: tuple[tuple[str, float, float], ...],
    active: bool,
    sleep_power_w: float,
) -> None:
    if not active:
        trace.append(start_s, period_s, 0.0, "inactive")
        return
    cursor = start_s
    for label, duration, power in phases:
        duration = min(duration, end_s - cursor)
        if duration <= 0.0:
            break
        trace.append(cursor, duration, power, label)
        cursor += duration
    if cursor < end_s - 1e-12:
        trace.append(cursor, end_s - cursor, sleep_power_w, "sleep")


class NodeEmulator:
    """Plays a drive cycle against a node, a scavenger and a storage element.

    Args:
        node: the Sensor Node architecture.
        database: power characterization (re-targeted to the node's clocks).
        scavenger: energy source model.
        storage: storage element buffering harvest and load; the emulator
            resets it at the start of every run.
        base_point: template operating point providing the supply and process
            conditions; speed and temperature are overridden while emulating.
        thermal_model: optional in-tyre thermal model driven by the emulated
            speed; when omitted, the base point's temperature is used
            throughout.
        evaluator: optional prebuilt evaluator for ``node``/``database``;
            lets scenario studies share one compiled power table across
            emulation runs.
    """

    def __init__(
        self,
        node: SensorNode,
        database: PowerDatabase,
        scavenger: EnergyScavenger,
        storage: StorageElement,
        base_point: OperatingPoint | None = None,
        thermal_model: TyreThermalModel | None = None,
        evaluator: EnergyEvaluator | None = None,
    ) -> None:
        self.node = node
        # A study sweeping only the environment can pass a prebuilt evaluator
        # so the re-targeted database and the compiled power table are shared
        # across emulation runs instead of rebuilt per run.
        if evaluator is not None and (
            evaluator.node is not node or evaluator.source_database is not database
        ):
            raise EmulationError(
                "the shared evaluator was built for a different node or database"
            )
        self.evaluator = evaluator or EnergyEvaluator(node, database)
        self.scavenger = scavenger
        self.storage = storage
        self.base_point = base_point or OperatingPoint()
        self.thermal_model = thermal_model
        # The caches and classification memos are keyed on quantized
        # conditions and stay valid for the lifetime of the emulator: the
        # evaluator and the database are fixed per instance, so they persist
        # across emulate() runs.
        self._energy_cache: dict[tuple, tuple[float, tuple[tuple[str, float, float], ...]]] = {}
        self._standstill_cache: dict[int, float] = {}
        #: Bin-center schedules per (speed bin, phase pattern), built once.
        self._schedules: dict[tuple, RevolutionSchedule] = {}
        #: (speed bin, phase pattern) keys whose bin-*center* schedule proved
        #: infeasible (feasibility is a step function of speed, so the center
        #: can fail while the upper edge passes); keyed per pattern so one
        #: pattern's infeasible center never forces other patterns in the
        #: same bin off their valid bin entries.
        self._infeasible_center_keys: set[tuple] = set()
        #: (speed bin, phase pattern) keys whose schedule was validated at
        #: the bin's *upper edge*: every speed that rounds into the bin is
        #: then covered by one schedule build (up to sub-quantum feasibility
        #: pockets, the same approximation class as the energy quantization
        #: itself — and a deterministic one, so warm and fresh emulators
        #: always agree).
        self._trusted_speed_keys: set[tuple] = set()
        #: (speed bin, phase pattern) keys whose upper edge is infeasible:
        #: these straddle the node's feasibility limit, so their rounds are
        #: evaluated and keyed on the exact speed — an unsustainable actual
        #: speed then fails on its own schedule build.
        self._exact_speed_keys: set[tuple] = set()
        self._cache_node = self.node
        self._cache_evaluator = self.evaluator
        self._cache_database = self.evaluator.database
        self._cache_database_version = self.evaluator.database._version
        self._cache_base_point = self.base_point

    def _ensure_caches_fresh(self) -> None:
        """Drop cached energies if an input they bake in has changed.

        Cache keys quantize speed/temperature/phase pattern, but the cached
        values also depend on the node, the evaluator and its database
        coefficients, and the supply/process conditions of ``base_point`` —
        all publicly reachable between runs, so all are checked here.
        """
        version = self.evaluator.database._version
        if (
            self.node is not self._cache_node
            or self.evaluator is not self._cache_evaluator
            or self.evaluator.database is not self._cache_database
            or version != self._cache_database_version
            or self.base_point != self._cache_base_point
        ):
            self._energy_cache.clear()
            self._standstill_cache.clear()
            self._schedules.clear()
            self._infeasible_center_keys.clear()
            self._trusted_speed_keys.clear()
            self._exact_speed_keys.clear()
            self._cache_node = self.node
            self._cache_evaluator = self.evaluator
            self._cache_database = self.evaluator.database
            self._cache_database_version = version
            self._cache_base_point = self.base_point

    # -- internal helpers -------------------------------------------------------------

    def _operating_point(self, speed_kmh: float, temperature_c: float) -> OperatingPoint:
        return self.base_point.at_speed(speed_kmh).at_temperature(temperature_c)

    def _standstill_power_sweep(self, temps: np.ndarray) -> np.ndarray:
        """Per-unit resting-mode power, memoized on the quantized temperature.

        The resting power depends only on the (fixed) supply/process
        conditions and the temperature.  Each 1 degC bin is evaluated at its
        representative (bin-center) temperature, which keeps the memo a pure
        function of the bin — results cannot depend on which temperature
        inside the bin an earlier run happened to see first.
        """
        bins, inverse = np.unique(temperature_bins(temps), return_inverse=True)
        per_bin = np.empty(len(bins))
        for position, raw_bin in enumerate(bins):
            key = int(raw_bin)
            power = self._standstill_cache.get(key)
            if power is None:
                point = self._operating_point(0.0, temperature_bin_center_c(key))
                power = self.evaluator.standstill_power_w(point)
                self._standstill_cache[key] = power
            per_bin[position] = power
        return per_bin[inverse]

    def _speed_key_for(
        self, speed_kmh: float, revolution_index: int, pattern: tuple[bool, bool, bool]
    ) -> tuple[object, float, bool]:
        """Resolve the cache speed key of one revolution.

        Returns ``(speed_key, evaluation_speed, use_bin)``.  Bin 0 has no
        positive representative speed, and bins whose center proved
        infeasible are memoized; both are keyed on the exact speed instead —
        the cached value stays a pure function of the key either way.  Exact
        keys are tagged so they can never collide with an int bin key
        (Python dicts treat 999 and 999.0 as the same key).
        """
        bin_index = speed_bin(speed_kmh)
        pattern_key = (bin_index, *pattern)
        use_bin = bin_index > 0 and pattern_key not in self._infeasible_center_keys
        if use_bin and pattern_key not in self._trusted_speed_keys:
            if pattern_key in self._exact_speed_keys:
                use_bin = False
            else:
                # Classify the (bin, pattern) once, with one schedule build
                # at the bin's upper edge: feasible there means every speed
                # that rounds into the bin is safe to share the bin entry;
                # infeasible means the bin straddles the node's feasibility
                # limit and its rounds must be handled exactly.  The
                # classification depends only on the key, so warm and fresh
                # emulators always agree.
                upper_edge = speed_bin_upper_edge_kmh(bin_index)
                try:
                    self.node.schedule_for(upper_edge, revolution_index)
                    self._trusted_speed_keys.add(pattern_key)
                except ScheduleError:
                    self._exact_speed_keys.add(pattern_key)
                    use_bin = False
        if use_bin:
            return bin_index, speed_bin_center_kmh(bin_index), True
        return ("exact", speed_kmh), speed_kmh, False

    def _schedule(self, code: tuple) -> RevolutionSchedule | ScheduleError:
        """The schedule of one table code, or the error building it raised.

        Bin-center schedules are memoized per (bin, pattern); exact-speed
        schedules are built per call (their population is unbounded).
        """
        speed_key, speed, pattern, revolution_index = code
        memo_key = (speed_key, *pattern)
        schedule = self._schedules.get(memo_key)
        if schedule is None:
            try:
                schedule = self.node.schedule_for(speed, revolution_index)
            except ScheduleError as error:
                # Kept (and maybe shared by a fleet cohort) until raised:
                # drop the frames it would otherwise keep alive.
                return error.with_traceback(None)
            if not isinstance(speed_key, tuple):
                self._schedules[memo_key] = schedule
        return schedule

    def _store_energy(
        self, key: tuple, value: tuple[float, tuple[tuple[str, float, float], ...]]
    ) -> None:
        """Insert one revolution-energy cache entry, honouring the size cap."""
        if len(self._energy_cache) >= _MAX_ENERGY_CACHE_ENTRIES:
            # Exact-keyed entries from continuously varying boundary speeds
            # are the only unbounded population; dropping the whole cache is
            # cheap to rebuild and keeps memory flat over the emulator's life.
            self._energy_cache.clear()
        self._energy_cache[key] = value

    # -- table -> resolve -> load ----------------------------------------------------

    def materialize_cycle(
        self,
        cycle: DriveCycle,
        idle_step_s: float = 1.0,
        thermal_model: TyreThermalModel | None = None,
        record_interval_s: float = 1.0,
    ) -> CycleTable:
        """Walk ``cycle`` once into a :class:`CycleTable`.

        The walk classifies every round's speed key with the emulator's
        upper-edge rule and records the state-log sampling walk for
        ``record_interval_s``; ``thermal_model`` is then replayed over it
        (:meth:`CycleTable.with_thermal`).  With ``thermal_model=None`` the
        table is isothermal at the base point's temperature, whatever model
        the emulator owns.

        A bin whose center schedule is infeasible although its upper edge
        passed has no bin-center value: it is memoized as such and its rounds
        are keyed on their exact speeds.
        """
        if record_interval_s <= 0.0:
            raise EmulationError("record interval must be positive")
        self._ensure_caches_fresh()
        node = self.node
        is_round, durations, speeds, starts, ends, unit_codes = [], [], [], [], [], []
        codes: list[tuple] = []
        code_index: dict[tuple, int] = {}
        for unit in iter_wheel_rounds(cycle, node.wheel, idle_step_s=idle_step_s):
            if isinstance(unit, WheelRound):
                speed, duration = unit.speed_kmh, unit.period_s
                pattern = node.phase_pattern(unit.index)
                speed_key, eval_speed, _use_bin = self._speed_key_for(
                    speed, unit.index, pattern
                )
                code = code_index.get((speed_key, pattern))
                if code is None:
                    code = code_index[(speed_key, pattern)] = len(codes)
                    codes.append((speed_key, eval_speed, pattern, unit.index))
            else:
                speed, duration, code = 0.0, unit.duration_s, -1
            is_round.append(code >= 0)
            durations.append(duration)
            speeds.append(speed)
            starts.append(unit.start_s)
            ends.append(unit.end_s)
            unit_codes.append(code)

        unit_codes = np.array(unit_codes, dtype=np.intp)
        for code, entry in enumerate(list(codes)):
            speed_key, _speed, pattern, revolution_index = entry
            if isinstance(speed_key, tuple) or not isinstance(
                self._schedule(entry), ScheduleError
            ):
                continue
            self._infeasible_center_keys.add((speed_key, *pattern))
            for i in np.flatnonzero(unit_codes == code):
                exact = (("exact", speeds[i]), pattern)
                new = code_index.get(exact)
                if new is None:
                    new = code_index[exact] = len(codes)
                    codes.append((exact[0], speeds[i], pattern, revolution_index))
                unit_codes[i] = new

        # State-log sampling walk: which unit every logged sample reads.
        sample_times: list[float] = []
        sample_units: list[int] = []
        next_record_s = 0.0
        for i, end_time in enumerate(ends):
            while next_record_s <= end_time:
                sample_times.append(next_record_s)
                sample_units.append(i)
                next_record_s += record_interval_s

        is_round = np.array(is_round, dtype=bool)
        table = CycleTable(
            name=cycle.name,
            duration_s=cycle.duration_s,
            is_round=is_round,
            durations=np.array(durations, dtype=float),
            speeds=np.array(speeds, dtype=float),
            starts=np.array(starts, dtype=float),
            ends=np.array(ends, dtype=float),
            temps=np.full(len(is_round), float(self.base_point.temperature_c)),
            round_indices=np.flatnonzero(is_round),
            unit_codes=unit_codes,
            codes=tuple(codes),
            sample_units=np.array(sample_units, dtype=np.intp),
            sample_times=np.array(sample_times, dtype=float),
        )
        return table if thermal_model is None else table.with_thermal(thermal_model)

    def round_keys(self, table: CycleTable, temps) -> RoundKeys:
        """Key every round of ``table`` at the per-unit temperatures ``temps``.

        ``temps`` is an array over the table's units or one constant
        temperature.  Keys stop at the first out-of-range temperature: the
        run raises there at the latest.
        """
        count = len(table.is_round)
        temps = np.broadcast_to(np.asarray(temps, dtype=float), (count,))
        low, high = TEMPERATURE_RANGE_C
        outside = np.flatnonzero(~((temps >= low) & (temps <= high)))
        stop = int(outside[0]) if outside.size else count
        units = np.flatnonzero(table.unit_codes[:stop] >= 0)
        unit_key = np.full(count, -1, dtype=np.intp)
        keys: list[tuple] = []
        key_codes: list[int] = []
        if units.size:
            codes = table.unit_codes[units]
            bins = temperature_bins(temps[units]).astype(np.intp)
            low_bin = int(bins.min())
            width = int(bins.max()) - low_bin + 1
            distinct, unit_key[units] = np.unique(
                codes * width + (bins - low_bin), return_inverse=True
            )
            for combined in distinct.tolist():
                code, offset = divmod(combined, width)
                speed_key, _speed, pattern, _index = table.codes[code]
                keys.append((speed_key, low_bin + offset, *pattern))
                key_codes.append(code)
        return RoundKeys(keys, key_codes, unit_key, temps, stop)

    def collect_bins(
        self,
        table: CycleTable,
        keys: RoundKeys,
        known: Mapping,
        pending: dict,
        errors: dict,
    ) -> None:
        """Add the keys of ``keys`` that ``known`` lacks to ``pending``.

        ``pending`` gets ``key -> (evaluation speed, evaluation temperature
        degC, schedule)`` — the argument of :meth:`evaluate_energy_bins`;
        keys whose schedule cannot be built go to ``errors`` with the
        error instead.  One schedule object serves every temperature bin of
        a round class, so those keys group into one vectorized accumulation.
        """
        built: dict[int, RevolutionSchedule | ScheduleError] = {}
        for key, code in zip(keys.keys, keys.key_codes):
            if key in known or key in pending or key in errors:
                continue
            schedule = built.get(code)
            if schedule is None:
                schedule = built[code] = self._schedule(table.codes[code])
            if isinstance(schedule, ScheduleError):
                errors[key] = schedule
            else:
                pending[key] = (
                    table.codes[code][1],
                    temperature_bin_center_c(key[1]),
                    schedule,
                )

    def demand(
        self, table: CycleTable, keys: RoundKeys, entries: Mapping, errors: Mapping
    ) -> Demand:
        """The per-unit load vector of ``keys`` from resolved ``entries``.

        Rounds draw their referred revolution energy, idle units their
        referred resting energy; rounds whose key is in ``errors`` (not in
        ``entries``) and units from ``keys.stop`` on draw ``+inf``.
        """
        count = len(keys.unit_key)
        load = np.full(count, np.inf)
        pmu = self.node.pmu
        rounds = np.flatnonzero(keys.unit_key >= 0)
        if rounds.size:
            energies = np.array(
                [entries[key][0] if key in entries else np.inf for key in keys.keys]
            )
            load[rounds] = pmu.referred_to_storage(energies[keys.unit_key[rounds]])
        sleep_power = self._standstill_power_sweep(keys.temps[: keys.stop])
        idle = np.flatnonzero(~table.is_round[: keys.stop])
        load[idle] = pmu.referred_to_storage(sleep_power[idle] * table.durations[idle])
        load.setflags(write=False)
        failed = [position for position, key in enumerate(keys.keys) if key not in entries]
        unresolved = np.flatnonzero(np.isin(keys.unit_key, failed))
        return Demand(
            load=load,
            stop=keys.stop,
            unresolved=unresolved,
            errors=tuple(errors[keys.keys[keys.unit_key[i]]] for i in unresolved),
        )

    def resolve(
        self, table: CycleTable, temps
    ) -> tuple[RoundKeys, dict, Demand]:
        """Resolve every round of ``table``: cache hits plus ONE batch call.

        Returns ``(keys, entries, demand)``: the round keys, the ``(energy,
        per-phase list)`` entry of every resolvable key, and the load side.
        New entries land in the run-persistent cache (size-capped); the
        returned ``entries`` hold them whatever the cap evicts.
        """
        keys = self.round_keys(table, temps)
        cache = self._energy_cache
        entries = {key: cache[key] for key in keys.keys if key in cache}
        pending: dict = {}
        errors: dict = {}
        self.collect_bins(table, keys, entries, pending, errors)
        fresh = self.evaluate_energy_bins(pending)
        for key, value in fresh.items():
            self._store_energy(key, value)
        entries.update(fresh)
        return keys, entries, self.demand(table, keys, entries, errors)

    def evaluate_energy_bins(
        self, pending: Mapping[tuple, tuple[float, float, RevolutionSchedule]]
    ) -> dict[tuple, tuple[float, tuple[tuple[str, float, float], ...]]]:
        """Evaluate quantized bins in ONE vectorized batch call.

        ``pending`` maps cache keys to ``(evaluation speed, evaluation
        temperature degC, schedule)`` exactly as :meth:`collect_bins` builds
        it; the return value maps each key to its ``(energy, per-phase
        list)`` entry.  The batch kernel accumulates in the scalar operation
        order, so the values are bitwise identical to width-1
        ``schedule_energy_compiled`` evaluations — which is what lets the
        fleet runner evaluate the *union* of bins across a whole vehicle
        population once.
        """
        if not pending:
            return {}
        keys = list(pending)
        speeds = np.array([pending[key][0] for key in keys])
        temperatures = np.array([pending[key][1] for key in keys])
        schedules = [pending[key][2] for key in keys]
        batch = BatchConditions.from_arrays(
            speeds, temperatures, base_point=self.base_point
        )
        energies, phase_lists = self.evaluator._schedule_energy_batch(
            batch, schedules, include_phases=True
        )
        return {
            key: (float(energies[position]), phase_lists[position])
            for position, key in enumerate(keys)
        }

    def seed_energy_cache(
        self,
        entries: Mapping[tuple, tuple[float, tuple[tuple[str, float, float], ...]]],
    ) -> int:
        """Pre-load revolution-energy cache entries computed elsewhere.

        Entries must come from an emulator with the same node, database
        coefficients and supply/process conditions (cached values are pure
        functions of their quantized keys under those inputs).  Returns the
        number of entries accepted.  The cache-size cap is honoured entry by
        entry.
        """
        self._ensure_caches_fresh()
        for key, value in entries.items():
            self._store_energy(key, value)
        return len(entries)

    # -- main entry point ----------------------------------------------------------------

    def emulate(
        self,
        cycle: DriveCycle,
        record_interval_s: float = 1.0,
        trace_window: tuple[float, float] | None = None,
        idle_step_s: float = 1.0,
    ) -> EmulationResult:
        """Run the emulation over ``cycle``: table -> resolve -> ledger -> result.

        Args:
            cycle: the cruising-speed profile.
            record_interval_s: sampling interval of the state-of-charge /
                activity log.
            trace_window: optional ``(start_s, end_s)`` window over which the
                instant-power trace (Fig. 3) is recorded.
            idle_step_s: time step used while the vehicle is stationary.

        Returns:
            An :class:`EmulationResult` with totals, the sampled state log and
            (when requested) the instant-power trace.

        Raises:
            ScheduleError: the node was active on a round whose schedule
                cannot be built (an unsustainable speed).
            ConfigurationError: the temperature left the modelled range.
        """
        if trace_window is not None and trace_window[1] <= trace_window[0]:
            raise EmulationError("trace window end must be after its start")

        self.storage.reset()
        if self.thermal_model is not None:
            self.thermal_model.reset()
        # The caches are intentionally NOT cleared on every run: cached
        # values are pure functions of their quantized keys (both caches
        # evaluate at bin-representative conditions), so entries stay valid
        # across runs and repeated emulations start warm.  The one
        # invalidating event — a change of an input they bake in — is
        # detected by _ensure_caches_fresh.
        table = self.materialize_cycle(
            cycle, idle_step_s, self.thermal_model, record_interval_s
        )
        keys, entries, demand = self.resolve(table, table.temps)
        harvest, traj = integrate(table, demand, table.temps, self.scavenger, self.storage)
        # The mutating element is the scalar reference, not the integrator:
        # leave it holding the trajectory's final charge.
        self.storage._charge_j = traj.final_charge_j

        result = summarize(self.node.name, table, harvest, traj)
        samples = table.sample_units
        result.log = SampleLog.from_columns(
            table.sample_times,
            table.speeds[samples],
            table.temps[samples],
            traj.charge_j[samples] / self.storage.capacity_j,
            traj.active[samples],
        )
        if trace_window is not None:
            result.trace = self._record_trace(table, keys, entries, traj, trace_window)
        return result

    def _record_trace(
        self,
        table: CycleTable,
        keys: RoundKeys,
        entries: Mapping,
        traj: StorageTrajectory,
        trace_window: tuple[float, float],
    ) -> PowerTrace:
        """The instant-power trace of the units overlapping ``trace_window``.

        Successful rounds play their phase list, rounds the node slept
        through are "inactive", brown-out rounds record nothing, and idle
        units record the standstill floor (or "inactive" once the node is
        down).
        """
        window_start, window_end = trace_window
        trace = PowerTrace()
        units = np.flatnonzero((table.starts < window_end) & (table.ends > window_start))
        sleep_power = self._standstill_power_sweep(table.temps[units])
        for i, sleep_w in zip(units.tolist(), sleep_power.tolist()):
            start, end = float(table.starts[i]), float(table.ends[i])
            duration = float(table.durations[i])
            if table.is_round[i]:
                if traj.withdrew[i]:
                    phases = entries[keys.keys[keys.unit_key[i]]][1]
                    _record_trace_revolution(
                        trace, start, end, duration, phases, True, sleep_w
                    )
                elif not traj.attempted[i]:
                    _record_trace_revolution(trace, start, end, duration, (), False, sleep_w)
            else:
                active = bool(traj.active[i])
                trace.append(
                    start,
                    duration,
                    sleep_w if active else 0.0,
                    "standstill" if active else "inactive",
                )
        return trace.windowed(*trace_window) if not trace.is_empty else trace

    def steady_state_trace(
        self,
        speed_kmh: float,
        window_s: float,
        temperature_c: float | None = None,
        start_revolution: int = 0,
    ) -> PowerTrace:
        """Instant-power trace of a constant-speed cruise (the Fig. 3 view).

        Unlike :meth:`emulate`, the storage element is ignored: the node is
        assumed powered throughout, which matches the paper's "limited timing
        window" snapshot of the consumption profile.
        """
        if speed_kmh <= 0.0:
            raise EmulationError("a steady-state trace requires a positive speed")
        if window_s <= 0.0:
            raise EmulationError("window must be positive")
        temperature = (
            temperature_c if temperature_c is not None else self.base_point.temperature_c
        )
        point = self._operating_point(speed_kmh, temperature)
        sleep_power = self.evaluator.standstill_power_w(point)
        period = self.node.wheel.revolution_period_s(speed_kmh)

        # Unlike emulate(), a steady-state trace has a single exact working
        # condition, so revolutions are evaluated at the *requested* speed and
        # temperature (the Fig. 3 phases then sum exactly to the revolution
        # period) and memoized per conditional-phase pattern for this call
        # only — no quantized bin sharing.
        pattern_cache: dict[tuple, tuple[float, tuple[tuple[str, float, float], ...]]] = {}
        trace = PowerTrace()
        time_s = 0.0
        revolution = start_revolution
        while time_s < window_s:
            pattern = self.node.phase_pattern(revolution)
            cached = pattern_cache.get(pattern)
            if cached is None:
                cached = self.evaluator.schedule_energy_compiled(
                    self.node.schedule_for(speed_kmh, revolution), point
                )
                pattern_cache[pattern] = cached
            _, phases = cached
            _record_trace_revolution(
                trace, time_s, time_s + period, period, phases, True, sleep_power
            )
            time_s += period
            revolution += 1
        return trace.windowed(0.0, window_s)
