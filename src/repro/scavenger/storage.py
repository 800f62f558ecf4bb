"""Energy-storage elements buffering the harvested energy.

The scavenger output is bursty (one impulse per revolution) and the node
load is bursty too (acquisition/transmission bursts), so a storage element —
a supercapacitor or a thin-film rechargeable cell — sits between them.  The
long-window emulation charges and discharges this element and declares the
node inactive whenever the state of charge falls below the operating
threshold, which is exactly how the paper identifies operating windows.
"""

from __future__ import annotations

import array
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError, EmulationError

# ---------------------------------------------------------------------------
# Ledger step primitives
#
# The charge/discharge/leak arithmetic is defined ONCE here and shared by
# the mutating :class:`StorageElement` methods (the scalar, authoritative
# reference) and the pure :func:`trajectory` kernel every emulation
# integrates through.  Keeping them single-sourced is what makes the
# emulator's byte-identity contract cheap to maintain — a change to the
# ledger semantics cannot desynchronize the two.
#
# Each primitive takes floats (one ledger) or ``(V,)`` arrays (V ledgers
# stepped together, elementwise).  The array form keeps Python's ``min``
# tie rule — ``min(a, b)`` is ``a`` unless ``b < a`` — as
# ``np.where(b < a, b, a)``: ``np.minimum`` need not pick the same operand
# of two signed zeros.
# ---------------------------------------------------------------------------

#: One ledger's value, or the values of V ledgers.
_Values = float | np.ndarray


def deposit_step(
    charge_j: _Values, stored_j: _Values, capacity_j: _Values
) -> tuple[_Values, _Values]:
    """One deposit: bank ``stored_j`` (already after charging losses).

    Returns ``(new_charge, banked)`` where ``banked`` is clipped to the
    remaining headroom (the conditioning circuit shunts the excess once the
    storage is full).
    """
    headroom = capacity_j - charge_j
    if isinstance(headroom, np.ndarray):
        banked = np.where(headroom < stored_j, headroom, stored_j)
    else:
        banked = min(stored_j, headroom)
    return charge_j + banked, banked


def withdraw_step(charge_j: _Values, required_j: _Values) -> tuple[_Values, bool | np.ndarray]:
    """One withdrawal: drain ``required_j`` (already including discharge losses).

    Returns ``(new_charge, success)``; a shortfall drains the element to zero
    and reports failure — the brown-out semantics of the emulation.
    """
    short = required_j > charge_j
    if isinstance(short, np.ndarray):
        return np.where(short, 0.0, charge_j - required_j), ~short
    if short:
        return 0.0, False
    return charge_j - required_j, True


def leak_step(charge_j: _Values, leak_j: _Values) -> tuple[_Values, _Values]:
    """One self-discharge step; returns ``(new_charge, loss)``."""
    if isinstance(charge_j, np.ndarray):
        loss = np.where(leak_j < charge_j, leak_j, charge_j)
    else:
        loss = min(charge_j, leak_j)
    return charge_j - loss, loss


@dataclass
class StorageElement:
    """A lossy, bounded energy reservoir.

    Attributes:
        capacity_j: usable energy capacity in joules.
        initial_charge_j: energy stored at the start of the emulation.
        charge_efficiency: fraction of the banked energy that ends up stored.
        discharge_efficiency: fraction of the stored energy that reaches the
            load (the complement is lost in the output regulator).
        self_discharge_w: constant self-discharge (leakage) power.
        minimum_operating_j: below this level the node brown-outs and must
            stop operating until the storage recovers above
            ``restart_level_j``.
        restart_level_j: hysteresis threshold for restarting after a
            brown-out; must be at least ``minimum_operating_j``.
        name: label used in reports.
    """

    capacity_j: float = 0.25
    initial_charge_j: float = 0.10
    charge_efficiency: float = 0.95
    discharge_efficiency: float = 0.90
    self_discharge_w: float = 0.3e-6
    minimum_operating_j: float = 0.01
    restart_level_j: float = 0.02
    name: str = "storage"
    _charge_j: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.capacity_j <= 0.0:
            raise ConfigurationError("storage capacity must be positive")
        if not 0.0 <= self.initial_charge_j <= self.capacity_j:
            raise ConfigurationError("initial charge must lie within the capacity")
        for label, value in (
            ("charge_efficiency", self.charge_efficiency),
            ("discharge_efficiency", self.discharge_efficiency),
        ):
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{label} must be in (0, 1]")
        if self.self_discharge_w < 0.0:
            raise ConfigurationError("self-discharge must be non-negative")
        if self.minimum_operating_j < 0.0:
            raise ConfigurationError("minimum operating level must be non-negative")
        if self.restart_level_j < self.minimum_operating_j:
            raise ConfigurationError(
                "restart level must be at least the minimum operating level"
            )
        if self.restart_level_j > self.capacity_j:
            raise ConfigurationError("restart level cannot exceed the capacity")
        self._charge_j = self.initial_charge_j

    # -- state ------------------------------------------------------------------

    @property
    def charge_j(self) -> float:
        """Current stored energy in joules."""
        return self._charge_j

    @property
    def state_of_charge(self) -> float:
        """Stored energy as a fraction of the capacity."""
        return self._charge_j / self.capacity_j

    @property
    def is_depleted(self) -> bool:
        """True when the node must stop operating (below the brown-out level)."""
        return self._charge_j < self.minimum_operating_j

    @property
    def can_restart(self) -> bool:
        """True when a browned-out node may restart (hysteresis threshold)."""
        return self._charge_j >= self.restart_level_j

    def reset(self) -> None:
        """Return the element to its initial charge."""
        self._charge_j = self.initial_charge_j

    # -- energy flow --------------------------------------------------------------

    def deposit(self, energy_j: float) -> float:
        """Bank harvested energy; returns the amount actually stored.

        Charging losses and the capacity ceiling both reduce the stored
        amount; excess energy is discarded (the conditioning circuit shunts
        it once the storage is full).
        """
        if energy_j < 0.0:
            raise EmulationError("cannot deposit negative energy")
        self._charge_j, stored = deposit_step(
            self._charge_j, energy_j * self.charge_efficiency, self.capacity_j
        )
        return stored

    def withdraw(self, energy_j: float) -> bool:
        """Draw load energy; returns False (and drains what it can) on shortfall.

        ``energy_j`` is the energy delivered *to the load*; the element loses
        additionally through the discharge efficiency.
        """
        if energy_j < 0.0:
            raise EmulationError("cannot withdraw negative energy")
        self._charge_j, success = withdraw_step(
            self._charge_j, energy_j / self.discharge_efficiency
        )
        return success

    def leak(self, duration_s: float) -> float:
        """Apply self-discharge over ``duration_s`` seconds; returns the loss."""
        if duration_s < 0.0:
            raise EmulationError("duration must be non-negative")
        self._charge_j, loss = leak_step(
            self._charge_j, self.self_discharge_w * duration_s
        )
        return loss


def scaled_storage(storage: StorageElement, capacity_factor: float) -> StorageElement:
    """A copy of ``storage`` with its capacity scaled by ``capacity_factor``.

    Capacity, initial charge, brown-out threshold and restart level all
    scale together, so every validity invariant (initial charge within
    capacity, restart above minimum) is preserved by construction.  This is
    the fleet runner's manufacturing-tolerance axis on storage capacity.
    """
    if capacity_factor <= 0.0:
        raise ConfigurationError("storage capacity factor must be positive")
    if capacity_factor == 1.0:
        return replace(storage)
    return replace(
        storage,
        capacity_j=storage.capacity_j * capacity_factor,
        initial_charge_j=storage.initial_charge_j * capacity_factor,
        minimum_operating_j=storage.minimum_operating_j * capacity_factor,
        restart_level_j=storage.restart_level_j * capacity_factor,
    )


def supercapacitor(capacity_j: float = 0.25, initial_fraction: float = 0.4) -> StorageElement:
    """A small supercapacitor buffer (fast, efficient, leaky).

    The default 0.25 J corresponds to roughly a 100 uF-class ceramic bank or
    a small supercap at the node operating voltage — enough to ride through a
    few seconds of full activity.
    """
    if not 0.0 <= initial_fraction <= 1.0:
        raise ConfigurationError("initial fraction must be in [0, 1]")
    return StorageElement(
        capacity_j=capacity_j,
        initial_charge_j=capacity_j * initial_fraction,
        charge_efficiency=0.97,
        discharge_efficiency=0.92,
        self_discharge_w=0.8e-6,
        minimum_operating_j=capacity_j * 0.05,
        restart_level_j=capacity_j * 0.10,
        name="supercapacitor",
    )


def thin_film_battery(capacity_j: float = 2.5, initial_fraction: float = 0.5) -> StorageElement:
    """A thin-film rechargeable cell (larger, less leaky, less efficient)."""
    if not 0.0 <= initial_fraction <= 1.0:
        raise ConfigurationError("initial fraction must be in [0, 1]")
    return StorageElement(
        capacity_j=capacity_j,
        initial_charge_j=capacity_j * initial_fraction,
        charge_efficiency=0.90,
        discharge_efficiency=0.88,
        self_discharge_w=0.1e-6,
        minimum_operating_j=capacity_j * 0.04,
        restart_level_j=capacity_j * 0.08,
        name="thin-film battery",
    )


# ---------------------------------------------------------------------------
# Trajectory kernel
# ---------------------------------------------------------------------------

#: Steps the batched ledger accumulates at once before it checks for events
#: (see :func:`_scan_rows`).
WINDOW_STEPS = 64


@dataclass(frozen=True)
class StorageTrajectory:
    """State-of-charge trajectory of one integration window.

    All arrays share the step axis of the inputs; the recorded values are the
    state *after* each step completed (deposit, conditional withdrawal,
    leak), which is exactly what the emulator samples into its log.

    Attributes:
        charge_j: stored energy after each step.
        active: node-active flag after each step (restart hysteresis and
            brown-outs applied).
        banked_j: energy actually stored per step (post-efficiency, clipped
            to the capacity headroom).
        drawn_j: load energy actually delivered per step (the requested load
            where the withdrawal succeeded, zero where the node was inactive
            or browned out).
        attempted: True where the node was active and a withdrawal was
            attempted (whether or not it succeeded).
        withdrew: True where an attempted withdrawal succeeded.
        brownout_events: number of failed withdrawals.
        final_charge_j: stored energy after the last step (``charge_j[-1]``,
            or the initial charge for an empty window).
    """

    charge_j: np.ndarray
    active: np.ndarray
    banked_j: np.ndarray
    drawn_j: np.ndarray
    attempted: np.ndarray
    withdrew: np.ndarray
    brownout_events: int
    final_charge_j: float

    def __len__(self) -> int:
        return len(self.charge_j)


#: The per-step arrays of a trajectory and their dtypes.
_STEP_ARRAYS = {
    "charge_j": float,
    "active": bool,
    "banked_j": float,
    "drawn_j": float,
    "attempted": bool,
    "withdrew": bool,
}


@dataclass(frozen=True)
class TrajectoryBatch:
    """The trajectories of several ledgers integrated in one call.

    The six per-step arrays of :class:`StorageTrajectory` hold the rows back
    to back: row ``v`` spans ``offsets[v]:offsets[v + 1]``, so ``len()`` is
    the number of steps integrated over all rows.  ``brownout_events`` and
    ``final_charge_j`` are per row; :meth:`row` returns one row as a
    :class:`StorageTrajectory` of views.
    """

    charge_j: np.ndarray
    active: np.ndarray
    banked_j: np.ndarray
    drawn_j: np.ndarray
    attempted: np.ndarray
    withdrew: np.ndarray
    offsets: np.ndarray
    brownout_events: np.ndarray
    final_charge_j: np.ndarray

    def __len__(self) -> int:
        return int(self.offsets[-1])

    def row(self, index: int) -> StorageTrajectory:
        """Row ``index`` as a :class:`StorageTrajectory`."""
        part = slice(int(self.offsets[index]), int(self.offsets[index + 1]))
        return StorageTrajectory(
            **{name: getattr(self, name)[part] for name in _STEP_ARRAYS},
            brownout_events=int(self.brownout_events[index]),
            final_charge_j=float(self.final_charge_j[index]),
        )


def _flows(harvest_j, load_j, leak_s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row's per-step ``(harvest, load, leak_s)`` arrays, leak broadcast."""
    harvest = np.asarray(harvest_j, dtype=float)
    load = np.asarray(load_j, dtype=float)
    count = len(harvest)
    if len(load) != count:
        raise EmulationError("harvest and load arrays must have the same length")
    leak = np.asarray(leak_s, dtype=float)
    if leak.shape != (count,):
        leak = np.broadcast_to(leak, (count,))
    return harvest, load, leak


def _check_flows(harvest: np.ndarray, load: np.ndarray, leak: np.ndarray) -> None:
    if np.any(harvest < 0.0):
        raise EmulationError("cannot deposit negative energy")
    if np.any(load < 0.0):
        raise EmulationError("cannot withdraw negative energy")
    if np.any(leak < 0.0):
        raise EmulationError("duration must be non-negative")


def _start(storage: StorageElement, initial_charge_j, initially_active) -> tuple[float, bool]:
    """One row's starting ``(charge, active)``."""
    if initial_charge_j is None:
        # Validated once at element construction; revalidating per call
        # would charge every vehicle of a fleet loop for the same check.
        charge = float(storage.initial_charge_j)
    else:
        charge = float(initial_charge_j)
        if not 0.0 <= charge <= storage.capacity_j:
            raise EmulationError(
                "the initial charge must lie within the storage capacity"
            )
    active = bool(
        charge >= storage.minimum_operating_j if initially_active is None else initially_active
    )
    return charge, active


def _scan_row(storage: StorageElement, flows: tuple, start: tuple) -> StorageTrajectory:
    """One row stepped in a scalar loop, in the order of the mutating
    :class:`StorageElement` replay: restart check, deposit, withdrawal if
    active, leak.

    The per-step conversions are hoisted out of the loop: they are the
    exact expressions the scalar methods apply per call, evaluated
    elementwise.  The loop reads them through memoryviews, which yield
    Python floats (exactly the float64 values) that step faster than numpy
    scalars, and appends to typed arrays.
    """
    harvest, load, leak = flows
    _check_flows(harvest, load, leak)
    stored = harvest * storage.charge_efficiency
    required = load / storage.discharge_efficiency
    leak_amounts = storage.self_discharge_w * leak
    capacity = float(storage.capacity_j)
    restart = float(storage.restart_level_j)
    charge, active = start
    charge_out, banked_out = array.array("d"), array.array("d")
    attempted, withdrew = array.array("B"), array.array("B")
    brownouts = 0
    for stored_j, required_j, leak_j in zip(
        memoryview(stored), memoryview(required), memoryview(leak_amounts)
    ):
        if not active and charge >= restart:
            active = True
        charge, banked = deposit_step(charge, stored_j, capacity)
        banked_out.append(banked)
        attempted.append(active)
        if active:
            charge, active = withdraw_step(charge, required_j)
            if not active:
                brownouts += 1
        withdrew.append(active)
        charge, _loss = leak_step(charge, leak_j)
        charge_out.append(charge)
    withdrew = np.frombuffer(withdrew, dtype=bool)
    return StorageTrajectory(
        charge_j=np.frombuffer(charge_out, dtype=float),
        # A step ends active exactly when its withdrawal succeeded.
        active=withdrew.copy(),
        banked_j=np.frombuffer(banked_out, dtype=float),
        drawn_j=np.where(withdrew, load, 0.0),
        attempted=np.frombuffer(attempted, dtype=bool),
        withdrew=withdrew,
        brownout_events=brownouts,
        final_charge_j=float(charge),
    )


def _scan_rows(storages: list, flows: list, starts: list) -> TrajectoryBatch:
    """All rows stepped together: one loop over steps, numpy across rows.

    Most steps change nothing but the charge: no deposit meets the capacity,
    no withdrawal falls short, no leak empties the element and no
    browned-out row restarts.  Over such a stretch the three primitives of
    every step reduce to ``((charge + stored) - required) - leak``, left to
    right (an inactive row withdraws ``-0.0``, which adds nothing) — exactly
    the partial sums ``np.add.accumulate`` forms over the interleaved flows.
    So the loop goes window by window: it accumulates the next
    :data:`WINDOW_STEPS` steps of every row at once, keeps them up to the
    first step on which any row meets one of those events, and steps the
    rest of the window through the primitives.

    Rows shorter than the longest are padded with zero flows; the padding
    never reaches the result, which keeps each row's real prefix only.
    """
    rows = len(storages)
    lengths = np.array([len(harvest) for harvest, _, _ in flows], dtype=np.intp)
    steps = int(lengths.max(initial=0))
    padded = np.zeros((3, rows, steps))
    for v, row_flows in enumerate(flows):
        padded[:, v, : lengths[v]] = row_flows
    harvest, load, leak = padded
    _check_flows(harvest, load, leak)

    def column(name: str) -> np.ndarray:
        return np.array([getattr(element, name) for element in storages], dtype=float)

    stored = harvest * column("charge_efficiency")[:, None]
    required = load / column("discharge_efficiency")[:, None]
    leak = column("self_discharge_w")[:, None] * leak
    capacity = column("capacity_j")
    restart = column("restart_level_j")
    initial = np.array([charge for charge, _ in starts], dtype=float)
    active = np.array([state for _, state in starts], dtype=bool)
    real = np.arange(steps) < lengths[:, None]

    # (V, T) buffers, so each row's steps end up contiguous.
    charge_out = np.empty((rows, steps))
    banked_out = np.empty((rows, steps))
    attempted = np.empty((rows, steps), dtype=bool)
    withdrew = np.empty((rows, steps), dtype=bool)
    charge = initial
    padded_from = int(lengths.min(initial=steps))
    for start in range(0, steps, WINDOW_STEPS):
        window = slice(start, min(start + WINDOW_STEPS, steps))
        quiet, charges = _quiet_steps(
            charge,
            active,
            capacity,
            restart,
            stored[:, window],
            required[:, window],
            leak[:, window],
            real[:, window] if window.stop > padded_from else None,
        )
        if quiet:
            done = slice(start, start + quiet)
            charge_out[:, done] = charges
            banked_out[:, done] = stored[:, done]
            attempted[:, done] = active[:, None]
            withdrew[:, done] = active[:, None]
            charge = charges[:, -1]
        for i in range(start + quiet, window.stop):
            # ``active`` is always a view of the step's flag column: the
            # restart check writes the attempted one, the withdrawal the
            # withdrew one.
            active = np.logical_or(active, charge >= restart, out=attempted[:, i])
            charge, banked_out[:, i] = deposit_step(charge, stored[:, i], capacity)
            drained, success = withdraw_step(charge, required[:, i])
            charge = np.where(active, drained, charge)
            active = np.logical_and(active, success, out=withdrew[:, i])
            charge, _loss = leak_step(charge, leak[:, i])
            charge_out[:, i] = charge

    withdrew_rows = withdrew[real]
    attempted_rows = attempted[real]
    charge_rows = charge_out[real]
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    failed = np.concatenate(([0], np.cumsum(attempted_rows & ~withdrew_rows)))
    final = initial.copy()
    ends = lengths > 0
    final[ends] = charge_rows[offsets[1:][ends] - 1]
    return TrajectoryBatch(
        charge_j=charge_rows,
        # A step ends active exactly when its withdrawal succeeded.
        active=withdrew_rows.copy(),
        banked_j=banked_out[real],
        drawn_j=np.where(withdrew_rows, load[real], 0.0),
        attempted=attempted_rows,
        withdrew=withdrew_rows,
        offsets=offsets,
        brownout_events=failed[offsets[1:]] - failed[offsets[:-1]],
        final_charge_j=final,
    )


def _quiet_steps(charge, active, capacity, restart, stored, required, leak, real):
    """How many leading steps of a window are free of events for every row.

    Returns ``(count, charges)`` with the ``(V, count)`` charges after each
    of those steps.  Each row's flows are accumulated from its ``charge``;
    an event is a deposit meeting the capacity, an active row's withdrawal
    falling short, an inactive row reaching its restart level, or a leak
    emptying the element (any step the sums would get wrong).  ``real``
    masks the padding steps of a window that has some; they raise no events.
    """
    width = stored.shape[1]
    flows = np.empty((len(charge), 3 * width + 1))
    flows[:, 0] = charge
    flows[:, 1::3] = stored
    np.negative(required, out=flows[:, 2::3])
    if not active.all():
        flows[~active, 2::3] = -0.0
    np.negative(leak, out=flows[:, 3::3])
    with np.errstate(invalid="ignore", over="ignore"):
        sums = np.add.accumulate(flows, axis=1)
        before, deposited, withdrawn = sums[:, 0:-1:3], sums[:, 1::3], sums[:, 2::3]
        events = (capacity[:, None] - before) < stored
        events |= np.where(
            active[:, None], required > deposited, before >= restart[:, None]
        )
        # A leak equal to the charge empties it too: the primitive then takes
        # the charge, not the leak, which differs in the sign of a zero.
        events |= ~(leak < withdrawn)
    if real is not None:
        events &= real
    hits = np.flatnonzero(events.any(axis=0))
    count = int(hits[0]) if hits.size else width
    return count, sums[:, 3 : 3 * count + 1 : 3]


def trajectory(
    storage,
    harvest_j,
    load_j,
    leak_s,
    initial_charge_j=None,
    initially_active=None,
):
    """Pure, array-based replay of the storage ledger over N steps.

    The vectorized counterpart of stepping a :class:`StorageElement` through
    ``deposit(harvest_j[i])`` / ``withdraw(load_j[i])`` / ``leak(leak_s[i])``
    with the emulator's restart-threshold hysteresis: at each step a
    browned-out node restarts when the charge has recovered to
    ``restart_level_j``, an active node draws its load (a shortfall drains
    the element and counts one brown-out), and an inactive node draws
    nothing.  ``storage`` provides the parameters only — its state is
    neither read (beyond defaults) nor mutated.

    The per-step efficiencies, leakage and clipping are applied through the
    same module-level step primitives the mutating methods use, in the same
    operation order, so the trajectory is bitwise identical to the scalar
    replay (property-tested).

    **Batches.**  Passing a sequence of V storage elements integrates V
    independent ledgers in one call: every other argument is then a
    sequence of V per-row values (rows may differ in length; ``leak_s`` may
    also be one scalar for all), and the result is a
    :class:`TrajectoryBatch`.  A batch runs one loop over the steps with
    numpy across the rows (stretches on which no row clips, browns out,
    restarts or empties its leak are summed by one ``np.add.accumulate``,
    which forms exactly the values the primitives would); each row equals
    its single-element call bit for bit.

    Args:
        storage: parameter source (capacity, efficiencies, thresholds), or
            a sequence of them.
        harvest_j: per-step harvested energy at the storage input, ``(N,)``.
        load_j: per-step load energy the node *wants* delivered, ``(N,)``;
            only drawn while the node is active.
        leak_s: per-step self-discharge duration in seconds, ``(N,)`` or a
            scalar broadcast over the window.
        initial_charge_j: starting charge; defaults to the element's
            ``initial_charge_j``.  Only an *explicitly passed* value is
            range-checked here — the default is already validated by
            :meth:`StorageElement.__post_init__`, so tight fleet loops that
            replay the element's own initial charge skip the redundant
            check by passing ``None``.
        initially_active: starting activity; defaults to the brown-out test
            on the starting charge (``charge >= minimum_operating_j``).

    Returns:
        A :class:`StorageTrajectory` with per-step charge/activity/flows (a
        :class:`TrajectoryBatch` for a sequence of elements).
    """
    if isinstance(storage, StorageElement):
        return _scan_row(
            storage,
            _flows(harvest_j, load_j, leak_s),
            _start(storage, initial_charge_j, initially_active),
        )
    storages = list(storage)
    rows = len(storages)
    per_row = (
        list(harvest_j),
        list(load_j),
        [leak_s] * rows if np.isscalar(leak_s) else list(leak_s),
        [None] * rows if initial_charge_j is None else list(initial_charge_j),
        [None] * rows if initially_active is None else list(initially_active),
    )
    if any(len(values) != rows for values in per_row):
        raise EmulationError("a trajectory batch needs one value per storage element")
    harvests, loads, leaks, charges, actives = per_row
    flows = [_flows(*row) for row in zip(harvests, loads, leaks)]
    starts = [_start(*row) for row in zip(storages, charges, actives)]
    return _scan_rows(storages, flows, starts)
