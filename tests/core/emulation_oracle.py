"""A scalar, step-by-step reference of ``NodeEmulator.emulate()``.

Written from the pieces the repo keeps as oracles — a mutating
:class:`~repro.scavenger.storage.StorageElement` stepped through
deposit/withdraw/leak, per-round energies from ``schedule_energy_compiled``
at each key's bin-representative conditions, and the harvest from
``energy_sweep_j`` — so ``emulate()`` can be checked against it byte for
byte (the emulator tests and ``benchmarks/bench_emulate.py`` both do).
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from repro.core.emulator import EmulationResult, SampleLog
from repro.core.quantize import (
    speed_bin,
    speed_bin_center_kmh,
    speed_bin_upper_edge_kmh,
    temperature_bin,
    temperature_bin_center_c,
)
from repro.core.trace import PowerTrace
from repro.errors import ScheduleError
from repro.timing.wheel_round import WheelRound, iter_wheel_rounds


def _record_revolution(trace, start, end, period, phases, active, sleep_w):
    if not active:
        trace.append(start, period, 0.0, "inactive")
        return
    cursor = start
    for label, duration, power in phases:
        duration = min(duration, end - cursor)
        if duration <= 0.0:
            break
        trace.append(cursor, duration, power, label)
        cursor += duration
    if cursor < end - 1e-12:
        trace.append(cursor, end - cursor, sleep_w, "sleep")


def oracle(emulator, cycle, record_interval_s=1.0, trace_window=None, idle_step_s=1.0):
    """The scalar reference of ``emulator.emulate(cycle, ...)``.

    Returns ``(result, storage)``: the expected :class:`EmulationResult` and
    the mutating :class:`StorageElement` after the replay.
    """
    node, evaluator, base = emulator.node, emulator.evaluator, emulator.base_point
    storage = dataclasses.replace(emulator.storage)
    thermal = copy.deepcopy(emulator.thermal_model)
    if thermal is not None:
        thermal.reset()
    units = list(iter_wheel_rounds(cycle, node.wheel, idle_step_s=idle_step_s))
    speeds = [unit.speed_kmh for unit in units if isinstance(unit, WheelRound)]
    harvest_iter = iter(emulator.scavenger.energy_sweep_j(np.array(speeds)))

    feasibility = {}

    def feasible(speed, index):
        key = (speed, node.phase_pattern(index))
        if key not in feasibility:
            try:
                node.schedule_for(speed, index)
                feasibility[key] = True
            except ScheduleError:
                feasibility[key] = False
        return feasibility[key]

    energies = {}

    def revolution(unit, temperature):
        # Bin-keyed when both the bin's upper edge and its center are
        # feasible; keyed on the exact speed otherwise.
        bin_index = speed_bin(unit.speed_kmh)
        speed = unit.speed_kmh
        if (
            bin_index > 0
            and feasible(speed_bin_upper_edge_kmh(bin_index), unit.index)
            and feasible(speed_bin_center_kmh(bin_index), unit.index)
        ):
            speed = speed_bin_center_kmh(bin_index)
        center = temperature_bin_center_c(temperature_bin(temperature))
        key = (speed, center, node.phase_pattern(unit.index))
        if key not in energies:
            point = base.at_speed(speed).at_temperature(center)
            energies[key] = evaluator.schedule_energy_compiled(
                node.schedule_for(speed, unit.index), point
            )
        return energies[key]

    def standstill(temperature):
        center = temperature_bin_center_c(temperature_bin(temperature))
        return evaluator.standstill_power_w(base.at_speed(0.0).at_temperature(center))

    columns = {name: [] for name in ("round", "duration", "harvest", "banked", "drawn", "withdrew")}
    # time, speed, temperature, state of charge, active — one row per sample.
    log_columns: tuple[list, ...] = ([], [], [], [], [])
    trace = PowerTrace() if trace_window is not None else None
    result = EmulationResult(node.name, cycle.name, cycle.duration_s)
    active = not storage.is_depleted
    brownouts = 0
    next_record_s = 0.0
    temperature = base.temperature_c
    for unit in units:
        is_round = isinstance(unit, WheelRound)
        duration = unit.period_s if is_round else unit.duration_s
        speed = unit.speed_kmh if is_round else 0.0
        if thermal is not None:
            temperature = thermal.advance(duration, speed / 3.6)
        if not active and storage.can_restart:
            active = True
        harvest = next(harvest_iter) if is_round else 0.0
        banked = storage.deposit(harvest) if is_round else 0.0
        attempted = withdrew = False
        drawn = 0.0
        phases = ()
        if active:
            attempted = True
            if is_round:
                energy, phases = revolution(unit, temperature)
            else:
                energy = standstill(temperature) * duration
            load = node.pmu.referred_to_storage(energy)
            if storage.withdraw(load):
                withdrew, drawn = True, load
            else:
                active = False
                brownouts += 1
        storage.leak(duration)
        for name, value in zip(columns, (is_round, duration, harvest, banked, drawn, withdrew)):
            columns[name].append(value)
        while next_record_s <= unit.end_s:
            sample = (
                next_record_s,
                speed,
                temperature,
                storage.charge_j / storage.capacity_j,
                active,
            )
            for column, value in zip(log_columns, sample):
                column.append(value)
            next_record_s += record_interval_s
        if trace is not None and unit.start_s < trace_window[1] and unit.end_s > trace_window[0]:
            sleep_w = standstill(temperature)
            if not is_round:
                trace.append(
                    unit.start_s,
                    duration,
                    sleep_w if active else 0.0,
                    "standstill" if active else "inactive",
                )
            elif withdrew or not attempted:
                _record_revolution(
                    trace, unit.start_s, unit.end_s, duration, phases, withdrew, sleep_w
                )

    is_round = np.array(columns["round"], dtype=bool)
    durations = np.array(columns["duration"], dtype=float)
    banked = np.array(columns["banked"], dtype=float)
    withdrew = np.array(columns["withdrew"], dtype=bool)
    result.revolutions = int(is_round.sum())
    result.moving_time_s = float(durations[is_round].sum())
    result.harvested_j = float(banked.sum())
    result.discarded_j = float(
        np.maximum(0.0, np.array(columns["harvest"], dtype=float) - banked).sum()
    )
    result.consumed_j = float(np.array(columns["drawn"], dtype=float).sum())
    result.active_revolutions = int((is_round & withdrew).sum())
    result.active_time_s = float(durations[withdrew].sum())
    result.brownout_events = brownouts
    result.log = SampleLog.from_columns(*log_columns)
    if trace is not None:
        result.trace = trace.windowed(*trace_window) if not trace.is_empty else trace
    return result, storage
