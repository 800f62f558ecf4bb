"""Tests for the per-wheel-round energy evaluator."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.conditions.operating_point import OperatingPoint
from repro.core.evaluator import EnergyEvaluator
from repro.errors import AnalysisError


@pytest.fixture
def evaluator(node, database):
    return EnergyEvaluator(node, database)


class TestRevolutionReport:
    def test_total_is_sum_of_blocks(self, evaluator, point):
        report = evaluator.revolution_report(point)
        assert report.total_energy_j == pytest.approx(
            sum(b.total_j for b in report.blocks)
        )

    def test_total_is_dynamic_plus_static(self, evaluator, point):
        report = evaluator.revolution_report(point)
        assert report.total_energy_j == pytest.approx(
            report.dynamic_energy_j + report.static_energy_j
        )

    def test_phase_energies_sum_to_total(self, evaluator, point):
        report = evaluator.revolution_report(point)
        assert sum(p.energy_j for p in report.phases) == pytest.approx(
            report.total_energy_j
        )

    def test_phase_durations_cover_the_period(self, evaluator, point):
        report = evaluator.revolution_report(point)
        assert sum(p.duration_s for p in report.phases) == pytest.approx(report.period_s)

    def test_energy_of_block_lookup(self, evaluator, point):
        report = evaluator.revolution_report(point)
        assert report.energy_of("rf_tx").block == "rf_tx"

    def test_energy_of_missing_block_raises(self, evaluator, point):
        with pytest.raises(AnalysisError):
            evaluator.revolution_report(point).energy_of("gpu")

    def test_transmitting_revolution_costs_more(self, evaluator, point, node):
        tx_node = node.with_radio(node.radio.__class__(tx_interval_revs=4))
        tx_evaluator = EnergyEvaluator(tx_node, evaluator.database)
        with_tx = tx_evaluator.revolution_report(point, revolution_index=0)
        without_tx = tx_evaluator.revolution_report(point, revolution_index=1)
        assert with_tx.total_energy_j > without_tx.total_energy_j

    def test_dominant_blocks_ordering(self, evaluator, point):
        dominant = evaluator.revolution_report(point).dominant_blocks(3)
        assert dominant[0].total_j >= dominant[1].total_j >= dominant[2].total_j

    def test_radio_dominates_transmitting_revolution(self, evaluator, point):
        report = evaluator.revolution_report(point, revolution_index=0)
        assert "rf_tx" in {b.block for b in report.dominant_blocks(3)}

    def test_as_rows_shares_sum_to_100_percent(self, evaluator, point):
        rows = evaluator.revolution_report(point).as_rows()
        assert sum(row["share_pct"] for row in rows) == pytest.approx(100.0)


class TestAverageReport:
    def test_average_matches_explicit_enumeration(self, evaluator, point, node):
        """The analytic average equals the mean of explicit schedules over a
        hyperperiod of the conditional phases."""
        hyperperiod = (
            node.radio.tx_interval_revs * node.sensors.slow_refresh_interval_revs
        )
        explicit = [
            evaluator.revolution_report(point, revolution_index=i).total_energy_j
            for i in range(1, hyperperiod + 1)
        ]
        mean_explicit = sum(explicit) / len(explicit)
        # The NVM write happens only every 256 revolutions; its contribution
        # to the average is small but nonzero, hence the loose tolerance.
        assert evaluator.energy_per_revolution_j(point) == pytest.approx(
            mean_explicit, rel=0.02
        )

    def test_average_of_every_revolution_transmitter(self, evaluator, point):
        average = evaluator.average_report(point)
        single = evaluator.revolution_report(point, revolution_index=1)
        # With per-revolution TX the only conditional extras are slow sensors
        # and NVM, so the average sits slightly above a plain revolution.
        assert average.total_energy_j >= single.total_energy_j

    def test_average_report_has_no_phase_breakdown(self, evaluator, point):
        assert evaluator.average_report(point).phases == ()

    def test_requires_motion(self, evaluator):
        with pytest.raises(AnalysisError):
            evaluator.average_report(OperatingPoint(speed_kmh=0.0))

    def test_energy_decreases_with_speed(self, evaluator):
        slow = evaluator.energy_per_revolution_j(OperatingPoint(speed_kmh=20.0))
        fast = evaluator.energy_per_revolution_j(OperatingPoint(speed_kmh=150.0))
        assert fast < slow

    def test_average_power_increases_with_speed(self, evaluator):
        slow = evaluator.average_power_w(OperatingPoint(speed_kmh=20.0))
        fast = evaluator.average_power_w(OperatingPoint(speed_kmh=150.0))
        assert fast > slow

    def test_hot_condition_costs_more(self, evaluator, point):
        hot = evaluator.energy_per_revolution_j(point.at_temperature(125.0))
        assert hot > evaluator.energy_per_revolution_j(point)

    def test_energy_magnitude_is_tens_of_microjoules(self, evaluator, point):
        energy = evaluator.energy_per_revolution_j(point)
        assert 10e-6 <= energy <= 500e-6


class TestDerivedFigures:
    def test_standstill_power_is_microwatt_class(self, evaluator, point):
        floor = evaluator.standstill_power_w(point)
        assert 1e-6 <= floor <= 100e-6

    def test_standstill_power_below_average_moving_power(self, evaluator, point):
        assert evaluator.standstill_power_w(point) < evaluator.average_power_w(point)

    def test_load_current_is_positive_and_small(self, evaluator, point):
        current = evaluator.load_current_a(point)
        assert 0.0 < current < 10e-3

    def test_load_current_uses_requested_rail(self, evaluator, point):
        assert evaluator.load_current_a(point, rail_voltage_v=3.0) < evaluator.load_current_a(
            point, rail_voltage_v=1.2
        )

    def test_load_current_rejects_bad_voltage(self, evaluator, point):
        with pytest.raises(AnalysisError):
            evaluator.load_current_a(point, rail_voltage_v=0.0)

    def test_duty_cycles_report_covers_all_blocks(self, evaluator, point, node):
        report = evaluator.duty_cycles(point)
        assert set(report.blocks) == set(node.block_names())


#: Holds the census-timing lock in one thread while the main thread runs a
#: 4-point ``balance`` study on a 2-process pool, so the pool forks while
#: the lock is held.
_HELD_LOCK_STUDY = """
import threading
import time

from repro.core import evaluator
from repro.scenario.spec import ScenarioSpec
from repro.scenario.study import Study

held = threading.Event()


def hold():
    with evaluator._CENSUS_TIMING_LOCK:
        held.set()
        time.sleep(1.0)


threading.Thread(target=hold).start()
held.wait()
spec = ScenarioSpec(name="fork-lock")
axes = {"temperature": [-20.0, 0.0, 25.0, 85.0]}
result = Study(spec, axes=axes).run("balance", workers=2)
assert result.metadata["backend"] == "process", result.metadata["backend"]
assert result.rows == Study(spec, axes=axes).run("balance").rows
print("ok")
"""


class TestForkSafety:
    def test_forked_workers_never_inherit_a_held_census_lock(self):
        """A pool forked while another thread holds the census lock must not
        hang: the fork hooks hold the lock across the fork, so every child
        starts with it free."""
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        # A new session, so a hung run's orphan workers die with the group.
        process = subprocess.Popen(
            [sys.executable, "-c", _HELD_LOCK_STUDY],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("the study hung: a forked worker inherited the held census lock")
        assert process.returncode == 0, err
        assert out.strip() == "ok"
