"""The batched storage ledger against the mutating ``StorageElement``.

``trajectory()`` integrates a sequence of storage elements in one call: it
steps all rows together with numpy (accumulating event-free windows of
:data:`~repro.scavenger.storage.WINDOW_STEPS` steps at once).  Every row
must be the step-by-step replay of its own element bit for bit — charges,
flags, flows, brown-out count and final charge — whatever the other rows of
the batch do.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmulationError
from repro.scavenger.storage import (
    WINDOW_STEPS,
    StorageElement,
    TrajectoryBatch,
    trajectory,
)

#: How a row's harvest and load are drawn: quiet rows (small flows around a
#: mid charge) keep whole windows free of events; the others clip at the
#: capacity, brown out, restart and drain to zero.
REGIMES = ("quiet", "clipping", "draining", "zero-harvest", "inf-load", "mixed")

#: Starting points that sit exactly on a threshold, and signed zeros: an
#: empty (``-0.0``) or full element fed ``-0.0`` flows, where a ``min``
#: that picks the other operand of a tie shows in the sign bit.
EDGES = ("none", "full", "at-restart", "required-equals-charge", "signed-zeros")


@st.composite
def ledger_rows(draw, rows: int):
    """One batch: per row a storage element, its flows and start state."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(rows):
        regime = draw(st.sampled_from(REGIMES))
        edge = draw(st.sampled_from(EDGES))
        count = draw(st.integers(min_value=0, max_value=2 * WINDOW_STEPS + 17))
        capacity = draw(st.floats(min_value=0.01, max_value=1.0))
        minimum = capacity * draw(st.floats(min_value=0.0, max_value=0.3))
        restart = minimum + (capacity - minimum) * draw(st.floats(min_value=0.0, max_value=0.5))
        discharge = 1.0 if edge == "required-equals-charge" else draw(
            st.floats(min_value=0.5, max_value=1.0)
        )
        element = StorageElement(
            capacity_j=capacity,
            initial_charge_j=0.0,
            charge_efficiency=draw(st.floats(min_value=0.5, max_value=1.0)),
            discharge_efficiency=discharge,
            self_discharge_w=draw(st.sampled_from([0.0, 1e-6, 1e-3])),
            minimum_operating_j=minimum,
            restart_level_j=restart,
        )
        step = capacity * 1e-3
        if regime == "quiet":
            harvest = rng.uniform(0.0, step, count)
            load = rng.uniform(0.0, step, count)
        elif regime == "clipping":
            harvest = rng.uniform(0.0, capacity, count)
            load = rng.uniform(0.0, step, count)
        elif regime == "draining":
            harvest = rng.uniform(0.0, step, count)
            load = rng.uniform(0.0, capacity * 0.3, count)
        elif regime == "zero-harvest":
            harvest = np.zeros(count)
            load = rng.uniform(0.0, step, count)
        elif regime == "inf-load":
            harvest = rng.uniform(0.0, capacity * 0.2, count)
            load = np.where(rng.uniform(size=count) < 0.2, np.inf, rng.uniform(0.0, step, count))
        else:
            scale = rng.choice([0.0, step, capacity], size=count)
            harvest = rng.uniform(0.0, 1.0, count) * scale
            load = rng.uniform(0.0, 1.0, count) * rng.choice([0.0, step, capacity], size=count)
        leak_s = rng.choice([0.0, 1.0, 100.0], size=count)
        initial = capacity * draw(st.floats(min_value=0.0, max_value=1.0))
        initially_active = None
        if edge == "full":
            initial = capacity
        elif edge == "at-restart":
            initial, initially_active = restart, False
        elif edge == "required-equals-charge" and count:
            # No deposit on the first step, so the withdrawal asks for
            # exactly the starting charge (discharge efficiency 1).
            harvest[0], load[0] = 0.0, initial
        elif edge == "signed-zeros":
            initial = draw(st.sampled_from([-0.0, capacity]))
            for flows in (harvest, load, leak_s):
                flows[rng.uniform(size=count) < 0.5] = -0.0
        batch.append((element, harvest, load, leak_s, initial, initially_active))
    return batch


def replay(element, harvest, load, leak_s, initial, initially_active):
    """The step-by-step reference: the emulator's loop over the mutating element."""
    element = StorageElement(
        capacity_j=element.capacity_j,
        initial_charge_j=initial,
        charge_efficiency=element.charge_efficiency,
        discharge_efficiency=element.discharge_efficiency,
        self_discharge_w=element.self_discharge_w,
        minimum_operating_j=element.minimum_operating_j,
        restart_level_j=element.restart_level_j,
    )
    active = not element.is_depleted if initially_active is None else initially_active
    names = ("charge_j", "active", "banked_j", "drawn_j", "attempted", "withdrew")
    columns = {name: [] for name in names}
    brownouts = 0
    for harvest_j, load_j, duration_s in zip(harvest.tolist(), load.tolist(), leak_s.tolist()):
        if not active and element.can_restart:
            active = True
        columns["banked_j"].append(element.deposit(harvest_j))
        columns["attempted"].append(active)
        success = active and element.withdraw(load_j)
        if active and not success:
            active = False
            brownouts += 1
        columns["withdrew"].append(success)
        columns["drawn_j"].append(load_j if success else 0.0)
        element.leak(duration_s)
        columns["charge_j"].append(element.charge_j)
        columns["active"].append(active)
    arrays = {
        name: np.array(values, dtype=bool if name in ("active", "attempted", "withdrew") else float)
        for name, values in columns.items()
    }
    return arrays, brownouts, element.charge_j


def assert_batch_replays(batch_rows):
    batch = trajectory(
        [row[0] for row in batch_rows],
        [row[1] for row in batch_rows],
        [row[2] for row in batch_rows],
        [row[3] for row in batch_rows],
        initial_charge_j=[row[4] for row in batch_rows],
        initially_active=[row[5] for row in batch_rows],
    )
    assert isinstance(batch, TrajectoryBatch)
    assert batch.final_charge_j.shape == (len(batch_rows),)
    assert len(batch) == sum(len(row[1]) for row in batch_rows)
    for index, row in enumerate(batch_rows):
        arrays, brownouts, final = replay(*row)
        got = batch.row(index)
        for name, expected in arrays.items():
            value = getattr(got, name)
            assert value.dtype == expected.dtype, (index, name)
            # tobytes: signed zeros must match too.
            assert value.tobytes() == expected.tobytes(), (index, name)
        assert got.brownout_events == brownouts, index
        assert np.float64(got.final_charge_j).tobytes() == np.float64(final).tobytes(), index


class TestBatchEqualsElementReplay:
    @given(data=st.data(), rows=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_every_row_replays_its_element_bit_for_bit(self, data, rows):
        assert_batch_replays(data.draw(ledger_rows(rows)))

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_quiet_windows_and_events_in_one_wide_batch(self, data):
        # Rows long enough for several windows, each quiet or not.
        assert_batch_replays(data.draw(ledger_rows(16)))


class TestBatchCalls:
    def test_single_element_call_returns_one_trajectory(self):
        element = StorageElement()
        single = trajectory(element, [1e-4] * 5, [2e-4] * 5, 1.0)
        row = trajectory([element], [[1e-4] * 5], [[2e-4] * 5], 1.0).row(0)
        for name in ("charge_j", "active", "banked_j", "drawn_j", "attempted", "withdrew"):
            assert getattr(single, name).tobytes() == getattr(row, name).tobytes()
        assert (single.brownout_events, single.final_charge_j) == (
            row.brownout_events,
            row.final_charge_j,
        )

    def test_empty_batch(self):
        batch = trajectory([], [], [], 1.0)
        assert batch.final_charge_j.shape == (0,) and len(batch) == 0

    def test_one_value_per_row_required(self):
        element = StorageElement()
        with pytest.raises(EmulationError):
            trajectory([element, element], [[1e-4]], [[1e-4], [1e-4]], 1.0)

    def test_a_bad_row_is_rejected(self):
        element = StorageElement()
        harvest = [[1e-4]] * 3 + [[-1e-4]]
        with pytest.raises(EmulationError, match="negative"):
            trajectory([element] * 4, harvest, [[1e-4]] * 4, 1.0)
