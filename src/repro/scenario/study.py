"""The :class:`Study` runner — grid-expand a scenario and run any analysis kind.

A study is one :class:`~repro.scenario.spec.ScenarioSpec` plus *axis
overrides*: lists of values per grid axis, e.g. ``temperature=[-20, 25, 85]``
and ``architecture=["baseline", "optimized"]``.  The runner expands the cross
product into a scenario grid and executes one analysis kind over every grid
point:

``balance``
    Break-even (minimum activation) speed plus the energy balance at the
    scenario's operating point (the Fig. 2 figures).
``report``
    Average per-wheel-round energy split (dynamic/static), average power and
    the stand-still floor.
``optimize``
    Duty-cycle-driven technique selection and re-estimation (energy before /
    after, saving).
``emulate``
    Long-window emulation over the scenario's drive cycle (operating windows,
    harvested/consumed energy, brown-outs).
``explore``
    Design-space snapshot: break-even speed and the 60 km/h energy snapshot,
    matching :mod:`repro.optimization.exploration`.
``montecarlo``
    Seeded Monte-Carlo workload sweep: N (speed, temperature, activity,
    phase-pattern) samples around the scenario's operating point, evaluated
    through the workload-vectorized
    :meth:`~repro.core.evaluator.EnergyEvaluator.schedule_energy_sweep`
    (see :mod:`repro.scenario.montecarlo`).

Grid points that share an architecture, workload and power database also
share one :class:`~repro.core.evaluator.EnergyEvaluator` — and therefore one
compiled power table — so a temperature sweep over the PR-1 batch path pays
the database re-targeting and table compilation once.  The sharing is
observable through ``StudyResult.metadata['evaluator_builds']`` /
``['evaluator_cache_hits']``, which the regression tests pin down.

``Study.run(workers=N)`` delegates the scheduling to the shared
:class:`~repro.scenario.engine.ChunkedEngine` (the same engine the fleet
runner rides): grid points stream through a chunked process pool.  Each
grid point's spec travels to the worker as its JSON-round-trippable
document and is rebuilt there; random streams are derived per scenario
(never from execution order) and rows keep the sequential order, so a
parallel run returns rows identical, order and values, to the sequential
one.  Sequential and worker rows come from the same per-kind row
functions.  Per-run wall time and per-row timings land in
``StudyResult.metadata['wall_time_s']`` / ``['row_wall_times_s']`` (and the
executed path in ``['backend']``) so performance regressions are observable
from the result alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.balance import EnergyBalanceAnalysis
from repro.core.emulator import NodeEmulator
from repro.errors import ConfigError
from repro.optimization.apply import apply_assignments
from repro.optimization.selection import select_techniques
from repro.reporting.export import rows_to_csv, rows_to_json
from repro.reporting.tables import render_table
from repro.scenario.engine import ChunkedEngine
from repro.scenario.montecarlo import MonteCarloConfig, summarize_energies
from repro.scenario.spec import WORKER_COMPONENTS, ComponentCache, ComponentRef, ScenarioSpec

#: Analysis kinds the runner understands.
STUDY_KINDS = ("balance", "report", "optimize", "emulate", "explore", "montecarlo")

#: Default speed grid of the balance/explore kinds (km/h), Fig. 2 range.
DEFAULT_BREAK_EVEN_RANGE = (5.0, 250.0)


def _axis_display(value: object) -> object:
    """How an axis value appears in result rows (components by their name)."""
    if isinstance(value, ComponentRef):
        return value.describe()
    return value


@dataclass(frozen=True)
class StudyResult:
    """Uniform result of one study run: per-scenario rows plus metadata.

    Attributes:
        kind: the analysis kind that produced the rows.
        axes: the grid-axis names, in expansion order.
        rows: one mapping per grid point; every row shares the same columns
            (scenario label, axis values, then the kind's figures), so the
            whole result exports directly through
            :mod:`repro.reporting.export`.
        metadata: run bookkeeping — grid shape, evaluator build/cache-hit
            counters, the base scenario document.
    """

    kind: str
    axes: tuple[str, ...]
    rows: tuple[Mapping[str, object], ...]
    metadata: dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def as_rows(self) -> list[dict[str, object]]:
        """The rows as plain dicts (for tables and exports)."""
        return [dict(row) for row in self.rows]

    def column(self, name: str) -> list[object]:
        """One column across every row."""
        if self.rows and name not in self.rows[0]:
            raise ConfigError(
                f"study result has no column {name!r}; "
                f"columns: {list(self.rows[0])}"
            )
        return [row[name] for row in self.rows]

    def as_table(self, title: str | None = None, float_digits: int = 2) -> str:
        """Plain-text table of the rows (see :func:`render_table`)."""
        return render_table(
            self.as_rows(),
            title=title or f"Study — {self.kind}",
            float_digits=float_digits,
        )

    def to_csv(self, path: str | Path) -> Path:
        """Export the rows as CSV through :mod:`repro.reporting.export`."""
        return rows_to_csv(self.as_rows(), path)

    def to_json(self, path: str | Path) -> Path:
        """Export the rows as JSON through :mod:`repro.reporting.export`."""
        return rows_to_json(self.as_rows(), path)


class Study:
    """Expands a spec plus axis overrides into a grid and runs an analysis.

    Args:
        spec: the base scenario every grid point derives from.
        axes: mapping of axis name (see
            :meth:`ScenarioSpec.axis_names`) to the list of values to sweep.
            Omitted or empty means a single-scenario study.

    Example::

        study = Study(spec, axes={
            "temperature": [-20.0, 25.0, 85.0],
            "architecture": ["baseline", "optimized"],
        })
        result = study.run("balance")
        result.to_csv("grid.csv")
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        axes: Mapping[str, Sequence[object]] | None = None,
        montecarlo: MonteCarloConfig | None = None,
        evaluator_cache=None,
    ) -> None:
        if not isinstance(spec, ScenarioSpec):
            raise ConfigError(f"a study needs a ScenarioSpec, got {type(spec).__name__}")
        if montecarlo is not None and not isinstance(montecarlo, MonteCarloConfig):
            raise ConfigError(
                f"montecarlo must be a MonteCarloConfig, got {type(montecarlo).__name__}"
            )
        self.spec = spec
        self.montecarlo = montecarlo or MonteCarloConfig()
        normalized: dict[str, list[object]] = {}
        canonical_fields: dict[str, str] = {}
        for axis, values in (axes or {}).items():
            if axis not in ScenarioSpec.axis_names():
                raise ConfigError(
                    f"unknown scenario axis {axis!r}; "
                    f"known axes: {ScenarioSpec.axis_names()}"
                )
            # Aliases resolve to one spec field; two axes driving the same
            # field ("temperature" + "temperature_c") would silently let the
            # later override win, so reject the collision up front.
            field = ScenarioSpec._AXIS_ALIASES[axis]
            if field in canonical_fields:
                raise ConfigError(
                    f"axes {canonical_fields[field]!r} and {axis!r} both drive "
                    f"the scenario field {field!r}; give only one of them"
                )
            canonical_fields[field] = axis
            values = list(values)
            if not values:
                raise ConfigError(f"axis {axis!r} needs at least one value")
            normalized[axis] = values
        self.axes = normalized
        # Grid points differing only in environment or scavenger/storage
        # reuse one compiled table.  An external ``evaluator_cache`` (the
        # serving layer's bounded LRU) backs the cache so compiled tables
        # survive across studies; the per-run builds/hits counters keep
        # their meaning either way.
        self.component_cache = ComponentCache(evaluator_cache)

    # -- grid expansion -----------------------------------------------------

    def scenarios(self) -> list[tuple[dict[str, object], ScenarioSpec]]:
        """The expanded grid: ``(axis_values, spec)`` per grid point."""
        if not self.axes:
            return [({}, self.spec)]
        names = list(self.axes)
        grid: list[tuple[dict[str, object], ScenarioSpec]] = []
        for combination in itertools.product(*(self.axes[name] for name in names)):
            overrides = dict(zip(names, combination))
            spec = self.spec
            for axis, value in overrides.items():
                spec = spec.with_axis(axis, value)
            grid.append((overrides, spec))
        return grid

    def __len__(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    # -- execution ----------------------------------------------------------

    def run(
        self,
        kind: str = "balance",
        workers: int | None = None,
        progress=None,
    ) -> StudyResult:
        """Execute ``kind`` over every grid point and collect uniform rows.

        Args:
            kind: one of :data:`STUDY_KINDS`.
            workers: optional process-pool width.  ``None`` or 1 runs the
                grid sequentially; larger values ship each grid point's spec
                document to a worker process, which rebuilds the components
                and assembles the row there.  Rows keep the sequential order
                and values exactly (every random stream is derived per
                scenario, never from execution order).  The evaluator builds
                then happen in the workers, so the parent's
                ``evaluator_builds``/``evaluator_cache_hits`` counters stay
                at zero.
            progress: optional engine observer (see
                :meth:`~repro.scenario.engine.ChunkedEngine.run`); the
                serving layer uses it for live per-row job progress.
        """
        if kind not in STUDY_KINDS:
            raise ConfigError(f"unknown analysis kind {kind!r}; available: {list(STUDY_KINDS)}")
        # Validates workers (same rules as every engine client).
        engine = ChunkedEngine(workers=workers)
        cache = self.component_cache
        builds_before, hits_before = cache.builds, cache.hits
        grid = self.scenarios()

        def cells(overrides: dict[str, object]) -> tuple:
            return tuple((axis, _axis_display(overrides[axis])) for axis in self.axes)

        def kernel(item: tuple[dict[str, object], ScenarioSpec]) -> dict[str, object]:
            overrides, spec = item
            return _grid_row(spec, cells(overrides), kind, cache.get(spec), self.montecarlo)

        def payload(item: tuple[dict[str, object], ScenarioSpec]):
            # Ship each grid point as its JSON-round-trippable document plus
            # the pre-rendered axis cells: the worker rebuilds the spec
            # through the registries and assembles the *complete* row, so
            # ordering and key order match the sequential run exactly.
            overrides, spec = item
            return (spec.to_dict(), cells(overrides), kind, self.montecarlo)

        # The scheduling/worker/timing machinery is the shared chunked
        # engine; the study only supplies the row kernels and collects the
        # streamed rows.
        rows: list[dict[str, object]] = []
        report = engine.run(
            grid,
            kernel,
            lambda _index, row: rows.append(row),
            process_worker=_process_grid_point,
            process_payload=payload,
            progress=progress,
        )
        metadata = {
            "kind": kind,
            "grid_points": len(rows),
            "axes": {name: [_axis_display(v) for v in vals] for name, vals in self.axes.items()},
            # Per-run deltas: the Study-level counters keep accumulating so a
            # second run() on a warm study reports its own builds/hits.
            "evaluator_builds": cache.builds - builds_before,
            "evaluator_cache_hits": cache.hits - hits_before,
            "base_scenario": self.spec.to_dict(),
            # Timing bookkeeping: total wall time of this run plus each grid
            # point's own wall time (sequential row order), so perf
            # regressions are observable from the StudyResult alone.
            "workers": engine.workers,
            "backend": report.backend,
            "wall_time_s": report.wall_time_s,
            "row_wall_times_s": report.item_wall_times_s,
        }
        return StudyResult(kind=kind, axes=tuple(self.axes), rows=tuple(rows), metadata=metadata)


# ---------------------------------------------------------------------------
# Per-kind row kernels
#
# One function per kind, all with the signature
# ``(spec, (node, database, evaluator), montecarlo) -> figures``.  Module-level
# (picklable, self-contained) so pool workers run them against a spec rebuilt
# from its JSON document; the in-process kernel calls the same functions with
# the study's shared evaluator.
# ---------------------------------------------------------------------------


def _balance_row(spec, components, _montecarlo) -> dict[str, object]:
    node, database, evaluator = components
    analysis = EnergyBalanceAnalysis(
        node, database, spec.build_scavenger(), evaluator=evaluator
    )
    point = spec.operating_point()

    def factory(speed: float):
        return point.at_speed(speed)

    low, high = DEFAULT_BREAK_EVEN_RANGE
    break_even = analysis.break_even_speed_kmh(
        low_kmh=low, high_kmh=high, point_factory=factory
    )
    required = float(analysis.required_energy_sweep([point])[0])
    generated = analysis.generated_energy_j(point.speed_kmh)
    return {
        "break_even_kmh": break_even if break_even is not None else float("nan"),
        "required_uj_per_rev": required * 1e6,
        "generated_uj_per_rev": generated * 1e6,
        "margin_uj_per_rev": (generated - required) * 1e6,
        "surplus": generated >= required,
    }


def _report_row(spec, components, _montecarlo) -> dict[str, object]:
    evaluator = components[2]
    point = spec.operating_point()
    dynamic, static, period = evaluator.average_components_sweep([point])
    standstill = evaluator.standstill_power_sweep([point.at_speed(0.0)])
    total = float(dynamic[0] + static[0])
    return {
        "energy_per_rev_uj": total * 1e6,
        "dynamic_uj": float(dynamic[0]) * 1e6,
        "static_uj": float(static[0]) * 1e6,
        "average_power_uw": total / float(period[0]) * 1e6,
        "standstill_uw": float(standstill[0]) * 1e6,
    }


def _optimize_row(spec, components, _montecarlo) -> dict[str, object]:
    node, database, evaluator = components
    point = spec.operating_point()
    assignments = select_techniques(evaluator.duty_cycles(point), database=database)
    outcome = apply_assignments(
        node, database, assignments, point=point, evaluator=evaluator
    )
    return {
        "energy_before_uj": outcome.energy_before_j * 1e6,
        "energy_after_uj": outcome.energy_after_j * 1e6,
        "saving_pct": outcome.saving_fraction * 100.0,
        "techniques": len(outcome.assignments),
    }


def _emulate_row(spec, components, _montecarlo) -> dict[str, object]:
    node, database, evaluator = components
    cycle = spec.build_drive_cycle()
    if cycle is None:
        raise ConfigError("the 'emulate' kind needs the scenario to name a drive_cycle")
    storage = spec.build_storage()
    if storage is None:
        raise ConfigError("the 'emulate' kind needs the scenario to name a storage")
    emulator = NodeEmulator(
        node,
        database,
        spec.build_scavenger(),
        storage,
        base_point=spec.operating_point(),
        evaluator=evaluator,
    )
    result = emulator.emulate(cycle)
    # "cycle_name", not "cycle": the latter is a grid-axis alias and the
    # axis column must keep the swept value, not the cycle's own label.
    return {"cycle_name": cycle.name, **result.summary()}


def _montecarlo_row(spec, components, config: MonteCarloConfig) -> dict[str, object]:
    # The stream is a pure function of (config, scenario document):
    # identical draws whether the grid runs sequentially or in worker
    # processes.
    node, _database, evaluator = components
    rng = config.rng_for(spec.to_json())
    draws = config.draw(node, spec.operating_point(), rng)
    energies = evaluator.schedule_energy_sweep(draws.conditions, draws.patterns)
    periods = node.wheel.revolution_periods_s(draws.conditions.speed_kmh)
    row = summarize_energies(energies, periods, len(draws))
    row["seed"] = config.seed
    return row


def _explore_row(spec, components, _montecarlo) -> dict[str, object]:
    node, database, evaluator = components
    analysis = EnergyBalanceAnalysis(
        node, database, spec.build_scavenger(), evaluator=evaluator
    )
    point = spec.operating_point()

    def factory(speed: float):
        return point.at_speed(speed)

    low, high = DEFAULT_BREAK_EVEN_RANGE
    break_even = analysis.break_even_speed_kmh(
        low_kmh=low, high_kmh=high, point_factory=factory
    )
    snapshot = factory(60.0)
    required_60 = float(analysis.required_energy_sweep([snapshot])[0])
    return {
        "break_even_kmh": break_even if break_even is not None else float("nan"),
        "required_uj_per_rev_60kmh": required_60 * 1e6,
        "generated_uj_per_rev_60kmh": analysis.generated_energy_j(60.0) * 1e6,
        "activates": break_even is not None,
    }


#: The row kernel of every analysis kind (see :data:`STUDY_KINDS`).
_ROW_KERNELS = {
    "balance": _balance_row,
    "report": _report_row,
    "optimize": _optimize_row,
    "emulate": _emulate_row,
    "explore": _explore_row,
    "montecarlo": _montecarlo_row,
}


def _grid_row(spec, cells, kind, components, montecarlo) -> dict[str, object]:
    """The complete row of one grid point: scenario, axis cells, figures."""
    row: dict[str, object] = {"scenario": spec.name}
    row.update(cells)
    row.update(_ROW_KERNELS[kind](spec, components, montecarlo))
    return row


def _process_grid_point(
    payload: tuple[object, tuple, str, MonteCarloConfig],
) -> dict[str, object]:
    """Pool-worker entry: one grid point, self-contained.

    Receives the grid point's scenario as its JSON-round-trippable document
    plus the pre-rendered axis cells, rebuilds the spec through the
    registries (workers inherit user registrations via the fork context) and
    assembles the complete row with the per-worker component memo.  Every
    kind is a pure function of the spec, so the row is identical — values
    and key order — to the sequential one.  The engine times the call inside
    the worker.
    """
    document, cells, kind, montecarlo = payload
    spec = ScenarioSpec.from_dict(document)
    return _grid_row(spec, cells, kind, WORKER_COMPONENTS.get(spec), montecarlo)


def run_study(
    spec: ScenarioSpec,
    axes: Mapping[str, Sequence[object]] | None = None,
    kind: str = "balance",
    workers: int | None = None,
    montecarlo: MonteCarloConfig | None = None,
) -> StudyResult:
    """One-call convenience wrapper: build a :class:`Study` and run it."""
    return Study(spec, axes=axes, montecarlo=montecarlo).run(kind, workers=workers)
