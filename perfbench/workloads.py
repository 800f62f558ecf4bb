"""The four reference workloads, driven through the public API of ``repro``.

Each workload turns the benchmark seed into input documents (the program
only ever sees those documents), builds its shared state in :meth:`setup`,
runs timed passes, and checks its outputs outside the timed region.  An
operation fails if it raises, gets a non-2xx reply, ends in job state
``failed`` or fails its correctness check; failed checks are counted, never
dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.emulator import NodeEmulator
from repro.errors import ReproError
from repro.fleet import FleetRunner, FleetSpec, ThermalSpec, default_fleet_distributions
from repro.scavenger.storage import scaled_storage
from repro.scenario import ScenarioSpec, Study
from repro.serve import EvaluatorLRU, JobManager, ResultStore, ServeClient, ServeServer
from repro.serve.budget import StoreBudget


@dataclass
class Pass:
    """One timed pass: the work units it completed and what each cost."""

    units: int
    seconds: float
    #: Per-operation latencies in ms, keyed by operation class.
    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    #: Multiplier to the reference host speed, measured around the pass
    #: (see :mod:`perfbench.calibration`).
    factor: float = 1.0


def _same(left, right) -> bool:
    """Exact equality of two result values (NaN equals NaN)."""
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    return type(left) is type(right) and left == right


def _same_row(left: dict, right: dict) -> bool:
    return list(left) == list(right) and all(_same(left[k], right[k]) for k in left)


class Workload:
    """Shared bookkeeping: operations attempted and failed, with reasons."""

    name = ""
    throughput_metric = ""

    def __init__(self, seed: int, work_dir: Path, scale: float = 1.0) -> None:
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.scale = scale
        self.rng = random.Random(f"{self.name}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Set for traced passes: each operation becomes one root span.
        self.tracer = None

    @contextlib.contextmanager
    def operation(self):
        """Mark one operation (a pass or a request) for the tracer, if any."""
        tracer = self.tracer
        if tracer is None:
            yield
            return
        tracer.begin_operation()
        span = tracer.start("bench.operation", waits=True)
        try:
            yield
        finally:
            tracer.finish(span)

    def _sized(self, count: int, minimum: int = 1) -> int:
        return max(minimum, round(count * self.scale))

    def fail(self, reason: str, operations: int = 1) -> None:
        self.failed += operations
        if len(self.failures) < 20:
            self.failures.append(reason)

    def inputs(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> Pass:
        raise NotImplementedError

    def verify(self) -> None:
        """Correctness checks that need all passes; run after measuring."""

    def stats(self) -> dict[str, dict]:
        """The store and evaluator-cache counters, when the workload has them."""
        return {}

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class _FleetWorkload(Workload):
    """A sequential ``FleetRunner.run()`` per pass, checked against ``emulate()``."""

    throughput_metric = "vehicles_per_s"
    #: Vehicles per fleet checks recompute through a fresh ``emulate()``.
    check_vehicles = 6

    def fleet_document(self) -> dict:
        raise NotImplementedError

    def __init__(self, seed: int, work_dir: Path, scale: float = 1.0) -> None:
        super().__init__(seed, work_dir, scale)
        self.document = self.fleet_document()
        self.fleet: FleetSpec | None = None
        self.reference_rows: list[dict] | None = None

    def inputs(self) -> dict:
        return {
            "vehicles": self.document["vehicles"],
            "fleet_seed": self.document["seed"],
            "chunk_vehicles": self.document["chunk_vehicles"],
            "thermal": "thermal" in self.document,
            "checked_vehicles": self.check_vehicles,
        }

    def setup(self) -> None:
        self.fleet = FleetSpec.from_dict(self.document)
        self.fleet.base.build_components()

    def runner(self, index: int) -> FleetRunner:
        return FleetRunner(self.fleet)

    def run_pass(self, index: int) -> Pass:
        runner = self.runner(index)
        start = time.perf_counter()
        try:
            with self.operation():
                result = runner.run()
        except ReproError as error:
            self.attempted += self.fleet.vehicles
            self.fail(f"pass {index}: {error}", self.fleet.vehicles)
            return Pass(0, time.perf_counter() - start)
        seconds = time.perf_counter() - start
        self._check_pass(index, result)
        return Pass(result.metadata["vehicles_run"], seconds, {"pass": [seconds * 1e3]})

    def _check_pass(self, index: int, result) -> None:
        rows = result.vehicle_rows
        self.attempted += self.fleet.vehicles
        failed = result.metadata["vehicles_failed"]
        if failed:
            self.fail(f"pass {index}: {failed} vehicles failed", failed)
        if self.reference_rows is None:
            self.reference_rows = rows
            return
        mismatched = sum(
            1 for left, right in zip(rows, self.reference_rows) if not _same_row(left, right)
        )
        mismatched += abs(len(rows) - len(self.reference_rows))
        if mismatched:
            self.fail(f"pass {index}: {mismatched} rows differ from pass 0", mismatched)

    def verify(self) -> None:
        """A seed-chosen sample of vehicles, recomputed by a naive ``emulate()``."""
        if self.reference_rows is None:
            return
        vehicles = self.fleet.materialize()
        thermal = self.fleet.thermal
        rows = {row["vehicle"]: row for row in self.reference_rows}
        for vehicle in self.rng.sample(vehicles, min(self.check_vehicles, len(vehicles))):
            self.attempted += 1
            spec = vehicle.scenario
            emulator = NodeEmulator(
                spec.build_node(),
                spec.build_database(),
                spec.build_scavenger(),
                scaled_storage(spec.build_storage(), vehicle.storage_scale),
                base_point=spec.operating_point(),
                thermal_model=thermal.build(spec.temperature_c) if thermal else None,
            )
            cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
            summary = emulator.emulate(cycle).summary()
            row = rows.get(vehicle.index)
            if row is None or not all(_same(row[k], v) for k, v in summary.items()):
                self.fail(f"vehicle {vehicle.index}: fleet row differs from emulate()")


class FleetUrban(_FleetWorkload):
    """Default population around urban x2; the ledger scan dominates."""

    name = "fleet-urban"

    def fleet_document(self) -> dict:
        base = ScenarioSpec(
            name="fleet-urban",
            drive_cycle={"name": "urban", "params": {"repetitions": 2}},
        )
        fleet = FleetSpec.from_base(
            base, vehicles=self._sized(2000), seed=self.rng.randrange(1, 2**31)
        )
        return fleet.to_dict()


class FleetThermal(_FleetWorkload):
    """Thermal fleet: 100+ small cohorts, thermal cycle walks, journaled chunks."""

    name = "fleet-thermal"

    def fleet_document(self) -> dict:
        base = ScenarioSpec(
            name="fleet-thermal",
            drive_cycle={"name": "urban", "params": {"repetitions": 2}},
        )
        distributions = {
            key: value.to_dict()
            for key, value in default_fleet_distributions(base).items()
            if key != "temperature_c"
        }
        distributions["ambient_offset_c"] = {
            "kind": "correlated-normal",
            "params": {"std": 6.0, "correlation": 0.6},
        }
        fleet = FleetSpec(
            name="fleet-thermal",
            base=base,
            vehicles=self._sized(1000),
            seed=self.rng.randrange(1, 2**31),
            distributions=distributions,
            thermal=ThermalSpec(),
        )
        return fleet.to_dict()

    def runner(self, index: int) -> FleetRunner:
        checkpoint = self.work_dir / f"checkpoint-{index}"
        shutil.rmtree(checkpoint, ignore_errors=True)
        return FleetRunner(self.fleet, checkpoint=str(checkpoint))

    def run_pass(self, index: int) -> Pass:
        try:
            return super().run_pass(index)
        finally:
            shutil.rmtree(self.work_dir / f"checkpoint-{index}", ignore_errors=True)


class StudyGrid(Workload):
    """``Study.run("emulate")`` over architecture x cycle x temperature."""

    name = "study-grid"
    throughput_metric = "rows_per_s"

    def __init__(self, seed: int, work_dir: Path, scale: float = 1.0) -> None:
        super().__init__(seed, work_dir, scale)
        temperatures = sorted(
            round(self.rng.uniform(-10.0, 45.0), 1) for _ in range(self._sized(4))
        )
        self.document = {
            "scenario": ScenarioSpec(name="study-grid", drive_cycle="urban").to_dict(),
            "axes": {
                "architecture": ["baseline", "optimized", "legacy-tpms"],
                "cycle": ["urban", "nedc", "highway"],
                "temperature": temperatures,
            },
        }
        self.reference_rows: tuple | None = None

    def inputs(self) -> dict:
        axes = self.document["axes"]
        return {
            "rows": math.prod(len(values) for values in axes.values()),
            "temperatures_c": axes["temperature"],
        }

    def setup(self) -> None:
        self.spec = ScenarioSpec.from_dict(self.document["scenario"])
        self.axes = self.document["axes"]
        Study(self.spec, self.axes)
        self.spec.build_components()

    def run_pass(self, index: int) -> Pass:
        study = Study(self.spec, self.axes)
        rows = len(study)
        self.attempted += rows
        start = time.perf_counter()
        try:
            with self.operation():
                result = study.run("emulate")
        except ReproError as error:
            self.fail(f"pass {index}: {error}", rows)
            return Pass(0, time.perf_counter() - start)
        seconds = time.perf_counter() - start
        if self.reference_rows is None:
            self.reference_rows = result.rows
        else:
            mismatched = sum(
                1
                for left, right in zip(result.rows, self.reference_rows)
                if not _same_row(left, right)
            ) + abs(len(result.rows) - len(self.reference_rows))
            if mismatched:
                self.fail(f"pass {index}: {mismatched} rows differ from pass 0", mismatched)
        return Pass(len(result.rows), seconds, {"pass": [seconds * 1e3]})


class ServeMix(Workload):
    """One closed-loop client against a live server: 30% new documents, 70% repeats."""

    name = "serve-mix"
    throughput_metric = "requests_per_s"
    #: Per block of ``BLOCK`` requests, exactly ``NEW_PER_BLOCK`` are new documents.
    BLOCK = 10
    NEW_PER_BLOCK = 3
    BLOCKS_PER_PASS = 5
    #: Repeats are drawn from the ``RECENT`` newest documents.  At most
    #: ``2 * RECENT - 1`` documents are used while one of them is among the
    #: newest, which the ``STORE_ENTRIES`` LRU budget holds: repeats always
    #: hit, and new documents evict.
    RECENT = 6
    STORE_ENTRIES = 12
    #: Documents computed before timing starts, so that repeats exist.
    PRIMING = 4
    ARCHITECTURES = ("baseline", "optimized", "legacy-tpms")

    def __init__(self, seed: int, work_dir: Path, scale: float = 1.0) -> None:
        super().__init__(seed, work_dir, scale)
        self.samples = self._sized(512, minimum=8)
        self.documents: list[dict] = []
        self.outcomes: list[tuple[int, bool, bytes]] = []
        self.server = None

    def inputs(self) -> dict:
        return {
            "samples_per_grid_point": self.samples,
            "grid_points_per_document": 3,
            "requests_per_pass": self.BLOCK * self.BLOCKS_PER_PASS,
            "new_per_block": f"{self.NEW_PER_BLOCK}/{self.BLOCK}",
            "store_entries": self.STORE_ENTRIES,
        }

    def _new_document(self) -> int:
        index = len(self.documents)
        temperatures = sorted(round(self.rng.uniform(-10.0, 45.0), 1) for _ in range(3))
        self.documents.append(
            {
                "scenario": {
                    "name": f"serve-mix-{index}",
                    "architecture": self.rng.choice(self.ARCHITECTURES),
                },
                "axes": {"temperature": temperatures},
                "analysis": "montecarlo",
                "montecarlo": {"samples": self.samples, "seed": self.rng.randrange(1, 2**31)},
            }
        )
        return index

    def setup(self) -> None:
        store = ResultStore(
            self.work_dir / "store", budget=StoreBudget(max_entries=self.STORE_ENTRIES)
        )
        manager = JobManager(evaluator_cache=EvaluatorLRU(), store=store, job_workers=1)
        self.server = ServeServer(manager).start()
        self.client = ServeClient(port=self.server.port, retries=0)
        self.client.health()

    def _request(self, index: int) -> tuple[str, float] | None:
        """submit + wait + fetch of one document; ``(class, ms)`` or ``None`` if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.operation():
                job = self.client.submit_study(self.documents[index])
                if job["state"] != "done":
                    job = self.client.wait(job["id"], timeout=60.0)
                payload = self.client.result_bytes(job["id"])
        except ReproError as error:
            self.fail(f"document {index}: {error}")
            return None
        elapsed_ms = (time.perf_counter() - start) * 1e3
        # A digest, not the bytes: memory must not grow with the request rate.
        self.outcomes.append((index, job["store_hit"], hashlib.sha256(payload).digest()))
        return ("warm" if job["store_hit"] else "cold"), elapsed_ms

    def run_pass(self, index: int) -> Pass:
        if not self.documents:
            for _ in range(self.PRIMING):
                self._request(self._new_document())
        plan = []
        for _ in range(self.BLOCKS_PER_PASS):
            new = set(self.rng.sample(range(self.BLOCK), self.NEW_PER_BLOCK))
            plan.extend(position in new for position in range(self.BLOCK))
        latencies: dict[str, list[float]] = {"cold": [], "warm": []}
        completed = 0
        start = time.perf_counter()
        for is_new in plan:
            if is_new:
                document = self._new_document()
            else:
                recent = range(max(0, len(self.documents) - self.RECENT), len(self.documents))
                document = self.rng.choice(recent)
            outcome = self._request(document)
            if outcome is not None:
                completed += 1
                latencies[outcome[0]].append(outcome[1])
        return Pass(completed, time.perf_counter() - start, latencies)

    def verify(self) -> None:
        """Every response for a document must carry the bytes of its first (cold) one."""
        first: dict[int, bytes] = {}
        for index, store_hit, digest in self.outcomes:
            if digest != first.setdefault(index, digest):
                kind = "warm" if store_hit else "recomputed"
                self.fail(f"document {index}: {kind} bytes differ from the first cold bytes")

    def stats(self) -> dict[str, dict]:
        manager = self.server.manager
        return {"store": manager.store.stats(), "cache": manager.evaluator_cache.stats()}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop(drain=True)
            self.server = None
        super().close()


WORKLOADS = {cls.name: cls for cls in (FleetUrban, FleetThermal, StudyGrid, ServeMix)}
