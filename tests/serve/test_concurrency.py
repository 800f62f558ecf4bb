"""Concurrent studies sharing one evaluator LRU and the census-timing cache.

The serving layer runs many ``Study.run`` calls at once — from the job
manager's worker threads, each of which may fork its own engine process
pool.  These tests hammer exactly that sharing surface: N threads, one
:class:`~repro.serve.EvaluatorLRU`, the module-level census-timing cache
in :mod:`repro.core.evaluator` — asserting the rows stay identical to a
sequential run (values, order, key order) and that nothing deadlocks
(every join carries a timeout and is checked).
"""

from __future__ import annotations

import threading

from repro.scenario.spec import ScenarioSpec
from repro.scenario.study import Study
from repro.serve import EvaluatorLRU

THREADS = 10

SPEC = ScenarioSpec(name="hammer", architecture="baseline")
AXES = {"temperature": [-20.0, 0.0, 25.0, 85.0]}


def _sequential_rows(kind="balance"):
    return Study(SPEC, axes=AXES).run(kind).as_rows()


class TestConcurrentStudies:
    def test_ten_threads_sharing_one_lru_match_sequential_rows(self):
        expected = _sequential_rows()
        cache = EvaluatorLRU(capacity=4)
        results: list = [None] * THREADS
        errors: list = []

        def worker(slot: int) -> None:
            try:
                study = Study(SPEC, axes=AXES, evaluator_cache=cache)
                results[slot] = study.run("balance", workers=2).as_rows()
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads), "deadlocked threads"
        assert not errors, errors
        for rows in results:
            assert rows == expected
            assert [list(row) for row in rows] == [list(row) for row in expected]

    def test_shared_group_builds_exactly_once_across_threads(self):
        # Every grid point of every thread shares one evaluator group key;
        # single-flight means ten concurrent studies pay ONE build.
        cache = EvaluatorLRU(capacity=4)
        done = []

        def worker() -> None:
            study = Study(SPEC, axes=AXES, evaluator_cache=cache)
            study.run("balance")
            done.append(study)

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads), "deadlocked threads"
        assert len(done) == THREADS
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == THREADS * len(AXES["temperature"]) - 1
        assert sum(study.component_cache.builds for study in done) == 1

    def test_mixed_kinds_share_the_cache_without_interference(self):
        expected_balance = _sequential_rows("balance")
        expected_report = _sequential_rows("report")
        cache = EvaluatorLRU(capacity=4)
        results: dict[int, list] = {}
        lock = threading.Lock()

        def worker(slot: int) -> None:
            kind = "balance" if slot % 2 == 0 else "report"
            rows = Study(SPEC, axes=AXES, evaluator_cache=cache).run(kind).as_rows()
            with lock:
                results[slot] = rows

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads), "deadlocked threads"
        for slot, rows in results.items():
            assert rows == (expected_balance if slot % 2 == 0 else expected_report)
