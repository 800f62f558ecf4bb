"""EvaluatorLRU: bounded, lock-protected, single-flight, counter-instrumented."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConfigError
from repro.serve import EvaluatorLRU, JobManager


class TestValidation:
    @pytest.mark.parametrize("capacity", [0, -1, 1.5, "4", True])
    def test_rejects_bad_capacity(self, capacity):
        with pytest.raises(ConfigError, match="capacity"):
            EvaluatorLRU(capacity=capacity)

    def test_rejects_non_callable_builder(self):
        with pytest.raises(ConfigError, match="builder must be callable"):
            EvaluatorLRU().get("k", "not-a-builder")


class TestLRUSemantics:
    def test_miss_builds_and_hit_returns_same_object(self):
        cache = EvaluatorLRU(capacity=2)
        value = cache.get("a", lambda: object())
        assert cache.get("a", lambda: object()) is value
        stats = cache.stats()
        build_total = stats.pop("build_wall_time_s")
        build_last = stats.pop("last_build_wall_time_s")
        assert stats == {
            "capacity": 2,
            "size": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
        }
        assert build_total >= 0.0
        assert build_total == build_last  # exactly one build ran

    def test_capacity_evicts_least_recently_used(self):
        cache = EvaluatorLRU(capacity=2)
        cache.get("a", lambda: "A")
        cache.get("b", lambda: "B")
        cache.get("a", lambda: "A")  # refresh 'a'; 'b' is now LRU
        cache.get("c", lambda: "C")  # evicts 'b'
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats()["evictions"] == 1
        rebuilt = []
        cache.get("b", lambda: rebuilt.append(1) or "B2")
        assert rebuilt == [1]

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = EvaluatorLRU(capacity=4)
        cache.get("a", lambda: "A")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1

    def test_builder_exception_leaves_key_absent(self):
        cache = EvaluatorLRU(capacity=4)

        def boom():
            raise ValueError("build failed")

        with pytest.raises(ValueError, match="build failed"):
            cache.get("a", boom)
        assert "a" not in cache
        # The failure is not sticky: the next call retries the build.
        assert cache.get("a", lambda: "ok") == "ok"


class TestBuildTiming:
    def test_wall_time_accumulates_across_builds(self):
        cache = EvaluatorLRU(capacity=4)

        def slow():
            time.sleep(0.01)
            return "built"

        cache.get("a", slow)
        after_first = cache.stats()
        assert after_first["build_wall_time_s"] >= 0.01
        assert after_first["last_build_wall_time_s"] >= 0.01

        cache.get("b", lambda: "fast")
        after_second = cache.stats()
        # Total keeps growing; "last" tracks the most recent build only.
        assert after_second["build_wall_time_s"] > after_first["build_wall_time_s"]
        assert after_second["last_build_wall_time_s"] < after_first["last_build_wall_time_s"]

    def test_hits_and_failed_builds_do_not_count(self):
        cache = EvaluatorLRU(capacity=4)
        cache.get("a", lambda: "A")
        baseline = cache.stats()["build_wall_time_s"]
        cache.get("a", lambda: "A")  # hit: no build
        assert cache.stats()["build_wall_time_s"] == baseline

        def boom():
            time.sleep(0.01)
            raise ValueError("build failed")

        with pytest.raises(ValueError, match="build failed"):
            cache.get("b", boom)
        # Only successful builds count toward the wall-time signal.
        assert cache.stats()["build_wall_time_s"] == baseline

    def test_fresh_job_manager_reports_zero_build_time(self):
        manager = JobManager(evaluator_capacity=2)
        try:
            cache = manager.stats()["evaluator_cache"]
        finally:
            manager.shutdown()
        assert cache["build_wall_time_s"] == 0.0
        assert cache["last_build_wall_time_s"] == 0.0


class TestSingleFlight:
    def test_concurrent_misses_build_once(self):
        cache = EvaluatorLRU(capacity=4)
        builds = []
        gate = threading.Event()

        def builder():
            builds.append(threading.get_ident())
            gate.wait(timeout=10)
            return "value"

        results = []

        def worker():
            results.append(cache.get("shared", builder))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        # All eight threads are now either building or waiting; release.
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert results == ["value"] * 8
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 7

    def test_builds_of_different_keys_run_in_parallel(self):
        cache = EvaluatorLRU(capacity=4)
        barrier = threading.Barrier(2, timeout=10)

        def builder(tag):
            # Both builders must be inside their build at once: if the map
            # lock were held while building, this barrier would deadlock.
            def build():
                barrier.wait()
                return tag

            return build

        results = {}
        threads = [
            threading.Thread(target=lambda k=key: results.update({k: cache.get(k, builder(k))}))
            for key in ("x", "y")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {"x": "x", "y": "y"}

    def test_builder_exception_propagates_to_waiters(self):
        cache = EvaluatorLRU(capacity=4)
        entered = threading.Event()
        release = threading.Event()

        def boom():
            entered.set()
            release.wait(timeout=10)
            raise RuntimeError("shared failure")

        errors = []

        def leader():
            try:
                cache.get("k", boom)
            except RuntimeError as error:
                errors.append(str(error))

        def follower():
            entered.wait(timeout=10)
            try:
                cache.get("k", boom)
            except RuntimeError as error:
                errors.append(str(error))

        threads = [threading.Thread(target=leader), threading.Thread(target=follower)]
        for thread in threads:
            thread.start()
        entered.wait(timeout=10)
        # Give the follower a moment to enqueue behind the in-flight build,
        # then let the leader fail.
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors.count("shared failure") >= 1 and len(errors) == 2
