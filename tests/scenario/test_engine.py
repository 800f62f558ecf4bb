"""Tests for the chunked execution engine (scheduling shared by study + fleet)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.engine import DEFAULT_CHUNK_SIZE, ChunkedEngine, EngineReport


def _square_worker(payload):
    """Module-level (picklable) process worker used by the pool tests."""
    base, offset = payload
    return base * base + offset


def _pool(kernel):
    """``run`` keyword arguments shipping each item as-is to ``kernel``."""
    return {"process_worker": kernel, "process_payload": lambda item: item}


def _double(item):
    return item * 2


#: Per-worker-process call counts of :func:`_flaky_worker`, keyed by
#: (test token, item).  Retries run inside the worker that got the item, so
#: the count there is the item's attempt number.
_FLAKY_CALLS: dict = {}


def _flaky_worker(payload):
    """Fail the first ``fail_times`` attempts at each item, then double it."""
    token, item, fail_times = payload
    count = _FLAKY_CALLS.get((token, item), 0) + 1
    _FLAKY_CALLS[(token, item)] = count
    if count <= fail_times:
        raise ValueError(f"transient failure {count} on {item}")
    return item * 2


def _poisoned_worker(item):
    if item == 2:
        raise RuntimeError("poisoned item")
    return item


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "four"])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(ConfigError, match="workers"):
            ChunkedEngine(workers=bad)

    def test_process_backend_requires_worker_and_payload(self):
        engine = ChunkedEngine(workers=2)
        with pytest.raises(ConfigError, match="process_worker"):
            engine.run([1, 2, 3], kernel=lambda x: x, sink=lambda i, r: None)


class TestSequential:
    def test_results_stream_in_order(self):
        received = []
        report = ChunkedEngine().run(
            range(5), lambda item: item * 10, lambda i, r: received.append((i, r))
        )
        assert received == [(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]
        assert report.backend == "sequential"
        assert report.items == 5
        assert len(report.item_wall_times_s) == 5

    def test_single_item_never_starts_a_pool(self):
        report = ChunkedEngine(workers=8).run(
            [7], lambda item: item, lambda i, r: None, **_pool(_double)
        )
        assert report.backend == "sequential"
        assert report.workers == 1

    def test_empty_items(self):
        rows = []
        report = ChunkedEngine(workers=4).run(
            [], lambda item: item, lambda i, r: rows.append(r), **_pool(_double)
        )
        assert rows == []
        assert report.items == 0
        assert report.item_wall_times_s == ()

    def test_report_is_frozen(self):
        report = ChunkedEngine().run([1], lambda item: item, lambda i, r: None)
        assert isinstance(report, EngineReport)
        with pytest.raises(AttributeError):
            report.items = 99


class TestThreadBackend:
    """``workers > 1`` has one parallel path, the process pool: a wide pool
    must still deliver results to the sink in input order."""

    def test_order_preserved_and_identical_to_sequential(self):
        items = list(range(40))
        sequential = []
        ChunkedEngine().run(items, lambda x: x * x, lambda i, r: sequential.append(r))
        parallel = []
        report = ChunkedEngine(workers=4).run(
            items,
            kernel=lambda x: x * x,
            sink=lambda i, r: parallel.append(r),
            process_worker=_square_worker,
            process_payload=lambda item: (item, 0),
        )
        assert parallel == sequential
        assert report.backend == "process"
        assert report.workers == 4


class TestProcessBackend:
    def test_rows_match_sequential(self):
        items = list(range(12))
        sequential = []
        ChunkedEngine().run(items, lambda x: x * x + 1, lambda i, r: sequential.append(r))
        parallel = []
        report = ChunkedEngine(workers=2).run(
            items,
            kernel=lambda x: x * x + 1,
            sink=lambda i, r: parallel.append(r),
            process_worker=_square_worker,
            process_payload=lambda item: (item, 1),
        )
        assert parallel == sequential
        assert report.backend == "process"
        assert report.workers == 2
        assert all(elapsed > 0.0 for elapsed in report.item_wall_times_s)

    def test_chunking_streams_between_chunks(self):
        # Only the first window (DEFAULT_CHUNK_SIZE * workers) of payloads is
        # built before the first result reaches the sink, and results still
        # stream in input order.
        window = DEFAULT_CHUNK_SIZE * 2
        order = []

        def payload(item):
            order.append(("submit", item))
            return item

        def sink(index, result):
            order.append(("sink", result))

        ChunkedEngine(workers=2).run(
            range(3 * window), _double, sink, process_worker=_double, process_payload=payload
        )
        first_sink = order.index(("sink", 0))
        assert order[:first_sink] == [("submit", i) for i in range(window)]
        assert [entry for entry in order if entry[0] == "sink"] == [
            ("sink", 2 * i) for i in range(3 * window)
        ]

    def test_items_may_be_a_lazy_iterator(self):
        def generate():
            yield from range(25)

        received = []
        report = ChunkedEngine(workers=2).run(
            generate(), _double, lambda i, r: received.append(r), **_pool(_double)
        )
        assert received == [2 * i for i in range(25)]
        assert report.items == 25

    def test_single_item_process_run_uses_the_kernel_in_process(self):
        # One item degrades to sequential: the in-process kernel runs, the
        # pool (and the payload function) is never touched.
        def exploding_payload(item):  # pragma: no cover - must not run
            raise AssertionError("payload built for a sequential run")

        rows = []
        report = ChunkedEngine(workers=4).run(
            [3],
            kernel=lambda x: x + 1,
            sink=lambda i, r: rows.append(r),
            process_worker=_square_worker,
            process_payload=exploding_payload,
        )
        assert rows == [4]
        assert report.backend == "sequential"


class _Flaky:
    """Kernel failing the first ``fail_times`` calls per item."""

    def __init__(self, fail_times: int):
        self.fail_times = fail_times
        self.calls: dict[object, int] = {}

    def __call__(self, item):
        count = self.calls.get(item, 0) + 1
        self.calls[item] = count
        if count <= self.fail_times:
            raise ValueError(f"transient failure {count} on {item}")
        return item * 2


class TestRetries:
    @pytest.mark.parametrize("bad", [-1, 1.5, True])
    def test_invalid_retries_rejected(self, bad):
        with pytest.raises(ConfigError, match="retries"):
            ChunkedEngine(retries=bad)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_transient_failures_retried_to_success(self, workers):
        kernel = _Flaky(fail_times=2)
        received = []
        report = ChunkedEngine(workers=workers, retries=2).run(
            range(5),
            kernel,
            lambda i, r: received.append((i, r)),
            process_worker=_flaky_worker,
            process_payload=lambda item: ("retried-to-success", item, 2),
        )
        assert received == [(i, i * 2) for i in range(5)]
        assert report.failures == ()
        assert report.retries == 10  # 2 extra attempts x 5 items

    def test_no_retries_behaves_like_the_pre_retry_engine(self):
        def kernel(item):
            raise KeyError(item)

        with pytest.raises(KeyError):
            ChunkedEngine().run(range(3), kernel, lambda i, r: None)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_collect_mode_skips_failed_items_and_records_them(self, workers):
        received = []
        report = ChunkedEngine(workers=workers, retries=1).run(
            range(5),
            _poisoned_worker,
            lambda i, r: received.append((i, r)),
            **_pool(_poisoned_worker),
        )
        assert received == [(0, 0), (1, 1), (3, 3), (4, 4)]
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.index == 2
        assert failure.attempts == 2
        assert failure.kind == "exception"
        assert "poisoned item" in failure.error
        assert len(report.item_wall_times_s) == 5

    def test_failure_round_trips_through_dict(self):
        from repro.scenario.engine import EngineFailure

        failure = EngineFailure(index=3, attempts=2, kind="worker-death", error="gone")
        assert EngineFailure.from_dict(failure.to_dict()) == failure


class TestRunChunks:
    def test_invalid_max_new_chunks_rejected(self):
        with pytest.raises(ConfigError, match="max_new_chunks"):
            ChunkedEngine().run_chunks([[1]], lambda x: x, lambda i, r: None, max_new_chunks=0)

    def test_global_indices_span_chunks(self):
        received = []
        report = ChunkedEngine().run_chunks(
            [[1, 2], [3], [4, 5, 6]], lambda x: x * 10, lambda i, r: received.append((i, r))
        )
        assert received == [(0, 10), (1, 20), (2, 30), (3, 40), (4, 50), (5, 60)]
        assert report.chunks == 3
        assert report.items == 6
        assert report.stopped_early is False

    def test_max_new_chunks_stops_early(self):
        received = []
        report = ChunkedEngine().run_chunks(
            [[1], [2], [3]], lambda x: x, lambda i, r: received.append(r), max_new_chunks=2
        )
        assert received == [1, 2]
        assert report.chunks == 2
        assert report.stopped_early is True

    def test_lazy_chunk_iterator_is_consumed_incrementally(self):
        produced = []

        def chunks():
            for index in range(3):
                produced.append(index)
                yield [index]

        consumed_at_first_sink = []

        def sink(i, r):
            if not consumed_at_first_sink:
                consumed_at_first_sink.append(list(produced))

        ChunkedEngine().run_chunks(chunks(), lambda x: x, sink)
        # Only the first chunk had been pulled when its result streamed out.
        assert consumed_at_first_sink == [[0]]

    def test_replayed_chunk_settles_like_an_executed_one(self, tmp_path):
        chunks = [[0, 1, 2], [3, 4, 5], [6, 7]]  # item 4, in chunk 1, fails

        def kernel(item):
            if item == 4:
                raise RuntimeError("poisoned item")
            return item * 10

        def run():
            received = []
            report = ChunkedEngine(retries=1).run_chunks(
                chunks,
                kernel,
                lambda i, r: received.append((i, r)),
                checkpoint=CheckpointStore(tmp_path / "ckpt", {"kind": "replay-test"}),
            )
            return received, report

        executed, first = run()
        replayed, second = run()
        assert executed == [(i, i * 10) for i in range(8) if i != 4]
        assert replayed == executed
        assert [failure.index for failure in first.failures] == [4]
        assert second.failures == first.failures
        assert len(first.item_wall_times_s) == 8
        assert second.item_wall_times_s == first.item_wall_times_s
        assert first.backend == "sequential"
        assert second.backend == "resumed"
        assert second.resumed_chunks == 3

    def test_collect_failures_reindexed_globally(self):
        def kernel(item):
            if item == "bad":
                raise RuntimeError("nope")
            return item

        received = []
        report = ChunkedEngine(retries=1).run_chunks(
            [["a", "b"], ["bad", "c"]], kernel, lambda i, r: received.append((i, r))
        )
        assert received == [(0, "a"), (1, "b"), (3, "c")]
        assert [failure.index for failure in report.failures] == [2]
