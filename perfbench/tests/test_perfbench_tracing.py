"""Self-time arithmetic on synthetic span trees, and wrapper installation."""

import pytest

from perfbench.tracing import Patches, Span, Tracer, self_time_by_name, self_times


def _span(id_, name, start, end, parent=None, thread=1, operation=0, waits=False):
    return Span(id_, name, start, end, parent, operation, thread, waits)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),  # overlaps a: union 1..6
        _span(3, "c", 2.0, 3.0, parent=1),
        _span(4, "d", 9.0, 12.0, parent=0),  # runs past the parent: clipped to 9..10
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0])


def test_self_times_add_up_to_the_root_on_one_thread():
    spans = [
        _span(0, "root", 0.0, 8.0),
        _span(1, "x", 0.5, 2.5, parent=0),
        _span(2, "y", 1.0, 2.0, parent=1),
        _span(3, "x", 3.0, 7.0, parent=0),
    ]
    assert sum(self_times(spans)) == pytest.approx(8.0)
    assert self_time_by_name(spans) == pytest.approx({"root": 2.0, "x": 5.0, "y": 1.0})


def test_waiting_span_is_covered_by_work_on_other_threads():
    spans = [
        _span(0, "client.wait", 0.0, 10.0, waits=True),
        # Work for the same operation on a job thread, not a child of the wait.
        _span(1, "job", 2.0, 9.0, parent=None, thread=2),
        # Another operation's work does not cover this wait.
        _span(2, "job", 9.0, 9.5, parent=None, thread=2, operation=1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 7.0, 0.5])


def test_tracer_links_parents_across_threads():
    import threading

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.begin_operation()
    tracer.begin_operation()
    outer = tracer.start("outer", waits=True)
    worker_spans = []

    def work():
        span = tracer.start("inner")
        tracer.finish(span)
        worker_spans.append(span)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.finish(outer)
    (inner,) = worker_spans
    assert inner.parent == outer.id
    assert inner.operation == outer.operation == 1
    assert inner.thread != outer.thread


def test_finishing_out_of_order_is_an_error():
    tracer = Tracer()
    first = tracer.start("a")
    tracer.start("b")
    with pytest.raises(RuntimeError):
        tracer.finish(first)


def test_patches_wrap_every_importer_and_restore_them():
    import repro.core.emulator as emulator
    import repro.fleet.runner as runner
    import repro.scavenger.storage as storage

    original = storage.trajectory
    tracer = Tracer()
    patches = Patches(tracer)
    patches.function("repro.scavenger.storage", "trajectory", "ledger")
    try:
        assert runner.trajectory is not original
        assert emulator.trajectory is runner.trajectory
    finally:
        patches.remove()
    assert runner.trajectory is original
    assert emulator.trajectory is original
    assert storage.trajectory is original


def test_generator_wrapper_records_one_span_per_item():
    class Source:
        def items(self):
            yield from ([1], [2, 3])

    tracer = Tracer()
    patches = Patches(tracer)
    seen = []
    patches.method(
        Source, "items", "draw", lambda t, a, k, item, o: seen.append(len(item)), generator=True
    )
    try:
        assert list(Source().items()) == [[1], [2, 3]]
    finally:
        patches.remove()
    # Two items plus the call that found the generator exhausted.
    assert [span.name for span in tracer.spans] == ["draw"] * 3
    assert seen == [1, 2]
    assert "items" in Source.__dict__ and not hasattr(Source.__dict__["items"], "__wrapped__")
