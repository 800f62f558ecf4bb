"""In-memory spans and counters recorded around calls into the program's layers.

The traced run wraps each layer's public entry points *where the caller
looks them up*: a module-level function is replaced in every ``repro``
module that imported it by name, a method on its class.  Nothing in the
program changes; the wrappers are removed again after each traced pass.

A span records its name, start, end, the span that caused it and the
operation (benchmark pass or request) it belongs to.  A span's parent is
the innermost open span of its own thread; a span started on a thread with
no open span (an HTTP handler or a job worker) takes the innermost open span
of the thread that began the operation, which for the benchmark's single
closed-loop client is the request step that is waiting for it.  Spans stay
in memory until the run ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (children on other threads included, clipped to the
parent's interval).  A *waiting* span (a client call, a request handler)
blocks on work other threads do for the same operation, so the intervals of
that operation's working spans on other threads also count as covered: its
self time is the time it waited while no work for it was running.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    """One recorded call into a layer."""

    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    operation: int | None
    thread: int
    waits: bool = False


class Tracer:
    """Records spans and counters; thread-safe, kept in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Id of the benchmark operation in flight; stamped on every span.
        self.operation: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._operation_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_operation(self) -> None:
        """Start the next operation; its spans get the next operation id."""
        with self._lock:
            self.operation = 0 if self.operation is None else self.operation + 1
            self._operation_stack = self._stack()

    def start(self, name: str, waits: bool = False) -> Span:
        stack = self._stack()
        with self._lock:
            caller = stack or self._operation_stack
            parent = caller[-1].id if caller else None
            span = Span(
                len(self.spans),
                name,
                self.clock(),
                None,
                parent,
                self.operation,
                threading.get_ident(),
                waits,
            )
            self.spans.append(span)
            stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        with self._lock:
            if not stack or stack[-1] is not span:
                raise RuntimeError(f"span {span.name!r} finished out of order")
            stack.pop()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread's stack."""
        return any(span.name == name for span in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount


def self_times(spans) -> list[float]:
    """Self time of every span, indexed like ``spans`` (by span id)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    working: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
        if not span.waits:
            working[span.operation].append(span)
    result = []
    for span in spans:
        cover = children.get(span.id, [])
        if span.waits and span.operation is not None:
            cover = cover + [
                (other.start, other.end)
                for other in working[span.operation]
                if other.thread != span.thread
            ]
        covered = _union_length(cover, span.start, span.end)
        result.append((span.end - span.start) - covered)
    return result


def _union_length(intervals, low: float, high: float) -> float:
    """Total length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in intervals if end > low and start < high
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time_by_name(spans) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


def _wrapper(tracer: Tracer, name: str, func, after=None, waits=False):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        outer = tracer.inside(name)
        span = tracer.start(name, waits)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.finish(span)
        if after is not None:
            after(tracer, args, kwargs, result, outer)
        return result

    return traced


def _generator_wrapper(tracer: Tracer, name: str, func, after=None, waits=False):
    """Wrap a generator function so that producing each item is one span."""

    @functools.wraps(func)
    def traced(*args, **kwargs):
        iterator = func(*args, **kwargs)
        while True:
            span = tracer.start(name, waits)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.finish(span)
            if after is not None:
                after(tracer, args, kwargs, item, False)
            yield item

    return traced


class Patches:
    """Installed wrappers, removable in reverse order."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def function(self, module_name: str, attribute: str, name: str, after=None) -> None:
        """Wrap a module function in every ``repro`` module that holds it."""
        original = getattr(sys.modules[module_name], attribute)
        wrapped = _wrapper(self.tracer, name, original, after)
        for module_key, module in list(sys.modules.items()):
            if module is None or not (module_key == "repro" or module_key.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def method(
        self, cls, attribute: str, name: str, after=None, generator=False, waits=False
    ) -> None:
        """Wrap a method (plain or classmethod) defined on ``cls`` itself."""
        raw = cls.__dict__[attribute]
        make = _generator_wrapper if generator else _wrapper
        if isinstance(raw, classmethod):
            value = classmethod(make(self.tracer, name, raw.__func__, after, waits))
        else:
            value = make(self.tracer, name, raw, after, waits)
        self._set(cls, attribute, value)

    def remove(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)
