"""Span tracer for the traced benchmark run.

The tracer records spans from outside the program: it replaces public
functions and methods of ``repro`` with thin wrappers that time each
call, and puts every original back on :meth:`Tracer.restore`.  A
function imported by name into other modules (``from x import f``) is
replaced in each of them; one reached through a module attribute at
call time (the lazy ``from repro.persistence.store import
save_database`` inside a method) is covered by replacing the module
attribute.

Each thread keeps its own span stack, so spans opened by the ingest
server's reader and worker threads nest correctly.  Spans are kept in
memory as ``(id, parent, name, thread, start, end)`` tuples and
reduced to per-layer metrics when the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; patches and restores call sites."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; return its result."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, threading.get_ident(), start, end)
            )

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        on_result: Callable | None = None,
        on_error: Callable | None = None,
    ) -> Callable:
        """A traced stand-in for ``fn``.

        ``name`` may be a callable of the call's arguments, to split one
        function's spans by how it was called.  ``on_result(tracer,
        args, kwargs, result)`` records counters from a completed call;
        ``on_error(tracer, error)`` from a failed one.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            try:
                result = self.call(span_name, fn, *args, **kwargs)
            except Exception as error:
                if on_error is not None:
                    on_error(self, error)
                raise
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def wrap_generator(
        self, name: str, fn: Callable, on_item: Callable | None = None
    ) -> Callable:
        """A traced stand-in for a generator function.

        Only the ``next()`` calls are timed, so work the consumer does
        between items is not charged to the generator.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            done = object()
            while True:
                item = self.call(name, next, inner, done)
                if item is done:
                    return
                if on_item is not None:
                    on_item(self, item)
                yield item

        return traced

    # -- patching ------------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch_function(
        self, module_name: str, attr: str, name, only_here: bool = False, **hooks
    ) -> None:
        """Trace ``module.attr`` and every loaded ``repro`` module that
        imported the same function by name (unless ``only_here``)."""
        module = sys.modules[module_name]
        original = getattr(module, attr)
        traced = self.wrap(name, original, **hooks)
        owners = [module]
        if not only_here:
            owners += [
                other
                for other_name, other in sorted(sys.modules.items())
                if other is not module
                and other_name.split(".")[0] == "repro"
                and getattr(other, attr, None) is original
            ]
        for owner in owners:
            self._set(owner, attr, traced)

    def patch_method(self, cls: type, attr: str, name, **hooks) -> None:
        """Trace a method, classmethod or property defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, **hooks))
        elif isinstance(raw, property):
            replacement = property(self.wrap(name, raw.fget, **hooks))
        else:
            replacement = self.wrap(name, raw, **hooks)
        self._set(cls, attr, replacement)

    def patch_generator_method(self, cls: type, attr: str, name, on_item=None) -> None:
        self._set(cls, attr, self.wrap_generator(name, cls.__dict__[attr], on_item))

    def restore(self) -> None:
        """Put back every replaced name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------
    def reduce(self, since: float = float("-inf")) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds.

        Only spans that started at or after ``since`` are counted, and
        a child's time is subtracted from its parent's self time.
        """
        spans = [span for span in self.spans if span.start >= since]
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in spans:
            entry = totals[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.duration - child_time[span.id]
        return dict(totals)
