"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program's layers by
``perfbench/launch.py``; nothing inside the program is instrumented.
The recorder is independent of ``repro.obs.trace.Tracer`` on purpose:
that tracer keeps one open-span stack shared by every thread and task,
so spans opened concurrently by the serve event loop and its engine
threads get the wrong parent.  Here the open span lives in a
``ContextVar`` (one per thread, copied into each asyncio task) and the
shared list is appended under a lock.

Times come from ``time.monotonic()``, which on Linux reads the
system-wide ``CLOCK_MONOTONIC``, so span times of the program process
compare directly with the benchmark process's phase boundaries.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import threading
import time
from typing import Any, Callable, Iterable, Mapping

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar("perfbench_span", default=None)


class SpanRecorder:
    """Thread-safe collector of finished spans.

    A span is a dict with ``id``, ``parent``, ``name``, ``thread``,
    ``start`` and ``end`` (monotonic seconds) and optional ``attrs``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next_id = 0  # guarded-by: _lock
        self.spans: list[dict[str, Any]] = []  # guarded-by: _lock

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _finish(self, span: dict[str, Any]) -> None:
        with self._lock:
            self.spans.append(span)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Callable[[tuple, dict], Any] | None = None,
        after: Callable[[Any, tuple, dict, Any], Mapping[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so each call records one span called ``name``.

        ``after(result, args, kwargs, state)`` may return attributes to
        attach, where ``state`` is what ``before(args, kwargs)`` returned
        just ahead of the call (``None`` without ``before``).
        Coroutine functions get an ``async`` wrapper, so the span covers
        the awaited work rather than the creation of the coroutine.
        """
        recorder = self

        def begin(args, kwargs) -> tuple[dict[str, Any], contextvars.Token]:
            state = before(args, kwargs) if before is not None else None
            span_id = recorder._new_id()
            span = {
                "id": span_id,
                "parent": _CURRENT.get(),
                "name": name,
                "thread": threading.get_ident(),
                "state": state,
                "start": time.monotonic(),
            }
            return span, _CURRENT.set(span_id)

        def end(span, token, result, args, kwargs) -> None:
            span["end"] = time.monotonic()
            _CURRENT.reset(token)
            state = span.pop("state")
            if after is not None:
                span["attrs"] = dict(after(result, args, kwargs, state))
            recorder._finish(span)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span, token = begin(args, kwargs)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end(span, token, result, args, kwargs)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = begin(args, kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(span, token, result, args, kwargs)

        return wrapper

    def snapshot(self) -> list[dict[str, Any]]:
        """A copy of the finished spans, in finishing order."""
        with self._lock:
            return list(self.spans)

    def write(self, path: str) -> None:
        """Write the finished spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Mapping[str, Any]]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children that overlap each other are counted once (their union), and
    a child running past its parent's end is clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    own = {}
    for span in spans:
        covered = _covered(children.get(span["id"], ()), span["start"], span["end"])
        own[span["id"]] = span["end"] - span["start"] - covered
    return own


def self_time_by_name(spans: list[Mapping[str, Any]]) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals
