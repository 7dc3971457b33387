"""Span-based tracing with monotonic timings and JSONL export.

A span is a named, timed section of the pipeline
(``characterize`` → ``predict`` → ``evaluate_space`` → ``search`` …)
opened as a context manager.  Spans nest: the innermost open span lives
in a :class:`contextvars.ContextVar`, so each thread and each asyncio
task nests under its own open span (a task inherits the span it was
created under; a bare thread starts at the root).  Every span records
its parent's index, and the JSONL export (one JSON object per line)
preserves start order so traces can be replayed or diffed.

Timings use :func:`time.perf_counter` — monotonic, immune to wall-clock
steps.  ``start_s`` values are offsets from the tracer's creation.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, TextIO


@dataclass
class SpanRecord:
    """One finished (or still-open) span."""

    index: int
    name: str
    start_s: float
    duration_s: float | None = None
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """One JSONL line."""
        return json.dumps(
            {
                "index": self.index,
                "name": self.name,
                "start_s": self.start_s,
                "duration_s": self.duration_s,
                "parent": self.parent,
                "attrs": self.attrs,
            },
            sort_keys=True,
        )


class Span:
    """Context manager recording one span into a tracer."""

    __slots__ = ("_tracer", "record", "_token")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record
        self._token: contextvars.Token[Span | None] | None = None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.record.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer._finish(self)
        return False


#: The innermost open span of the running thread or task.
_CURRENT_SPAN: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_current_span", default=None
)


class Tracer:
    """Collects spans; bounded so runaway loops cannot exhaust memory."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self.spans: list[SpanRecord] = []  # guarded-by: _lock (writes)
        self.dropped = 0  # guarded-by: _lock (writes)
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()

    def span(self, name: str, attrs: dict[str, Any] | None = None) -> Span:
        """Open a span; close it by exiting the returned context manager."""
        now = time.perf_counter() - self._t0
        current = _CURRENT_SPAN.get()
        parent = (
            current.record.index
            if current is not None and current._tracer is self
            else None
        )
        record = SpanRecord(
            index=-1,
            name=name,
            start_s=now,
            parent=parent,
            attrs=dict(attrs) if attrs else {},
        )
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return Span(self, record)
            record.index = len(self.spans)
            self.spans.append(record)
        span = Span(self, record)
        span._token = _CURRENT_SPAN.set(span)
        return span

    def _finish(self, span: Span) -> None:
        record = span.record
        record.duration_s = time.perf_counter() - self._t0 - record.start_s
        if span._token is not None:
            _CURRENT_SPAN.reset(span._token)
            span._token = None

    def names(self) -> set[str]:
        """Distinct span names recorded so far."""
        return {s.name for s in self.spans}

    def to_jsonl(self) -> str:
        """All spans, one JSON object per line, in start order."""
        return "\n".join(s.to_json() for s in self.spans) + (
            "\n" if self.spans else ""
        )

    def write_jsonl(self, target: str | TextIO) -> None:
        """Write the JSONL dump to a path or open file object."""
        text = self.to_jsonl()
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)


def read_jsonl(path: str) -> list[dict]:
    """Parse a trace file back into span dicts (analysis, tests)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
