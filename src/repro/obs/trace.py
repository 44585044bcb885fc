"""Span tracer for timed regions of a run.

A *trace* is one evaluation run; a *span* is one timed region inside it (for
example one update batch of a monitoring run).  Spans nest per thread, and
each carries a :class:`TraceContext` — the run's ``trace_id`` plus its own
``span_id`` — so the JSON-lines log of a run reads as one tree.  A context
can also be handed to :func:`span` explicitly as the parent of a new span.

Span and trace ids come from :func:`os.urandom` — **never** from numpy RNG
streams — and the tracer is disabled by default, so tracing on or off, every
sampling trajectory stays bit-identical.  Span events are emitted through
:mod:`repro.obs.logging` (component ``trace``, event ``span``), one line per
closed span with its duration.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.obs.logging import get_logger

__all__ = [
    "TraceContext",
    "Span",
    "enable",
    "disable",
    "enabled",
    "trace_id",
    "current",
    "span",
    "child_context",
]


@dataclass(frozen=True)
class TraceContext:
    """The (trace_id, span_id) pair that crosses process and wire boundaries."""

    trace_id: str
    span_id: str


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


_log = get_logger("trace")
_local = threading.local()
_enabled = False
_trace_id: str | None = None


def enable(trace_id: str | None = None) -> str:
    """Turn tracing on for this process; returns the active trace id."""
    global _enabled, _trace_id
    _trace_id = trace_id or _new_id(8)
    _enabled = True
    return _trace_id


def disable() -> None:
    """Turn tracing off and drop any open span stack."""
    global _enabled, _trace_id
    _enabled = False
    _trace_id = None
    _local.__dict__.pop("stack", None)


def enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _enabled


def trace_id() -> str | None:
    """The active trace id, or ``None`` when tracing is off."""
    return _trace_id


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current() -> TraceContext | None:
    """The innermost open span's context on this thread (None when idle/off)."""
    stack = getattr(_local, "stack", None)
    return stack[-1].context if stack else None


def child_context(parent: TraceContext) -> TraceContext:
    """A fresh span id under *parent*'s trace — works even when tracing is
    locally disabled."""
    return TraceContext(trace_id=parent.trace_id, span_id=_new_id(4))


class Span:
    """One timed region; use via ``with span("sampling.round", round=3):``."""

    __slots__ = ("name", "context", "parent_id", "fields", "_start")

    def __init__(self, name: str, context: TraceContext, parent_id: str | None, fields: dict):
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.fields = fields
        self._start = None

    def __enter__(self) -> "Span":
        _stack().append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        _log.debug(
            "span",
            name=self.name,
            trace_id=self.context.trace_id,
            span_id=self.context.span_id,
            parent_id=self.parent_id,
            duration=round(duration, 6),
            ok=exc_type is None,
            **self.fields,
        )


class _NullSpan:
    """Zero-cost stand-in when tracing is off; ``.context`` is None."""

    __slots__ = ()
    context = None
    parent_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, *, parent: TraceContext | None = None, **fields):
    """Open a span under *parent* (or the innermost open span, or the root).

    Returns a context manager; when tracing is disabled, a shared no-op span
    whose ``context`` is None — callers can unconditionally attach
    ``span.context`` to outgoing tasks.
    """
    if parent is not None:
        context = child_context(parent)
        return Span(name, context, parent.span_id, fields)
    if not _enabled:
        return _NULL_SPAN
    enclosing = current()
    if enclosing is not None:
        return Span(name, child_context(enclosing), enclosing.span_id, fields)
    return Span(name, TraceContext(trace_id=_trace_id, span_id=_new_id(4)), None, fields)
