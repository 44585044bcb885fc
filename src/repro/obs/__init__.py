"""Observability subsystem: metrics, structured logs and trace spans.

Three dependency-free pieces, all deterministic by construction — none of
them ever touches a numpy RNG stream, so instrumentation on or off, every
sampling trajectory stays bit-identical:

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram`` with
  labeled series, mergeable JSON snapshots and injectable monotonic clocks.
* :mod:`repro.obs.logging` — one JSON-lines sink per process behind
  ``get_logger(component)`` facades, off until ``configure()`` is called.
* :mod:`repro.obs.trace` — span tracer: nested timed regions, each logged
  with its :class:`TraceContext` (trace and span ids).

``repro.obs.summarize`` renders exported snapshots for the
``repro metrics summarize`` CLI.
"""

from repro.obs.logging import configure as configure_logging
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, merge_snapshots, registry
from repro.obs.trace import TraceContext, span

__all__ = [
    "MetricsRegistry",
    "TraceContext",
    "configure_logging",
    "get_logger",
    "merge_snapshots",
    "registry",
    "span",
]
