"""Structured JSON-lines logging for every layer of the stack.

One process-wide sink, configured once (usually from the CLI's ``--log-json``
flag) and consumed through per-component facades::

    from repro.obs.logging import get_logger
    log = get_logger("serve")
    log.info("session_attached", session=name, evaluator="ss")

Each record is one JSON object per line: timestamp, level, component, event
name, the configured run-wide context fields (``run_id``, ``node_id``), then
the event's own fields.  Logging is **off by default** — ``get_logger`` is
free to call at import time, every emit checks one integer level first, and
``enabled_for`` lets hot paths skip building expensive field values
entirely.  Nothing here ever touches numpy RNG streams, so enabling logs can
never move a sampling trajectory.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

__all__ = ["LEVELS", "StructLogger", "configure", "get_logger", "is_enabled", "reset"]

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}
_OFF = 1000


class _State:
    __slots__ = ("sink", "owns_sink", "level", "context", "lock")

    def __init__(self) -> None:
        self.sink = None
        self.owns_sink = False
        self.level = _OFF
        self.context: dict = {}
        self.lock = threading.Lock()


_state = _State()


def configure(path=None, *, stream=None, level: str = "info", **context) -> None:
    """Open the JSON-lines sink and turn logging on.

    Exactly one of *path* (appended to) or *stream* (e.g. ``sys.stderr``) is
    the sink; *context* fields (``run_id=...``, ``node_id=...``) are merged
    into every subsequent record.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r}; expected one of {sorted(LEVELS)}")
    if (path is None) == (stream is None):
        raise ValueError("configure() needs exactly one of path= or stream=")
    with _state.lock:
        if _state.owns_sink and _state.sink is not None:
            _state.sink.close()
        if path is not None:
            target = Path(path)
            if target.parent != Path(""):
                target.parent.mkdir(parents=True, exist_ok=True)
            _state.sink = open(target, "a", encoding="utf-8")
            _state.owns_sink = True
        else:
            _state.sink = stream
            _state.owns_sink = False
        _state.level = LEVELS[level]
        _state.context = {key: value for key, value in context.items() if value is not None}


#: :func:`configure` under the name :mod:`repro.obs` exports it as.
configure_logging = configure


def reset() -> None:
    """Close the sink and disable logging (tests, end of CLI runs)."""
    with _state.lock:
        if _state.owns_sink and _state.sink is not None:
            try:
                _state.sink.close()
            except OSError:  # pragma: no cover - close race on teardown
                pass
        _state.sink = None
        _state.owns_sink = False
        _state.level = _OFF
        _state.context = {}


def is_enabled(level: str = "info") -> bool:
    """Whether a record at ``level`` would currently be written anywhere."""
    return LEVELS.get(level, _OFF) >= _state.level and _state.sink is not None


def _json_default(value):
    try:
        import numpy as np

        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.ndarray):
            return value.tolist()
    except ImportError:  # pragma: no cover - numpy is a hard dep elsewhere
        pass
    return str(value)


class StructLogger:
    """Named facade over the process sink; safe to create at import time."""

    __slots__ = ("component",)

    def __init__(self, component: str) -> None:
        self.component = component

    def enabled_for(self, level: str) -> bool:
        """Guard for callers that build expensive log fields."""
        return is_enabled(level)

    def log(self, level: str, event: str, **fields) -> None:
        """Write one structured record; a no-op unless configured at ``level``."""
        numeric = LEVELS.get(level)
        if numeric is None:
            raise ValueError(f"unknown log level {level!r}")
        if numeric < _state.level or _state.sink is None:
            return
        record = {
            "ts": round(time.time(), 6),
            "level": level,
            "component": self.component,
            "event": event,
        }
        record.update(_state.context)
        record.update(fields)
        line = json.dumps(record, default=_json_default, separators=(",", ":"))
        with _state.lock:
            sink = _state.sink
            if sink is None:  # reset() raced us; drop the record
                return
            try:
                sink.write(line + "\n")
                sink.flush()
            except (OSError, ValueError):  # pragma: no cover - sink went away
                pass

    def debug(self, event: str, **fields) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)


def get_logger(component: str) -> StructLogger:
    """The logging facade for ``component`` (e.g. ``"serve"``).

    Cheap and import-time safe: records go nowhere until :func:`configure`
    turns the process sink on.
    """
    return StructLogger(component)
