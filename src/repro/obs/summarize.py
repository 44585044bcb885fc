"""Render exported metrics snapshots as human-readable tables.

Backs ``repro metrics summarize FILE...``: each FILE is a JSON snapshot
written by :meth:`repro.obs.metrics.MetricsRegistry.export` (one per process,
via ``--metrics-out``).  Snapshots merge via
:func:`repro.obs.metrics.merge_snapshots`; series that carry no ``node``
label inherit the exporting file's ``meta.node_id`` (a serve daemon exports
its listen address), so the series of different daemons stay apart.  The
report lists every merged series, one line each.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import merge_snapshots

__all__ = ["load_snapshot", "merge_files", "render_tables", "summarize_files"]


def load_snapshot(path) -> dict:
    """Read one exported snapshot, tagging node-less series with its node id."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or not isinstance(payload.get("series"), list):
        raise ValueError(f"{path} is not a metrics snapshot (missing 'series' list)")
    node_id = (payload.get("meta") or {}).get("node_id")
    if node_id:
        for entry in payload["series"]:
            entry.setdefault("labels", {}).setdefault("node", str(node_id))
    return payload


def merge_files(paths) -> dict:
    """Load and merge snapshot files into one combined snapshot payload."""
    return merge_snapshots(load_snapshot(path) for path in paths)


def _fmt_seconds(value) -> str:
    return "-" if value is None else f"{value:.4f}"


def _fmt_count(value) -> str:
    number = float(value)
    return str(int(number)) if number == int(number) else f"{number:.3f}"


def _series_lines(series: list[dict]) -> list[str]:
    lines = []
    for entry in sorted(series, key=lambda item: (item["name"], sorted(item["labels"].items()))):
        labels = entry.get("labels", {})
        label_text = (
            "{" + ",".join(f"{key}={value}" for key, value in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        if entry["kind"] == "histogram":
            count = entry["count"]
            mean = entry["sum"] / count if count else None
            lines.append(
                f"{entry['name']}{label_text}  count={count} sum={_fmt_seconds(entry['sum'])}"
                f" mean={_fmt_seconds(mean)} max={_fmt_seconds(entry['max'])}"
            )
        else:
            lines.append(f"{entry['name']}{label_text}  {_fmt_count(entry['value'])}")
    return lines


def render_tables(merged: dict) -> str:
    """Render one merged snapshot as the summarize report text."""
    lines = _series_lines(merged.get("series", []))
    if not lines:
        return "(no series recorded)"
    return "Series\n" + "\n".join(lines)


def summarize_files(paths) -> str:
    """Load, merge and render the given snapshot files."""
    return render_tables(merge_files(paths))
