"""Storage backend benchmark: out-of-core SQLite vs columnar in RAM.

Pits the **sqlite backend** (out-of-core: graph columns and vocabulary stay
in the WAL database, only the CSR position index is materialised) against
the columnar backend held fully in RAM, on a >=1M-triple synthetic KG
(MOVIE-FULL-like shape: mean cluster size ~9, lognormal skew 1.1).  Both run
the same TWCS position-surface evaluation with the same seeds, each in its
own subprocess so RSS is measured cleanly.  Peak resident memory
(``VmHWM`` delta) of both evaluation workers lands in the results JSON; at
full scale the sqlite peak must come in *below* the columnar one — that is
the whole point of the backend.

Environment knobs: ``REPRO_BENCH_STORAGE_TRIPLES`` (default 1_000_000)
scales the KG; ``REPRO_BENCH_STORAGE_DRAWS`` (default 50_000) scales the
timed draw loop.  Below 1M triples (e.g. the CI benchmark-smoke job at ~50k)
the memory threshold is not enforced — estimate parity always is.
Set ``REPRO_BENCH_RESULTS_DIR`` to dump the raw numbers as JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

# --------------------------------------------------------------------------- #
# Shared configuration
# --------------------------------------------------------------------------- #
_TARGET_TRIPLES = int(os.environ.get("REPRO_BENCH_STORAGE_TRIPLES", 1_000_000))
_TARGET_DRAWS = int(os.environ.get("REPRO_BENCH_STORAGE_DRAWS", 50_000))
_FULL_SCALE = 1_000_000
_MEAN_CLUSTER_SIZE = 9.0
_GRAPH_SEED = 0
_LABEL_SEED = 1
_DESIGN_SEED = 2
_ACCURACY = 0.9
_SECOND_STAGE = 5
_BATCH = 1024


def _kg_config():
    from repro.generators.synthetic_kg import SyntheticKGConfig

    # Oversize the entity count slightly so the realised lognormal draw stays
    # above the requested triple floor.
    num_entities = max(10, int(round(_TARGET_TRIPLES / _MEAN_CLUSTER_SIZE * 1.04)))
    return SyntheticKGConfig(
        num_entities=num_entities,
        mean_cluster_size=_MEAN_CLUSTER_SIZE,
        size_skew=1.1,
        max_cluster_size=500,
        name="bench-storage",
    )


def _rss_kb() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("VmRSS not found")  # pragma: no cover


def _peak_rss_kb() -> int:
    """Process high-water-mark RSS (``VmHWM``) — the honest "peak memory"."""
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM not found")  # pragma: no cover


# --------------------------------------------------------------------------- #
# Subprocess workers
# --------------------------------------------------------------------------- #
def _worker_build_snapshot(snapshot_path: str) -> dict:
    """Bulk-build the columnar graph and persist it as a snapshot directory."""
    from repro.generators.synthetic_kg import generate_kg
    from repro.storage.snapshot import SnapshotStore

    started = time.perf_counter()
    graph = generate_kg(_kg_config(), seed=_GRAPH_SEED)
    build_seconds = time.perf_counter() - started
    started = time.perf_counter()
    SnapshotStore(snapshot_path).save(graph, name=graph.name)
    return {
        "backend": "columnar build",
        "num_triples": graph.num_triples,
        "build_seconds": build_seconds,
        "save_seconds": time.perf_counter() - started,
    }


def _worker_build_sqlite(snapshot_path: str, db_path: str) -> dict:
    """Bulk-copy the snapshot's columns into a WAL sqlite database."""
    from repro.storage.snapshot import SnapshotStore
    from repro.storage.sqlite import SqliteStore

    graph = SnapshotStore(snapshot_path).load_graph(mmap=True)
    started = time.perf_counter()
    store = SqliteStore.from_columnar(graph.backend, path=db_path, name=graph.name)
    build_seconds = time.perf_counter() - started
    store.close()
    db_bytes = sum(
        p.stat().st_size for p in (Path(db_path), Path(db_path + "-wal")) if p.exists()
    )
    return {
        "backend": "sqlite build",
        "num_triples": graph.num_triples,
        "build_seconds": build_seconds,
        "db_size_mb": db_bytes / (1024 * 1024),
    }


def _worker_columnar_ram(snapshot_path: str) -> dict:
    """Columnar fully in RAM (mmap off): the in-core cost sqlite competes with."""
    import numpy as np

    from repro.sampling.twcs import TwoStageWeightedClusterDesign
    from repro.storage.snapshot import SnapshotStore

    rss_before = _rss_kb()
    started = time.perf_counter()
    graph = SnapshotStore(snapshot_path).load_graph(mmap=False)
    design = TwoStageWeightedClusterDesign(
        graph, second_stage_size=_SECOND_STAGE, seed=_DESIGN_SEED
    )
    load_seconds = time.perf_counter() - started

    label_array = np.random.default_rng(_LABEL_SEED).random(graph.num_triples) < _ACCURACY
    drawn = 0
    started = time.perf_counter()
    while drawn < _TARGET_DRAWS:
        units = design.draw_positions(min(_BATCH, _TARGET_DRAWS - drawn))
        design.update_all_positions(units, label_array)
        drawn += len(units)
    loop_seconds = time.perf_counter() - started
    return {
        "backend": "columnar (in RAM)",
        "num_triples": graph.num_triples,
        "num_entities": graph.num_entities,
        "load_seconds": load_seconds,
        "peak_rss_kb": _peak_rss_kb() - rss_before,
        "draws": drawn,
        "draws_per_second": drawn / loop_seconds,
        "estimate": design.estimate().value,
    }


def _worker_sqlite(db_path: str) -> dict:
    """Out-of-core path: open the WAL database, position-surface TWCS loop.

    ``mmap_size=0`` keeps reads on sqlite's bounded page cache — the
    configuration whose resident footprint the backend is claimed at.  Only
    the materialised CSR position index (~12 bytes/triple) lives in Python
    memory; the string columns and vocabulary never leave the file.
    """
    import numpy as np

    from repro.kg.graph import KnowledgeGraph
    from repro.sampling.twcs import TwoStageWeightedClusterDesign
    from repro.storage.sqlite import SqliteStore

    rss_before = _rss_kb()
    started = time.perf_counter()
    store = SqliteStore(db_path, mmap_size=0)
    graph = KnowledgeGraph(name=store.graph_name() or "bench", backend=store)
    design = TwoStageWeightedClusterDesign(
        graph, second_stage_size=_SECOND_STAGE, seed=_DESIGN_SEED
    )
    store.csr_arrays()  # materialise the position index up front
    load_seconds = time.perf_counter() - started

    label_array = np.random.default_rng(_LABEL_SEED).random(graph.num_triples) < _ACCURACY
    drawn = 0
    started = time.perf_counter()
    while drawn < _TARGET_DRAWS:
        units = design.draw_positions(min(_BATCH, _TARGET_DRAWS - drawn))
        design.update_all_positions(units, label_array)
        drawn += len(units)
    loop_seconds = time.perf_counter() - started
    return {
        "backend": "sqlite (out of core)",
        "num_triples": graph.num_triples,
        "num_entities": graph.num_entities,
        "load_seconds": load_seconds,
        "peak_rss_kb": _peak_rss_kb() - rss_before,
        "draws": drawn,
        "draws_per_second": drawn / loop_seconds,
        "estimate": design.estimate().value,
    }


def _run_worker(role: str, *args: str) -> dict:
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env else "")
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), role, *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker {role} failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------- #
# Benchmarks
# --------------------------------------------------------------------------- #
def test_sqlite_backend_out_of_core_memory(benchmark, tmp_path):
    """Sqlite vs in-RAM columnar: identical estimates, lower peak RSS.

    The draw loops run the same TWCS position-surface evaluation with the
    same seeds on both backends; the estimates must agree bit-for-bit at any
    scale.  At the full 1M-triple scale the sqlite worker's peak resident
    memory must come in below the columnar worker's — the columns and
    vocabulary stay in the database file.
    """
    from conftest import emit, run_once

    snapshot_path = str(tmp_path / "bench-kg")
    db_path = str(tmp_path / "bench-kg.sqlite")

    def run_comparison():
        build = _run_worker("build-snapshot", snapshot_path)
        sqlite_build = _run_worker("build-sqlite", snapshot_path, db_path)
        columnar_ram = _run_worker("columnar-ram", snapshot_path)
        sqlite = _run_worker("sqlite", db_path)
        return build, sqlite_build, columnar_ram, sqlite

    build, sqlite_build, columnar_ram, sqlite = run_once(benchmark, run_comparison)
    results_dir = os.environ.get("REPRO_BENCH_RESULTS_DIR")
    if results_dir:
        Path(results_dir).mkdir(parents=True, exist_ok=True)
        out = Path(results_dir) / "bench_storage_backend_sqlite.json"
        with open(out, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "build": build,
                    "sqlite_build": sqlite_build,
                    "columnar_ram": columnar_ram,
                    "sqlite": sqlite,
                },
                f,
                indent=2,
            )
    peak_ratio = columnar_ram["peak_rss_kb"] / max(1, sqlite["peak_rss_kb"])
    emit(
        "Sqlite backend: out-of-core evaluation vs columnar in RAM "
        f"({sqlite['num_triples']:,} triples, TWCS m={_SECOND_STAGE})",
        "\n".join(
            [
                f"{'':28}{'columnar (RAM)':>16}{'sqlite':>16}{'ratio':>9}",
                f"{'peak RSS delta (MB)':28}{columnar_ram['peak_rss_kb'] / 1024:>16.1f}"
                f"{sqlite['peak_rss_kb'] / 1024:>16.1f}{peak_ratio:>8.1f}x",
                f"{'draws per second':28}{columnar_ram['draws_per_second']:>16,.0f}"
                f"{sqlite['draws_per_second']:>16,.0f}",
                f"{'estimate (true 0.900)':28}{columnar_ram['estimate']:>16.4f}"
                f"{sqlite['estimate']:>16.4f}",
                f"(sqlite bulk copy: {sqlite_build['build_seconds']:.1f} s, "
                f"database {sqlite_build['db_size_mb']:.1f} MB; "
                f"open+CSR: {sqlite['load_seconds'] * 1000:.0f} ms)",
            ]
        ),
    )
    assert sqlite["num_triples"] == columnar_ram["num_triples"] == sqlite_build["num_triples"]
    # Same seeds, same CSR layout -> the draw streams and estimates are
    # bit-identical however the bytes are stored.
    assert sqlite["estimate"] == columnar_ram["estimate"]
    if sqlite["num_triples"] >= _FULL_SCALE:
        assert sqlite["peak_rss_kb"] < columnar_ram["peak_rss_kb"], (
            f"sqlite peak RSS {sqlite['peak_rss_kb']} kB not below "
            f"columnar's {columnar_ram['peak_rss_kb']} kB"
        )


# --------------------------------------------------------------------------- #
# Worker entry point
# --------------------------------------------------------------------------- #
if __name__ == "__main__":
    role = sys.argv[1]
    if role == "build-snapshot":
        print(json.dumps(_worker_build_snapshot(sys.argv[2])))
    elif role == "build-sqlite":
        print(json.dumps(_worker_build_sqlite(sys.argv[2], sys.argv[3])))
    elif role == "columnar-ram":
        print(json.dumps(_worker_columnar_ram(sys.argv[2])))
    elif role == "sqlite":
        print(json.dumps(_worker_sqlite(sys.argv[2])))
    else:  # pragma: no cover
        raise SystemExit(f"unknown worker role {role!r}")
