"""SqliteStore: the out-of-core storage backend.

Covers the durability setup (WAL pragmas), reopen persistence, the stored
CSR cluster index (read back when it describes the table, a scan when it is
absent, stale or damaged), draw-stream parity against the columnar backend,
resumable checkpointed ingest — including a subprocess SIGKILLed mid-load
and resumed to a byte-identical database — and the CLI surface
(``snapshot --backend sqlite`` / ``evaluate --from-snapshot db.sqlite``,
which reads no triple rows).
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import signal
import sqlite3
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.kg.graph import KnowledgeGraph
from repro.kg.statistics import cluster_size_summary
from repro.kg.triple import Triple
from repro.storage import SqliteStore, make_backend
from repro.storage.sqlite import is_sqlite_file


def _write_tsv(path: Path, rows: int = 3000, seed: int = 3) -> Path:
    rng = np.random.default_rng(seed)
    lines = [
        f"e{rng.integers(0, rows // 10)}\tp{rng.integers(0, 5)}\to{i % (rows // 4)}"
        for i in range(rows)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestSqliteBasics:
    def test_wal_pragmas_applied(self, tmp_path):
        store = SqliteStore(tmp_path / "kg.sqlite")
        conn = store._conn
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert conn.execute("PRAGMA synchronous").fetchone()[0] == 1  # NORMAL
        assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 30000
        assert conn.execute("PRAGMA mmap_size").fetchone()[0] == store.mmap_size

    def test_make_backend_knows_sqlite(self):
        assert isinstance(make_backend("sqlite"), SqliteStore)

    def test_is_sqlite_file_detection(self, tmp_path):
        db = tmp_path / "kg.sqlite"
        SqliteStore(db).add(Triple("a", "p", "b"))
        assert is_sqlite_file(db)
        other = tmp_path / "kg.npz"
        other.write_bytes(b"PK\x03\x04 not a database")
        assert not is_sqlite_file(other)
        assert not is_sqlite_file(tmp_path / "missing")

    def test_not_picklable(self, toy_graph):
        store = toy_graph.to_sqlite().backend
        with pytest.raises(TypeError, match="not picklable"):
            pickle.dumps(store)

    def test_temporary_database_removed_on_close(self):
        store = SqliteStore()
        path = store.path
        store.add(Triple("a", "p", "b"))
        assert path.exists()
        store.close()
        assert not path.exists()

    def test_reopen_preserves_everything(self, tmp_path, toy_graph):
        db = tmp_path / "kg.sqlite"
        original = toy_graph.to_sqlite(path=db)
        digest = original.backend.content_digest()
        triples = tuple(original.backend.iter_triples())
        sizes = original.backend.cluster_size_array().copy()
        original.backend.close()
        reopened = SqliteStore(db)
        assert reopened.content_digest() == digest
        assert tuple(reopened.iter_triples()) == triples
        np.testing.assert_array_equal(reopened.cluster_size_array(), sizes)
        assert reopened.num_triples == toy_graph.num_triples
        # And it keeps accepting adds with continuing positions/rows.
        assert reopened.add(Triple("brand", "new", "triple"))
        assert reopened.num_triples == toy_graph.num_triples + 1

    def test_add_rejects_duplicates_like_other_backends(self):
        store = SqliteStore()
        assert store.add(Triple("a", "p", "b"))
        assert not store.add(Triple("a", "p", "b"))
        assert store.add(Triple("a", "p", "c"))
        assert store.num_triples == 2 and store.num_entities == 1

    def test_out_of_range_accesses_raise(self, toy_graph):
        store = toy_graph.to_sqlite().backend
        with pytest.raises(IndexError):
            store.triple_at(store.num_triples)
        with pytest.raises(IndexError):
            store.cluster_positions_by_row(store.num_entities)
        with pytest.raises(KeyError):
            store.entity_row("no-such-entity")

    def test_labels_roundtrip_and_misaligned_rejected(self, toy_graph):
        store = toy_graph.to_sqlite().backend
        labels = np.zeros(store.num_triples, dtype=bool)
        labels[::2] = True
        store.save_labels(labels)
        np.testing.assert_array_equal(store.load_labels(), labels)
        with pytest.raises(ValueError):
            store.save_labels(np.zeros(store.num_triples + 1, dtype=bool))

    def test_graph_name_recorded(self, toy_graph, tmp_path):
        graph = toy_graph.to_sqlite(path=tmp_path / "named.sqlite", name="my-kg")
        assert graph.backend.graph_name() == "my-kg"


_STORED_INDEX_KEYS = ("csr_offsets", "csr_positions")

_triple_lists = st.lists(
    st.builds(
        Triple,
        st.integers(0, 8).map(lambda i: f"s{i}"),
        st.sampled_from(["p0", "p1", "p2"]),
        st.integers(0, 12).map(lambda o: f"o{o}"),
        st.booleans(),
    ),
    max_size=60,
)


def _rewrite_meta(path: Path, **values) -> None:
    """Set (``bytes``) or delete (``None``) ``meta`` rows of a closed database."""
    with contextlib.closing(sqlite3.connect(path)) as conn, conn:
        for key, value in values.items():
            conn.execute("DELETE FROM meta WHERE key = ?", (key,))
            if value is not None:
                conn.execute("INSERT INTO meta (key, value) VALUES (?, ?)", (key, value))


def _stored_index(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with contextlib.closing(sqlite3.connect(path)) as conn:
        blobs = dict(conn.execute("SELECT key, value FROM meta"))
    return tuple(np.frombuffer(blobs[key], dtype="<i8").copy() for key in _STORED_INDEX_KEYS)


def _reference_csr(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The cluster index as plain Python groups the committed rows."""
    with contextlib.closing(sqlite3.connect(path)) as conn:
        clusters = [[] for _ in range(conn.execute("SELECT COUNT(*) FROM entities").fetchone()[0])]
        for row, position in conn.execute("SELECT entity_row, position FROM triples"):
            clusters[row].append(position)
    offsets = np.cumsum([0] + [len(cluster) for cluster in clusters])
    positions = [position for cluster in clusters for position in sorted(cluster)]
    return offsets, np.asarray(positions, dtype=np.int64)


def _read_csr(store: SqliteStore) -> tuple[tuple[np.ndarray, np.ndarray], set[str]]:
    """``store.csr_arrays()`` and the reads it made: ``"scan"`` for the ordered
    row scan, ``"blob"`` for a fetch of a stored index blob."""
    statements: list[str] = []
    store._conn.set_trace_callback(statements.append)
    try:
        csr = store.csr_arrays()
    finally:
        store._conn.set_trace_callback(None)
    reads = set()
    if any("FROM triples ORDER BY entity_row" in sql for sql in statements):
        reads.add("scan")
    if any("SELECT value FROM meta" in sql for sql in statements):
        reads.add("blob")
    return csr, reads


def _assert_csr_equal(actual, expected) -> None:
    for got, want in zip(actual, expected):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


#: Ways a stored ``(offsets, positions)`` index can fail to describe its table.
_DAMAGE = {
    "truncated positions": lambda o, p: (o, p[: p.size // 2]),
    "extra position": lambda o, p: (o, np.append(p, p[0])),
    "extra offset": lambda o, p: (np.append(o, o[-1]), p),
    "offsets start above 0": lambda o, p: (np.r_[1, o[1:]], p),
    "offsets end short": lambda o, p: (np.r_[o[:-1], o[-1] - 1], p),
    "decreasing offsets": lambda o, p: (np.r_[o[0], o[2], o[1], o[3:]], p),
    "repeated position": lambda o, p: (o, np.r_[p[0], p[0], p[2:]]),
    "negative position": lambda o, p: (o, np.where(p == p.size - 1, -1, p)),
}


class TestStoredClusterIndex:
    @given(_triple_lists, st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_reopened_index_equals_columnar_and_scan(self, triples, chunk):
        columnar = KnowledgeGraph(triples).backend
        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "kg.sqlite"
            SqliteStore.from_columnar(columnar, path=db).close()
            stored = SqliteStore(db)
            csr, reads = _read_csr(stored)
            assert reads == {"blob"}
            _assert_csr_equal(csr, columnar.csr_arrays())
            np.testing.assert_array_equal(
                stored.cluster_size_array(), columnar.cluster_size_array()
            )
            stored.close()
            _rewrite_meta(db, **dict.fromkeys(_STORED_INDEX_KEYS))
            rescanned = SqliteStore(db)
            # Small chunks put chunk boundaries inside clusters.
            with mock.patch("repro.storage.sqlite._SCAN_CHUNK", chunk):
                scan, reads = _read_csr(rescanned)
            assert reads == {"scan"}
            _assert_csr_equal(scan, csr)
            np.testing.assert_array_equal(
                rescanned.cluster_size_array(), columnar.cluster_size_array()
            )
            rescanned.close()

    @pytest.mark.parametrize(
        "write_headroom, read_headroom, stored",
        [(64, 64, True), (0, 0, False), (None, 0, False)],
        ids=["fits", "too-big-to-write", "too-big-to-read"],
    )
    def test_index_over_the_length_limit_is_not_used(
        self, tmp_path, nell, monkeypatch, write_headroom, read_headroom, stored
    ):
        """SQLite refuses a row over its length limit on write (which would
        roll the whole copy back) and a blob over it on read."""
        columnar = nell.graph.to_columnar().backend
        blob_bytes = columnar.csr_arrays()[1].size * 8
        connect = sqlite3.connect

        def connect_with(headroom):
            def limited_connect(*args, **kwargs):
                conn = connect(*args, **kwargs)
                if headroom is not None:
                    conn.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, blob_bytes + headroom)
                return conn

            return limited_connect

        db = tmp_path / "kg.sqlite"
        monkeypatch.setattr(sqlite3, "connect", connect_with(write_headroom))
        SqliteStore.from_columnar(columnar, path=db).close()
        reference = SqliteStore.from_columnar(columnar)
        monkeypatch.setattr(sqlite3, "connect", connect_with(read_headroom))
        reopened = SqliteStore(db)
        csr, reads = _read_csr(reopened)
        assert reads == ({"blob"} if stored else {"scan"})
        _assert_csr_equal(csr, columnar.csr_arrays())
        assert reopened.content_digest() == reference.content_digest()
        reopened.close()
        reference.close()

    def test_scan_holds_the_index_and_one_chunk(self, tmp_path):
        triples = [Triple(f"s{i % 2000}", "p", f"o{i}") for i in range(20_000)]
        db = tmp_path / "kg.sqlite"
        KnowledgeGraph(triples).to_sqlite(path=db).backend.close()
        _rewrite_meta(db, **dict.fromkeys(_STORED_INDEX_KEYS))
        store = SqliteStore(db)
        chunk = 1000
        tracemalloc.start()
        try:
            with mock.patch("repro.storage.sqlite._SCAN_CHUNK", chunk):
                csr, reads = _read_csr(store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reads == {"scan"}
        _assert_csr_equal(csr, _reference_csr(db))
        index_bytes = 8 * (store.num_triples + store.num_entities + 1)
        # The index, a few chunk-sized buffers and interpreter slack; one
        # whole-table buffer of (row, position) pairs alone is 2x the index.
        assert peak < index_bytes + 4 * 16 * chunk + 64 * 1024
        store.close()

    def test_growth_makes_the_stored_index_stale(self, tmp_path, toy_graph):
        db = tmp_path / "kg.sqlite"
        toy_graph.to_sqlite(path=db).backend.close()
        store = SqliteStore(db)
        assert _read_csr(store)[1] == {"blob"}
        tsv = _write_tsv(tmp_path / "more.tsv", rows=600)
        for grow in (
            lambda: store.add(Triple("athlete_1", "late", "fact")),
            lambda: store.add_batch([Triple("newcomer", "p", "o"), Triple("city_1", "p", "o")]),
            lambda: store.ingest_file(tsv, "tsv", batch_size=100, max_batches=1),
        ):
            grow()
            csr, reads = _read_csr(store)
            # The stale blobs fail the length check in SQL and are never read.
            assert reads == {"scan"}
            _assert_csr_equal(csr, _reference_csr(db))
        store.close()
        reopened = SqliteStore(db)
        csr, reads = _read_csr(reopened)
        assert reads == {"scan"}
        _assert_csr_equal(csr, _reference_csr(db))
        np.testing.assert_array_equal(reopened.cluster_size_array(), np.diff(csr[0]))

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_damaged_index_is_never_used(self, tmp_path, nell, damage):
        db = tmp_path / "kg.sqlite"
        nell.graph.to_sqlite(path=db).backend.close()
        offsets, positions = _stored_index(db)
        # Non-empty first and last clusters: each damage but the truncation
        # then trips exactly one of the checks.
        assert (np.diff(offsets)[[0, 1, -1]] > 0).all()
        offsets, positions = _DAMAGE[damage](offsets, positions)
        _rewrite_meta(
            db,
            csr_offsets=offsets.astype("<i8").tobytes(),
            csr_positions=positions.astype("<i8").tobytes(),
        )
        store = SqliteStore(db)
        csr, reads = _read_csr(store)
        assert "scan" in reads
        _assert_csr_equal(csr, _reference_csr(db))
        store.close()


class TestSqliteDrawParity:
    def test_batch_draws_match_columnar(self, nell):
        columnar = nell.graph.to_columnar()
        sqlite = columnar.to_sqlite()
        rows = np.arange(48) % columnar.num_entities
        rng_col = np.random.default_rng(2026)
        rng_sq = np.random.default_rng(2026)
        draws_col = columnar.sample_cluster_positions_batch(rows, 5, rng_col)
        draws_sq = sqlite.sample_cluster_positions_batch(rows, 5, rng_sq)
        assert all(np.array_equal(a, b) for a, b in zip(draws_col, draws_sq))
        # The RNG streams were consumed identically too.
        assert rng_col.integers(0, 2**62) == rng_sq.integers(0, 2**62)

    def test_stats_bit_identical_across_backends(self, nell):
        columnar = nell.graph.to_columnar()
        sqlite = columnar.to_sqlite()
        np.testing.assert_array_equal(columnar.cluster_size_array(), sqlite.cluster_size_array())
        assert cluster_size_summary(columnar) == cluster_size_summary(sqlite)


class TestSqliteIngestResume:
    def test_interrupted_ingest_resumes_to_identical_database(self, tmp_path):
        tsv = _write_tsv(tmp_path / "kg.tsv")
        reference = SqliteStore(tmp_path / "ref.sqlite")
        report = reference.ingest_file(tsv, "tsv", batch_size=256)
        assert report["status"] == "done"
        expected = reference.content_digest()

        partial = SqliteStore(tmp_path / "part.sqlite")
        first = partial.ingest_file(tsv, "tsv", batch_size=256, max_batches=4)
        assert first["status"] == "in_progress"
        assert first["rows_this_call"] == 4 * 256
        partial.close()
        resumed = SqliteStore(tmp_path / "part.sqlite")
        second = resumed.ingest_file(tsv, "tsv", batch_size=256)
        assert second["status"] == "done"
        assert second["resumed_from_rows"] == 4 * 256
        assert resumed.content_digest() == expected

    def test_completed_ingest_short_circuits(self, tmp_path):
        tsv = _write_tsv(tmp_path / "kg.tsv", rows=600)
        store = SqliteStore(tmp_path / "kg.sqlite")
        store.ingest_file(tsv, "tsv", batch_size=100)
        before = store.content_digest()
        again = store.ingest_file(tsv, "tsv", batch_size=100)
        assert again["status"] == "done"
        assert again["rows_this_call"] == 0
        assert store.content_digest() == before

    def test_ingest_state_reports_checkpoint(self, tmp_path):
        tsv = _write_tsv(tmp_path / "kg.tsv", rows=600)
        store = SqliteStore(tmp_path / "kg.sqlite")
        store.ingest_file(tsv, "tsv", batch_size=100, max_batches=2)
        state = store.ingest_state(f"tsv:{tsv.resolve()}")
        assert state is not None
        assert (state["batches"], state["rows"], state["status"]) == (2, 200, "in_progress")
        assert store.ingest_state("never-ingested") is None

    def test_ingest_rejects_bad_arguments(self, tmp_path):
        store = SqliteStore()
        with pytest.raises(ValueError, match="format"):
            store.ingest_file(tmp_path / "kg.xml", "xml")
        with pytest.raises(ValueError, match="batch_size"):
            store.ingest_file(tmp_path / "kg.tsv", "tsv", batch_size=0)

    def test_nt_ingest_matches_columnar_loader(self, tmp_path):
        from repro.storage.ingest import ingest_nt

        nt = tmp_path / "kg.nt"
        nt.write_text(
            "<e1> <bornIn> <e2> .\n"
            '<e1> <name> "Ada Lovelace" .\n'
            '<e2> <name> "Analytical\\nEngine"@en .\n'
            "<e2> <knows> <e1> .\n",
            encoding="utf-8",
        )
        columnar = ingest_nt(nt)
        store = SqliteStore(tmp_path / "kg.sqlite")
        store.ingest_file(nt, "nt", batch_size=2)
        assert tuple(store.iter_triples()) == tuple(columnar.backend.iter_triples())
        for left, right in zip(store.id_columns(), columnar.backend.id_columns()):
            assert np.array_equal(np.asarray(left), np.asarray(right))

    @pytest.mark.timeout(120)
    def test_sigkill_mid_load_resumes_byte_identical(self, tmp_path):
        """Kill the loader with SIGKILL right after a batch commit; the
        reopened database must resume from the checkpoint and finish with
        the same content digest as an uninterrupted load."""
        tsv = _write_tsv(tmp_path / "kg.tsv")
        reference = SqliteStore(tmp_path / "ref.sqlite")
        reference.ingest_file(tsv, "tsv", batch_size=256)
        expected = reference.content_digest()

        victim_db = tmp_path / "victim.sqlite"
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.storage.sqlite import SqliteStore

            class KilledAtBatch(SqliteStore):
                def _checkpoint(self, source, batches, rows, status, commit=True):
                    super()._checkpoint(source, batches, rows, status, commit=commit)
                    if status == "in_progress" and batches == 3 and not commit:
                        # Commit the batch like the normal loop would, then
                        # die without any cleanup.
                        self._conn.execute("COMMIT")
                        os.kill(os.getpid(), signal.SIGKILL)

            store = KilledAtBatch({str(victim_db)!r})
            store.ingest_file({str(tsv)!r}, "tsv", batch_size=256)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
        assert proc.returncode == -signal.SIGKILL

        survivor = SqliteStore(victim_db)
        state = survivor.ingest_state(f"tsv:{tsv.resolve()}")
        assert state is not None and state["status"] == "in_progress"
        assert state["batches"] == 3
        report = survivor.ingest_file(tsv, "tsv", batch_size=256)
        assert report["status"] == "done"
        assert report["resumed_from_rows"] == 3 * 256
        assert survivor.content_digest() == expected


@pytest.fixture(scope="module")
def movie_sqlite(tmp_path_factory) -> tuple[str, str]:
    """A labelled MOVIE database (seed 0, default scale) and what ``snapshot`` printed."""
    target = str(tmp_path_factory.mktemp("movie") / "movie.sqlite")
    args = ["snapshot", "--dataset", "movie", "--out", target, "--backend", "sqlite"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(args + ["--with-labels"]) == 0
    return target, printed.getvalue()


class TestSqliteCLI:
    def test_snapshot_then_evaluate_from_sqlite(self, capsys, movie_sqlite):
        target, out = movie_sqlite
        assert "sqlite database" in out
        assert is_sqlite_file(target)
        exit_code = main(["evaluate", "--from-snapshot", target, "--seed", "4", "--moe", "0.1"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "estimated accuracy" in out

    def test_evaluate_from_sqlite_reads_no_triple_rows(self, capsys, monkeypatch, movie_sqlite):
        # The stored label array goes to the evaluation loop as is, so the
        # cold path never iterates the database's rows, yet it prints what
        # the same evaluation of the freshly built graph prints.
        target, _ = movie_sqlite
        args = ["--moe", "0.01", "--seed", "0"]
        assert main(["evaluate", "--dataset", "movie", "--backend", "sqlite", *args]) == 0
        expected = capsys.readouterr().out

        def refuse_scan(self):
            raise AssertionError("evaluate --from-snapshot scanned the triple rows")

        monkeypatch.setattr(SqliteStore, "iter_triples", refuse_scan)
        assert main(["evaluate", "--from-snapshot", target, *args]) == 0
        out = capsys.readouterr().out
        assert "shards=1)" in out
        assert out == expected

    def test_evaluate_backend_sqlite_matches_columnar(self, capsys):
        args = ["evaluate", "--dataset", "movie", "--seed", "11", "--moe", "0.1"]
        assert main(args + ["--backend", "sqlite"]) == 0
        sqlite_out = capsys.readouterr().out
        assert main(args + ["--backend", "columnar"]) == 0
        columnar_out = capsys.readouterr().out
        assert sqlite_out == columnar_out

    def test_sqlite_snapshot_without_labels_fails_evaluate(self, capsys, tmp_path):
        target = str(tmp_path / "plain.sqlite")
        assert (
            main(["snapshot", "--dataset", "movie", "--out", target, "--backend", "sqlite"]) == 0
        )
        capsys.readouterr()
        with pytest.raises(SystemExit, match="no label array"):
            main(["evaluate", "--from-snapshot", target])


def test_graph_to_sqlite_is_idempotent(toy_graph):
    sqlite_graph = toy_graph.to_sqlite()
    assert sqlite_graph.to_sqlite() is sqlite_graph
    assert isinstance(sqlite_graph.backend, SqliteStore)
    assert tuple(sqlite_graph) == tuple(toy_graph)


def test_knowledge_graph_over_sqlite_supports_object_surface(nell):
    from repro.sampling.twcs import TwoStageWeightedClusterDesign

    columnar = nell.graph.to_columnar()
    sqlite = columnar.to_sqlite()
    design_col = TwoStageWeightedClusterDesign(columnar, second_stage_size=3, seed=5)
    design_sq = TwoStageWeightedClusterDesign(sqlite, second_stage_size=3, seed=5)
    units_col, units_sq = design_col.draw_positions(25), design_sq.draw_positions(25)
    assert [columnar.triples_at(u.positions) for u in units_col] == [
        sqlite.triples_at(u.positions) for u in units_sq
    ]
    assert [columnar.entity_id_of_row(u.entity_row) for u in units_col] == [
        sqlite.entity_id_of_row(u.entity_row) for u in units_sq
    ]
