"""SqliteStore: the out-of-core storage backend.

Covers the write-once contract (``from_columnar`` writes a WAL file in
chunks; ``SqliteStore(path)`` opens it, refuses anything else and never
writes; ``add`` is refused), reopen persistence, the stored CSR cluster
index (read back when it describes the table, a scan when it is absent,
too large or damaged), draw-stream parity against the columnar backend and
the CLI surface (``snapshot --backend sqlite`` / ``evaluate --from-snapshot
db.sqlite``, which reads no triple rows).
"""

from __future__ import annotations

import contextlib
import io
import pickle
import re
import sqlite3
import tempfile
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
from repro.storage import ColumnarStore, ReadOnlyStoreError, SqliteGraphError, SqliteStore
from repro.storage.columnar import Vocabulary
from repro.storage.sqlite import is_sqlite_file


class TestSqliteBasics:
    def test_wal_pragmas_applied(self, tmp_path, toy_graph):
        toy_graph.to_sqlite(path=tmp_path / "kg.sqlite").backend.close()
        store = SqliteStore(tmp_path / "kg.sqlite")
        conn = store._conn
        # WAL is a property of the file, set once by the writer.
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 30000
        assert conn.execute("PRAGMA mmap_size").fetchone()[0] == store.mmap_size

    def test_is_sqlite_file_detection(self, tmp_path):
        db = tmp_path / "kg.sqlite"
        KnowledgeGraph([Triple("a", "p", "b")]).to_sqlite(path=db).backend.close()
        assert is_sqlite_file(db)
        other = tmp_path / "kg.npz"
        other.write_bytes(b"PK\x03\x04 not a database")
        assert not is_sqlite_file(other)
        assert not is_sqlite_file(tmp_path / "missing")

    def test_not_picklable(self, toy_graph):
        store = toy_graph.to_sqlite().backend
        with pytest.raises(TypeError, match="not picklable"):
            pickle.dumps(store)

    def test_temporary_database_removed_on_close(self, toy_graph):
        store = toy_graph.to_sqlite().backend
        path = store.path
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

    def test_add_is_refused_with_a_typed_error(self, tmp_path, toy_graph):
        db = tmp_path / "kg.sqlite"
        graph = toy_graph.to_sqlite(path=db)
        digest = graph.backend.content_digest()
        for write in (
            lambda: graph.add(Triple("brand", "new", "triple")),
            lambda: graph.add_batch([Triple("brand", "new", "triple")]),
        ):
            with pytest.raises(ReadOnlyStoreError, match="to_sqlite"):
                write()
        assert graph.num_triples == toy_graph.num_triples
        assert graph.backend.content_digest() == digest

    def test_opening_a_missing_path_creates_no_file(self, tmp_path):
        missing = tmp_path / "missing.sqlite"
        message = f"^{re.escape(str(missing))} is not a SQLite graph file: no such file$"
        with pytest.raises(SqliteGraphError, match=message):
            SqliteStore(missing)
        assert list(tmp_path.iterdir()) == []

    def test_a_file_without_the_graph_tables_is_refused_unchanged(self, tmp_path):
        foreign = tmp_path / "notes.db"
        with contextlib.closing(sqlite3.connect(foreign)) as conn, conn:
            conn.execute("CREATE TABLE notes (body TEXT)")
            conn.execute("CREATE TABLE triples (position INTEGER)")
        before = foreign.read_bytes()
        with pytest.raises(SqliteGraphError, match="tables missing: entities, meta, vocab$"):
            SqliteStore(foreign)
        assert foreign.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.db"]

    def test_a_file_with_an_extra_table_reopens(self, tmp_path, toy_graph):
        """Files an earlier release wrote carry one more table (the
        checkpoint of its resumable load); the opener ignores what it does
        not read."""
        db = tmp_path / "kg.sqlite"
        digest = toy_graph.to_sqlite(path=db).backend.content_digest()
        with contextlib.closing(sqlite3.connect(db)) as conn, conn:
            conn.execute("CREATE TABLE load_checkpoints (source TEXT PRIMARY KEY, rows INTEGER)")
            conn.execute("INSERT INTO load_checkpoints VALUES ('kg.tsv', 3)")
        reopened = SqliteStore(db)
        assert reopened.content_digest() == digest
        assert _read_csr(reopened)[1] == {"blob"}
        assert tuple(reopened.iter_triples()) == tuple(toy_graph)

    def test_writer_copies_rows_in_chunks(self, tmp_path):
        """The one writer never turns a whole column into Python ints: its
        traced peak stays a few int64 arrays per triple (one column as a list
        of ints alone is over 32 bytes per triple)."""
        num_triples, num_subjects, num_predicates = 200_000, 20_000, 50
        vocab = Vocabulary(
            [f"s{i}" for i in range(num_subjects)]
            + [f"p{i}" for i in range(num_predicates)]
            + [f"o{i}" for i in range(num_triples)]
        )
        index = np.arange(num_triples, dtype=np.int32)
        store = ColumnarStore.from_arrays(
            vocab,
            index % num_subjects,
            num_subjects + index % num_predicates,
            num_subjects + num_predicates + index,
        )
        tracemalloc.start()
        try:
            written = SqliteStore.from_columnar(store, path=tmp_path / "kg.sqlite")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * num_triples
        assert written.num_triples == num_triples
        _assert_csr_equal(written.csr_arrays(), store.csr_arrays())
        written.close()

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
    assert [columnar.triples_at(positions) for positions, _, _ in units_col] == [
        sqlite.triples_at(positions) for positions, _, _ in units_sq
    ]
    assert [columnar.entity_id_of_row(row) for _, row, _ in units_col] == [
        sqlite.entity_id_of_row(row) for _, row, _ in units_sq
    ]
