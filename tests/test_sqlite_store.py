"""SqliteStore: the out-of-core storage backend.

Covers the durability setup (WAL pragmas), reopen persistence, draw-stream
parity against the columnar backend, resumable checkpointed ingest —
including a subprocess SIGKILLed mid-load and resumed to a byte-identical
database — and the CLI surface (``snapshot --backend sqlite`` /
``evaluate --from-snapshot db.sqlite``, which reads no triple rows).
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
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
