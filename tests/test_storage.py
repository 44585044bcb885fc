"""Storage subsystem tests: backend equivalence, snapshot round-trips,
streaming ingest, and the position-based sampling surface.

The property-based tests assert the load-bearing invariant of the storage
refactor: *any* sequence of triples produces the same graph — same triples in
the same order, same clusters, same sampler draws under a fixed seed — no
matter which backend holds it or whether it went through a save/load cycle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.graph import KnowledgeGraph
from repro.kg.io import read_triples_tsv, write_triples_tsv
from repro.kg.triple import Triple
from repro.sampling.base import PositionUnit
from repro.sampling.rcs import RandomClusterDesign
from repro.sampling.srs import SimpleRandomDesign
from repro.sampling.tsrcs import TwoStageRandomClusterDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.sampling.wcs import WeightedClusterDesign
from repro.storage import ColumnarStore, InMemoryStore, SnapshotStore, SqliteStore
from repro.storage.ingest import ingest_nt, ingest_rows, ingest_tsv

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
_triples = st.builds(
    Triple,
    st.integers(0, 8).map(lambda i: f"s{i}"),
    st.sampled_from(["p0", "p1", "p2"]),
    st.integers(0, 12).map(lambda o: f"o{o}"),
    st.booleans(),
)
_triple_lists = st.lists(_triples, max_size=60)


def _assert_same_graph(left: KnowledgeGraph, right: KnowledgeGraph) -> None:
    assert tuple(left) == tuple(right)
    assert left.triples == right.triples
    assert tuple(left.entity_ids) == tuple(right.entity_ids)
    assert np.array_equal(left.cluster_size_array(), right.cluster_size_array())
    for entity_id in left.entity_ids:
        assert left.cluster(entity_id).triples == right.cluster(entity_id).triples
        assert left.cluster_size(entity_id) == right.cluster_size(entity_id)
        assert np.array_equal(
            np.asarray(left.cluster_positions(entity_id)),
            np.asarray(right.cluster_positions(entity_id)),
        )


# --------------------------------------------------------------------------- #
# Backend equivalence
# --------------------------------------------------------------------------- #
class TestBackendEquivalence:
    @given(_triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_columnar_add_path_matches_memory(self, triples):
        memory = KnowledgeGraph(triples, backend="memory")
        columnar = KnowledgeGraph(triples, backend="columnar")
        assert memory.num_triples == columnar.num_triples
        assert memory.num_entities == columnar.num_entities
        _assert_same_graph(memory, columnar)
        for triple in triples:
            assert (triple in memory) == (triple in columnar)
        assert not columnar.backend.contains(Triple("never", "seen", "this"))

    @given(_triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_bulk_ingest_dedupe_matches_add_path(self, triples):
        rows = [(t.subject, t.predicate, t.obj, t.is_entity_object) for t in triples]
        bulk = ingest_rows(rows, name="bulk")
        memory = KnowledgeGraph(triples, backend="memory")
        _assert_same_graph(memory, bulk)

    @given(_triple_lists, _triple_lists)
    @settings(max_examples=30, deadline=None)
    def test_interleaved_add_and_read_on_columnar(self, first, second):
        memory = KnowledgeGraph(backend="memory")
        columnar = KnowledgeGraph(backend="columnar")
        memory.add_all(first)
        columnar.add_all(first)
        # Force a freeze (consolidation) between the two add batches.
        _ = columnar.triples
        memory.add_all(second)
        columnar.add_all(second)
        _assert_same_graph(memory, columnar)

    @given(_triple_lists)
    @settings(max_examples=25, deadline=None)
    def test_sqlite_add_path_matches_memory(self, triples):
        memory = KnowledgeGraph(triples, backend="memory")
        sqlite = KnowledgeGraph(triples, backend="sqlite")
        assert memory.num_triples == sqlite.num_triples
        assert memory.num_entities == sqlite.num_entities
        _assert_same_graph(memory, sqlite)
        for triple in triples:
            assert (triple in memory) == (triple in sqlite)
        assert not sqlite.backend.contains(Triple("never", "seen", "this"))
        np.testing.assert_array_equal(
            memory.backend.cluster_size_array(), sqlite.backend.cluster_size_array()
        )

    @given(_triple_lists)
    @settings(max_examples=20, deadline=None)
    def test_sqlite_csr_matches_columnar(self, triples):
        columnar = KnowledgeGraph(triples, backend="columnar")
        sqlite = KnowledgeGraph(triples, backend="sqlite")
        col_csr = columnar.backend.csr_arrays()
        sq_csr = sqlite.backend.csr_arrays()
        assert col_csr is not None and sq_csr is not None
        assert np.array_equal(np.asarray(col_csr[0]), np.asarray(sq_csr[0]))
        assert np.array_equal(np.asarray(col_csr[1]), np.asarray(sq_csr[1]))
        for columns_left, columns_right in zip(
            columnar.backend.id_columns(), sqlite.backend.id_columns()
        ):
            assert np.array_equal(np.asarray(columns_left), np.asarray(columns_right))

    def test_make_backend_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(backend="papyrus")

    def test_copy_preserves_backend_kind(self, toy_graph):
        graph = toy_graph
        assert isinstance(graph.copy().backend, InMemoryStore)
        assert isinstance(graph.to_columnar().copy().backend, ColumnarStore)
        assert isinstance(graph.to_sqlite().copy().backend, SqliteStore)


# --------------------------------------------------------------------------- #
# Snapshot round-trips
# --------------------------------------------------------------------------- #
class TestSnapshotRoundTrip:
    @given(_triple_lists)
    @settings(max_examples=25, deadline=None)
    def test_npz_and_directory_roundtrip(self, triples):
        import tempfile
        from pathlib import Path

        memory = KnowledgeGraph(triples, name="prop", backend="memory")
        columnar = memory.to_columnar()
        with tempfile.TemporaryDirectory() as tmp:
            for target, mmap in ((Path(tmp) / "kg.npz", False), (Path(tmp) / "kgdir", True)):
                columnar.save_snapshot(target)
                reloaded = KnowledgeGraph.from_snapshot(target, mmap=mmap)
                assert reloaded.name == "prop"
                _assert_same_graph(memory, reloaded)

    def test_flags_survive_roundtrip(self, tmp_path):
        graph = KnowledgeGraph(
            [Triple("a", "p", "b", is_entity_object=True), Triple("a", "q", "lit")]
        )
        graph.save_snapshot(tmp_path / "kg.npz")
        reloaded = KnowledgeGraph.from_snapshot(tmp_path / "kg.npz")
        assert [t.is_entity_object for t in reloaded] == [True, False]

    def test_mmap_requires_directory_layout(self, tmp_path, toy_graph):
        graph = toy_graph
        graph.save_snapshot(tmp_path / "kg.npz")
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path / "kg.npz").load(mmap=True)

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SnapshotStore(tmp_path / "nope.npz").load()

    def test_sampler_draws_bit_for_bit_after_roundtrip(self, nell_memory, tmp_path):
        """Save -> load -> the same seed yields identical draws and estimates."""
        memory = nell_memory.graph
        memory.to_columnar().save_snapshot(tmp_path / "nell")
        reloaded = KnowledgeGraph.from_snapshot(tmp_path / "nell", mmap=True)
        designs = {
            "srs": lambda g: SimpleRandomDesign(g, seed=5),
            "rcs": lambda g: RandomClusterDesign(g, seed=5),
            "wcs": lambda g: WeightedClusterDesign(g, seed=5),
            "twcs": lambda g: TwoStageWeightedClusterDesign(g, second_stage_size=3, seed=5),
            "tsrcs": lambda g: TwoStageRandomClusterDesign(g, second_stage_size=3, seed=5),
        }
        for name, factory in designs.items():
            baseline, roundtrip = factory(memory), factory(reloaded)
            units_a, units_b = baseline.draw(40), roundtrip.draw(40)
            assert [u.triples for u in units_a] == [u.triples for u in units_b], name
            assert [u.entity_id for u in units_a] == [u.entity_id for u in units_b], name
            labels = {t: nell_memory.oracle.label(t) for u in units_a for t in u.triples}
            baseline.update_all(units_a, labels)
            roundtrip.update_all(units_b, labels)
            assert baseline.estimate() == roundtrip.estimate(), name


# --------------------------------------------------------------------------- #
# Position surface
# --------------------------------------------------------------------------- #
class TestPositionSurface:
    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    def test_object_units_carry_consistent_positions(self, nell, nell_memory, backend):
        graph = nell_memory.graph if backend == "memory" else nell.graph
        design = TwoStageWeightedClusterDesign(graph, second_stage_size=3, seed=2)
        for unit in design.draw(30):
            assert unit.positions is not None
            assert graph.triples_at(unit.positions) == list(unit.triples)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda g: SimpleRandomDesign(g, seed=9),
            lambda g: RandomClusterDesign(g, seed=9),
            lambda g: WeightedClusterDesign(g, seed=9),
            lambda g: TwoStageWeightedClusterDesign(g, second_stage_size=4, seed=9),
            lambda g: TwoStageRandomClusterDesign(g, second_stage_size=4, seed=9),
        ],
        ids=["srs", "rcs", "wcs", "twcs", "tsrcs"],
    )
    def test_position_updates_match_object_updates(self, nell, factory):
        """Feeding the same drawn units through either update surface must
        produce the same estimate (up to float associativity)."""
        graph = nell.graph.to_columnar()
        label_array = nell.oracle.as_position_array(graph)
        object_design, position_design = factory(graph), factory(graph)
        units = object_design.draw(60)
        labels = {t: nell.oracle.label(t) for u in units for t in u.triples}
        object_design.update_all(units, labels)
        # Rebuild position units from the object draws so both designs see
        # the exact same sample.
        position_units = [
            PositionUnit(
                positions=np.asarray(u.positions),
                entity_row=-1 if u.entity_id is None else graph.entity_row(u.entity_id),
                cluster_size=u.cluster_size,
            )
            for u in units
        ]
        position_design.update_all_positions(position_units, label_array)
        a, b = object_design.estimate(), position_design.estimate()
        assert a.value == pytest.approx(b.value, abs=1e-12)
        assert a.std_error == pytest.approx(b.std_error, abs=1e-9)
        assert (a.num_units, a.num_triples) == (b.num_units, b.num_triples)

    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    def test_draw_positions_estimates_are_sane(self, nell, nell_memory, backend):
        data = nell_memory if backend == "memory" else nell
        graph = data.graph
        label_array = data.oracle.as_position_array(graph)
        estimates = []
        for seed in range(30):
            design = TwoStageWeightedClusterDesign(graph, second_stage_size=4, seed=seed)
            design.update_all_positions(design.draw_positions(120), label_array)
            estimates.append(design.estimate().value)
        assert np.mean(estimates) == pytest.approx(nell.true_accuracy, abs=0.02)

    def test_floyd_batch_sampler_is_uniform_without_replacement(self):
        from repro.kg.graph import _floyd_sample_batch

        rng = np.random.default_rng(0)
        sizes = np.full(20_000, 6)
        picks = _floyd_sample_batch(sizes, 2, rng)
        assert picks.shape == (20_000, 2)
        assert (picks >= 0).all() and (picks < 6).all()
        assert (picks[:, 0] != picks[:, 1]).all()
        # Every unordered pair of a 6-element cluster should be ~equally likely.
        pair_counts = np.zeros((6, 6))
        lo, hi = picks.min(axis=1), picks.max(axis=1)
        np.add.at(pair_counts, (lo, hi), 1)
        frequencies = pair_counts[np.triu_indices(6, k=1)] / picks.shape[0]
        assert frequencies.min() > (1 / 15) * 0.8
        assert frequencies.max() < (1 / 15) * 1.2

    def test_labels_for_positions_array_and_mapping_agree(self, nell):
        graph = nell.graph.to_columnar()
        label_array = nell.oracle.as_position_array(graph)
        positions = np.asarray([0, 5, 17, 3])
        from_array = graph.labels_for_positions(positions, label_array)
        from_mapping = graph.labels_for_positions(positions, nell.oracle.mapping)
        assert np.array_equal(from_array, from_mapping)


# --------------------------------------------------------------------------- #
# Streaming ingest
# --------------------------------------------------------------------------- #
class TestStreamingIngest:
    def test_tsv_ingest_matches_object_loader(self, tmp_path, toy_graph):
        graph = toy_graph
        path = tmp_path / "toy.tsv"
        write_triples_tsv(graph, path)
        via_objects = read_triples_tsv(path)
        via_stream = read_triples_tsv(path, backend="columnar")
        assert isinstance(via_stream.backend, ColumnarStore)
        _assert_same_graph(via_objects, via_stream)

    def test_tsv_ingest_deduplicates(self, tmp_path):
        path = tmp_path / "dups.tsv"
        path.write_text("a\tp\tx\nb\tp\ty\na\tp\tx\n", encoding="utf-8")
        graph = ingest_tsv(path)
        assert graph.num_triples == 2
        assert tuple(graph) == (Triple("a", "p", "x"), Triple("b", "p", "y"))

    def test_nt_ingest_parses_iris_and_literals(self, tmp_path):
        path = tmp_path / "kg.nt"
        path.write_text(
            "<http://x/e1> <http://x/bornIn> <http://x/e2> .\n"
            '<http://x/e1> <http://x/name> "Ada" .\n'
            "# comment\n\n",
            encoding="utf-8",
        )
        graph = ingest_nt(path)
        triples = tuple(graph)
        assert triples == (
            Triple("http://x/e1", "http://x/bornIn", "http://x/e2"),
            Triple("http://x/e1", "http://x/name", "Ada"),
        )
        assert triples[0].is_entity_object and not triples[1].is_entity_object

    def test_malformed_lines_raise(self, tmp_path):
        bad_tsv = tmp_path / "bad.tsv"
        bad_tsv.write_text("only_one_column\n", encoding="utf-8")
        with pytest.raises(ValueError):
            ingest_tsv(bad_tsv)
        bad_nt = tmp_path / "bad.nt"
        bad_nt.write_text("<s> <p> .\n", encoding="utf-8")
        with pytest.raises(ValueError):
            ingest_nt(bad_nt)

    def test_extra_tsv_columns_ignored_on_both_paths(self, tmp_path):
        """The docstring promises extra columns are ignored; a 4-column line
        must load (not raise) on both the object and streaming TSV paths."""
        path = tmp_path / "wide.tsv"
        path.write_text("a\tp\tx\textra-column\nb\tq\ty\n", encoding="utf-8")
        via_objects = read_triples_tsv(path)
        via_stream = read_triples_tsv(path, backend="columnar")
        expected = (Triple("a", "p", "x"), Triple("b", "q", "y"))
        assert tuple(via_objects) == expected
        assert tuple(via_stream) == expected
        _assert_same_graph(via_objects, via_stream)

    def test_short_tsv_line_message_says_at_least_three(self, tmp_path):
        path = tmp_path / "short.tsv"
        path.write_text("a\tp\n", encoding="utf-8")
        for backend in ("memory", "columnar"):
            with pytest.raises(ValueError, match=r"expected >= 3 columns"):
                read_triples_tsv(path, backend=backend)

    def test_nt_escapes_decode_to_bare_lexical_form(self, tmp_path):
        """NT-vs-object load parity for escaped, language-tagged, and
        datatyped literals: both paths must intern the same vocab strings."""
        path = tmp_path / "lit.nt"
        path.write_text(
            '<http://x/e1> <http://x/says> "a\\"b\\\\c" .\n'
            '<http://x/e1> <http://x/motto> "line1\\nline2\\ttabbed\\rret" .\n'
            '<http://x/e2> <http://x/name> "Ada"@en .\n'
            '<http://x/e2> <http://x/age> "36"^^<http://www.w3.org/2001/XMLSchema#int> .\n'
            '<http://x/e3> <http://x/greek> "\\u03b1\\U0001F600" .\n',
            encoding="utf-8",
        )
        via_stream = ingest_nt(path)
        expected = [
            Triple("http://x/e1", "http://x/says", 'a"b\\c'),
            Triple("http://x/e1", "http://x/motto", "line1\nline2\ttabbed\rret"),
            Triple("http://x/e2", "http://x/name", "Ada"),
            Triple("http://x/e2", "http://x/age", "36"),
            Triple("http://x/e3", "http://x/greek", "α\U0001f600"),
        ]
        assert list(via_stream) == expected
        via_objects = KnowledgeGraph(expected, backend="memory")
        _assert_same_graph(via_objects, via_stream)

    @pytest.mark.parametrize(
        "literal",
        ['"a\\" .', '"bad\\u12G4" .', '"short\\u12" .', '"what\\q" .', '"open .'],
        ids=["escaped-close-quote", "bad-hex", "short-hex", "unknown-escape", "unterminated"],
    )
    def test_malformed_nt_escapes_raise_with_line_number(self, tmp_path, literal):
        path = tmp_path / "bad-escape.nt"
        path.write_text(f"<s> <p> <o> .\n<s2> <p> {literal}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"line 2"):
            ingest_nt(path)

    def test_malformed_literal_suffix_raises(self, tmp_path):
        path = tmp_path / "bad-suffix.nt"
        path.write_text('<s> <p> "x"junk .\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"line 1.*suffix"):
            ingest_nt(path)


# --------------------------------------------------------------------------- #
# Loader parity: object / TSV / NT / SQLite ingest
# --------------------------------------------------------------------------- #
def _column_digest(store) -> str:
    import hashlib

    digest = hashlib.sha256()
    subjects, predicates, objects, flags = store.id_columns()
    for column, dtype in (
        (subjects, np.int32),
        (predicates, np.int32),
        (objects, np.int32),
        (flags, np.uint8),
    ):
        digest.update(np.ascontiguousarray(np.asarray(column), dtype=dtype).tobytes())
        digest.update(b"|")
    return digest.hexdigest()


class TestLoaderParity:
    """Any loader, same bytes: Triple objects, TSV, NT, and SQLite ingest
    must produce identical id columns and identical cluster sizes."""

    # Flags stay False: TSV cannot carry the entity-object flag, so the
    # four-way comparison uses literal objects everywhere.
    _flat_triples = st.lists(
        st.builds(
            Triple,
            st.integers(0, 8).map(lambda i: f"s{i}"),
            st.sampled_from(["p0", "p1", "p2"]),
            st.integers(0, 12).map(lambda o: f"o{o}"),
        ),
        max_size=50,
    )

    @given(_flat_triples)
    @settings(max_examples=20, deadline=None)
    def test_four_loaders_agree(self, triples):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            tsv_path = Path(tmp) / "kg.tsv"
            nt_path = Path(tmp) / "kg.nt"
            tsv_path.write_text(
                "".join(f"{t.subject}\t{t.predicate}\t{t.obj}\n" for t in triples),
                encoding="utf-8",
            )
            nt_path.write_text(
                "".join(f"<{t.subject}> <{t.predicate}> \"{t.obj}\" .\n" for t in triples),
                encoding="utf-8",
            )
            via_objects = KnowledgeGraph(triples, backend="columnar")
            via_objects.backend.finalize()
            via_tsv = ingest_tsv(tsv_path)
            via_nt = ingest_nt(nt_path)
            sqlite_store = SqliteStore()
            sqlite_store.ingest_file(tsv_path, "tsv", batch_size=7)
            reference = _column_digest(via_objects.backend)
            assert _column_digest(via_tsv.backend) == reference
            assert _column_digest(via_nt.backend) == reference
            assert _column_digest(sqlite_store) == reference
            reference_sizes = via_objects.backend.cluster_size_array()
            for store in (via_tsv.backend, via_nt.backend, sqlite_store):
                np.testing.assert_array_equal(store.cluster_size_array(), reference_sizes)


# --------------------------------------------------------------------------- #
# Cached triples view (graph-level regression)
# --------------------------------------------------------------------------- #
class TestCachedTriplesView:
    def test_view_is_cached_until_mutation(self, toy_graph):
        graph = toy_graph
        first = graph.triples
        assert graph.triples is first  # no O(M) copy per access
        graph.add(Triple("new", "p", "o"))
        second = graph.triples
        assert second is not first
        assert second[-1] == Triple("new", "p", "o")
        assert graph.entity_ids[-1] == "new"


# --------------------------------------------------------------------------- #
# Snapshot format v2: label / annotation arrays, v1 compatibility
# --------------------------------------------------------------------------- #
class TestSnapshotFormatV2:
    @pytest.mark.parametrize("layout", ["kg.npz", "kgdir"])
    def test_label_and_annotated_arrays_roundtrip(self, nell, tmp_path, layout):
        graph = nell.graph.to_columnar()
        labels = nell.oracle.as_position_array(graph)
        annotated = np.zeros(graph.num_triples, dtype=bool)
        annotated[:10] = True
        target = tmp_path / layout
        graph.save_snapshot(target, labels=labels, annotated=annotated)
        store = SnapshotStore(target)
        np.testing.assert_array_equal(np.asarray(store.load_labels()), labels)
        np.testing.assert_array_equal(np.asarray(store.load_annotated()), annotated)
        # The graph itself is untouched by the extra arrays.
        reloaded = store.load_graph()
        assert reloaded.num_triples == graph.num_triples

    def test_labels_are_optional(self, toy_graph, tmp_path):
        toy_graph.to_columnar().save_snapshot(tmp_path / "kg.npz")
        store = SnapshotStore(tmp_path / "kg.npz")
        assert store.load_labels() is None
        assert store.load_annotated() is None

    def test_misaligned_labels_rejected(self, toy_graph, tmp_path):
        with pytest.raises(ValueError):
            toy_graph.to_columnar().save_snapshot(
                tmp_path / "kg.npz", labels=np.zeros(3, dtype=bool)
            )

    @pytest.mark.parametrize("layout", ["kg.npz", "kgdir"])
    def test_v1_archives_still_load(self, toy_graph, tmp_path, monkeypatch, layout):
        """A v1 snapshot (same columns, no label arrays, meta version 1)
        must load under the v2 reader."""
        from repro.storage import snapshot as snapshot_module

        monkeypatch.setattr(snapshot_module, "_FORMAT_VERSION", 1)
        target = tmp_path / layout
        toy_graph.to_columnar().save_snapshot(target)
        monkeypatch.undo()
        store = SnapshotStore(target)
        reloaded = store.load_graph(mmap=not store.is_archive)
        assert reloaded.num_triples == toy_graph.num_triples
        assert store.load_labels() is None

    def test_newer_format_rejected(self, toy_graph, tmp_path, monkeypatch):
        from repro.storage import snapshot as snapshot_module

        monkeypatch.setattr(snapshot_module, "_FORMAT_VERSION", 99)
        toy_graph.to_columnar().save_snapshot(tmp_path / "kg.npz")
        monkeypatch.undo()
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path / "kg.npz").load()
