"""Storage subsystem tests: backend equivalence, snapshot round-trips,
streaming ingest, and the position-based sampling surface.

The property-based tests assert the load-bearing invariant of the storage
layer: *any* sequence of triples produces the same graph — same triples in
the same order, same clusters, same sampler draws under a fixed seed — no
matter which backend holds it or whether it went through a save/load cycle
(a snapshot directory, or a SQLite file written from columns and reopened).
Each backend, the :class:`DeltaStore` tail included, is held to
:class:`store_model.StoreModel`, a pure-Python model of the backend contract
that shares no code with any store.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import estimator_model
import numpy as np
import pytest
from annotation_model import batch_of
from hypothesis import given, settings
from hypothesis import strategies as st
from store_model import StoreModel, assert_matches_model

from repro.generators.datasets import LabelledKG
from repro.kg.graph import KnowledgeGraph
from repro.kg.io import read_triples_tsv, write_triples_tsv
from repro.kg.triple import Triple, triple_columns
from repro.sampling.rcs import RandomClusterDesign
from repro.sampling.srs import SimpleRandomDesign
from repro.sampling.stratification import stratify_by_size
from repro.sampling.stratified import StratifiedTWCSDesign
from repro.sampling.tsrcs import TwoStageRandomClusterDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.sampling.wcs import WeightedClusterDesign
from repro.storage import ColumnarStore, DeltaStore, SnapshotStore, SqliteStore
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
_object_subject_triples = st.builds(
    Triple,
    st.integers(0, 12).map(lambda o: f"o{o}"),
    st.sampled_from(["p0", "p1", "p2"]),
    st.integers(0, 12).map(lambda o: f"o{o}"),
    st.booleans(),
)


def _with_repeats(batch: list[Triple]):
    """The batch plus repeats of some of its own triples, shuffled."""
    if not batch:
        return st.just(batch)
    return st.lists(st.sampled_from(batch), max_size=5).flatmap(
        lambda repeats: st.permutations(batch + repeats)
    )


# --------------------------------------------------------------------------- #
# Backend equivalence
# --------------------------------------------------------------------------- #
class TestBackendEquivalence:
    @given(_triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_columnar_add_path_matches_memory(self, triples):
        assert_matches_model(KnowledgeGraph(triples), StoreModel(triples))

    @given(_triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_bulk_ingest_dedupe_matches_add_path(self, triples):
        rows = [(t.subject, t.predicate, t.obj, t.is_entity_object) for t in triples]
        model = StoreModel(triples)
        assert_matches_model(ingest_rows(rows, name="bulk"), model)
        assert_matches_model(KnowledgeGraph(triples), model)

    @given(_triple_lists)
    @settings(max_examples=25, deadline=None)
    def test_sqlite_file_matches_model(self, triples):
        """The file ``to_sqlite`` writes, and the same file reopened by path."""
        model = StoreModel(triples)
        with tempfile.TemporaryDirectory() as tmp:
            written = KnowledgeGraph(triples).to_sqlite(Path(tmp) / "kg.sqlite")
            assert_matches_model(written, model)
            reopened = KnowledgeGraph(backend=SqliteStore(written.backend.path))
            assert_matches_model(reopened, model)
            written.backend.close()
            reopened.backend.close()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_delta_tail_matches_model(self, data):
        """Appends to a delta view over a frozen base: duplicates of base
        triples, of earlier batches and within a batch are skipped, and new
        subjects get rows after the base's."""
        first = data.draw(_triple_lists, label="base")
        # Mix in re-insertions of base triples, and triples whose subject is
        # an object string (an entity gaining its own facts), which is
        # interned before it becomes a subject.
        inserts = st.one_of(_triples, _object_subject_triples)
        if first:
            inserts |= st.sampled_from(first)
        batch = st.lists(inserts, max_size=30).flatmap(_with_repeats)
        batches = data.draw(st.lists(batch, min_size=1, max_size=3), label="batches")
        delta = DeltaStore(KnowledgeGraph(first).backend)
        model = StoreModel(first)
        for batch in batches:
            added = delta.add_batch(*triple_columns(batch))
            assert added.tolist() == model.add_all(batch)
            assert_matches_model(KnowledgeGraph(backend=delta), model)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tail_repeats_are_skipped_over_a_long_stream(self, seed):
        """Sixty batches over a small string universe, mixed with repeats of
        earlier tail triples and a few fresh strings: the tail's sorted keys,
        built by the first batch that needs them and merged into by every
        later append, answer every repeat as the model does."""
        rng = np.random.default_rng(seed)

        def triple(prefix=""):
            s, p, o = rng.integers(0, (9, 3, 13)).tolist()
            return Triple(f"{prefix}s{s}", f"p{p}", f"o{o}", bool(rng.integers(2)))

        base = [triple() for _ in range(20)]
        delta, model = DeltaStore(KnowledgeGraph(base).backend), StoreModel(base)
        for index in range(60):
            batch = [triple("new" if rng.random() < 0.05 else "") for _ in range(12)]
            tail = model.triples[len(base) :]
            if tail:
                batch += [tail[i] for i in rng.integers(0, len(tail), 4)]
            added = delta.add_batch(*triple_columns(batch))
            assert added.tolist() == model.add_all(batch), index
        assert delta.num_tail_triples > 150
        assert_matches_model(KnowledgeGraph(backend=delta), model)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_interleaved_add_and_read_on_columnar(self, data):
        """``KnowledgeGraph(triples)``, reads, then ``add`` / ``add_batch``:
        the graph grows in a delta view over its columns, which stay the
        same arrays with the same bytes."""
        first = data.draw(_triple_lists, label="base")
        graph, model = KnowledgeGraph(first), StoreModel(first)
        columnar = graph.backend
        arrays = (*columnar.id_columns(), *columnar.csr_arrays())
        snapshot = [np.asarray(array).tobytes() for array in arrays]
        assert_matches_model(graph, model)
        # Re-insertions of base triples, of earlier steps and within a step,
        # and subjects that are object strings (interned before they become
        # subjects).
        fresh = st.one_of(_triples, _object_subject_triples)
        for step in range(data.draw(st.integers(1, 4), label="steps")):
            seen = model.triples
            inserts = fresh | st.sampled_from(seen) if seen else fresh
            batch = data.draw(st.lists(inserts, max_size=8).flatmap(_with_repeats))
            if data.draw(st.booleans(), label=f"one by one {step}"):
                flags = [graph.add(triple) for triple in batch]
            else:
                flags = graph.add_batch(batch)
            assert flags == model.add_all(batch)
            assert_matches_model(graph, model)
        assert graph.backend is columnar or graph.backend.base is columnar
        assert all(a is b for a, b in zip((*columnar.id_columns(), *columnar.csr_arrays()), arrays))
        assert [np.asarray(array).tobytes() for array in arrays] == snapshot

    @given(_triple_lists)
    @settings(max_examples=20, deadline=None)
    def test_sqlite_csr_matches_columnar(self, triples):
        columnar = KnowledgeGraph(triples)
        with tempfile.TemporaryDirectory() as tmp:
            written = columnar.to_sqlite(Path(tmp) / "kg.sqlite").backend
            for sqlite in (written, SqliteStore(written.path)):
                col_csr = columnar.backend.csr_arrays()
                sq_csr = sqlite.csr_arrays()
                assert np.array_equal(np.asarray(col_csr[0]), np.asarray(sq_csr[0]))
                assert np.array_equal(np.asarray(col_csr[1]), np.asarray(sq_csr[1]))
                for columns_left, columns_right in zip(
                    columnar.backend.id_columns(), sqlite.id_columns()
                ):
                    assert np.array_equal(np.asarray(columns_left), np.asarray(columns_right))
                sqlite.close()

    def test_a_graph_built_without_a_backend_is_columnar(self, toy_graph):
        assert isinstance(KnowledgeGraph().backend, ColumnarStore)
        assert isinstance(toy_graph.backend, ColumnarStore)
        assert toy_graph.to_columnar() is toy_graph


# --------------------------------------------------------------------------- #
# Snapshot round-trips
# --------------------------------------------------------------------------- #
class TestSnapshotRoundTrip:
    @given(_triple_lists)
    @settings(max_examples=25, deadline=None)
    def test_directory_roundtrip(self, triples):
        graph = KnowledgeGraph(triples, name="prop")
        with tempfile.TemporaryDirectory() as tmp:
            store = SnapshotStore(tmp)
            store.save(graph)
            for mmap in (False, True):
                reloaded = store.load_graph(mmap=mmap)
                assert reloaded.name == "prop"
                assert_matches_model(reloaded, StoreModel(triples))

    def test_flags_survive_roundtrip(self, tmp_path):
        graph = KnowledgeGraph(
            [Triple("a", "p", "b", is_entity_object=True), Triple("a", "q", "lit")]
        )
        SnapshotStore(tmp_path / "kg").save(graph)
        reloaded = SnapshotStore(tmp_path / "kg").load_graph()
        assert [t.is_entity_object for t in reloaded] == [True, False]

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SnapshotStore(tmp_path / "nope").load()

    def test_sampler_draws_bit_for_bit_after_roundtrip(self, nell, tmp_path):
        """Save -> load -> the same seed yields identical draws and estimates."""
        graph = nell.graph
        SnapshotStore(tmp_path / "nell").save(graph)
        reloaded = SnapshotStore(tmp_path / "nell").load_graph(mmap=True)
        designs = {
            "srs": lambda g: SimpleRandomDesign(g, seed=5),
            "rcs": lambda g: RandomClusterDesign(g, seed=5),
            "wcs": lambda g: WeightedClusterDesign(g, seed=5),
            "twcs": lambda g: TwoStageWeightedClusterDesign(g, second_stage_size=3, seed=5),
            "tsrcs": lambda g: TwoStageRandomClusterDesign(g, second_stage_size=3, seed=5),
        }
        for name, factory in designs.items():
            baseline, roundtrip = factory(graph), factory(reloaded)
            units_a, units_b = baseline.draw_positions(40), roundtrip.draw_positions(40)
            triples_a = [graph.triples_at(positions) for positions, _, _ in units_a]
            assert triples_a == [reloaded.triples_at(p) for p, _, _ in units_b], name
            assert units_a.entity_rows.tolist() == units_b.entity_rows.tolist(), name
            labels = nell.oracle.as_position_array(graph)
            baseline.update_all_positions(units_a, labels)
            roundtrip.update_all_positions(units_b, labels)
            assert baseline.estimate() == roundtrip.estimate(), name


# --------------------------------------------------------------------------- #
# Position surface
# --------------------------------------------------------------------------- #
class TestPositionSurface:
    @staticmethod
    def _design_and_model(nell, name):
        """Design ``name`` over NELL and the estimator-model reading it should fold to."""
        graph = nell.graph
        num_entities, num_triples = graph.num_entities, graph.num_triples
        strata = stratify_by_size(graph, num_strata=3)
        stratum_of_row = {
            row: index for index, stratum in enumerate(strata) for row in stratum.rows.tolist()
        }
        designs = {
            "srs": lambda: SimpleRandomDesign(graph, seed=9),
            "rcs": lambda: RandomClusterDesign(graph, seed=9),
            "wcs": lambda: WeightedClusterDesign(graph, seed=9),
            "twcs": lambda: TwoStageWeightedClusterDesign(graph, second_stage_size=4, seed=9),
            "tsrcs": lambda: TwoStageRandomClusterDesign(graph, second_stage_size=4, seed=9),
            "twcs-strat": lambda: StratifiedTWCSDesign(graph, strata, second_stage_size=4, seed=9),
        }
        models = {
            "srs": estimator_model.srs,
            "rcs": lambda u: estimator_model.rcs(u, num_entities, num_triples),
            "wcs": estimator_model.cluster_accuracy_mean,
            "twcs": estimator_model.cluster_accuracy_mean,
            "tsrcs": lambda u: estimator_model.tsrcs(u, num_entities, num_triples),
            "twcs-strat": lambda u: estimator_model.stratified_twcs(
                u, stratum_of_row, [stratum.weight for stratum in strata]
            ),
        }
        return designs[name](), models[name]

    @staticmethod
    def _assert_reads(estimate, reading):
        value, std_error, num_units, num_triples_read = reading
        assert estimate.value == pytest.approx(value, rel=1e-12)
        assert math.isfinite(std_error)
        assert estimate.std_error == pytest.approx(std_error, rel=1e-9)
        assert (estimate.num_units, estimate.num_triples) == (num_units, num_triples_read)

    @pytest.mark.parametrize("name", ["srs", "rcs", "wcs", "twcs", "tsrcs", "twcs-strat"])
    def test_position_updates_match_estimator_model(self, nell, name):
        """One drawn round folds into what the paper's equations give for it."""
        label_array = nell.oracle.as_position_array(nell.graph)
        design, model = self._design_and_model(nell, name)
        units = design.draw_positions(60)
        design.update_all_positions(units, label_array)
        drawn = [(row, size, label_array[p].tolist()) for p, row, size in units]
        self._assert_reads(design.estimate(), model(drawn))

    @pytest.mark.parametrize("name", ["srs", "rcs", "wcs", "twcs", "tsrcs", "twcs-strat"])
    def test_rounds_with_repeated_units_match_estimator_model(self, nell, name):
        """A round that repeats units (in a row and apart) folds every repeat as a unit."""
        label_array = nell.oracle.as_position_array(nell.graph)
        design, model = self._design_and_model(nell, name)
        drawn = list(design.draw_positions(30))
        rounds = [drawn[:10] + drawn[:4], drawn[10:] + drawn[12:13] * 3 + drawn[:2]]
        for units in rounds:
            design.update_all_positions(batch_of(units), label_array)
        folded = [(row, size, label_array[p].tolist()) for p, row, size in rounds[0] + rounds[1]]
        self._assert_reads(design.estimate(), model(folded))

    @pytest.mark.parametrize("source", ["rebuilt", "columnar"])
    def test_draw_positions_estimates_are_sane(self, nell, nell_rebuilt, source):
        data = nell_rebuilt if source == "rebuilt" else nell
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


# --------------------------------------------------------------------------- #
# Streaming ingest
# --------------------------------------------------------------------------- #
class TestStreamingIngest:
    def test_tsv_ingest_matches_object_loader(self, tmp_path, toy_graph):
        path = tmp_path / "toy.tsv"
        write_triples_tsv(toy_graph, path)
        via_stream = read_triples_tsv(path)
        assert isinstance(via_stream.backend, ColumnarStore)
        assert via_stream.name == "toy"
        # TSV carries no entity-object flag, so the model reads it back as False.
        flat = [Triple(*t.as_tuple()) for t in toy_graph]
        assert_matches_model(via_stream, StoreModel(flat))

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
        must load (not raise) into the columnar store and carry over to the
        SQLite file written from it."""
        path = tmp_path / "wide.tsv"
        path.write_text("a\tp\tx\textra-column\nb\tq\ty\n", encoding="utf-8")
        via_stream = read_triples_tsv(path)
        via_sqlite = via_stream.to_sqlite(tmp_path / "wide.sqlite")
        expected = (Triple("a", "p", "x"), Triple("b", "q", "y"))
        assert tuple(via_stream) == expected
        assert tuple(via_sqlite) == expected

    def test_short_tsv_line_message_says_at_least_three(self, tmp_path):
        path = tmp_path / "short.tsv"
        path.write_text("a\tp\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"line 1: expected >= 3 columns"):
            read_triples_tsv(path)

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
        assert_matches_model(via_stream, StoreModel(expected))

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
# Loader parity: object / TSV / NT, and the SQLite file written from a load
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
    """Any loader, same bytes: Triple objects, TSV and NT, and the SQLite
    file written from the TSV load, must produce identical id columns and
    identical cluster sizes."""

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
            via_objects = KnowledgeGraph(triples)
            via_tsv = ingest_tsv(tsv_path)
            via_nt = ingest_nt(nt_path)
            sqlite_store = via_tsv.to_sqlite(Path(tmp) / "kg.sqlite").backend
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
# Snapshot format v2: the label array, v1 compatibility
# --------------------------------------------------------------------------- #
class TestSnapshotFormatV2:
    def test_label_array_roundtrips(self, nell, tmp_path):
        graph = nell.graph.to_columnar()
        labels = nell.oracle.as_position_array(graph)
        store = SnapshotStore(tmp_path / "kg")
        store.save(graph, labels=labels)
        np.testing.assert_array_equal(np.asarray(store.load_labels()), labels)
        np.testing.assert_array_equal(np.asarray(store.load_labels(mmap=True)), labels)
        # The graph itself is untouched by the extra array.
        assert store.load_graph().num_triples == graph.num_triples

    def test_labels_are_optional(self, toy_graph, tmp_path):
        store = SnapshotStore(tmp_path / "kg")
        store.save(toy_graph)
        assert store.load_labels() is None

    def test_misaligned_labels_rejected(self, toy_graph, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path / "kg").save(toy_graph, labels=np.zeros(3, dtype=bool))

    def test_v1_snapshots_still_load(self, toy_graph, tmp_path, monkeypatch):
        """A v1 snapshot (same columns, no label array, meta version 1)
        must load under the current reader."""
        from repro.storage import snapshot as snapshot_module

        monkeypatch.setattr(snapshot_module, "_FORMAT_VERSION", 1)
        store = SnapshotStore(tmp_path / "kg")
        store.save(toy_graph)
        monkeypatch.undo()
        for mmap in (False, True):
            assert store.load_graph(mmap=mmap).num_triples == toy_graph.num_triples
        assert store.load_labels() is None

    def test_newer_format_rejected(self, toy_graph, tmp_path, monkeypatch):
        from repro.storage import snapshot as snapshot_module

        monkeypatch.setattr(snapshot_module, "_FORMAT_VERSION", 99)
        SnapshotStore(tmp_path / "kg").save(toy_graph)
        monkeypatch.undo()
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path / "kg").load()


# --------------------------------------------------------------------------- #
# Labelled snapshots: LabelledKG.save / LabelledKG.open
# --------------------------------------------------------------------------- #
class TestLabelledSnapshot:
    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    def test_save_then_open_round_trips(self, nell, tmp_path, backend):
        path = nell.save(tmp_path / "kg", backend=backend)
        reopened = LabelledKG.open(path)
        expected_store = ColumnarStore if backend == "columnar" else SqliteStore
        assert isinstance(reopened.graph.backend, expected_store)
        assert reopened.name == nell.name
        assert tuple(reopened.graph) == tuple(nell.graph)
        np.testing.assert_array_equal(
            reopened.oracle.as_position_array(reopened.graph),
            nell.oracle.as_position_array(nell.graph),
        )

    def test_files_an_earlier_release_wrote_are_never_read(self, nell, tmp_path):
        path = nell.save(tmp_path / "kg")
        np.save(path / "annotated.npy", np.ones(nell.graph.num_triples, dtype=bool))
        # Truncated pickle bytes: any attempt to unpickle them raises.
        (path / "evaluator_state.pkl").write_bytes(b"\x80\x04junk")
        reopened = LabelledKG.open(path)
        assert reopened.true_accuracy == nell.true_accuracy
