"""Determinism and parity of the sharded parallel sampling engine.

The engine's contract (see :mod:`repro.sampling.parallel`): for a fixed
``(graph, labels, design, plan, seed)`` the estimates and Eq. (4) cost are
bit-identical whether shard tasks run in-process, on a 2-worker pool or a
3-worker pool, on either storage backend.  Pool-backed tests carry the
``parallel`` marker so CI can run them as a dedicated leg.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.config import EvaluationConfig
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.generators.datasets import LabelledKG, make_nell_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.sampling.parallel import PARALLEL_DESIGNS, ParallelSamplingExecutor
from repro.sampling.segment import PositionSegment
from repro.sampling.stratification import stratify_by_size
from repro.stats.allocation import proportional_allocation

_CONFIG = EvaluationConfig(moe_target=0.06)


@pytest.fixture(scope="module")
def labelled():
    data = make_nell_like(seed=0)
    graph = data.graph.to_columnar()
    return LabelledKG(graph, data.oracle), data.oracle.as_position_array(graph)


def _run_result(graph, labels, design, *, workers, num_shards, seed, units=250, **kwargs):
    with ParallelSamplingExecutor(graph, workers=workers, num_shards=num_shards) as executor:
        run = executor.run(design, labels, seed=seed, **kwargs)
        while run.num_units < units:
            before = run.num_units
            run.step(min(50, units - run.num_units))
            if run.num_units == before:
                break
        return run.estimate(), run.cost_summary(), run.shard_stats()


class TestSerialEngine:
    """Sharded-but-in-process behaviour (no pools; always runs)."""

    @pytest.mark.parametrize("design", PARALLEL_DESIGNS)
    def test_deterministic_and_tracks_truth(self, labelled, design):
        data, labels = labelled
        first = _run_result(data.graph, labels, design, workers=None, num_shards=4, seed=9)
        second = _run_result(data.graph, labels, design, workers=None, num_shards=4, seed=9)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert abs(first[0].value - labels.mean()) < 0.12

    def test_seed_and_plan_are_part_of_the_stream(self, labelled):
        data, labels = labelled
        base = _run_result(data.graph, labels, "twcs", workers=None, num_shards=4, seed=9)
        other_seed = _run_result(data.graph, labels, "twcs", workers=None, num_shards=4, seed=10)
        other_plan = _run_result(data.graph, labels, "twcs", workers=None, num_shards=2, seed=9)
        assert base[0] != other_seed[0]
        assert base[0] != other_plan[0]

    def test_memory_and_columnar_backends_draw_identically(self, nell_memory):
        memory = nell_memory.graph
        memory_labels = nell_memory.oracle.as_position_array(memory)
        columnar = memory.to_columnar()
        columnar_labels = nell_memory.oracle.as_position_array(columnar)
        for design in PARALLEL_DESIGNS:
            mem = _run_result(memory, memory_labels, design, workers=None, num_shards=3, seed=4)
            col = _run_result(columnar, columnar_labels, design, workers=None, num_shards=3, seed=4)
            assert mem[0] == col[0], design
            assert mem[1] == col[1], design

    def test_empty_graph_plan_yields_empty_run(self, labelled):
        from repro.storage.shard import ShardPlan

        data, labels = labelled
        empty_plan = ShardPlan.from_offsets(np.zeros(1, dtype=np.int64), 4)
        with ParallelSamplingExecutor(data.graph, workers=None) as executor:
            run = executor.run("twcs", labels, seed=0, plan=empty_plan)
            assert run.step(10) == []
            assert run.exhausted
            estimate = run.estimate()
            assert estimate.num_units == 0 and estimate.std_error == float("inf")

    def test_wor_designs_exhaust_cleanly(self, labelled):
        data, labels = labelled
        with ParallelSamplingExecutor(data.graph, workers=None, num_shards=3) as executor:
            run = executor.run("rcs", labels, seed=1)
            total = 0
            while not run.exhausted:
                total += sum(d.num_units for d in run.step(200))
            assert total == data.graph.num_entities
            assert run.step(10) == []
            srs = executor.run("srs", labels, seed=1)
            while not srs.exhausted:
                srs.step(1000)
            assert srs.estimate().num_triples == data.graph.num_triples
            assert srs.estimate().value == pytest.approx(labels.mean())

    def test_interleaved_executors_on_one_transport_are_rejected(self, labelled):
        """A re-bound transport must refuse the stale executor, not mis-draw."""
        from repro.generators.datasets import make_yago_like
        from repro.sampling.parallel import SerialTransport

        data, labels = labelled
        other = make_yago_like(seed=0)
        other_graph = other.graph.to_columnar()
        transport = SerialTransport()
        first = ParallelSamplingExecutor(data.graph, num_shards=2, transport=transport)
        run = first.run("twcs", labels, seed=0)
        run.step(10)  # healthy while solely bound
        ParallelSamplingExecutor(other_graph, num_shards=2, transport=transport)
        with pytest.raises(RuntimeError, match="re-bound"):
            run.step(10)

    def test_segment_run_covers_only_the_segment(self, labelled):
        data, labels = labelled
        first_position = data.graph.num_triples
        triples = [t for t in list(data.graph)[:40]]
        segment = PositionSegment.from_batch(triples, [True] * len(triples), first_position)
        seg_labels = np.concatenate([labels, np.ones(len(triples), dtype=bool)])
        with ParallelSamplingExecutor(data.graph, workers=None, num_shards=3) as executor:
            run = executor.run("twcs", seg_labels, seed=2, segment=segment)
            draws = run.step(30)
            drawn = np.concatenate([d.positions for d in draws])
            assert drawn.min() >= first_position
            assert run.estimate().value == 1.0  # segment labels are all True

    def test_segment_cost_counts_distinct_clusters_across_shards(self, labelled):
        """Entity identification is keyed by segment cluster, not shard-local index."""
        data, labels = labelled
        first_position = data.graph.num_triples
        triples = [t for t in list(data.graph)[:60]]
        segment = PositionSegment.from_batch(triples, [True] * len(triples), first_position)
        seg_labels = np.concatenate([labels, np.ones(len(triples), dtype=bool)])
        with ParallelSamplingExecutor(data.graph, workers=None, num_shards=4) as executor:
            run = executor.run("twcs", seg_labels, seed=2, segment=segment)
            drawn_clusters: set[int] = set()
            while not all(c in drawn_clusters for c in range(segment.num_clusters)):
                draws = run.step(50)
                for draw in draws:
                    drawn_clusters.update(int(r) for r in draw.rows)
            assert run.cost_summary().entities_identified == segment.num_clusters

    def test_strata_over_row_subset_costs_use_global_rows(self, labelled):
        """A stratified run over a tail row subset must not crash or collide."""
        data, labels = labelled
        num_entities = data.graph.num_entities
        rows = [
            np.arange(num_entities - 60, num_entities - 30, dtype=np.int64),
            np.arange(num_entities - 30, num_entities, dtype=np.int64),
        ]
        with ParallelSamplingExecutor(data.graph, workers=None, num_shards=4) as executor:
            run = executor.run("twcs", labels, seed=6, strata=rows)
            drawn_rows: set[int] = set()
            for _ in range(8):
                for draw in run.step(40):
                    drawn_rows.update(int(r) for r in draw.rows)
            assert min(drawn_rows) >= num_entities - 60
            assert run.cost_summary().entities_identified == len(drawn_rows)


class TestNeymanAllocation:
    """allocation='neyman' routed through shard-merged per-stratum stats."""

    @staticmethod
    def _strata_rows(graph):
        strata = stratify_by_size(graph, num_strata=3)
        rows = [
            np.fromiter(
                (graph.entity_row(e) for e in stratum.entity_ids),
                dtype=np.int64,
                count=stratum.num_entities,
            )
            for stratum in strata
        ]
        return strata, rows

    def test_requires_strata(self, labelled):
        data, labels = labelled
        with ParallelSamplingExecutor(data.graph, workers=None) as executor:
            with pytest.raises(ValueError, match="neyman"):
                executor.run("twcs", labels, seed=0, allocation="neyman")
            with pytest.raises(ValueError, match="allocation"):
                executor.run("twcs", labels, seed=0, allocation="optimal")

    def test_allocation_decisions_match_design_rule(self, labelled):
        """Same observed per-stratum stats → same split as StratifiedTWCSDesign.

        The engine merges each stratum's *shard* accumulators before applying
        the Neyman rule; feeding identical observations (scattered across a
        stratum's shard tasks) must reproduce the in-process design's
        allocation exactly, including the proportional fallback while any
        stratum has fewer than two draws.
        """
        from repro.sampling.stratified import StratifiedTWCSDesign

        data, labels = labelled
        graph = data.graph
        strata, rows = self._strata_rows(graph)
        design = StratifiedTWCSDesign(
            graph, strata, second_stage_size=5, seed=0, allocation="neyman"
        )
        with ParallelSamplingExecutor(graph, workers=None, num_shards=4) as executor:
            run = executor.run(
                "twcs", labels, seed=0, strata=rows, allocation="neyman"
            )
            observations = {
                0: [0.2, 0.9, 0.5, 0.7],
                1: [1.0, 0.0, 0.65],
                2: [0.45, 0.55, 0.8, 0.3, 0.9],
            }
            # Fallback while stratum 2 has < 2 observations on both sides.
            design._means[0].add(0.2)
            task_of = {}
            for task_id, stratum in enumerate(run._task_strata):
                task_of.setdefault(stratum, []).append(task_id)
            run._accumulators[task_of[0][0]].add(0.2)
            assert run._stratum_allocation(30) == design._allocate(30)
            # Full stats: scatter each stratum's values across its shard tasks.
            for stratum, values in observations.items():
                for index, value in enumerate(values):
                    if index or stratum != 0:  # 0.2 already added above
                        design._means[stratum].add(value)
                        tasks = task_of[stratum]
                        run._accumulators[tasks[index % len(tasks)]].add(value)
            for count in (1, 7, 30, 100):
                assert run._stratum_allocation(count) == design._allocate(count)
            # And the rule is genuinely Neyman: differs from proportional here.
            assert run._stratum_allocation(100) != proportional_allocation(
                run._stratum_weights, 100
            )

    def test_neyman_run_is_deterministic_and_tracks_truth(self, labelled):
        data, labels = labelled
        _, rows = self._strata_rows(data.graph)
        results = [
            _run_result(
                data.graph,
                labels,
                "twcs",
                workers=None,
                num_shards=3,
                seed=41,
                strata=rows,
                allocation="neyman",
            )
            for _ in range(2)
        ]
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]
        assert abs(results[0][0].value - labels.mean()) < 0.12


@pytest.mark.parallel
class TestPoolParity:
    """Process-pool execution is bit-identical to the serial reference."""

    @pytest.mark.parametrize("design", PARALLEL_DESIGNS)
    def test_pool_matches_serial(self, labelled, design):
        data, labels = labelled
        serial = _run_result(data.graph, labels, design, workers=None, num_shards=4, seed=21)
        pooled = _run_result(data.graph, labels, design, workers=2, num_shards=4, seed=21)
        assert serial[0] == pooled[0]
        assert serial[1] == pooled[1]

    def test_worker_count_does_not_matter(self, labelled):
        data, labels = labelled
        results = [
            _run_result(data.graph, labels, "twcs", workers=workers, num_shards=5, seed=33)
            for workers in (None, 1, 2, 3)
        ]
        assert all(result[0] == results[0][0] for result in results[1:])
        assert all(result[1] == results[0][1] for result in results[1:])

    def test_stratified_pool_matches_serial(self, labelled):
        data, labels = labelled
        graph = data.graph
        strata = stratify_by_size(graph, num_strata=3)
        rows = [
            np.fromiter(
                (graph.entity_row(e) for e in stratum.entity_ids),
                dtype=np.int64,
                count=stratum.num_entities,
            )
            for stratum in strata
        ]
        serial = _run_result(
            graph, labels, "twcs", workers=None, num_shards=4, seed=8, strata=rows
        )
        pooled = _run_result(graph, labels, "twcs", workers=2, num_shards=4, seed=8, strata=rows)
        assert serial[0] == pooled[0]
        assert serial[1] == pooled[1]

    def test_neyman_pool_matches_serial(self, labelled):
        data, labels = labelled
        _, rows = TestNeymanAllocation._strata_rows(data.graph)
        serial = _run_result(
            data.graph,
            labels,
            "twcs",
            workers=None,
            num_shards=4,
            seed=19,
            strata=rows,
            allocation="neyman",
        )
        pooled = _run_result(
            data.graph,
            labels,
            "twcs",
            workers=2,
            num_shards=4,
            seed=19,
            strata=rows,
            allocation="neyman",
        )
        assert serial[0] == pooled[0]
        assert serial[1] == pooled[1]

    def test_graph_batch_sampler_executor_wiring(self, labelled):
        """sample_cluster_positions_batch(executor=) fans out deterministically."""
        data, labels = labelled
        graph = data.graph
        rows = np.random.default_rng(1).integers(0, graph.num_entities, size=40)
        batches = []
        for workers in (None, 2):
            with ParallelSamplingExecutor(graph, workers=workers, num_shards=4) as executor:
                rng = np.random.default_rng(99)
                batches.append(
                    graph.sample_cluster_positions_batch(rows, 5, rng, executor=executor)
                )
                # The executor path consumes exactly one value off the caller's
                # stream (the fan-out entropy), regardless of the batch size.
                reference = np.random.default_rng(99)
                reference.integers(np.iinfo(np.int64).max)
                assert rng.bit_generator.state == reference.bit_generator.state
        sizes = graph.cluster_size_array()
        for row, first, second in zip(rows, batches[0], batches[1]):
            np.testing.assert_array_equal(first, second)
            assert first.shape[0] == min(5, int(sizes[row]))

    def test_sample_rows_parity_and_order(self, labelled):
        data, labels = labelled
        rows = np.random.default_rng(0).integers(0, data.graph.num_entities, size=64)
        with ParallelSamplingExecutor(data.graph, workers=None, num_shards=4) as serial:
            reference = serial.sample_rows(rows, 5, seed=17)
        with ParallelSamplingExecutor(data.graph, workers=3, num_shards=4) as pooled:
            fanned = pooled.sample_rows(rows, 5, seed=17)
        assert len(reference) == rows.shape[0]
        sizes = data.graph.cluster_size_array()
        for row, ref, fan in zip(rows, reference, fanned):
            np.testing.assert_array_equal(ref, fan)
            assert ref.shape[0] == min(5, int(sizes[row]))

    def test_pool_transport_rebind_refreshes_worker_attachment(self, labelled):
        """Reusing one ProcessPoolTransport across graphs must re-attach.

        The pool workers captured the first graph's CSR at creation; binding
        a second executor tears the stale pool down so the second run can
        never draw from the wrong index.
        """
        from repro.generators.datasets import make_yago_like
        from repro.sampling.parallel import ProcessPoolTransport

        data, labels = labelled
        other = make_yago_like(seed=0)
        other_graph = other.graph.to_columnar()
        other_labels = other.oracle.as_position_array(other_graph)
        transport = ProcessPoolTransport(2)
        try:
            for graph, label_array in (
                (data.graph, labels),
                (other_graph, other_labels),
            ):
                executor = ParallelSamplingExecutor(
                    graph, num_shards=3, transport=transport
                )
                run = executor.run("twcs", label_array, seed=14)
                while run.num_units < 150:
                    run.step(50)
                reference = _run_result(
                    graph, label_array, "twcs", workers=None, num_shards=3, seed=14, units=150
                )
                assert (run.estimate(), run.cost_summary()) == reference[:2]
        finally:
            transport.close()

    def test_snapshot_attached_pool_matches_inherited(self, labelled, tmp_path):
        data, labels = labelled
        snap = tmp_path / "kg-dir"
        data.graph.save_snapshot(snap)
        inherited = _run_result(data.graph, labels, "twcs", workers=2, num_shards=4, seed=5)
        with ParallelSamplingExecutor(
            data.graph, workers=2, num_shards=4, snapshot=snap
        ) as executor:
            run = executor.run("twcs", labels, seed=5)
            while run.num_units < 250:
                run.step(50)
            assert (run.estimate(), run.cost_summary()) == inherited[:2]


@pytest.mark.parallel
class TestEvolvingWorkers:
    """workers= wiring through the evolving evaluators."""

    def _trajectory(self, cls, base, updates, workers, num_shards):
        evaluator = cls(
            base,
            config=_CONFIG,
            seed=13,
            surface="position",
            workers=workers,
            num_shards=num_shards,
        )
        try:
            evaluator.evaluate_base()
            for batch, batch_oracle in updates:
                evaluator.apply_update(batch, batch_oracle)
            return [
                (e.batch_id, e.accuracy, e.report.margin_of_error, e.cumulative_cost_seconds)
                for e in evaluator.history
            ]
        finally:
            evaluator.close()

    @pytest.mark.parametrize("cls", [StratifiedIncrementalEvaluator, ReservoirIncrementalEvaluator])
    def test_pool_trajectory_matches_sharded_serial(self, cls):
        data = make_nell_like(seed=0)
        base = LabelledKG(data.graph.to_columnar(), data.oracle)
        workload = UpdateWorkloadGenerator(base, seed=5)
        updates = list(workload.generate_sequence(3, 120, 0.8))
        serial = self._trajectory(cls, base, updates, workers=0, num_shards=3)
        pooled = self._trajectory(cls, base, updates, workers=2, num_shards=3)
        assert serial == pooled
        # The trajectory still tracks the evolving ground truth.
        final_estimate = serial[-1][1]
        evaluator = cls(base, config=_CONFIG, seed=13, surface="position")
        evaluator.evaluate_base()
        for batch, batch_oracle in updates:
            evaluator.apply_update(batch, batch_oracle)
        assert abs(final_estimate - evaluator.current_true_accuracy()) < 0.1

    def test_workers_requires_position_surface(self):
        data = make_nell_like(seed=0)
        with pytest.raises(ValueError, match="position"):
            StratifiedIncrementalEvaluator(data, seed=0, workers=2)


@pytest.mark.parallel
class TestCliWorkers:
    def test_evaluate_workers_parity(self, capsys):
        outputs = []
        for workers in ("0", "2"):
            code = cli_main(
                [
                    "evaluate",
                    "--dataset",
                    "nell",
                    "--workers",
                    workers,
                    "--shards",
                    "3",
                    "--seed",
                    "3",
                ]
            )
            assert code == 0
            outputs.append(
                capsys.readouterr().out.replace("transport=serial", "transport=X").replace(
                    "transport=pool", "transport=X"
                )
            )
        assert outputs[0] == outputs[1]

    def test_monitor_workers_smoke(self):
        code = cli_main(
            [
                "monitor",
                "--dataset",
                "nell",
                "--backend",
                "columnar",
                "--evaluator",
                "ss",
                "--batches",
                "2",
                "--seed",
                "0",
                "--workers",
                "2",
            ]
        )
        assert code == 0

    def test_monitor_workers_rejects_object_surface(self):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "monitor",
                    "--dataset",
                    "nell",
                    "--evaluator",
                    "ss",
                    "--batches",
                    "1",
                    "--workers",
                    "2",
                ]
            )
