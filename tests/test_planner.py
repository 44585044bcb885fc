"""Deterministic shard planning and ``--transport auto`` parity.

``plan_shards`` is a pure function of (graph stats, draw volume), so its
outputs are pinned exactly.  The CLI tests then close the loop: a default
run keeps the classic single-stream loop, and ``--transport auto`` prints
the same numbers as ``--transport serial`` for a pinned shard count.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.generators.datasets import make_nell_like
from repro.sampling.planner import draws_for_target, plan_shards
from repro.storage.backend import StorageStats


def _stats(triples=1_000_000, entities=100_000, mean=10.0, biggest=30, cv=0.5) -> StorageStats:
    return StorageStats(
        num_triples=triples,
        num_entities=entities,
        mean_cluster_size=mean,
        max_cluster_size=biggest,
        size_cv=cv,
    )


class TestDecisions:
    def test_small_graph_stays_serial(self):
        assert plan_shards(_stats(triples=2_000, entities=300), 1_000) == 1

    def test_skewed_graph_shards_finer(self):
        uniform = plan_shards(_stats(), 500_000)
        skewed = plan_shards(_stats(biggest=500), 500_000)  # skew 50 > 20
        assert skewed == 2 * uniform

    def test_pinned_shards_always_honoured(self, capsys):
        # A caller-pinned --shards replaces the plan under auto too.
        main(["evaluate", "--dataset", "nell", "--seed", "7", "--shards", "3"])
        assert "shards=3, transport=auto:serial" in capsys.readouterr().out

    def test_low_draw_volume_coarsens_shards(self):
        # Skew asks for 16 shards, but 20k draws over 16 shards is only
        # 1250/shard — below MIN_DRAWS_PER_SHARD=2000, so the plan falls
        # back to draws//2000 = 10 shards.
        assert plan_shards(_stats(biggest=500), 20_000) == 10

    def test_tiny_runs_coarsen_below_worker_count_to_serial(self):
        # 3k draws cannot amortise even the base width (8 x 2000): the plan
        # collapses to one shard, which runs the classic loop.
        assert plan_shards(_stats(), 3_000) == 1

    def test_plan_shards_is_a_pure_stats_function(self):
        assert plan_shards(_stats(), 500_000) == 8
        assert plan_shards(_stats(biggest=500), 500_000) == 16  # skew doubles
        assert plan_shards(_stats(), 1_000) == 1  # tiny runs collapse
        assert plan_shards(_stats(entities=3), 500_000) == 3  # entity cap

    def test_draws_hint_from_moe_is_monotone(self):
        loose = draws_for_target(0.1)
        tight = draws_for_target(0.01)
        assert 0 < loose < tight


class TestBackendStats:
    def test_columnar_stats_match_graph_shape(self):
        data = make_nell_like(seed=0)
        graph = data.graph.to_columnar()
        stats = graph.backend.stats()
        assert stats.num_triples == graph.num_triples
        assert stats.num_entities == graph.num_entities
        assert stats.mean_cluster_size == pytest.approx(graph.num_triples / graph.num_entities)
        assert stats.max_cluster_size >= stats.mean_cluster_size
        assert stats.skew >= 1.0
        assert stats.size_cv >= 0.0


class TestAutoParity:
    def _evaluate(self, capsys, *extra) -> list[str]:
        main(["evaluate", "--dataset", "nell", "--seed", "7", *extra])
        out = capsys.readouterr().out
        # Every numeric result line; the design provenance line names the
        # transport and differs by construction, the statistics must not.
        keep = (
            "true accuracy",
            "estimated accuracy",
            "margin of error",
            "sample units",
            "triples annotated",
            "entities identified",
            "annotation cost",
        )
        return [
            line
            for line in out.splitlines()
            if line.strip().startswith(keep) or "interval" in line
        ]

    def test_default_auto_keeps_the_classic_loop(self, capsys):
        # At the default MoE target the deterministic shard plan is one
        # shard, so a bare `repro evaluate` must run the classic
        # single-stream evaluator on any host.
        main(["evaluate", "--dataset", "nell", "--seed", "7"])
        out = capsys.readouterr().out
        assert "estimated accuracy" in out
        assert "transport=" not in out and "shards=" not in out

    def test_transport_auto_replays_serial_bit_identically(self, capsys):
        auto = self._evaluate(capsys, "--transport", "auto", "--shards", "2")
        serial = self._evaluate(capsys, "--transport", "serial", "--shards", "2")
        assert auto == serial and auto
