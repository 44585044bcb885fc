"""RPC shard transport parity suite (real sockets, real worker processes).

Every test here spins actual ``repro worker`` subprocesses on loopback
sockets with tmpdir snapshot caches and checks the transport contract end
to end: for any shard count K ∈ {1, 2, 4, 7}, 1–3 localhost nodes and any
pipelining window, a :class:`SocketRPCTransport` run is **bit-identical**
to the :class:`SerialTransport` and :class:`ProcessPoolTransport`
executions of the same plan, on both storage backends — including when a
node is SIGKILLed mid-run and its tasks are reassigned, when an idle node
steals from a deliberately slowed one, when a worker joins mid-run through
the registration listener, and including the pinned golden trajectory.
Tests carry the ``rpc`` marker (dedicated CI leg) and a hard ``timeout`` so
a protocol hang fails instead of wedging the run.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from rpc_chaos import WorkerProcess

from repro.cli import main as cli_main
from repro.core.config import EvaluationConfig
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.generators.datasets import LabelledKG, make_nell_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.sampling.parallel import PARALLEL_DESIGNS, ParallelSamplingExecutor
from repro.sampling.rpc import RPCTaskError, SocketRPCTransport
from repro.sampling.stratification import stratify_by_size

pytestmark = pytest.mark.rpc

_SHARD_COUNTS = (1, 2, 4, 7)
_CONFIG = EvaluationConfig(moe_target=0.06)


@pytest.fixture(scope="module")
def worker_pool(tmp_path_factory):
    """Three long-lived loopback worker nodes with persistent caches."""
    workers = [
        WorkerProcess(tmp_path_factory.mktemp(f"worker-{index}")) for index in range(3)
    ]
    yield workers
    for worker in workers:
        worker.stop()


@pytest.fixture(scope="module")
def labelled():
    data = make_nell_like(seed=0)
    graph = data.graph.to_columnar()
    return LabelledKG(graph, data.oracle), data.oracle.as_position_array(graph)


def _drive(run, units, round_size=50):
    while run.num_units < units:
        before = run.num_units
        run.step(min(round_size, units - run.num_units))
        if run.num_units == before:
            break
    return run.estimate(), run.cost_summary()


def _reference_result(graph, labels, design, *, workers, num_shards, seed, units=150, **kw):
    with ParallelSamplingExecutor(graph, workers=workers, num_shards=num_shards) as executor:
        return _drive(executor.run(design, labels, seed=seed, **kw), units)


def _rpc_result(
    graph, labels, design, *, nodes, num_shards, seed, units=150, transport=None, **kw
):
    transport = transport or SocketRPCTransport([node.address for node in nodes])
    with ParallelSamplingExecutor(
        graph, num_shards=num_shards, transport=transport
    ) as executor:
        return _drive(executor.run(design, labels, seed=seed, **kw), units)


@pytest.mark.timeout(300)
def test_rpc_matches_serial_and_pool_for_all_shard_and_node_counts(
    labelled, worker_pool
):
    data, labels = labelled
    for num_shards in _SHARD_COUNTS:
        serial = _reference_result(
            data.graph, labels, "twcs", workers=None, num_shards=num_shards, seed=51
        )
        pooled = _reference_result(
            data.graph, labels, "twcs", workers=2, num_shards=num_shards, seed=51
        )
        assert serial == pooled, num_shards
        for num_nodes in (1, 2, 3):
            rpc = _rpc_result(
                data.graph,
                labels,
                "twcs",
                nodes=worker_pool[:num_nodes],
                num_shards=num_shards,
                seed=51,
            )
            assert rpc == serial, (num_shards, num_nodes)


@pytest.mark.timeout(300)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    design=st.sampled_from(PARALLEL_DESIGNS),
    num_shards=st.sampled_from(_SHARD_COUNTS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rpc_parity_property(labelled, nell_memory, worker_pool, design, num_shards, seed):
    """Random (design, K, seed): RPC == serial on both storage backends."""
    data, labels = labelled
    memory_labels = nell_memory.oracle.as_position_array(nell_memory.graph)
    serial = _reference_result(
        data.graph, labels, design, workers=None, num_shards=num_shards, seed=seed, units=100
    )
    rpc_columnar = _rpc_result(
        data.graph,
        labels,
        design,
        nodes=worker_pool[:2],
        num_shards=num_shards,
        seed=seed,
        units=100,
    )
    rpc_memory = _rpc_result(
        nell_memory.graph,
        memory_labels,
        design,
        nodes=worker_pool[:2],
        num_shards=num_shards,
        seed=seed,
        units=100,
    )
    assert rpc_columnar == serial
    assert rpc_memory == serial


@pytest.mark.timeout(300)
def test_rpc_matches_golden_trajectory(labelled, worker_pool, golden):
    """The RPC trajectory reproduces the *pinned* serial golden, bit for bit."""
    data, labels = labelled
    transport = SocketRPCTransport([node.address for node in worker_pool[:2]])
    with ParallelSamplingExecutor(
        data.graph, num_shards=2, transport=transport
    ) as executor:
        run = executor.run("twcs", labels, seed=2026)
        trajectory = []
        for _ in range(4):
            run.step(40)
            estimate = run.estimate()
            cost = run.cost_summary()
            trajectory.append(
                {
                    "value": float(estimate.value),
                    "std_error": float(estimate.std_error),
                    "num_units": int(estimate.num_units),
                    "num_triples": int(estimate.num_triples),
                    "entities_identified": int(cost.entities_identified),
                    "triples_annotated": int(cost.triples_annotated),
                    "cost_seconds": float(cost.cost_seconds),
                }
            )
    golden.check("engine_twcs", trajectory)


@pytest.mark.timeout(300)
def test_rpc_stratified_and_neyman_parity(labelled, worker_pool):
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
    for allocation in ("proportional", "neyman"):
        serial = _reference_result(
            graph,
            labels,
            "twcs",
            workers=None,
            num_shards=4,
            seed=23,
            strata=rows,
            allocation=allocation,
        )
        rpc = _rpc_result(
            graph,
            labels,
            "twcs",
            nodes=worker_pool[:2],
            num_shards=4,
            seed=23,
            strata=rows,
            allocation=allocation,
        )
        assert rpc == serial, allocation


@pytest.mark.timeout(300)
def test_rpc_node_drop_mid_run_reassigns_and_stays_bit_identical(labelled, tmp_path):
    """SIGKILL one of two nodes mid-run: tasks reassign, trajectory unchanged.

    Every task carries the exact per-shard RNG state it resumes from, so the
    surviving node re-executes the dropped node's tasks identically — the
    drop changes *where* work ran, never *what* was drawn.
    """
    data, labels = labelled
    serial_executor = ParallelSamplingExecutor(data.graph, workers=None, num_shards=4)
    serial_run = serial_executor.run("twcs", labels, seed=77)

    victims = [WorkerProcess(tmp_path / "drop-a"), WorkerProcess(tmp_path / "drop-b")]
    try:
        transport = SocketRPCTransport([node.address for node in victims])
        with ParallelSamplingExecutor(
            data.graph, num_shards=4, transport=transport
        ) as executor:
            run = executor.run("twcs", labels, seed=77)
            for _ in range(2):  # both nodes healthy
                serial_run.step(40)
                run.step(40)
            victims[0].kill()  # hard drop mid-run
            for _ in range(2):  # survivor drains the reassigned tasks
                serial_run.step(40)
                run.step(40)
            assert run.estimate() == serial_run.estimate()
            assert run.cost_summary() == serial_run.cost_summary()
            stats = transport.stats()
            assert stats["live_nodes"] == 1
            # The survivor executed work in every round, including post-drop.
            survivor = next(n for n in stats["nodes"] if not n["dead"])
            assert survivor["tasks_executed"] >= 4
    finally:
        for victim in victims:
            victim.stop()
        serial_executor.close()


@pytest.mark.timeout(300)
def test_snapshot_is_content_addressed_and_shipped_once(labelled, tmp_path):
    data, labels = labelled
    worker = WorkerProcess(tmp_path / "cache-node")
    try:
        for attempt in range(2):
            transport = SocketRPCTransport([worker.address])
            with ParallelSamplingExecutor(
                data.graph, num_shards=2, transport=transport
            ) as executor:
                _drive(executor.run("twcs", labels, seed=3), 60)
                shipped = transport.stats()["snapshots_shipped"]
            # First master ships the CSR once; every later run finds it cached.
            assert shipped == (1 if attempt == 0 else 0), attempt
        digests = [d for d in os.listdir(worker.cache_dir) if not d.startswith(".")]
        assert len(digests) == 1
    finally:
        worker.stop()


@pytest.mark.timeout(300)
@pytest.mark.parametrize(
    "cls", [StratifiedIncrementalEvaluator, ReservoirIncrementalEvaluator]
)
def test_evolving_rpc_trajectory_matches_sharded_serial(worker_pool, cls):
    data = make_nell_like(seed=0)
    base = LabelledKG(data.graph.to_columnar(), data.oracle)
    workload = UpdateWorkloadGenerator(base, seed=5)
    updates = list(workload.generate_sequence(2, 120, 0.8))

    def trajectory(**extra):
        evaluator = cls(base, config=_CONFIG, seed=13, surface="position", **extra)
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

    serial = trajectory(workers=0, num_shards=3)
    rpc = trajectory(
        transport=SocketRPCTransport([node.address for node in worker_pool[:2]]),
        num_shards=3,
    )
    assert rpc == serial


@pytest.mark.timeout(300)
def test_cli_evaluate_rpc_matches_serial(worker_pool, capsys):
    outputs = []
    for argv in (
        ["evaluate", "--dataset", "nell", "--workers", "0", "--shards", "3", "--seed", "3"],
        [
            "evaluate",
            "--dataset",
            "nell",
            "--transport",
            "rpc",
            "--nodes",
            ",".join(node.address for node in worker_pool[:2]),
            "--shards",
            "3",
            "--seed",
            "3",
        ],
    ):
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        outputs.append(
            out.replace("transport=serial", "transport=X").replace(
                "transport=rpc[2 nodes]", "transport=X"
            )
        )
    assert outputs[0] == outputs[1]


@pytest.mark.timeout(120)
def test_worker_survives_a_master_that_vanishes_mid_exchange(labelled, tmp_path):
    """An abruptly disconnected master must not kill the worker process."""
    import socket as socket_module

    from repro.sampling.rpc import PROTOCOL_VERSION, send_message

    data, labels = labelled
    worker = WorkerProcess(tmp_path / "rude-node")
    try:
        host, port = worker.address.rsplit(":", 1)
        # Rude master #1: sends a request and slams the connection shut
        # without ever reading the reply (worker's send may hit EPIPE/RST).
        sock = socket_module.create_connection((host, int(port)), timeout=10)
        send_message(sock, {"op": "hello", "version": PROTOCOL_VERSION})
        sock.close()
        # Rude master #2: half a length prefix, then gone.
        sock = socket_module.create_connection((host, int(port)), timeout=10)
        sock.sendall(b"\x00\x00\x00")
        sock.close()
        assert worker.proc.poll() is None
        # A well-behaved master still gets bit-identical service afterwards.
        rpc = _rpc_result(
            data.graph, labels, "twcs", nodes=[worker], num_shards=2, seed=9, units=40
        )
        serial = _reference_result(
            data.graph, labels, "twcs", workers=None, num_shards=2, seed=9, units=40
        )
        assert rpc == serial
    finally:
        worker.stop()


@pytest.mark.timeout(300)
def test_pipelined_windows_match_serial_under_skewed_node_delays(labelled, nell_memory, tmp_path):
    """Windows 1/2/8 with one deliberately slow node: bit-identical on both
    backends.  Pipelining and work stealing change *where and when* tasks
    run, never what they draw."""
    data, labels = labelled
    memory_labels = nell_memory.oracle.as_position_array(nell_memory.graph)
    fast = WorkerProcess(tmp_path / "win-fast")
    slow = WorkerProcess(tmp_path / "win-slow", task_delay=0.02)
    try:
        serial = _reference_result(
            data.graph, labels, "twcs", workers=None, num_shards=7, seed=29, units=100
        )
        for window in (1, 2, 8):
            rpc_columnar = _rpc_result(
                data.graph,
                labels,
                "twcs",
                nodes=[fast, slow],
                num_shards=7,
                seed=29,
                units=100,
                transport=SocketRPCTransport([fast.address, slow.address], window=window),
            )
            assert rpc_columnar == serial, window
            rpc_memory = _rpc_result(
                nell_memory.graph,
                memory_labels,
                "twcs",
                nodes=[fast, slow],
                num_shards=7,
                seed=29,
                units=100,
                transport=SocketRPCTransport([fast.address, slow.address], window=window),
            )
            assert rpc_memory == serial, window
    finally:
        fast.stop()
        slow.stop()


@pytest.mark.timeout(180)
def test_idle_node_steals_from_a_slow_one_without_perturbing_the_run(labelled, tmp_path):
    """A node stuck behind a large per-task delay gets its window drained by
    the idle node; both stay alive and the trajectory is unchanged."""
    data, labels = labelled
    slow = WorkerProcess(tmp_path / "steal-slow", task_delay=0.4)
    fast = WorkerProcess(tmp_path / "steal-fast")
    try:
        with ParallelSamplingExecutor(data.graph, workers=None, num_shards=4) as serial_ex:
            serial_run = serial_ex.run("twcs", labels, seed=41)
            serial_run.step(40)
            serial_estimate = serial_run.estimate()
            serial_cost = serial_run.cost_summary()
        transport = SocketRPCTransport([slow.address, fast.address], window=4)
        with ParallelSamplingExecutor(
            data.graph, num_shards=4, transport=transport
        ) as executor:
            run = executor.run("twcs", labels, seed=41)
            run.step(40)
            assert run.estimate() == serial_estimate
            assert run.cost_summary() == serial_cost
            stats = transport.stats()
            assert stats["tasks_stolen"] >= 1
            assert stats["live_nodes"] == 2
    finally:
        slow.stop()
        fast.stop()


@pytest.mark.timeout(300)
def test_late_joining_worker_registers_and_receives_work(labelled, nell_memory, tmp_path):
    """Elastic membership: a `repro worker --join` node registering after a
    completed round is attached (content-addressed CSR catch-up) and handed
    work, with the final trajectory bit-identical to the serial reference —
    on both storage backends, with 3 loopback workers in play."""
    data, labels = labelled
    memory_labels = nell_memory.oracle.as_position_array(nell_memory.graph)
    for graph, label_array, tag in (
        (data.graph, labels, "columnar"),
        (nell_memory.graph, memory_labels, "memory"),
    ):
        with ParallelSamplingExecutor(graph, workers=None, num_shards=4) as serial_ex:
            serial_run = serial_ex.run("twcs", label_array, seed=67)
            for _ in range(6):
                serial_run.step(30)
            serial_estimate = serial_run.estimate()
            serial_cost = serial_run.cost_summary()

        initial = [
            WorkerProcess(tmp_path / f"join-init-{tag}-{index}") for index in range(2)
        ]
        joiner = None
        try:
            transport = SocketRPCTransport(
                [node.address for node in initial], join_address="127.0.0.1:0"
            )
            assert transport.join_address is not None
            with ParallelSamplingExecutor(
                graph, num_shards=4, transport=transport
            ) as executor:
                run = executor.run("twcs", label_array, seed=67)
                for _ in range(2):  # ≥1 completed round before the join
                    run.step(30)
                joiner = WorkerProcess(
                    tmp_path / f"join-late-{tag}", join=transport.join_address
                )
                time.sleep(0.5)  # let the join land in the listener backlog
                for _ in range(4):
                    run.step(30)
                assert run.estimate() == serial_estimate
                assert run.cost_summary() == serial_cost
                stats = transport.stats()
                joined = [node for node in stats["nodes"] if node["joined"]]
                assert len(joined) == 1
                # The joiner caught up on the CSR index (shipped exactly once
                # to it) and actually executed work.
                assert joined[0]["snapshots_shipped"] == 1
                assert joined[0]["tasks_executed"] >= 1
                assert stats["live_nodes"] == 3
        finally:
            for node in initial:
                node.stop()
            if joiner is not None:
                joiner.stop()


@pytest.mark.timeout(120)
def test_close_is_idempotent_and_tolerates_nodes_dead_after_last_result(labelled, tmp_path):
    """Regression: close() must survive the shutdown race with a node that
    died right after delivering its last result — and stay a no-op when
    called again."""
    data, labels = labelled
    workers = [WorkerProcess(tmp_path / f"close-{index}") for index in range(2)]
    transport = SocketRPCTransport([worker.address for worker in workers])
    try:
        executor = ParallelSamplingExecutor(data.graph, num_shards=2, transport=transport)
        run = executor.run("twcs", labels, seed=11)
        run.step(40)
        # Both nodes die *after* their last result, before close(): the
        # goodbye hits reset/closed sockets on every node.
        for worker in workers:
            worker.kill()
        time.sleep(0.1)
        executor.close()  # must not raise
        executor.close()  # idempotent
        transport.close()  # and again at the transport level
    finally:
        for worker in workers:
            worker.stop()


@pytest.mark.timeout(120)
def test_remote_task_failure_raises_instead_of_retrying(labelled, tmp_path):
    """A task that *raises* on the worker is a bug, not a node failure."""
    from repro.sampling.parallel import ShardSource, ShardTask

    data, labels = labelled
    worker = WorkerProcess(tmp_path / "err-node")
    try:
        transport = SocketRPCTransport([worker.address])
        transport.bind(
            np.asarray(data.graph.backend.csr_arrays()[0], dtype=np.int64),
            data.graph.backend.csr_arrays()[1],
        )
        bad_task = ShardTask(
            index=0,
            design="definitely-not-a-design",
            source=ShardSource(kind="range", lo=0, hi=1),
            count=1,
            cap=5,
            rng_state=np.random.default_rng(0).bit_generator.state,
            perm_seed=None,
            cursor=0,
        )
        with pytest.raises(RPCTaskError, match="definitely-not-a-design"):
            transport.execute([bad_task])
        transport.close()  # free the node before the next master connects
        # The node survives the failed task and still serves good work.
        result = _rpc_result(
            data.graph, labels, "twcs", nodes=[worker], num_shards=2, seed=9, units=40
        )
        serial = _reference_result(
            data.graph, labels, "twcs", workers=None, num_shards=2, seed=9, units=40
        )
        assert result == serial
    finally:
        worker.stop()
