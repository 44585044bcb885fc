"""The three workloads: what each sets up, what one op is, and how it is checked.

Every workload drives the program from one client in a closed loop.  A run
sets the system up several times (``setup_s`` is their median), keeps the
last set-up, and runs ops until ``--seconds`` of op time have passed and the
workload's minimum op count is reached.  A traced run first makes an
untraced pass, then a traced pass that replays exactly the same ops, so the
two can be checked for identical outputs.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    BENCH_DIR,
    PROCESS_TIMEOUT_S,
    PYTHON,
    ROOT,
    OpRecord,
    Outcome,
    RunDir,
    SpeedProbe,
    closed_loop,
    hermetic_env,
    op_seed,
    process_cpu_ns,
    run_process,
    tail_of,
)
from sweep_worker import MOE as SWEEP_MOE
from tracing import TraceView

BOOTSTRAP = str(BENCH_DIR / "bootstrap.py")
SWEEP_WORKER = str(BENCH_DIR / "sweep_worker.py")
COST_TOLERANCE = 1e-9
#: Every workload audits the same knowledge graph; the workload seed varies
#: only the ops (evaluation seeds, update batches).  Graphs built from other
#: seeds differ in cluster-size mix, which moves cost and time far more than
#: any change to the program would.
DATASET_SEED = 0


@dataclass
class Context:
    seed: int
    seconds: float
    run_dir: RunDir
    probe: SpeedProbe


@dataclass
class Pass:
    """One pass over a workload: its outcome plus, when traced, its traces.

    ``op_traces``/``setup_traces`` pair each trace with the monotonic-clock
    windows its spans must start in to count (``None``: the whole process).
    """

    outcome: Outcome = field(default_factory=Outcome)
    op_traces: list[tuple[TraceView, list | None]] = field(default_factory=list)
    setup_traces: list[tuple[TraceView, list | None]] = field(default_factory=list)


def cost_matches(cost_seconds: float, entities: int, triples: int, model) -> bool:
    """``annotation_cost_seconds == c1*entities + c2*triples`` (Eq. 4, default model)."""
    expected = model[0] * entities + model[1] * triples
    return abs(cost_seconds - expected) <= COST_TOLERANCE * max(1.0, abs(expected))


def _program_env(home: Path, traced: bool) -> dict[str, str]:
    extra = {"PERFBENCH_SIDECAR": str(home / "sidecar.json")}
    if traced:
        extra["PERFBENCH_TRACE"] = str(home / "trace.json")
    return hermetic_env(home, **extra)


def _run_cli(args: list[str], home: Path, traced: bool):
    """Run one ``repro`` CLI process through the bootstrap, to completion."""
    return run_process([PYTHON, BOOTSTRAP, *args], _program_env(home, traced), home / "stderr.log")


def _load_trace(home: Path) -> TraceView:
    return TraceView.load(home / "trace.json")


class _Process:
    """A long-lived program process the benchmark talks to, with a kill deadline."""

    def __init__(self, argv: list[str], home: Path, traced: bool, **pipes) -> None:
        self.home = home
        self._stderr = open(home / "stderr.log", "wb")
        self.started_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(
            argv,
            env=_program_env(home, traced),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
            **pipes,
        )
        self._watchdog = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()

    def reap(self) -> tuple[int, float]:
        """Wait for the process to end; returns ``(exit status, peak RSS in MB)``."""
        self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self._watchdog.cancel()
        self._stderr.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, usage.ru_maxrss / 1024.0

    def cpu_seconds(self) -> float:
        """CPU time the process's live threads have used so far."""
        return process_cpu_ns(self.proc.pid) / 1e9

    def stderr_tail(self) -> str:
        return tail_of(self.home / "stderr.log")


# --------------------------------------------------------------------------- #
# cold-audit
# --------------------------------------------------------------------------- #
_REPORT_FIELDS = {
    "design": re.compile(r"^design\s*: .*shards=(\d+)", re.M),
    "estimate": re.compile(r"^estimated accuracy : ([\d.]+)%", re.M),
    "interval": re.compile(r"interval\s*: \[([\d.]+)%, ([\d.]+)%\]", re.M),
    "truth": re.compile(r"^true accuracy\s*: ([\d.]+)%", re.M),
    "moe": re.compile(r"^margin of error\s*: ([\d.]+) \(target ([\d.]+)\)", re.M),
    "units": re.compile(r"^sample units\s*: (\d+) \((\d+) rounds\)", re.M),
    "triples": re.compile(r"^triples annotated\s*: (\d+)", re.M),
    "entities": re.compile(r"^entities identified: (\d+)", re.M),
    "cost": re.compile(r"^annotation cost\s*: ([\d.]+) hours", re.M),
}


def parse_evaluate_report(text: str) -> dict | None:
    """The fields of a sharded-engine ``repro evaluate`` report, or ``None``."""
    found = {key: pattern.search(text) for key, pattern in _REPORT_FIELDS.items()}
    if any(match is None for match in found.values()):
        return None
    return {
        "shards": int(found["design"].group(1)),
        "estimate": float(found["estimate"].group(1)) / 100,
        "lower": float(found["interval"].group(1)) / 100,
        "upper": float(found["interval"].group(2)) / 100,
        "truth": float(found["truth"].group(1)) / 100,
        "moe": float(found["moe"].group(1)),
        "units": int(found["units"].group(1)),
        "rounds": int(found["units"].group(2)),
        "triples": int(found["triples"].group(1)),
        "entities": int(found["entities"].group(1)),
        "cost_hours": float(found["cost"].group(1)),
    }


class ColdAudit:
    """``repro evaluate --from-snapshot`` as one cold process per op."""

    name = "cold-audit"
    min_ops = 7
    movie_scale = "0.05"
    moe = 0.01

    def run_pass(self, ctx: Context, *, traced: bool, setups: int, num_ops=None) -> Pass:
        result = Pass()
        outcome = result.outcome
        database = None
        for _ in range(setups):
            if database is not None:
                for suffix in ("", "-wal", "-shm"):
                    Path(f"{database}{suffix}").unlink(missing_ok=True)
            home = ctx.run_dir.fresh("setup")
            database = home / "kg.sqlite"
            args = ["snapshot", "--dataset", "movie", "--movie-scale", self.movie_scale]
            args += ["--backend", "sqlite", "--with-labels", "--seed", str(DATASET_SEED)]
            started = ctx.probe.reading()
            finished = _run_cli([*args, "--out", str(database)], home, traced)
            if finished.returncode != 0:
                outcome.failures.append(
                    f"set-up exited {finished.returncode}: {tail_of(finished.stderr_path)}"
                )
                return result
            outcome.add_setup(finished.seconds, ctx.probe, started)
            if traced:
                result.setup_traces.append((_load_trace(home), None))

        def run_op(index: int) -> OpRecord:
            home = ctx.run_dir.fresh("op")
            seed = op_seed(ctx.seed, self.name, index)
            args = ["evaluate", "--from-snapshot", str(database), "--moe", str(self.moe)]
            finished = _run_cli([*args, "--seed", str(seed)], home, traced)
            outcome.peak_rss_mb = max(outcome.peak_rss_mb, finished.peak_rss_mb)
            record = self._check(finished, home)
            if traced and not record.failures:
                result.op_traces.append((_load_trace(home), None))
            return record

        outcome.ops = closed_loop(ctx.seconds, self.min_ops, run_op, num_ops, probe=ctx.probe)
        return result

    def _check(self, finished, home: Path) -> OpRecord:
        record = OpRecord(seconds=finished.seconds, output={}, cpu_seconds=finished.cpu_seconds)
        if finished.returncode != 0:
            record.failures.append(
                f"exit status {finished.returncode}: {tail_of(finished.stderr_path)}"
            )
            return record
        report = parse_evaluate_report(finished.stdout)
        if report is None:
            record.failures.append(f"unparseable report: {finished.stdout[-400:]!r}")
            return record
        sidecar = json.loads((home / "sidecar.json").read_text())
        model = sidecar["cost_model"]
        cost_hours = (model[0] * report["entities"] + model[1] * report["triples"]) / 3600.0
        if report["moe"] > self.moe:
            record.failures.append(f"reported MoE {report['moe']} above target {self.moe}")
        # The CLI prints hours with two decimals; Eq. (4) must agree to that precision.
        if abs(report["cost_hours"] - cost_hours) > 0.005 + 1e-9:
            record.failures.append(
                f"printed cost {report['cost_hours']} h is not Eq. (4)'s {cost_hours:.4f} h"
            )
        key_fields = ("estimate", "lower", "upper", "moe", "units", "triples", "entities")
        record.output = {
            "key": [report[name] for name in key_fields] + [report["cost_hours"]],
            "cost_h": cost_hours,
            "covered": int(report["lower"] <= report["truth"] <= report["upper"]),
            "evaluations": 1,
            "units": report["units"],
            "rounds": report["rounds"],
            "shards": report["shards"],
            "triples": report["triples"],
            "entities": report["entities"],
            "import_s": sidecar["import_s"],
        }
        return record


# --------------------------------------------------------------------------- #
# warm-sweep
# --------------------------------------------------------------------------- #
class _Worker(_Process):
    """A running ``sweep_worker.py`` and its JSON-lines channel."""

    def __init__(self, ctx: Context, traced: bool) -> None:
        started = time.perf_counter()
        argv = [PYTHON, SWEEP_WORKER, str(DATASET_SEED)]
        super().__init__(argv, ctx.run_dir.fresh("sweep"), traced, stdin=subprocess.PIPE)
        self.ready = self._read()
        self.setup_seconds = time.perf_counter() - started
        self.ready_ns = time.monotonic_ns()

    def _read(self) -> dict | None:
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def request(self, message: dict) -> dict | None:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self._read()

    def stop(self) -> tuple[int, float]:
        """End the worker; returns ``(exit status, peak RSS in MB)``."""
        try:
            self.proc.stdin.write(json.dumps({"exit": True}) + "\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        return self.reap()


class WarmSweep:
    """Table-5 rows in one resident process: no import or load cost per op."""

    name = "warm-sweep"
    min_ops = 7

    def run_pass(self, ctx: Context, *, traced: bool, setups: int, num_ops=None) -> Pass:
        result = Pass()
        outcome = result.outcome
        for index in range(setups):
            started = ctx.probe.reading()
            worker = _Worker(ctx, traced)
            if worker.ready is None:
                status, _ = worker.stop()
                outcome.failures.append(f"sweep set-up exited {status}: {worker.stderr_tail()}")
                return result
            outcome.add_setup(worker.setup_seconds, ctx.probe, started)
            if index < setups - 1:
                worker.stop()
        windows: list[tuple[int, int]] = []

        def run_op(index: int) -> OpRecord:
            seed = op_seed(ctx.seed, self.name, index)
            started_ns = time.monotonic_ns()
            started = time.perf_counter()
            reply = worker.request({"row": seed})
            record = OpRecord(seconds=time.perf_counter() - started, output={})
            windows.append((started_ns, time.monotonic_ns()))
            if reply is not None:
                record.cpu_seconds = reply["cpu_s"]
            return self._check(record, reply, worker.ready)

        outcome.ops = closed_loop(ctx.seconds, self.min_ops, run_op, num_ops, probe=ctx.probe)
        status, outcome.peak_rss_mb = worker.stop()
        if status != 0:
            outcome.failures.append(f"sweep process exited {status}: {worker.stderr_tail()}")
        elif traced:
            view = _load_trace(worker.home)
            result.setup_traces.append((view, [(worker.started_ns, worker.ready_ns)]))
            result.op_traces.append((view, windows))
        return result

    @staticmethod
    def _check(record: OpRecord, reply: dict | None, ready: dict) -> OpRecord:
        if reply is None:
            record.failures.append("sweep process ended mid-row")
            return record
        truth = ready["true_accuracy"]
        evaluations = reply["evaluations"]
        for evaluation in evaluations:
            design = evaluation["design"]
            if not evaluation["satisfied"]:
                record.failures.append(f"{design}: MoE target not satisfied")
            if evaluation["moe"] > SWEEP_MOE:
                record.failures.append(f"{design}: MoE {evaluation['moe']} above {SWEEP_MOE}")
            cost = (evaluation["cost_seconds"], evaluation["entities"], evaluation["triples"])
            if not cost_matches(*cost, ready["cost_model"]):
                record.failures.append(f"{design}: cost does not follow Eq. (4)")
        key_fields = ("accuracy", "moe", "units", "triples", "entities", "cost_seconds")
        record.output = {
            "key": [[e[name] for name in key_fields] for e in evaluations],
            "cost_h": sum(e["cost_seconds"] for e in evaluations) / 3600.0,
            "covered": sum(int(e["lower"] <= truth <= e["upper"]) for e in evaluations),
            "evaluations": len(evaluations),
            "units": sum(e["units"] for e in evaluations),
            "rounds": sum(e["rounds"] for e in evaluations),
            "shards": 0,
            "triples": sum(e["triples"] for e in evaluations),
            "entities": sum(e["entities"] for e in evaluations),
        }
        return record


# --------------------------------------------------------------------------- #
# served-stream
# --------------------------------------------------------------------------- #
def _client_library() -> types.SimpleNamespace:
    """The program's client side: daemon client, update generator, wire codec."""
    source = str(ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    from repro.cost import CostModel
    from repro.generators import UpdateWorkloadGenerator, make_movie_like
    from repro.sampling import wire
    from repro.sampling.rpc import RPCError
    from repro.serve.client import ServeClient, ServeRequestError

    return types.SimpleNamespace(
        CostModel=CostModel,
        UpdateWorkloadGenerator=UpdateWorkloadGenerator,
        make_movie_like=make_movie_like,
        wire=wire,
        RPCError=RPCError,
        ServeClient=ServeClient,
        ServeRequestError=ServeRequestError,
    )


class _Daemon(_Process):
    """A ``repro serve`` process plus one client connection to it."""

    def __init__(self, ctx: Context, traced: bool, lib) -> None:
        argv = [PYTHON, BOOTSTRAP, "serve", "--listen", "127.0.0.1:0"]
        super().__init__(argv, ctx.run_dir.fresh("serve"), traced)
        match = re.search(r"serve listening on (\S+)", self.proc.stdout.readline())
        self.client = None
        if match:
            try:
                self.client = lib.ServeClient(match.group(1))
            except (lib.RPCError, OSError):
                pass

    def peak_rss_mb(self) -> float:
        """High-water RSS of the daemon so far, read before it drains."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self) -> int:
        """Close the connection, ask the daemon to drain; returns its exit status."""
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.reap()[0]


class ServedStream:
    """Update batches and estimate reads against a resident ``repro serve`` daemon."""

    name = "served-stream"
    movie_scale = 0.05
    moe = 0.05
    batch_fraction = 0.005
    update_accuracy = 0.8
    reads_per_write = 10
    #: Writes per session before both sessions are replaced by fresh ones, so
    #: every run sees the same range of graph sizes however fast it goes.
    writes_per_epoch = 100
    evaluators = ("ss", "rs")
    #: At least one full epoch, so every run reaches the same largest graph.
    min_ops = len(evaluators) * writes_per_epoch
    #: Writes scaled together by the speed probe: a single write is often
    #: shorter than the slice the probe gets.
    probe_group = 25

    def _spec(self, ctx: Context, evaluator: str, epoch: int) -> dict:
        return {
            "dataset": "movie",
            "dataset_seed": DATASET_SEED,
            "movie_scale": self.movie_scale,
            "evaluator": evaluator,
            "seed": op_seed(ctx.seed, f"{self.name}:session:{evaluator}", epoch),
            "moe": self.moe,
        }

    def _attach(self, daemon: _Daemon, ctx: Context, epoch: int) -> None:
        for evaluator in self.evaluators:
            daemon.client.attach(self._spec(ctx, evaluator, epoch), session=f"{evaluator}-{epoch}")

    def _start(self, ctx: Context, traced: bool, lib, outcome: Outcome) -> _Daemon | None:
        """Start a daemon and attach the first two sessions; the set-up being timed."""
        started = time.perf_counter()
        reading = ctx.probe.reading()
        daemon = _Daemon(ctx, traced, lib)
        try:
            if daemon.client is None:
                raise lib.RPCError("the daemon did not come up")
            self._attach(daemon, ctx, epoch=0)
        except (lib.RPCError, OSError) as exc:
            daemon.stop()
            outcome.failures.append(f"daemon set-up failed ({exc}): {daemon.stderr_tail()}")
            return None
        outcome.add_setup(time.perf_counter() - started, ctx.probe, reading)
        return daemon

    def run_pass(self, ctx: Context, *, traced: bool, setups: int, num_ops=None) -> Pass:
        lib = _client_library()
        result = Pass()
        outcome = result.outcome
        # The update producer needs the base graph's entity ids (enrichment
        # targets), exactly like `repro client run` builds them client-side.
        base = lib.make_movie_like(seed=DATASET_SEED, scale=self.movie_scale)
        batch_size = max(1, round(self.batch_fraction * base.graph.num_triples))
        model = lib.CostModel()
        model = (model.identification_cost, model.validation_cost)
        for index in range(setups):
            daemon = self._start(ctx, traced, lib, outcome)
            if daemon is None:
                return result
            setup_window = (daemon.started_ns, time.monotonic_ns())
            if index < setups - 1:
                daemon.stop()

        reads: list[float] = []
        submit_bytes: list[int] = []
        windows: list[tuple[int, int]] = []
        records = dict.fromkeys(self.evaluators, 1)
        epoch_inputs: list[tuple[str, object, list[bool]]] = []
        current_epoch = [0]
        # The daemon's high-water mark over the first epoch: later epochs
        # start from a fragmented heap, so a faster run would read higher.
        first_epoch_rss: list[float] = []

        def next_input(index: int):
            epoch, position = divmod(index, self.min_ops)
            if epoch != current_epoch[0]:
                if not first_epoch_rss:
                    first_epoch_rss.append(daemon.peak_rss_mb())
                for evaluator in self.evaluators:
                    daemon.client.detach(f"{evaluator}-{current_epoch[0]}")
                    records[evaluator] = 1
                current_epoch[0] = epoch
                self._attach(daemon, ctx, epoch)
            if position == 0:
                # The whole epoch's batches are generated before its first
                # write, outside every op window.
                epoch_inputs.clear()
                generators = {
                    evaluator: lib.UpdateWorkloadGenerator(
                        base, seed=op_seed(ctx.seed, f"{self.name}:updates:{evaluator}", epoch)
                    )
                    for evaluator in self.evaluators
                }
                for _ in range(self.writes_per_epoch):
                    for evaluator in self.evaluators:
                        batch, oracle = generators[evaluator].generate_batch(
                            batch_size, self.update_accuracy
                        )
                        labels = [oracle.label(triple) for triple in batch.triples]
                        epoch_inputs.append((f"{evaluator}-{epoch}", batch, labels))
            return epoch_inputs[position]

        def run_op(index: int) -> OpRecord:
            session, batch, labels = next_input(index)
            evaluator = session.split("-")[0]
            if traced:
                message = {
                    "op": "submit",
                    "session": session,
                    "batch_id": batch.batch_id,
                    "triples": list(batch.triples),
                    "labels": labels,
                    "wait": False,
                }
                submit_bytes.append(len(lib.wire.dumps(message)))
            record = OpRecord(seconds=0.0, output={})
            client = daemon.client
            # The op's CPU time: this thread's (the program's client library)
            # plus every daemon thread's.
            cpu_started = time.thread_time() + daemon.cpu_seconds()
            started_ns = time.monotonic_ns()
            started = time.perf_counter()
            try:
                reply = client.submit(session, batch.batch_id, batch.triples, labels, wait=False)
                if reply.get("op") != "queued":
                    record.failures.append(f"submit replied {reply.get('op')!r}")
                for _ in range(self.reads_per_write):
                    read_started = time.perf_counter()
                    estimate = client.estimate(session)
                    reads.append(time.perf_counter() - read_started)
                    if estimate.get("failed"):
                        record.failures.append(f"estimate reports failure: {estimate['failed']}")
                polled = client.poll(session, min_records=records[evaluator] + 1)
            except (lib.RPCError, OSError) as exc:
                record.seconds = time.perf_counter() - started
                code = getattr(exc, "code", type(exc).__name__)
                record.failures.append(f"daemon refused [{code}]: {exc}")
                return record
            record.seconds = time.perf_counter() - started
            windows.append((started_ns, time.monotonic_ns()))
            record.cpu_seconds = time.thread_time() + daemon.cpu_seconds() - cpu_started
            records[evaluator] += 1
            return self._check(record, polled, batch.batch_id, records[evaluator], model)

        try:
            outcome.ops = closed_loop(
                ctx.seconds, self.min_ops, run_op, num_ops, probe=ctx.probe, group=self.probe_group
            )
        finally:
            outcome.peak_rss_mb = first_epoch_rss[0] if first_epoch_rss else daemon.peak_rss_mb()
            status = daemon.stop()
        if status != 0:
            outcome.failures.append(f"daemon exited {status}: {daemon.stderr_tail()}")
        elif traced:
            view = _load_trace(daemon.home)
            result.setup_traces.append((view, [setup_window]))
            result.op_traces.append((view, windows))
        outcome.extra["reads"] = reads
        outcome.extra["submit_bytes"] = submit_bytes
        return result

    def _check(self, record: OpRecord, polled: dict, batch_id: str, expected: int, model):
        if not polled.get("satisfied"):
            record.failures.append(f"poll not satisfied: failed={polled.get('failed')!r}")
            return record
        if polled["num_records"] != expected:
            new = polled["num_records"] - expected + 1
            record.failures.append(f"the write produced {new} records, not exactly one")
        latest = polled["latest"]
        if latest is None or latest["batch_id"] != batch_id:
            record.failures.append("the latest record is not the submitted batch")
            return record
        monitor, report = latest["record"], latest["report"]
        if monitor.margin_of_error > self.moe:
            record.failures.append(f"round MoE {monitor.margin_of_error} above {self.moe}")
        cost = (
            report.annotation_cost_seconds,
            report.num_entities_identified,
            report.num_triples_annotated,
        )
        if not cost_matches(*cost, model):
            record.failures.append("round cost does not follow Eq. (4)")
        error = abs(monitor.estimated_accuracy - monitor.true_accuracy)
        record.output = {
            "key": [
                monitor.estimated_accuracy,
                monitor.margin_of_error,
                monitor.true_accuracy,
                latest["cumulative_cost_seconds"],
            ],
            "cost_h": report.annotation_cost_seconds / 3600.0,
            "covered": int(error <= monitor.margin_of_error),
            "evaluations": 1,
            "units": report.num_units,
            "rounds": report.iterations,
            "shards": 0,
            "triples": report.num_triples_annotated,
            "entities": report.num_entities_identified,
        }
        return record


WORKLOADS = {workload.name: workload for workload in (ColdAudit(), WarmSweep(), ServedStream())}
