"""Shared machinery: hermetic processes, op seeds, percentiles, result assembly."""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import shutil
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PYTHON = sys.executable
#: Where runs keep their private homes, snapshots and traces (git-ignored).
SCRATCH_NAME = ".perfbench"
#: A process the benchmark starts may run this long before it is killed.
PROCESS_TIMEOUT_S = 120.0
#: The speed probe's rounds per CPU second on a quiet 2-vCPU Xeon host: the
#: nominal speed that time metrics are scaled to (see :class:`SpeedProbe`).
PROBE_NOMINAL_RATE = 25_000.0


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def op_seed(seed: int, salt: str, index: int) -> int:
    """The seed of op ``index``: a pure function of the workload seed."""
    digest = hashlib.blake2b(f"{salt}:{seed}:{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") % 2**31


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on its lowest allowed CPU.

    Neighbours on a shared host slow each CPU on its own, so the speed probe
    measures an op's speed only on the CPU the op runs on.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def process_cpu_ns(pid: int) -> int:
    """CPU time the live threads of process ``pid`` have used, in nanoseconds."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (OSError, IndexError, ValueError):
            pass
    return total


class SpeedProbe:
    """How fast this CPU runs right now, sampled while the ops run on it.

    On a shared host, neighbours slow a CPU in bursts of milliseconds whose
    density drifts over minutes; CPU time counts that slowdown, and whole
    runs moved by a quarter.  ``probe.py`` runs a tiny fixed loop at nice 19
    on the benchmark's CPU, so it gets a sliver of the CPU in many short
    slices spread over each op.  Its rounds per CPU second over a window is
    the CPU's speed in that window; a time measured in the window, times
    that rate over ``PROBE_NOMINAL_RATE``, is the time at the nominal speed.
    A timed block of interpreter work before and after each op tracked an
    op's time far worse than this co-scheduled probe.
    """

    def __init__(self, directory: Path) -> None:
        path = directory / "probe-counter"
        path.write_bytes(bytes(8))
        self._counter_file = open(path, "r+b")
        self._counter = mmap.mmap(self._counter_file.fileno(), 8)
        probe = str(BENCH_DIR / "probe.py")
        self.proc = subprocess.Popen([PYTHON, probe, str(path)], cwd=ROOT, stdin=subprocess.DEVNULL)

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.kill()
        self.proc.wait()
        self._counter.close()
        self._counter_file.close()

    def reading(self) -> tuple[int, int]:
        """``(rounds finished, probe CPU nanoseconds)`` now."""
        return struct.unpack_from("Q", self._counter)[0], process_cpu_ns(self.proc.pid)

    @staticmethod
    def scale(windows: list[tuple[tuple[int, int], tuple[int, int]]]) -> float:
        """The nominal-speed factor over ``(start reading, end reading)`` windows.

        1.0 when the probe got no CPU in them, as then nothing was measured.
        """
        rounds = sum(end[0] - start[0] for start, end in windows)
        cpu_ns = sum(end[1] - start[1] for start, end in windows)
        if rounds <= 0 or cpu_ns <= 0:
            return 1.0
        return rounds / (cpu_ns / 1e9) / PROBE_NOMINAL_RATE


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float | None:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if count * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return None


# --------------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------------- #
class RunDir:
    """A private directory under the checkout for one benchmark run, removed at exit."""

    def __init__(self) -> None:
        self.path = ROOT / SCRATCH_NAME / f"run-{os.getpid()}-{time.monotonic_ns()}"
        self._counter = 0

    def __enter__(self) -> "RunDir":
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass

    def fresh(self, prefix: str) -> Path:
        """A new empty directory inside the run directory."""
        self._counter += 1
        path = self.path / f"{prefix}-{self._counter}"
        path.mkdir()
        return path


def hermetic_env(home: Path, **extra: str) -> dict[str, str]:
    """Environment for a program process whose caches live only in ``home``.

    ``HOME``, ``XDG_CACHE_HOME`` and ``REPRO_PLANNER_PROFILE`` all point into
    the op's own fresh directory, so no op can read state an earlier op wrote
    (the planner's calibration profile, above all).
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.pop("PERFBENCH_TRACE", None)
    env.pop("PERFBENCH_SIDECAR", None)
    env.update(
        HOME=str(home),
        XDG_CACHE_HOME=str(home / ".cache"),
        REPRO_PLANNER_PROFILE=str(home / ".cache" / "repro" / "planner.json"),
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
    )
    env.update(extra)
    return env


@dataclass
class Finished:
    """A program process that ran to completion."""

    returncode: int
    stdout: str
    seconds: float
    #: User plus system CPU time of the process and the children it reaped.
    cpu_seconds: float
    peak_rss_mb: float
    stderr_path: Path


def run_process(argv: list[str], env: dict[str, str], stderr_path: Path) -> Finished:
    """Run one process to completion; peak RSS comes from its own ``wait4`` rusage.

    ``RUSAGE_CHILDREN`` would report the largest child the benchmark ever
    waited for (the set-up snapshot build) for every op, so each op is
    reaped individually.
    """
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        returncode=proc.returncode,
        stdout=out.decode("utf-8", errors="replace"),
        seconds=elapsed,
        cpu_seconds=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr_path=stderr_path,
    )


def tail_of(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def cache_fingerprint(directory: Path):
    """Names, sizes and mtimes under ``directory`` (``None`` when it is absent)."""
    try:
        if not directory.is_dir():
            return None
        return sorted(
            (str(path.relative_to(directory)), path.stat().st_size, path.stat().st_mtime_ns)
            for path in directory.rglob("*")
        )
    except OSError:
        return None


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class OpRecord:
    """One op: its latency, its CPU time, its checked output and the reasons it failed.

    ``cpu_seconds`` is the CPU time the program spent on the op; the kernel
    leaves out time the hypervisor steals and time spent waiting for a CPU.
    ``nominal_cpu_seconds`` is that at the nominal CPU speed (see
    :class:`SpeedProbe` and :func:`closed_loop`).
    """

    seconds: float
    output: dict
    cpu_seconds: float = 0.0
    nominal_cpu_seconds: float = 0.0
    failures: list[str] = field(default_factory=list)


@dataclass
class Outcome:
    """What one workload run produced, before it is reduced to metrics."""

    ops: list[OpRecord] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    #: Each set-up's wall time at the nominal CPU speed.
    nominal_setup_seconds: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    extra: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failures) + len(self.failures)

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.failures)

    def latencies(self) -> list[float]:
        return [op.seconds for op in self.ops]

    def add_setup(self, seconds: float, probe: SpeedProbe, started: tuple[int, int]) -> None:
        """Record a set-up that took ``seconds`` since the probe read ``started``."""
        self.setup_seconds.append(seconds)
        scale = probe.scale([(started, probe.reading())])
        self.nominal_setup_seconds.append(seconds * scale)


def closed_loop(
    seconds: float,
    min_ops: int,
    run_op,
    num_ops: int | None = None,
    *,
    probe: SpeedProbe,
    group: int = 1,
):
    """Run ops back to back until ``seconds`` of op time and ``min_ops`` ops are done.

    One client, one op in flight: the next op starts when the previous one
    has returned (a closed loop).  ``num_ops`` replays exactly that many ops
    instead (the traced pass).  Failing ops still count as attempted; the
    loop ends early once ten have failed, as the run is rejected anyway.

    Each op's ``nominal_cpu_seconds`` is its CPU time scaled by the speed
    probe over the op, or over its ``group`` of consecutive ops when single
    ops are too short for the probe to get a slice of them.
    """
    records: list[OpRecord] = []
    windows: list[tuple[tuple[int, int], tuple[int, int]]] = []
    spent = 0.0
    failed = 0
    while failed < 10:
        if num_ops is None and spent >= seconds and len(records) >= min_ops:
            break
        if num_ops is not None and len(records) >= num_ops:
            break
        started = probe.reading()
        record = run_op(len(records))
        windows.append((started, probe.reading()))
        records.append(record)
        spent += record.seconds
        failed += bool(record.failures)
    for first in range(0, len(records), group):
        scale = probe.scale(windows[first : first + group])
        for record in records[first : first + group]:
            record.nominal_cpu_seconds = record.cpu_seconds * scale
    return records
