"""One evaluation session: spec validation, construction, checkpoint/restore.

A *session* is a resident :class:`~repro.evolving.base.IncrementalEvaluator`
plus the :class:`~repro.evolving.monitor.EvolvingAccuracyMonitor` driving
it, built from a client-supplied **spec** dict.  The construction path is
deliberately the same as ``repro monitor`` (columnar base, explicit
seed), so a served session's estimate
trajectory is bit-identical to the offline command — the contract the
golden replay suite pins.

Specs
-----
``dataset``/``dataset_seed``/``movie_scale``
    Which synthetic base graph to build (or ``snapshot``: a labelled
    snapshot directory or SQLite database, reopened with
    :meth:`~repro.generators.datasets.LabelledKG.open`).  The built graph is
    shared across sessions via the server's graph cache — the base columns
    are frozen; each session's updates live in its own ``DeltaStore`` tail.
``evaluator``
    ``rs`` (reservoir, Alg. 1) or ``ss`` (stratified, Alg. 2).
``seed``
    The evaluator/annotator stream seed.  Omitted, the server derives one
    from its root :class:`numpy.random.SeedSequence` (deterministic in
    attach order).
``moe``/``confidence``/``second_stage_size``
    Quality knobs, as on the CLI.

Any other key is refused with a :class:`ValueError` that names it, and so is
a value of the wrong type, so a mistyped spec never silently runs a
different stream.

Checkpoints
-----------
:func:`checkpoint_session` captures the full evaluator state through
:func:`repro.evolving.state.capture_evaluator_state` plus the monitor's
record trajectory; :func:`restore_session` rebuilds the base graph from the
spec (bit-identical reload) and replays the state, so a drained daemon
resumes every session exactly where it stopped.
"""

from __future__ import annotations

import pickle
import threading
from pathlib import Path

from repro.core.config import EvaluationConfig
from repro.generators.datasets import DATASETS, LabelledKG, make_dataset
from repro.serve.protocol import as_number

__all__ = [
    "CHECKPOINT_FORMAT",
    "Session",
    "normalise_spec",
    "build_base",
    "build_session",
    "checkpoint_session",
    "restore_session",
]

CHECKPOINT_FORMAT = 1

_EVALUATORS = ("rs", "ss")
_SPEC_KEYS = frozenset(
    (
        "snapshot",
        "dataset",
        "dataset_seed",
        "movie_scale",
        "evaluator",
        "seed",
        "moe",
        "confidence",
        "second_stage_size",
    )
)


def normalise_spec(spec) -> dict:
    """Validate a client spec and fill defaults; raises ``ValueError``."""
    if not isinstance(spec, dict):
        raise ValueError("attach requires a spec dict")
    unknown = sorted(str(key) for key in spec if key not in _SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown spec key(s): {', '.join(unknown)}")
    out: dict = {}
    snapshot = spec.get("snapshot")
    if snapshot is not None:
        if not isinstance(snapshot, str) or not snapshot:
            raise ValueError("spec.snapshot must be a path string")
        out["snapshot"] = snapshot
    else:
        dataset = spec.get("dataset", "nell")
        if dataset not in DATASETS:
            raise ValueError(f"spec.dataset must be one of {DATASETS}, got {dataset!r}")
        out["dataset"] = dataset
        out["dataset_seed"] = as_number(spec.get("dataset_seed", 0), int, "spec.dataset_seed")
        out["movie_scale"] = as_number(spec.get("movie_scale", 0.01), float, "spec.movie_scale")
    evaluator = spec.get("evaluator", "ss")
    if evaluator not in _EVALUATORS:
        raise ValueError(f"spec.evaluator must be one of {_EVALUATORS}, got {evaluator!r}")
    out["evaluator"] = evaluator
    seed = spec.get("seed")
    out["seed"] = None if seed is None else as_number(seed, int, "spec.seed")
    out["moe"] = as_number(spec.get("moe", 0.05), float, "spec.moe")
    out["confidence"] = as_number(spec.get("confidence", 0.95), float, "spec.confidence")
    if "second_stage_size" in spec:
        out["second_stage_size"] = as_number(
            spec["second_stage_size"], int, "spec.second_stage_size"
        )
    return out


def graph_cache_key(spec: dict) -> tuple:
    """Identity of the resident base a spec attaches to (for cross-session reuse)."""
    if "snapshot" in spec:
        return ("snapshot", spec["snapshot"])
    return ("dataset", spec["dataset"], spec["dataset_seed"], spec["movie_scale"])


def build_base(spec: dict) -> LabelledKG:
    """Build (or reopen) the frozen columnar base a spec names.

    A snapshot is reopened exactly like ``repro monitor --snapshot`` reopens
    it; one it cannot read raises the opener's ``ValueError``, which the
    daemon answers as a ``bad_request``.
    """
    if "snapshot" in spec:
        return LabelledKG.open(spec["snapshot"]).to_columnar()
    return make_dataset(spec["dataset"], spec["dataset_seed"], spec["movie_scale"]).to_columnar()


def _evaluator_class(kind: str):
    from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
    from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator

    return {
        "rs": ReservoirIncrementalEvaluator,
        "ss": StratifiedIncrementalEvaluator,
    }[kind]


class Session:
    """A resident evaluator + monitor with its cached estimate trajectory.

    All mutable fields (``latest``, ``trajectory``, ``pending``, ``failed``)
    are guarded by ``lock``; ``changed`` notifies threshold pollers whenever
    a round completes or fails.  ``latest`` is the whole point of the serve
    architecture: the eval worker writes it once per completed round, and
    every ``estimate`` request is a lock-protected read of this one
    reference — O(1), no sampling work, never blocked by in-flight rounds.
    """

    def __init__(self, session_id: str, spec: dict, seed: int, evaluator, monitor) -> None:
        self.id = session_id
        self.spec = spec
        self.seed = seed
        self.evaluator = evaluator
        self.monitor = monitor
        self.lock = threading.Lock()
        self.changed = threading.Condition(self.lock)
        self.pending = 0
        self.latest: dict | None = None
        self.trajectory: list[dict] = []
        self.failed: str | None = None

    def record_result(self, record, evaluation) -> dict:
        """Fold one completed round into the cached trajectory (worker thread)."""
        payload = {
            "batch_index": int(record.batch_index),
            "batch_id": str(evaluation.batch_id),
            "record": record,
            "report": evaluation.report,
            "cumulative_cost_seconds": float(evaluation.cumulative_cost_seconds),
        }
        with self.changed:
            self.trajectory.append(payload)
            self.latest = payload
            self.pending -= 1
            self.changed.notify_all()
        return payload

    def record_failure(self, message: str) -> None:
        with self.changed:
            self.failed = message
            self.pending -= 1
            self.changed.notify_all()

    def snapshot(self) -> tuple[dict | None, int, int, str | None]:
        """One consistent ``(latest, pending, num_records, failed)`` read."""
        with self.lock:
            return self.latest, self.pending, len(self.trajectory), self.failed


def build_session(session_id: str, spec: dict, seed: int, base: LabelledKG) -> Session:
    """Construct a fresh session exactly like ``repro monitor`` would."""
    from repro.evolving.monitor import EvolvingAccuracyMonitor

    config = EvaluationConfig(moe_target=spec["moe"], confidence_level=spec["confidence"])
    kwargs: dict = {"config": config, "seed": seed}
    if "second_stage_size" in spec:
        kwargs["second_stage_size"] = spec["second_stage_size"]
    evaluator = _evaluator_class(spec["evaluator"])(base, **kwargs)
    return Session(session_id, spec, seed, evaluator, EvolvingAccuracyMonitor(evaluator))


# --------------------------------------------------------------------------- #
# Checkpoint / restore (drain + resume)
# --------------------------------------------------------------------------- #
def _checkpoint_path(state_dir: Path, session_id: str) -> Path:
    return Path(state_dir) / f"{session_id}.ckpt"


def checkpoint_session(state_dir: str | Path, session: Session) -> Path:
    """Write one session's resumable checkpoint under ``state_dir``."""
    from repro.evolving.state import capture_evaluator_state

    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "session": session.id,
        "spec": session.spec,
        "seed": session.seed,
        "state": capture_evaluator_state(session.evaluator),
        "records": list(session.monitor.records),
    }
    path = _checkpoint_path(state_dir, session.id)
    tmp = path.with_suffix(".ckpt.tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)
    return path


def drop_checkpoint(state_dir: str | Path, session_id: str) -> None:
    """Remove a detached session's checkpoint so a restart cannot resurrect it."""
    _checkpoint_path(Path(state_dir), session_id).unlink(missing_ok=True)


def list_checkpoints(state_dir: str | Path) -> list[Path]:
    state_dir = Path(state_dir)
    if not state_dir.is_dir():
        return []
    return sorted(state_dir.glob("*.ckpt"))


def restore_session(path: str | Path, base_for) -> Session:
    """Rebuild a checkpointed session with a bit-identical future trajectory.

    ``base_for(spec)`` supplies the (cached) labelled base for the
    checkpoint's spec — the server passes its graph cache, so resuming N
    sessions over one dataset rebuilds the base once.
    """
    from repro.evolving.monitor import EvolvingAccuracyMonitor
    from repro.evolving.state import restore_evaluator

    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    version = int(payload.get("format", 0))
    if version > CHECKPOINT_FORMAT:
        raise ValueError(
            f"serve checkpoint format v{version} is newer than supported v{CHECKPOINT_FORMAT}"
        )
    spec = payload["spec"]
    evaluator = restore_evaluator(payload["state"], base_for(spec))
    monitor = EvolvingAccuracyMonitor(evaluator)
    monitor.records = list(payload["records"])
    session = Session(payload["session"], spec, int(payload["seed"]), evaluator, monitor)
    # Rebuild the cached trajectory from the restored history: records[i]
    # and history[i] describe the same round (base eval first).
    for record, evaluation in zip(monitor.records, evaluator.history):
        entry = {
            "batch_index": int(record.batch_index),
            "batch_id": str(evaluation.batch_id),
            "record": record,
            "report": evaluation.report,
            "cumulative_cost_seconds": float(evaluation.cumulative_cost_seconds),
        }
        session.trajectory.append(entry)
        session.latest = entry
    return session
