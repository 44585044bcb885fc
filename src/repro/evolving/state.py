"""Persist and restore incremental-evaluator state (snapshot format v3).

A monitoring run over an evolving KG accumulates three kinds of state that a
plain graph snapshot (format v2) cannot capture: the sampling state
(reservoir keys and candidate heaps, or per-stratum accumulators), the
annotation account (which positions are paid for) and the random streams.
This module captures all of it as an explicit state dictionary so a run can
stop after any update batch and resume later with a **bit-identical**
trajectory, as if it had never been interrupted.

Supported evaluators: :class:`~repro.evolving.reservoir_eval.
ReservoirIncrementalEvaluator` and :class:`~repro.evolving.stratified_eval.
StratifiedIncrementalEvaluator` on the *position surface* with a
columnar/delta-backed evolving graph (the configuration ``repro monitor
--backend columnar`` runs).  Capture at a batch boundary — after
``evaluate_base()`` or any ``apply_update()`` returns.

The state dictionary contains NumPy arrays, plain scalars and the package's
own small dataclasses (``RunningMean``, ``PositionSegment``, reservoir
entries, reports); :class:`~repro.storage.snapshot.SnapshotStore` serialises
it with :mod:`pickle` next to the graph columns.  The delta tail is stored
as interned id columns plus the vocabulary strings the update stream added,
and replayed through :meth:`~repro.storage.delta.DeltaStore.restore_tail`
on load.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import EvaluationConfig
from repro.cost.annotator import PositionAnnotationAccount
from repro.generators.datasets import LabelledKG
from repro.sampling.segment import SegmentTWCSDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.storage.delta import DeltaStore

__all__ = ["STATE_FORMAT_VERSION", "capture_evaluator_state", "restore_evaluator"]

STATE_FORMAT_VERSION = 3

_KINDS = {"rs": "ReservoirIncrementalEvaluator", "ss": "StratifiedIncrementalEvaluator"}


def _kind_of(evaluator) -> str:
    name = type(evaluator).__name__
    for kind, cls_name in _KINDS.items():
        if name == cls_name:
            return kind
    raise ValueError(f"state persistence does not support {name}")


def _require_delta(evaluator) -> DeltaStore:
    backend = evaluator.evolving.current.backend
    if not isinstance(backend, DeltaStore):
        raise ValueError(
            "state persistence requires a columnar (delta-backed) evolving "
            "graph; build the base with backend='columnar'"
        )
    return backend


# --------------------------------------------------------------------------- #
# Capture
# --------------------------------------------------------------------------- #
def capture_evaluator_state(evaluator) -> dict:
    """Snapshot everything needed to resume ``evaluator`` mid-sequence."""
    kind = _kind_of(evaluator)
    if not evaluator.position_mode:
        raise ValueError("state persistence requires surface='position'")
    delta = _require_delta(evaluator)
    if delta.base.num_triples != evaluator.evolving.base.num_triples:
        # A compaction folded update triples into the delta's base; the
        # captured tail would silently lose them on restore.
        raise ValueError(
            "cannot capture evaluator state after the delta view was "
            "compacted; capture before compact() runs, or leave "
            "compact_threshold unset on monitored evaluators"
        )
    account = evaluator.account
    assert account is not None and evaluator.labels is not None
    assert evaluator._base_vocab_size is not None
    vocab = delta.base.vocab
    tail_s, tail_p, tail_o, tail_f = delta.tail_arrays()
    state: dict = {
        "format": STATE_FORMAT_VERSION,
        "kind": kind,
        "seed": evaluator.seed,
        "second_stage_size": evaluator.second_stage_size,
        "config": dataclasses.asdict(evaluator.config),
        "cost_model": account.cost_model,
        "rng_state": evaluator._rng.bit_generator.state,
        "labels": np.asarray(evaluator.labels, dtype=bool).copy(),
        "account": {
            "identified": np.asarray(sorted(account._identified), dtype=np.int64),
            "annotated": np.asarray(sorted(account._annotated), dtype=np.int64),
            "total_seconds": account._total_seconds,
        },
        "discarded_cost_seconds": evaluator._discarded_cost_seconds,
        "history": list(evaluator.history),
        "base_vocab_size": evaluator._base_vocab_size,
        "base_triples": evaluator.evolving.base.num_triples,
        "vocab_ext": [vocab[i] for i in range(evaluator._base_vocab_size, len(vocab))],
        "tail": {
            "subjects": tail_s,
            "predicates": tail_p,
            "objects": tail_o,
            "flags": tail_f,
        },
    }
    if kind == "rs":
        state["reservoir"] = list(evaluator._reservoir)
        state["candidates"] = list(evaluator._candidates)
        state["tiebreak"] = evaluator._tiebreak
        state["replacements"] = evaluator._replacements_total
        state["stats"] = evaluator._stats.copy()
        state["stats_triples"] = evaluator._stats_triples
    else:
        state["min_units_per_stratum"] = evaluator.min_units_per_stratum
        state["strata"] = [
            {
                "stratum_id": stratum.stratum_id,
                "num_triples": stratum.num_triples,
                "segment": stratum.segment,
                "mean": stratum.design._cluster_means.copy(),
                "design_triples": stratum.design._num_triples,
            }
            for stratum in evaluator._strata
        ]
    return state


# --------------------------------------------------------------------------- #
# Restore
# --------------------------------------------------------------------------- #
def restore_evaluator(state: dict, base: LabelledKG):
    """Rebuild an evaluator from a captured state over the same base KG.

    ``base`` must be (a reload of) the graph the state was captured against
    — same triples, same vocabulary; the delta tail and all sampling state
    are replayed on top of it.
    """
    version = int(state.get("format", 0))
    if version > STATE_FORMAT_VERSION:
        raise ValueError(
            f"evaluator state format v{version} is newer than supported "
            f"v{STATE_FORMAT_VERSION}"
        )
    from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
    from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator

    kind = state["kind"]
    labels = np.asarray(state["labels"], dtype=bool)
    base_triples = int(state["base_triples"])
    if base.graph.num_triples != base_triples:
        raise ValueError(
            f"base graph has {base.graph.num_triples} triples but the state "
            f"was captured against {base_triples}"
        )
    kwargs = dict(
        config=EvaluationConfig(**state["config"]),
        cost_model=state["cost_model"],
        second_stage_size=state["second_stage_size"],
        seed=state["seed"],
        surface="position",
        position_labels=labels[:base_triples],
    )
    if kind == "rs":
        evaluator = ReservoirIncrementalEvaluator(base, **kwargs)
    else:
        evaluator = StratifiedIncrementalEvaluator(
            base, min_units_per_stratum=state["min_units_per_stratum"], **kwargs
        )

    # Replay the delta tail (vocabulary extension first, so ids line up).
    delta = _require_delta(evaluator)
    vocab = delta.base.vocab
    if len(vocab) != int(state["base_vocab_size"]):
        raise ValueError(
            f"base vocabulary has {len(vocab)} entries but the state was "
            f"captured against {state['base_vocab_size']}"
        )
    for token in state["vocab_ext"]:
        vocab.intern(token)
    tail = state["tail"]
    delta.restore_tail(
        tail["subjects"], tail["predicates"], tail["objects"], tail["flags"]
    )

    # Shared evaluator state: labels, random stream, cost account, history.
    evaluator._labels = labels
    evaluator._rng.bit_generator.state = state["rng_state"]
    account = PositionAnnotationAccount(state["cost_model"])
    account._identified = {int(key) for key in state["account"]["identified"]}
    account._annotated = {int(position) for position in state["account"]["annotated"]}
    account._total_seconds = float(state["account"]["total_seconds"])
    evaluator._account = account
    evaluator._discarded_cost_seconds = float(state["discarded_cost_seconds"])
    evaluator.history = list(state["history"])

    if kind == "rs":
        evaluator._reservoir = list(state["reservoir"])
        evaluator._candidates = list(state["candidates"])
        evaluator._tiebreak = int(state["tiebreak"])
        evaluator._replacements_total = int(state["replacements"])
        evaluator._stats = state["stats"].copy()
        evaluator._stats_triples = int(state["stats_triples"])
    else:
        from repro.evolving.stratified_eval import _StratumState

        strata = []
        for entry in state["strata"]:
            segment = entry["segment"]
            if segment is None:
                design = TwoStageWeightedClusterDesign(
                    evaluator.evolving.base,
                    second_stage_size=evaluator.second_stage_size,
                    seed=evaluator._rng,
                )
            else:
                design = SegmentTWCSDesign(
                    segment,
                    second_stage_size=evaluator.second_stage_size,
                    seed=evaluator._rng,
                )
            design._cluster_means = entry["mean"].copy()
            design._num_triples = int(entry["design_triples"])
            strata.append(
                _StratumState(
                    stratum_id=entry["stratum_id"],
                    num_triples=int(entry["num_triples"]),
                    design=design,
                    segment=segment,
                )
            )
        evaluator._strata = strata
    return evaluator
