"""Capture and restore incremental-evaluator state.

A monitoring run over an evolving KG accumulates three kinds of state that a
labelled graph snapshot cannot capture: the sampling state
(reservoir keys and candidate heaps, or per-stratum accumulators), the
annotator's Eq. (4) ledger (which positions and subjects are paid for) and
the random streams.
This module captures all of it as an explicit state dictionary so a run can
stop after any update batch and resume later with a **bit-identical**
trajectory, as if it had never been interrupted.

Supported evaluators: :class:`~repro.evolving.reservoir_eval.
ReservoirIncrementalEvaluator` and :class:`~repro.evolving.stratified_eval.
StratifiedIncrementalEvaluator`, whose evolving graph is always a
:class:`~repro.storage.delta.DeltaStore` view.  Capture at a batch
boundary — after ``evaluate_base()`` or any ``apply_update()`` returns.

The state dictionary contains NumPy arrays, plain scalars and the package's
own small dataclasses (``RunningMean``, ``PositionSegment``, reservoir
entries, reports); a ``repro serve`` checkpoint
(:func:`repro.serve.session.checkpoint_session`) stores it in the daemon's
``--state-dir`` and restores it over the reopened base.  The delta tail is
stored as interned id columns plus the string each of their ids names, and
replayed through :meth:`~repro.storage.delta.DeltaStore.restore_tail` on
load with its strings interned by value into the new view's vocabulary, so
ids need not match the capturing process.  Positions, cluster rows and
segments follow append order, never ids, so the remap leaves the sampling
stream as it was.

The ledger is stored as its identified rows and annotated positions, sorted,
and the session's total seconds; a restore rebuilds the annotator's masks
from them.  Format history: v5 segments carry their clusters' rows in the
evolved graph; v4 and older segments name their subjects instead and get the
rows on restore.  v3 lists the strings its stream added after the base's
vocabulary instead of the tail's ids and strings.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import EvaluationConfig
from repro.cost.annotator import _PositionLedger
from repro.generators.datasets import LabelledKG
from repro.labels.oracle import LabelOracle
from repro.sampling.segment import PositionSegment
from repro.sampling.twcs import TwoStageWeightedClusterDesign

__all__ = ["STATE_FORMAT_VERSION", "capture_evaluator_state", "restore_evaluator"]

STATE_FORMAT_VERSION = 5

_KINDS = {"rs": "ReservoirIncrementalEvaluator", "ss": "StratifiedIncrementalEvaluator"}


def _kind_of(evaluator) -> str:
    name = type(evaluator).__name__
    for kind, cls_name in _KINDS.items():
        if name == cls_name:
            return kind
    raise ValueError(f"state persistence does not support {name}")


# --------------------------------------------------------------------------- #
# Capture
# --------------------------------------------------------------------------- #
def capture_evaluator_state(evaluator) -> dict:
    """Snapshot everything needed to resume ``evaluator`` mid-sequence."""
    kind = _kind_of(evaluator)
    graph = evaluator.evolving.current
    delta = graph.backend
    session = evaluator.account._session
    ledger = session.positions.get(id(graph))
    vocab = delta.vocab
    tail_s, tail_p, tail_o, tail_f = delta.tail_arrays()
    # return_counts keeps np.unique off the path that imports numpy.ma.
    tail_ids = np.unique(np.concatenate([tail_s, tail_p, tail_o]), return_counts=True)[0]
    state: dict = {
        "format": STATE_FORMAT_VERSION,
        "kind": kind,
        "seed": evaluator.seed,
        "second_stage_size": evaluator.second_stage_size,
        "config": dataclasses.asdict(evaluator.config),
        "cost_model": evaluator.account.cost_model,
        "rng_state": evaluator._rng.bit_generator.state,
        "labels": np.asarray(evaluator.labels, dtype=bool).copy(),
        "account": {
            "identified": np.flatnonzero(ledger.identified if ledger else ()),
            "annotated": np.flatnonzero(ledger.annotated if ledger else ()),
            "total_seconds": session.total_seconds,
        },
        "discarded_cost_seconds": evaluator._discarded_cost_seconds,
        "history": list(evaluator.history),
        "base_triples": evaluator.evolving.base.num_triples,
        "tail": {
            "subjects": tail_s,
            "predicates": tail_p,
            "objects": tail_o,
            "flags": tail_f,
            # The tail's ids, sorted, and the string each names.
            "ids": tail_ids,
            "strings": [vocab[i] for i in tail_ids.tolist()],
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

    ``base.graph`` must be (a reload of) the graph the state was captured
    against — same triples, same vocabulary; the delta tail and all sampling
    state are replayed on top of it.  Ground truth comes from the state's
    label array, so ``base.oracle`` is never read.
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
    base = LabelledKG(base.graph, LabelOracle.from_positions(base.graph, labels[:base_triples]))
    kwargs = dict(
        config=EvaluationConfig(**state["config"]),
        cost_model=state["cost_model"],
        second_stage_size=state["second_stage_size"],
        seed=state["seed"],
    )
    if kind == "rs":
        evaluator = ReservoirIncrementalEvaluator(base, **kwargs)
    else:
        evaluator = StratifiedIncrementalEvaluator(
            base, min_units_per_stratum=state["min_units_per_stratum"], **kwargs
        )

    # Replay the delta tail over ids of the new view's vocabulary.
    delta = evaluator.evolving.current.backend
    vocab = delta.vocab
    tail = state["tail"]
    columns = [tail["subjects"], tail["predicates"], tail["objects"]]
    if "strings" in tail:
        ids = vocab.intern_many(tail["strings"])
        captured = np.asarray(tail["ids"], dtype=np.int64)
        columns = [ids[np.searchsorted(captured, column)] for column in columns]
    else:
        # A v3 state lists the strings its stream added after the base's
        # vocabulary, so it restores only over a vocabulary of that size.
        if len(vocab) != int(state["base_vocab_size"]):
            raise ValueError(
                f"base vocabulary has {len(vocab)} entries but the state was "
                f"captured against {state['base_vocab_size']}"
            )
        vocab.intern_many(state["vocab_ext"])
    delta.restore_tail(*columns, tail["flags"])
    for segment in _segments(state):
        _give_rows(segment, evaluator.evolving.current)

    # Shared evaluator state: labels, random stream, Eq. (4) ledger, history.
    evaluator._relabel(labels)
    evaluator._num_correct = int(np.count_nonzero(labels))
    evaluator._rng.bit_generator.state = state["rng_state"]
    _restore_ledger(evaluator, state["account"])
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
            design = TwoStageWeightedClusterDesign(
                evaluator.evolving.base if segment is None else segment,
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


def _restore_ledger(evaluator, account: dict) -> None:
    """Rebuild the annotator's session: one ledger over the evolved graph."""
    graph = evaluator.evolving.current
    identified = np.zeros(graph.num_entities, dtype=bool)
    identified[np.asarray(account["identified"], dtype=np.int64)] = True
    annotated = np.zeros(graph.num_triples, dtype=bool)
    annotated[np.asarray(account["annotated"], dtype=np.int64)] = True
    ledger = _PositionLedger(graph, annotated, identified, int(np.count_nonzero(identified)))
    session = evaluator.account._session
    session.positions[id(graph)] = session.active = ledger
    session.total_seconds = float(account["total_seconds"])
    session.total_triples = int(np.count_nonzero(annotated))


def _segments(state: dict) -> list[PositionSegment]:
    """Every update segment a captured state refers to (shared ones repeat)."""
    if state["kind"] == "rs":
        sources = [entry.source for _, _, entry in state["reservoir"]]
        sources += [candidate[3] for candidate in state["candidates"]]
        found = [segment for segment, _ in sources]
    else:
        found = [entry["segment"] for entry in state["strata"]]
    return [segment for segment in found if segment is not None]


def _give_rows(segment: PositionSegment, graph) -> None:
    """Give a segment of state format v4 or older its clusters' rows.

    Such a segment names each cluster's subject instead; ``graph`` is the
    evolved graph with the tail restored, which holds every one of them.
    """
    fields = vars(segment)
    if "rows" not in fields:
        rows = [graph.entity_row(subject) for subject in fields.pop("subjects")]
        object.__setattr__(segment, "rows", np.asarray(rows, dtype=np.int64))
