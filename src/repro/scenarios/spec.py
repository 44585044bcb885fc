"""The declarative scenario-pack format.

A *scenario* names everything one statistical stress test needs — a graph
source, a label (error) model, a cost model, the design or incremental
evaluator under test, optionally an update workload — plus the gates its
replications must pass: empirical CI coverage inside a Wilson tolerance band
around the nominal level, margin-of-error bounds, and measured annotation
cost against the :class:`~repro.cost.model.CostModel` prediction.

A *pack* is a named list of scenarios.  Packs are plain data: a Python dict,
a JSON file or a TOML file all parse through the same :func:`pack_from_dict`
path, and the built-in packs in :mod:`repro.scenarios.packs` are written in
exactly the format user packs use.  Parsing is strict — unknown keys raise,
so a typo in a pack file fails loudly instead of silently running a default.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.generators.datasets import DATASETS
from repro.sampling import DESIGNS

__all__ = [
    "GraphSpec",
    "LabelSpec",
    "CostSpec",
    "WorkloadSpec",
    "FleetSessionSpec",
    "GateSpec",
    "ScenarioSpec",
    "ScenarioPack",
    "scenario_from_dict",
    "pack_from_dict",
    "load_pack_file",
]

SCENARIO_KINDS = ("static", "evolving", "deletion", "fleet")
LABEL_MODELS = ("random_error", "binomial_mixture", "calibrated", "adversarial", "dataset")
GRAPH_SOURCES = ("synthetic", "dataset")
EVOLVING_EVALUATORS = ("rs", "ss", "baseline")


def _take(mapping: Mapping[str, Any], allowed: tuple[str, ...], context: str) -> dict[str, Any]:
    """Copy ``mapping`` after rejecting keys outside ``allowed``."""
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ValueError(f"{context}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")
    return dict(mapping)


@dataclass(frozen=True)
class GraphSpec:
    """Where the graph under test comes from.

    ``source="synthetic"`` feeds the sizing parameters to
    :func:`~repro.generators.synthetic_kg.generate_kg`; ``source="dataset"``
    builds one of the named dataset stand-ins (which come with their own gold
    labels, usable via the ``dataset`` label model).
    """

    source: str = "synthetic"
    num_entities: int = 400
    mean_cluster_size: float = 2.5
    size_skew: float = 0.8
    max_cluster_size: int = 200
    dataset: str | None = None
    scale: float = 0.01

    def __post_init__(self) -> None:
        if self.source not in GRAPH_SOURCES:
            raise ValueError(f"graph source must be one of {GRAPH_SOURCES}, got {self.source!r}")
        if self.source == "dataset":
            if self.dataset not in DATASETS:
                raise ValueError(f"graph dataset must be one of {DATASETS}, got {self.dataset!r}")
        elif self.num_entities < 1:
            raise ValueError(f"num_entities must be positive, got {self.num_entities}")

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any], context: str) -> "GraphSpec":
        return cls(
            **_take(
                raw,
                (
                    "source",
                    "num_entities",
                    "mean_cluster_size",
                    "size_skew",
                    "max_cluster_size",
                    "dataset",
                    "scale",
                ),
                context,
            )
        )


@dataclass(frozen=True)
class LabelSpec:
    """Which error model labels the graph, with its parameters.

    ``params`` is passed through to the model builder in
    :mod:`repro.scenarios.runner`; the model's own constructor validates it.
    ``model="dataset"`` reuses the gold oracle bundled with a dataset-sourced
    graph and takes no parameters.
    """

    model: str = "random_error"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model not in LABEL_MODELS:
            raise ValueError(f"label model must be one of {LABEL_MODELS}, got {self.model!r}")
        if self.model == "dataset" and self.params:
            raise ValueError("the 'dataset' label model takes no params")

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any], context: str) -> "LabelSpec":
        data = _take(raw, ("model", "params"), context)
        return cls(model=data.get("model", "random_error"), params=dict(data.get("params", {})))


@dataclass(frozen=True)
class CostSpec:
    """Eq. (4) cost parameters plus optional annotator fatigue drift.

    ``drift`` inflates every charged cost component by a factor
    ``1 + drift * n / 100`` where ``n`` is the number of triples the session
    has already annotated — a deterministic stand-in for annotators slowing
    down over a long session.  The cost gate widens its allowance to match.
    """

    identification_cost: float = 45.0
    validation_cost: float = 25.0
    drift: float = 0.0

    def __post_init__(self) -> None:
        if self.identification_cost < 0 or self.validation_cost < 0:
            raise ValueError("cost components must be non-negative")
        if self.drift < 0:
            raise ValueError(f"drift must be non-negative, got {self.drift}")

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any], context: str) -> "CostSpec":
        return cls(**_take(raw, ("identification_cost", "validation_cost", "drift"), context))


@dataclass(frozen=True)
class WorkloadSpec:
    """The update stream for evolving and deletion scenarios."""

    total_updates: int = 200
    num_batches: int = 4
    schedule: str = "uniform"
    update_accuracy: float = 0.8
    new_entity_fraction: float = 0.6
    deletion_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.total_updates < 1:
            raise ValueError(f"total_updates must be positive, got {self.total_updates}")
        if self.num_batches < 1:
            raise ValueError(f"num_batches must be positive, got {self.num_batches}")
        if not 0.0 <= self.update_accuracy <= 1.0:
            raise ValueError(f"update_accuracy must be in [0, 1], got {self.update_accuracy}")
        if not 0.0 <= self.deletion_fraction <= 1.0:
            raise ValueError(f"deletion_fraction must be in [0, 1], got {self.deletion_fraction}")
        # Schedule names are validated by batch_schedule at run time too, but
        # failing at parse time localises the error to the pack file.
        from repro.generators.workload import SCHEDULE_PATTERNS

        if self.schedule not in SCHEDULE_PATTERNS:
            raise ValueError(f"schedule must be one of {SCHEDULE_PATTERNS}, got {self.schedule!r}")

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any], context: str) -> "WorkloadSpec":
        return cls(
            **_take(
                raw,
                (
                    "total_updates",
                    "num_batches",
                    "schedule",
                    "update_accuracy",
                    "new_entity_fraction",
                    "deletion_fraction",
                ),
                context,
            )
        )


@dataclass(frozen=True)
class FleetSessionSpec:
    """One session of a multi-KG fleet scenario driven through ``repro serve``."""

    dataset: str = "nell"
    evaluator: str = "ss"

    def __post_init__(self) -> None:
        if self.dataset not in DATASETS:
            raise ValueError(f"fleet dataset must be one of {DATASETS}, got {self.dataset!r}")
        if self.evaluator not in EVOLVING_EVALUATORS:
            raise ValueError(
                f"fleet evaluator must be one of {EVOLVING_EVALUATORS}, got {self.evaluator!r}"
            )

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any], context: str) -> "FleetSessionSpec":
        return cls(**_take(raw, ("dataset", "evaluator"), context))


@dataclass(frozen=True)
class GateSpec:
    """The statistical gates a scenario's replications must pass.

    The coverage gate is one-sided against *under*-coverage: with ``R``
    replications of which ``h`` contained the truth, the scenario fails only
    when the upper bound of the ``gate_confidence`` Wilson interval for the
    coverage proportion lies below ``nominal - coverage_slack``.  Clipped
    intervals legitimately over-cover, so high empirical coverage is recorded
    but never failed.  ``coverage_slack`` is the documented weakness band of
    the scenario: a value above zero pins a known deficiency (e.g. the
    adversarial pack member) so that further degradation becomes a CI failure
    without pretending the estimator is better than it is.
    """

    nominal_coverage: float | None = None
    coverage_slack: float = 0.02
    gate_confidence: float = 0.99
    max_moe: float | None = None
    cost_tolerance: float = 1.01

    def __post_init__(self) -> None:
        if self.nominal_coverage is not None and not 0.0 < self.nominal_coverage < 1.0:
            raise ValueError(f"nominal_coverage must be in (0, 1), got {self.nominal_coverage}")
        if not 0.0 <= self.coverage_slack < 1.0:
            raise ValueError(f"coverage_slack must be in [0, 1), got {self.coverage_slack}")
        if not 0.0 < self.gate_confidence < 1.0:
            raise ValueError(f"gate_confidence must be in (0, 1), got {self.gate_confidence}")
        if self.max_moe is not None and self.max_moe <= 0:
            raise ValueError(f"max_moe must be positive, got {self.max_moe}")
        if self.cost_tolerance < 1.0:
            raise ValueError(f"cost_tolerance must be >= 1, got {self.cost_tolerance}")

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any], context: str) -> "GateSpec":
        return cls(
            **_take(
                raw,
                (
                    "nominal_coverage",
                    "coverage_slack",
                    "gate_confidence",
                    "max_moe",
                    "cost_tolerance",
                ),
                context,
            )
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative stress scenario."""

    name: str
    kind: str = "static"
    description: str = ""
    replications: int = 30
    graph: GraphSpec = field(default_factory=GraphSpec)
    labels: LabelSpec = field(default_factory=LabelSpec)
    cost: CostSpec = field(default_factory=CostSpec)
    design: str = "twcs"
    second_stage_size: int = 5
    evaluator: str = "ss"
    moe_target: float = 0.05
    confidence: float = 0.95
    batch_size: int = 10
    min_units: int = 30
    max_units: int | None = 2000
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    fleet: tuple[FleetSessionSpec, ...] = ()
    gates: GateSpec = field(default_factory=GateSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be positive, got {self.replications}")
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}, got {self.design!r}")
        if self.evaluator not in EVOLVING_EVALUATORS:
            raise ValueError(
                f"evaluator must be one of {EVOLVING_EVALUATORS}, got {self.evaluator!r}"
            )
        if not 0.0 < self.moe_target < 1.0:
            raise ValueError(f"moe_target must be in (0, 1), got {self.moe_target}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.labels.model == "dataset" and self.graph.source != "dataset":
            raise ValueError(
                f"scenario {self.name!r}: the 'dataset' label model needs a dataset-sourced graph"
            )
        if self.kind == "fleet" and not self.fleet:
            raise ValueError(f"scenario {self.name!r}: fleet scenarios need at least one session")
        if self.kind == "deletion" and self.workload.deletion_fraction == 0.0:
            raise ValueError(
                f"scenario {self.name!r}: deletion scenarios need deletion_fraction > 0"
            )
        if self.cost.drift > 0 and self.kind not in ("static", "deletion"):
            raise ValueError(
                f"scenario {self.name!r}: cost drift is only supported for static and "
                "deletion scenarios (evolving/fleet evaluators own their annotators)"
            )
        if self.kind == "fleet" and (
            self.cost.drift > 0
            or self.cost.identification_cost != 45.0
            or self.cost.validation_cost != 25.0
        ):
            raise ValueError(
                f"scenario {self.name!r}: fleet sessions run inside `repro serve`, "
                "which charges the paper-default cost model"
            )

    @property
    def nominal_coverage(self) -> float:
        """The coverage level the gate tests against (defaults to ``confidence``)."""
        if self.gates.nominal_coverage is not None:
            return self.gates.nominal_coverage
        return self.confidence

    @property
    def max_moe(self) -> float:
        """The MoE ceiling (defaults to 1.5x the target, headroom for max_units stops)."""
        if self.gates.max_moe is not None:
            return self.gates.max_moe
        return 1.5 * self.moe_target


@dataclass(frozen=True)
class ScenarioPack:
    """A named collection of scenarios run and reported together."""

    name: str
    description: str = ""
    scenarios: tuple[ScenarioSpec, ...] = ()

    def __post_init__(self) -> None:
        names = [scenario.name for scenario in self.scenarios]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(f"pack {self.name!r}: duplicate scenario names {duplicates}")

    def __iter__(self):
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def scenario(self, name: str) -> ScenarioSpec:
        """Look a scenario up by name."""
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise KeyError(f"pack {self.name!r} has no scenario {name!r}")


def scenario_from_dict(raw: Mapping[str, Any]) -> ScenarioSpec:
    """Parse one scenario from its dict form (the JSON/TOML object shape)."""
    context = f"scenario {raw.get('name', '<unnamed>')!r}"
    data = _take(
        raw,
        (
            "name",
            "kind",
            "description",
            "replications",
            "graph",
            "labels",
            "cost",
            "design",
            "second_stage_size",
            "evaluator",
            "moe_target",
            "confidence",
            "batch_size",
            "min_units",
            "max_units",
            "workload",
            "fleet",
            "gates",
        ),
        context,
    )
    if "graph" in data:
        data["graph"] = GraphSpec.from_dict(data["graph"], f"{context}.graph")
    if "labels" in data:
        data["labels"] = LabelSpec.from_dict(data["labels"], f"{context}.labels")
    if "cost" in data:
        data["cost"] = CostSpec.from_dict(data["cost"], f"{context}.cost")
    if "workload" in data:
        data["workload"] = WorkloadSpec.from_dict(data["workload"], f"{context}.workload")
    if "fleet" in data:
        data["fleet"] = tuple(
            FleetSessionSpec.from_dict(session, f"{context}.fleet[{index}]")
            for index, session in enumerate(data["fleet"])
        )
    if "gates" in data:
        data["gates"] = GateSpec.from_dict(data["gates"], f"{context}.gates")
    return ScenarioSpec(**data)


def pack_from_dict(raw: Mapping[str, Any]) -> ScenarioPack:
    """Parse a whole pack from its dict form."""
    context = f"pack {raw.get('name', '<unnamed>')!r}"
    data = _take(raw, ("name", "description", "scenarios"), context)
    scenarios = tuple(scenario_from_dict(scenario) for scenario in data.get("scenarios", ()))
    return ScenarioPack(
        name=data.get("name", "<unnamed>"),
        description=data.get("description", ""),
        scenarios=scenarios,
    )


def load_pack_file(path: str | Path) -> ScenarioPack:
    """Load a pack from a ``.json`` or ``.toml`` file."""
    path = Path(path)
    if path.suffix == ".json":
        raw = json.loads(path.read_text())
    elif path.suffix == ".toml":
        import tomllib

        raw = tomllib.loads(path.read_text())
    else:
        raise ValueError(f"pack files must end in .json or .toml, got {path.name!r}")
    return pack_from_dict(raw)
