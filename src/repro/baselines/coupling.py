"""Coupling constraints between triples, in the spirit of KGEval.

KGEval's inference mechanism (Ojha & Talukdar 2017) rests on *coupling
constraints*: relationships between triples such that knowing the correctness
of one triple is evidence about another.  The original system derives them
from type consistency and Horn-clause couplings mined by NELL; this
reimplementation derives structural couplings that are available in any KG:

* **subject–predicate coupling** — triples sharing subject and predicate
  (e.g. two birth places for one person) tend to agree in correctness for
  functional predicates;
* **predicate–object coupling** — triples sharing predicate and object
  (e.g. many people born in the same city) are weak positive evidence for one
  another;
* **entity coupling** — triples of the same subject entity are weakly coupled
  (the Figure 3 observation that entity accuracy is cluster-coherent);
* **predicate (type-consistency) coupling** — triples of the same predicate are
  sparsely coupled to one another, standing in for the type-consistency
  constraints KGEval mines from NELL's ontology.

The resulting undirected, weighted graph over triples (a ``networkx.Graph``)
is what the KGEval baseline selects from and propagates over.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["CouplingGraphBuilder"]


class CouplingGraphBuilder:
    """Builds the coupling-constraint graph over the triples of a KG.

    Parameters
    ----------
    subject_predicate_weight:
        Edge weight for triples sharing (subject, predicate).
    predicate_object_weight:
        Edge weight for triples sharing (predicate, object).
    entity_weight:
        Edge weight for triples sharing only the subject entity.
    predicate_weight:
        Edge weight for the sparse type-consistency coupling among triples of
        the same predicate.
    max_group_size:
        Groups larger than this are connected sparsely (each member to a few
        random peers) instead of as a clique, keeping the edge count linear
        for very common predicates/objects.
    sparse_degree:
        Number of random peers each member of a large group is connected to.
    seed:
        Seed for the sparse-connection randomness.
    """

    def __init__(
        self,
        subject_predicate_weight: float = 1.0,
        predicate_object_weight: float = 0.5,
        entity_weight: float = 0.3,
        predicate_weight: float = 0.2,
        max_group_size: int = 30,
        sparse_degree: int = 3,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if max_group_size < 2:
            raise ValueError("max_group_size must be at least 2")
        if sparse_degree < 1:
            raise ValueError("sparse_degree must be at least 1")
        self.subject_predicate_weight = subject_predicate_weight
        self.predicate_object_weight = predicate_object_weight
        self.entity_weight = entity_weight
        self.predicate_weight = predicate_weight
        self.max_group_size = max_group_size
        self.sparse_degree = sparse_degree
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _connect_group(self, graph: nx.Graph, members: list[Triple], weight: float) -> None:
        """Connect a coupled group (clique for small groups, sparse for large)."""
        if len(members) < 2 or weight <= 0:
            return
        if len(members) <= self.max_group_size:
            for i, first in enumerate(members):
                for second in members[i + 1 :]:
                    self._add_edge(graph, first, second, weight)
        else:
            for index, member in enumerate(members):
                peers = self._rng.choice(
                    len(members), size=min(self.sparse_degree, len(members) - 1), replace=False
                )
                for peer_index in peers:
                    if int(peer_index) == index:
                        continue
                    self._add_edge(graph, member, members[int(peer_index)], weight)

    @staticmethod
    def _add_edge(graph: nx.Graph, first: Triple, second: Triple, weight: float) -> None:
        if graph.has_edge(first, second):
            graph[first][second]["weight"] += weight
        else:
            graph.add_edge(first, second, weight=weight)

    def build(self, kg: KnowledgeGraph) -> nx.Graph:
        """Build the coupling graph for every triple of ``kg``.

        Every triple becomes a node even if it ends up isolated (no coupling
        evidence), so the baseline can still fall back to direct annotation
        for isolated triples.
        """
        import networkx as nx

        # Every member comes from the cached Triple view, so each node is keyed
        # by one object: a columnar graph rebuilds equal but distinct Triples
        # on each read, and lookups across copies fall back to ``__eq__``.
        triples = kg.triples
        graph: nx.Graph = nx.Graph()
        graph.add_nodes_from(triples)

        by_subject_predicate: dict[tuple[str, str], list[Triple]] = {}
        by_predicate_object: dict[tuple[str, str], list[Triple]] = {}
        by_predicate: dict[str, list[Triple]] = {}
        for triple in triples:
            by_subject_predicate.setdefault((triple.subject, triple.predicate), []).append(triple)
            by_predicate_object.setdefault((triple.predicate, triple.obj), []).append(triple)
            by_predicate.setdefault(triple.predicate, []).append(triple)

        for members in by_subject_predicate.values():
            self._connect_group(graph, members, self.subject_predicate_weight)
        for members in by_predicate_object.values():
            self._connect_group(graph, members, self.predicate_object_weight)
        for row in range(kg.num_entities):
            members = [triples[p] for p in kg.cluster_positions_by_row(row).tolist()]
            self._connect_group(graph, members, self.entity_weight)
        for members in by_predicate.values():
            self._connect_group(graph, members, self.predicate_weight)
        return graph
