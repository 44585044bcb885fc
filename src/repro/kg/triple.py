"""The atomic unit of a knowledge graph: an RDF-style triple.

The paper (Section 2.1) models a knowledge graph as a set of
``(subject, predicate, object)`` triples where the subject is always an entity
id and the object is either another entity id (*entity property*) or an atomic
literal such as a date or a number (*data property*).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

__all__ = ["Triple", "triple_columns"]


@dataclass(frozen=True, slots=True)
class Triple:
    """An immutable ``(subject, predicate, object)`` fact.

    Parameters
    ----------
    subject:
        The entity id of the subject.  All triples sharing a subject form an
        *entity cluster* (Section 2.1 of the paper).
    predicate:
        The relation name.
    obj:
        Either an entity id (entity property) or an atomic literal rendered as
        a string (data property).
    is_entity_object:
        ``True`` when the object refers to another entity id rather than an
        atomic literal.  This distinction only matters for annotation-cost
        modelling (identifying an entity object may take extra effort) and for
        the KGEval coupling graph.
    """

    subject: str
    predicate: str
    obj: str
    is_entity_object: bool = field(default=False, compare=False)

    def as_tuple(self) -> tuple[str, str, str]:
        """Return the bare ``(subject, predicate, object)`` tuple."""
        return (self.subject, self.predicate, self.obj)

    def with_subject(self, subject: str) -> "Triple":
        """Return a copy of this triple with a different subject id."""
        return Triple(subject, self.predicate, self.obj, self.is_entity_object)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.subject}, {self.predicate}, {self.obj})"


def triple_columns(triples: Sequence[Triple]) -> tuple[list[str], list[str], list[str], bytes]:
    """``triples`` as columns: subjects, predicates, objects and one 0/1
    entity-object byte per triple, the form a graph grows by."""
    return (
        [triple.subject for triple in triples],
        [triple.predicate for triple in triples],
        [triple.obj for triple in triples],
        bytes([triple.is_entity_object for triple in triples]),
    )
