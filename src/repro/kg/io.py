"""Plain-text I/O for knowledge graphs and label files.

Two interchange formats are supported:

* **Triple TSV** — one triple per line, tab-separated
  ``subject<TAB>predicate<TAB>object``.  This is the format the NELL and YAGO
  evaluation samples of Ojha & Talukdar (2017) are distributed in.
* **Labelled TSV** — the same with a fourth column containing ``1``/``0`` (or
  ``true``/``false``) for triple correctness.  Loading a labelled file yields
  both a :class:`~repro.kg.graph.KnowledgeGraph` and a mapping of triple to
  label which can back a :class:`~repro.labels.oracle.LabelOracle`.

These loaders let the harness run against the real annotated NELL/YAGO files
when they are available; the default experiments use synthetic equivalents
from :mod:`repro.generators`.

:func:`read_triples_tsv` is :func:`repro.storage.ingest.ingest_tsv`: fields
are interned on the fly into the columnar store's ``int32`` buffers and no
intermediate :class:`~repro.kg.triple.Triple` objects are built.  N-Triples
files load the same way via :func:`repro.storage.ingest.ingest_nt`.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.storage.ingest import ingest_tsv, iter_data_lines

__all__ = [
    "read_triples_tsv",
    "write_triples_tsv",
    "read_labelled_tsv",
    "write_labelled_tsv",
]

_TRUE_TOKENS = {"1", "true", "t", "yes", "correct"}
_FALSE_TOKENS = {"0", "false", "f", "no", "incorrect"}


def _parse_label(token: str, line_number: int) -> bool:
    lowered = token.strip().lower()
    if lowered in _TRUE_TOKENS:
        return True
    if lowered in _FALSE_TOKENS:
        return False
    raise ValueError(f"line {line_number}: unrecognised label token {token!r}")


#: Load a knowledge graph from a triple TSV file: the streaming loader itself.
read_triples_tsv = ingest_tsv


def write_triples_tsv(graph: KnowledgeGraph | Iterable[Triple], path: str | Path) -> int:
    """Write triples to a TSV file; return the number of lines written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for triple in graph:
            handle.write(f"{triple.subject}\t{triple.predicate}\t{triple.obj}\n")
            count += 1
    return count


def read_labelled_tsv(
    path: str | Path, name: str | None = None
) -> tuple[KnowledgeGraph, dict[Triple, bool]]:
    """Load a labelled TSV file; return the graph and a triple-to-label mapping.

    A triple repeated with the same label loads once, at its first line.

    Raises
    ------
    ValueError
        If a line does not have at least four columns, has an unparseable
        label token, or repeats an earlier line's triple with the other label.
    """
    path = Path(path)
    labels: dict[Triple, bool] = {}
    first_line: dict[Triple, int] = {}
    for line_number, line in iter_data_lines(path):
        fields = line.split("\t")
        if len(fields) < 4:
            raise ValueError(f"line {line_number}: expected 4 columns, got {len(fields)}")
        triple = Triple(fields[0], fields[1], fields[2])
        label = _parse_label(fields[3], line_number)
        if triple not in labels:
            labels[triple] = label
            first_line[triple] = line_number
        elif labels[triple] != label:
            raise ValueError(
                f"line {line_number}: triple {triple.as_tuple()} is labelled {label}, but "
                f"line {first_line[triple]} labels it {labels[triple]}"
            )
    graph = KnowledgeGraph(labels, name=name if name is not None else path.stem)
    return graph, labels


def write_labelled_tsv(labels: dict[Triple, bool], path: str | Path) -> int:
    """Write a triple-to-label mapping to a labelled TSV file."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for triple, label in labels.items():
            value = "1" if label else "0"
            handle.write(f"{triple.subject}\t{triple.predicate}\t{triple.obj}\t{value}\n")
            count += 1
    return count
