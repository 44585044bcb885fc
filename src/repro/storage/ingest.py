"""Streaming ingest of triple files straight into columnar storage.

Building a graph from :class:`~repro.kg.triple.Triple` objects allocates one
object per line that the columnar backend immediately re-encodes.  That is
fine at thousands of triples but wasteful at millions.

The functions here instead parse each line into a plain row and hand the rows
to :meth:`~repro.storage.columnar.ColumnarStore.from_rows`, which interns each
field *as the line is read* — no intermediate Triple list ever exists.
Duplicate lines are removed vectorised once the columns are built (first
occurrence wins), matching the graph-as-set semantics of ``KnowledgeGraph``.

Supported formats:

* **Triple TSV** — ``subject<TAB>predicate<TAB>object`` with optional extra
  columns (ignored); blank lines and ``#`` comments skipped.
* **N-Triples (subset)** — ``<s> <p> <o> .`` / ``<s> <p> "literal" .`` lines.
  IRIs are stripped of their angle brackets; an object in angle brackets is
  recorded as an entity object.  Literals are *normalised to their bare
  lexical form*: the N-Triples escape sequences (``\\"``, ``\\\\``, ``\\n``,
  ``\\t``, ``\\r``, ``\\uXXXX``, ``\\UXXXXXXXX``) are decoded and any
  ``@lang`` or ``^^<datatype IRI>`` suffix is stripped, so the interned
  vocabulary string is identical to what the Triple-object loader would
  intern for the same logical value.  Malformed escapes raise ``ValueError``
  with the offending line number.  Full Turtle (prefixes, bnodes) is out of
  scope.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.storage.columnar import ColumnarStore, Row

__all__ = [
    "ingest_tsv",
    "ingest_nt",
    "ingest_rows",
    "iter_data_lines",
    "iter_tsv_rows",
    "iter_nt_rows",
]

def iter_data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each line that is not blank or a ``#`` comment."""
    with path.open("r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            yield line_number, line


def iter_tsv_rows(path: str | Path) -> Iterator[Row]:
    """Stream ``(s, p, o, is_entity_object)`` rows from a triple TSV file.

    Shares the line filter :func:`iter_data_lines` with
    :func:`repro.kg.io.read_labelled_tsv`, so triple and labelled TSV files
    skip the same lines.
    """
    for line_number, line in iter_data_lines(Path(path)):
        fields = line.split("\t")
        if len(fields) < 3:
            raise ValueError(f"line {line_number}: expected >= 3 columns, got {len(fields)}")
        yield fields[0], fields[1], fields[2], False


#: Single-character N-Triples string escapes (``ECHAR`` in the grammar).
_ECHAR = {
    '"': '"',
    "'": "'",
    "\\": "\\",
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
}

_HEX_DIGITS = set("0123456789abcdefABCDEF")


def _decode_escapes(text: str, line_number: int) -> str:
    """Decode N-Triples ``ECHAR`` / ``\\uXXXX`` / ``\\UXXXXXXXX`` escapes.

    Malformed escapes raise :class:`ValueError` carrying the line number —
    silently interning a corrupt string would poison the vocabulary.
    """
    if "\\" not in text:
        return text
    out: list[str] = []
    i = 0
    length = len(text)
    while i < length:
        char = text[i]
        if char != "\\":
            out.append(char)
            i += 1
            continue
        if i + 1 >= length:
            raise ValueError(f"line {line_number}: dangling escape at end of literal {text!r}")
        code = text[i + 1]
        if code in _ECHAR:
            out.append(_ECHAR[code])
            i += 2
            continue
        if code in ("u", "U"):
            width = 4 if code == "u" else 8
            digits = text[i + 2 : i + 2 + width]
            if len(digits) != width or not set(digits) <= _HEX_DIGITS:
                raise ValueError(
                    f"line {line_number}: malformed \\{code} escape in literal {text!r}"
                )
            out.append(chr(int(digits, 16)))
            i += 2 + width
            continue
        raise ValueError(f"line {line_number}: unknown escape '\\{code}' in literal {text!r}")
    return "".join(out)


def _strip_term(term: str, line_number: int = 0) -> tuple[str, bool]:
    """Normalise one N-Triples term to ``(vocab string, is-entity)``.

    IRIs lose their angle brackets.  Literals are reduced to the bare lexical
    form: the closing quote is located respecting backslash escapes, any
    ``@lang`` / ``^^<datatype IRI>`` suffix is dropped, and the escape
    sequences inside the body are decoded — so the interned string matches
    what the Triple-object loader interns for the same logical value.
    """
    if term.startswith("<") and term.endswith(">"):
        return term[1:-1], True
    if term.startswith('"'):
        i = 1
        length = len(term)
        while i < length and term[i] != '"':
            i += 2 if term[i] == "\\" else 1
        if i >= length:
            raise ValueError(f"line {line_number}: unterminated literal {term!r}")
        body = term[1:i]
        suffix = term[i + 1 :]
        if suffix and not (
            suffix.startswith("@") or (suffix.startswith("^^<") and suffix.endswith(">"))
        ):
            raise ValueError(f"line {line_number}: malformed literal suffix {suffix!r}")
        return _decode_escapes(body, line_number), False
    return term, False


def iter_nt_rows(path: str | Path) -> Iterator[Row]:
    """Stream rows from an N-Triples file (``<s> <p> <o|"literal"> .``)."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if line.endswith("."):
                line = line[:-1].rstrip()
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise ValueError(f"line {line_number}: expected '<s> <p> <o> .'")
            subject, _ = _strip_term(parts[0], line_number)
            predicate, _ = _strip_term(parts[1], line_number)
            obj, is_entity = _strip_term(parts[2], line_number)
            yield subject, predicate, obj, is_entity


def ingest_rows(rows: Iterable[Row], name: str = "kg"):
    """Build a columnar-backed graph from parsed rows, deduplicating at the end."""
    from repro.kg.graph import KnowledgeGraph

    return KnowledgeGraph(name=name, backend=ColumnarStore.from_rows(rows))


def ingest_tsv(path: str | Path, name: str | None = None):
    """Stream a triple TSV file into a columnar-backed knowledge graph.

    Lines that are empty or start with ``#`` are skipped, extra columns are
    ignored and repeated triples keep their first occurrence.  ``name``
    defaults to the file stem.

    Raises
    ------
    ValueError
        If a line does not have at least three tab-separated fields.
    """
    path = Path(path)
    return ingest_rows(iter_tsv_rows(path), name=name if name is not None else path.stem)


def ingest_nt(path: str | Path, name: str | None = None):
    """Stream an N-Triples file into a columnar-backed knowledge graph."""
    path = Path(path)
    return ingest_rows(iter_nt_rows(path), name=name if name is not None else path.stem)
