"""Document records and their four-feature numeric representation.

Input records arrive as line-delimited JSON objects with keys ``id``,
``authors``, ``title``, ``subjects`` and ``pages`` (per-page extracted
text). From each record we compute:

* f1: number of authors (missing when the author list is empty),
* f2: total word count over all pages,
* f3: number of pages,
* f4: average words per page (0 for zero-page documents).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import IO, Iterable, Iterator

from .errors import IngestError


class DocType(IntEnum):
    """The three document categories, totally ordered for serialization."""

    RESEARCH = 0
    SLIDES = 1
    THESIS = 2

    @property
    def label(self) -> str:
        return _LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "DocType":
        try:
            return _BY_LABEL[label]
        except KeyError:
            raise ValueError(f"unknown document type: {label!r}") from None


_LABELS = {
    DocType.RESEARCH: "Research",
    DocType.SLIDES: "Slides",
    DocType.THESIS: "Thesis",
}
_BY_LABEL = {label: doc_type for doc_type, label in _LABELS.items()}

DOC_TYPES: tuple[DocType, ...] = tuple(DocType)
N_CLASSES = len(DOC_TYPES)

#: Identifiers of the four features, in canonical order.
FEATURE_IDS: tuple[str, ...] = ("f1", "f2", "f3", "f4")


@dataclass(frozen=True)
class DocumentRecord:
    """One ingested document: identity, metadata, per-page text."""

    id: str
    authors: tuple[str, ...]
    title: str
    subjects: tuple[str, ...]
    pages: tuple[str, ...]


@dataclass(frozen=True)
class FeatureVector:
    """The four numeric features; f1 is None when author count is unknown.

    Values are integers on raw extraction; transformed datasets carry
    floats in the same slots.
    """

    f1_authors: float | None
    f2_total_words: float
    f3_pages: float
    f4_words_per_page: float

    @property
    def is_complete(self) -> bool:
        return self.f1_authors is not None

    def get(self, feature_id: str) -> float | None:
        return getattr(self, _FIELD_BY_ID[feature_id])

    def values(self, feature_ids: Iterable[str] = FEATURE_IDS) -> list[float | None]:
        return [self.get(fid) for fid in feature_ids]

    def with_f1(self, value: float) -> "FeatureVector":
        return replace(self, f1_authors=value)


_FIELD_BY_ID = {
    "f1": "f1_authors",
    "f2": "f2_total_words",
    "f3": "f3_pages",
    "f4": "f4_words_per_page",
}


@dataclass
class ParseResult:
    """Outcome of parsing a record stream."""

    records: list[DocumentRecord]
    skipped: int


def tokenize(text: str) -> list[str]:
    """Split on whitespace, strip edge punctuation, drop non-word tokens.

    A token survives only if at least one alphanumeric character remains
    after stripping non-alphanumeric characters from both ends.
    """
    tokens = []
    for raw in text.split():
        start, end = 0, len(raw)
        while start < end and not raw[start].isalnum():
            start += 1
        while end > start and not raw[end - 1].isalnum():
            end -= 1
        if end > start:
            tokens.append(raw[start:end])
    return tokens


def extract_features(record: DocumentRecord) -> FeatureVector:
    """Compute f1-f4 from a record's author list and pages."""
    f1 = len(record.authors) if record.authors else None
    f2 = sum(len(tokenize(page)) for page in record.pages)
    f3 = len(record.pages)
    f4 = f2 / f3 if f3 > 0 else 0.0
    return FeatureVector(f1, f2, f3, f4)


def parse_records(source: IO[bytes] | IO[str] | Iterable[str], fmt: str = "jsonl") -> ParseResult:
    """Parse line-delimited records; malformed lines are counted, not raised.

    Raises IngestError when the stream itself cannot be read or the
    format tag is unknown.
    """
    if fmt != "jsonl":
        raise IngestError(f"unknown record format: {fmt!r}")
    records: list[DocumentRecord] = []
    seen_ids: set[str] = set()
    skipped = 0
    for line in _iter_lines(source):
        if not line.strip():
            continue
        record = _parse_line(line)
        if record is None or record.id in seen_ids:
            skipped += 1
            continue
        seen_ids.add(record.id)
        records.append(record)
    return ParseResult(records, skipped)


def _iter_lines(source) -> Iterator[str]:
    try:
        for line in source:
            yield line.decode("utf-8", errors="strict") if isinstance(line, bytes) else line
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"unreadable record stream: {exc}") from exc


def _parse_line(line: str) -> DocumentRecord | None:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(obj, dict):
        return None
    doc_id = obj.get("id")
    authors = obj.get("authors")
    title = obj.get("title")
    subjects = obj.get("subjects")
    pages = obj.get("pages")
    if not isinstance(doc_id, str) or not doc_id:
        return None
    if not _is_str_list(authors) or not _is_str_list(subjects) or not _is_str_list(pages):
        return None
    if not isinstance(title, str):
        return None
    return DocumentRecord(
        id=doc_id,
        authors=tuple(authors),
        title=title,
        subjects=tuple(subjects),
        pages=tuple(pages),
    )


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)
