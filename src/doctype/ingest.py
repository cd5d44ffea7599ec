"""Document records and their four-feature numeric representation.

Input records arrive as line-delimited JSON objects with keys ``id``,
``authors``, ``title``, ``subjects`` and ``pages`` (per-page extracted
text). From each record we compute:

* f1: number of authors (missing when the author list is empty),
* f2: total word count over all pages (``count_words``): a word is a
  whitespace-separated chunk holding at least one alphanumeric character,
* f3: number of pages,
* f4: average words per page (0 for zero-page documents).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import IO, Any, Callable, Iterable, Iterator

import numpy as np

from .ioutils import read_json_lines


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
        except (KeyError, TypeError):  # TypeError: an unhashable label, such as a list
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

    def get(self, feature_id: str) -> float | None:
        return getattr(self, FIELD_BY_ID[feature_id])

    def values(self, feature_ids: Iterable[str] = FEATURE_IDS) -> list[float | None]:
        return [getattr(self, FIELD_BY_ID[fid]) for fid in feature_ids]


#: The FeatureVector attribute that holds each feature id's value.
FIELD_BY_ID = {
    "f1": "f1_authors",
    "f2": "f2_total_words",
    "f3": "f3_pages",
    "f4": "f4_words_per_page",
}


@dataclass
class ParseResult:
    """Outcome of parsing a record stream: what was kept for each record
    (the record itself by default), in file order, and the lines skipped."""

    records: list
    skipped: int


#: Character classes of ``count_words``, cached per code point on first
#: sight: 0 not yet classified, then other, ``str.isalnum``, ``str.isspace``.
#: A cache, not a setting: a code point's class never depends on the texts
#: counted before, and filling an entry twice writes the same value.
_UNSEEN, _OTHER, _ALNUM, _SPACE = 0, 1, 2, 3
_CLASSES = np.zeros(0x110000, np.uint8)

#: ``extract_features`` counts a record's pages joined into chunks of about
#: this many characters: a few numpy calls per record, and small arrays
#: however long the document.
_CHUNK_CHARS = 1 << 14


def count_words(text: str) -> int:
    """The number of words in ``text``, without building them.

    A word is a chunk between whitespace (``str.isspace``, so the chunks of
    ``str.split``) holding at least one alphanumeric character
    (``str.isalnum``). With the other characters dropped, the text is runs
    of alphanumerics between whitespace, and each run is one word: the
    count is the alphanumerics that start the text or follow a space.
    """
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    kept = _kept_classes(codes)
    if not kept.all():
        # A set, not np.unique: the first np.unique call maps about 1.4 MB more.
        for point in set(codes[_CLASSES.take(codes) == _UNSEEN].tolist()):
            char = chr(point)
            _CLASSES[point] = _ALNUM if char.isalnum() else _SPACE if char.isspace() else _OTHER
        kept = _kept_classes(codes)
    # A run starts the kept text or is an _ALNUM after a _SPACE.
    return int(np.count_nonzero(kept[:1] == _ALNUM) + np.count_nonzero(kept[:-1] > kept[1:]))


def _kept_classes(codes: np.ndarray) -> np.ndarray:
    """The classes of ``codes`` without the other characters."""
    dropped = _CLASSES.take(codes).tobytes().translate(None, bytes([_OTHER]))
    return np.frombuffer(dropped, np.uint8)


def _page_chunks(pages: Iterable[str]) -> Iterator[str]:
    """Consecutive pages joined by a space, which keeps their words apart,
    in chunks of about ``_CHUNK_CHARS`` characters."""
    chunk, size = [], 0
    for page in pages:
        chunk.append(page)
        size += len(page) + 1
        if size >= _CHUNK_CHARS:
            yield " ".join(chunk)
            chunk, size = [], 0
    if chunk:
        yield " ".join(chunk)


def extract_features(record: DocumentRecord) -> FeatureVector:
    """Compute f1-f4 from a record's author list and pages."""
    f1 = len(record.authors) if record.authors else None
    f2 = sum(map(count_words, _page_chunks(record.pages)))
    f3 = len(record.pages)
    f4 = f2 / f3 if f3 > 0 else 0.0
    return FeatureVector(f1, f2, f3, f4)


def parse_records(
    source: IO[bytes] | IO[str] | Iterable[str],
    keep: Callable[[DocumentRecord], Any] = lambda record: record,
) -> ParseResult:
    """Parse line-delimited records; malformed and duplicate-id lines are counted, not raised.

    The first line with a given id wins. Each record is reduced to
    ``keep(record)`` as soon as its line is read, so a caller that keeps
    its features holds no page text beyond the line being read; an error
    ``keep`` raises would skip the line as a malformed one. Raises
    IngestError when the stream itself cannot be read or decoded.
    """
    seen: set[str] = set()

    def parse(obj):
        record = _parse_record(obj)
        if record.id in seen:
            raise ValueError(f"duplicate id {record.id!r}")
        seen.add(record.id)
        return keep(record)

    kept, rejects = read_json_lines(source, parse)
    return ParseResult(kept, len(rejects))


def _parse_record(obj) -> DocumentRecord:
    if not isinstance(obj, dict):
        raise ValueError("a record must be a JSON object")
    doc_id = obj.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError("id must be a non-empty string")
    for key in ("authors", "subjects", "pages"):
        if not _is_str_list(obj.get(key)):
            raise ValueError(f"{key} must be a list of strings")
    if not isinstance(obj.get("title"), str):
        raise ValueError("title must be a string")
    return DocumentRecord(
        id=doc_id,
        authors=tuple(obj["authors"]),
        title=obj["title"],
        subjects=tuple(obj["subjects"]),
        pages=tuple(obj["pages"]),
    )


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)
