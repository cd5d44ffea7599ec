"""Reference word rule for ``ingest.count_words``.

f2 counts the words of a document's pages: split the text on whitespace
(``str.split``), strip non-alphanumeric characters from both ends of each
chunk, and keep a chunk if anything remains. ``count_words`` counts these
words without building them and must give ``len(tokenize(text))`` for any
text.
"""

from __future__ import annotations


def tokenize(text: str) -> list[str]:
    """The words of ``text``, edge punctuation stripped."""
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
