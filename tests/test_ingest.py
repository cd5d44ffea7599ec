"""Record parsing, tokenization, and feature extraction."""

import io
import json

import numpy as np
import pytest

from doctype.errors import IngestError
from doctype.ingest import (
    DocType,
    DocumentRecord,
    extract_features,
    parse_records,
    tokenize,
)
from doctype.ioutils import read_json_lines, read_json_lines_strict


def record_line(doc_id="d1", authors=("a",), title="t", subjects=(), pages=("one two",)):
    return json.dumps(
        {
            "id": doc_id,
            "authors": list(authors),
            "title": title,
            "subjects": list(subjects),
            "pages": list(pages),
        }
    )


class TestDocType:
    def test_three_ordered_values(self):
        assert list(DocType) == [DocType.RESEARCH, DocType.SLIDES, DocType.THESIS]
        assert DocType.RESEARCH < DocType.SLIDES < DocType.THESIS

    def test_label_round_trip(self):
        for t in DocType:
            assert DocType.from_label(t.label) is t

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            DocType.from_label("Poster")


class TestTokenize:
    def test_strips_edge_punctuation(self):
        assert tokenize("Hello, world!") == ["Hello", "world"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_bare_dashes_discarded(self):
        assert tokenize("a - b -- c") == ["a", "b", "c"]

    def test_interior_punctuation_kept(self):
        assert tokenize("don't foo-bar") == ["don't", "foo-bar"]

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(42)
        alphabet = list("ab1!,.- \t(){}")
        for _ in range(200):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once

    def test_deterministic(self):
        text = "Some text, with - punctuation!"
        assert tokenize(text) == tokenize(text)


class TestExtractFeatures:
    def test_hand_counted_example(self):
        rec = DocumentRecord("r", ("a", "b"), "t", (), ("one two", "three"))
        fv = extract_features(rec)
        assert fv.f1_authors == 2
        assert fv.f2_total_words == 3
        assert fv.f3_pages == 2
        assert fv.f4_words_per_page == 1.5

    def test_zero_pages(self):
        fv = extract_features(DocumentRecord("r", ("a",), "t", (), ()))
        assert (fv.f2_total_words, fv.f3_pages, fv.f4_words_per_page) == (0, 0, 0.0)

    def test_words_per_page_division(self):
        pages = tuple("w " * 100 for _ in range(10))
        fv = extract_features(DocumentRecord("r", ("a",), "t", (), pages))
        assert fv.f4_words_per_page == 100.0

    def test_missing_f1_iff_no_authors(self):
        fv = extract_features(DocumentRecord("r", (), "t", (), ("x",)))
        assert fv.f1_authors is None
        assert not fv.is_complete

    def test_ratio_invariant_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pages = tuple(
                " ".join(["w"] * int(rng.integers(0, 50)))
                for _ in range(int(rng.integers(1, 20)))
            )
            fv = extract_features(DocumentRecord("r", ("a",), "t", (), pages))
            assert fv.f2_total_words >= 0 and fv.f3_pages > 0
            assert abs(fv.f4_words_per_page * fv.f3_pages - fv.f2_total_words) <= 1e-9 * max(
                1, fv.f2_total_words
            )

    def test_only_reads_authors_and_pages(self):
        a = DocumentRecord("r", ("a",), "Some title", ("thesis",), ("x y",))
        b = DocumentRecord("r", ("a",), "Other", (), ("x y",))
        assert extract_features(a) == extract_features(b)


class TestParseRecords:
    def test_three_valid_lines(self):
        text = "\n".join(record_line(doc_id=f"d{i}") for i in range(3))
        result = parse_records(io.StringIO(text))
        assert [r.id for r in result.records] == ["d0", "d1", "d2"]
        assert result.skipped == 0

    def test_empty_file(self):
        result = parse_records(io.StringIO(""))
        assert result.records == [] and result.skipped == 0

    def test_malformed_line_skipped_and_counted(self):
        text = "\n".join([record_line("d0"), "{not json", record_line("d1")])
        result = parse_records(io.StringIO(text))
        assert len(result.records) == 2
        assert result.skipped == 1

    def test_missing_key_is_malformed(self):
        bad = json.dumps({"id": "x", "authors": [], "title": "t", "subjects": []})
        result = parse_records(io.StringIO(bad))
        assert result.records == [] and result.skipped == 1

    def test_duplicate_id_skipped(self):
        text = "\n".join([record_line("dup"), record_line("dup")])
        result = parse_records(io.StringIO(text))
        assert len(result.records) == 1 and result.skipped == 1

    def test_byte_stream_accepted(self):
        result = parse_records(io.BytesIO(record_line().encode("utf-8")))
        assert len(result.records) == 1

    def test_unknown_keys_ignored(self):
        obj = json.loads(record_line())
        obj["extra"] = {"nested": 1}
        result = parse_records(io.StringIO(json.dumps(obj)))
        assert len(result.records) == 1

    def test_unreadable_stream_fatal(self):
        class Broken:
            def __iter__(self):
                raise OSError("disk gone")

        with pytest.raises(IngestError):
            parse_records(Broken())

    def test_order_preserved(self):
        ids = [f"d{i}" for i in range(20)]
        text = "\n".join(record_line(doc_id=i) for i in ids)
        result = parse_records(io.StringIO(text))
        assert [r.id for r in result.records] == ids


def _positive(obj):
    if obj["n"] <= 0:
        raise ValueError(f"n must be positive, got {obj['n']}")
    return obj["n"]


class TestReadJsonLines:
    def test_str_and_bytes_lines_with_blanks_skipped(self):
        text = '{"n": 1}\n\n   \n{"n": 2}\n'
        assert read_json_lines(io.StringIO(text), _positive) == ([1, 2], [])
        assert read_json_lines(io.BytesIO(text.encode("utf-8")), _positive) == ([1, 2], [])

    def test_rejects_name_the_line_and_reason(self):
        lines = ['{"n": 1}', "", "{oops", '{"n": -3}', '{"m": 4}', "[]", '{"n": 5}']
        values, rejects = read_json_lines(lines, _positive)
        assert values == [1, 5]
        assert rejects[0].startswith("line 3: Expecting property name")
        assert rejects[1:] == [
            "line 4: n must be positive, got -3",
            "line 5: missing field 'n'",
            "line 6: list indices must be integers or slices, not str",
        ]

    def test_deep_nesting_is_a_reject(self):
        values, rejects = read_json_lines(["[" * 100_000, '{"n": 1}'], _positive)
        assert values == [1] and rejects[0].startswith("line 1: maximum recursion depth")

    def test_undecodable_bytes_fatal(self):
        stream = io.BytesIO(b'{"n": 1}\n{"n": "\xff"}\n')
        with pytest.raises(IngestError, match="cannot read input: 'utf-8' codec"):
            read_json_lines(stream, _positive)

    def test_os_error_mid_stream_fatal(self):
        def lines():
            yield '{"n": 1}'
            raise OSError("disk gone")

        with pytest.raises(IngestError, match="cannot read input: disk gone"):
            read_json_lines(lines(), _positive)

    def test_strict_raises_on_first_reject_naming_the_source(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"n": 1}\n{"n": 0}\n{oops\n')
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(IngestError) as raised:
                read_json_lines_strict(handle, _positive)
        assert str(raised.value) == f"{path} line 2: n must be positive, got 0"
        assert read_json_lines_strict(['{"n": 7}', ""], _positive) == [7]
