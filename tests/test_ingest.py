"""Record parsing, tokenization, and feature extraction."""

import gc
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctype import ingest
from doctype.errors import IngestError
from doctype.ingest import (
    DocType,
    DocumentRecord,
    count_words,
    extract_features,
    parse_records,
)
from doctype.ioutils import iter_json_lines, read_json_lines, read_json_lines_strict
from reference_words import tokenize


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

    @pytest.mark.parametrize("label", [["x"], {"x": 1}])
    def test_unhashable_label_named(self, label):
        with pytest.raises(ValueError, match=r"^unknown document type: "):
            DocType.from_label(label)


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


#: Every code point that ``str.split()`` splits on.
SPACES = tuple(c for c in map(chr, range(0x110000)) if c.isspace())
#: Characters at the edges of the class table: whitespace, the underscore
#: (a word character but not alphanumeric), lone surrogates, combining marks,
#: non-BMP alphanumerics and format characters.
TRICKY = SPACES + (
    "_", "\ud800", "\udbff", "\udc00", "\udfff", "\u0301", "\u20dd", "\u0903",
    "\U0001D7D8", "\U00010400", "\U0001F600", "\ufeff", "\u200b", "a", "7", "-", ",",
)
texts = st.one_of(st.text(), st.text(alphabet=st.one_of(st.sampled_from(TRICKY), st.characters())))


class TestCountWords:
    def test_spaces_include_the_unusual_separators(self):
        assert {"\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"} <= set(SPACES)

    @settings(max_examples=400, deadline=None)
    @given(text=texts)
    def test_matches_tokenize(self, text):
        assert count_words(text) == len(tokenize(text))

    @pytest.mark.parametrize(
        "text, count",
        [
            ("", 0), ("   ", 0), ("a", 1), (" a ", 1), ("-- a, b! --", 2), ("_ __ _a_", 1),
            ("a\ud800b \udfff", 1), ("x\u3000y\x1cz\x85w", 4), ("\U0001D7D8\u0301 \u0301", 1),
        ],
    )
    def test_hand_counted(self, text, count):
        assert count_words(text) == len(tokenize(text)) == count

    def test_independent_of_what_the_table_saw_first(self, monkeypatch):
        rng = np.random.default_rng(3)
        alphabet = np.array(TRICKY + tuple("ab, (x) 12"))
        samples = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 60)))) for _ in range(200)]
        warm = [count_words(text) for text in samples]
        for order in (samples, samples[::-1]):
            monkeypatch.setattr(ingest, "_CLASSES", np.zeros(0x110000, np.uint8))
            counts = [count_words(text) for text in order]
            assert counts == (warm if order is samples else warm[::-1])
        for text in samples[:20]:
            monkeypatch.setattr(ingest, "_CLASSES", np.zeros(0x110000, np.uint8))
            assert count_words(text) == len(tokenize(text))

    def test_classifies_on_first_sight_only(self, monkeypatch):
        monkeypatch.setattr(ingest, "_CLASSES", np.zeros(0x110000, np.uint8))
        assert count_words("ab \u3000-\U0001D7D8") == 2
        seen = set(np.flatnonzero(ingest._CLASSES).tolist())
        assert seen == {ord(c) for c in "ab \u3000-\U0001D7D8"}


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

    def test_word_count_is_a_python_int(self):
        fv = extract_features(DocumentRecord("r", ("a",), "t", (), ("one two", "", "three")))
        assert type(fv.f2_total_words) is int and fv.f2_total_words == 3
        assert json.dumps(fv.f2_total_words) == "3"

    def test_pages_counted_apart(self, monkeypatch):
        monkeypatch.setattr(ingest, "_CHUNK_CHARS", 8)
        pages = ("one", "two-", "-three", "", "  ", "a" * 20, "b", "\ud800", "c")
        fv = extract_features(DocumentRecord("r", ("a",), "t", (), pages))
        assert fv.f2_total_words == sum(len(tokenize(page)) for page in pages) == 6

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

    def test_keep_sees_each_first_record_once(self):
        text = "\n".join([record_line("a"), "{oops", record_line("b", pages=()), record_line("a")])
        kept = []
        result = parse_records(io.StringIO(text), lambda rec: kept.append(rec) or rec.id.upper())
        assert [rec.id for rec in kept] == ["a", "b"] and kept[1].pages == ()
        assert result.records == ["A", "B"] and result.skipped == 2

    def test_keep_runs_as_each_line_is_read(self):
        read = []

        def lines():
            for i in range(3):
                read.append(i)
                yield record_line(f"d{i}")

        calls = []
        parse_records(lines(), lambda rec: calls.append((rec.id, len(read))))
        assert calls == [("d0", 1), ("d1", 2), ("d2", 3)]


def _positive(obj):
    if obj["n"] <= 0:
        raise ValueError(f"n must be positive, got {obj['n']}")
    return obj["n"]


class TestReadJsonLines:
    def test_str_and_bytes_lines_with_blanks_skipped(self):
        text = '{"n": 1}\n\n   \n{"n": 2}\n'
        assert read_json_lines(io.StringIO(text), _positive) == ([1, 2], [])
        assert read_json_lines(io.BytesIO(text.encode("utf-8")), _positive) == ([1, 2], [])

    def test_byte_order_mark_dropped_from_line_one_only(self):
        text = '\ufeff{"n": 1}\n\ufeff{"n": 2}\n{"n": 3}\n'
        for stream in (io.StringIO(text), io.BytesIO(text.encode("utf-8"))):
            values, rejects = read_json_lines(stream, _positive)
            assert values == [1, 3]
            assert rejects[0].startswith("line 2: Unexpected UTF-8 BOM")
        assert read_json_lines(["\ufeff", '{"n": 4}'], _positive) == ([4], [])
        assert read_json_lines(['\ufeff\ufeff{"n": 4}'], _positive)[1][0].startswith("line 1: ")

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

    @pytest.mark.parametrize("n", [10, 1000])
    def test_rejects_leave_no_cycles(self, n):
        # The reader pauses the collector because what it reads and keeps
        # is acyclic; with the collector off, a collection after the read
        # must find nothing, whatever the reject kinds and their number.
        kinds = ["{oops", '{"n": -1}', '{"m": 1}', "[]", "[" * 5000, '{"n": 1}']
        lines = [kinds[i % len(kinds)] for i in range(n)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            values, rejects = read_json_lines(lines, _positive)
            found = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert len(values) + len(rejects) == n and all(isinstance(r, str) for r in rejects)
        assert found == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        def failing():
            yield '{"n": 1}'
            raise OSError("disk gone")

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            read_json_lines(['{"n": 1}'], _positive)
            states = [gc.isenabled()]
            read_json_lines(['{"n": 1}', "{oops", '{"n": 0}'], _positive)
            states.append(gc.isenabled())
            with pytest.raises(IngestError):
                read_json_lines(failing(), _positive)
            states.append(gc.isenabled())
        finally:
            (gc.enable if was else gc.disable)()
        assert states == [enabled] * 3

    #: lines the reader keeps, skips or rejects: values parse keeps or
    #: refuses, blanks, malformed JSON, a non-object and nesting past the
    #: recursion limit
    LINE_KINDS = ['{"n": 2}', '{"n": 0}', '{"m": 1}', "", "   ", "{oops", "[]", "[" * 5000]

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(st.sampled_from(LINE_KINDS), max_size=12),
        marked=st.booleans(),
        as_bytes=st.booleans(),
        undecodable=st.none() | st.integers(0, 12),
    )
    def test_generator_and_list_forms_agree(self, lines, marked, as_bytes, undecodable):
        if marked and lines:
            lines[0] = "\ufeff" + lines[0]
        if as_bytes:
            lines = [line.encode("utf-8") for line in lines]
            if undecodable is not None:
                lines.insert(min(undecodable, len(lines)), b'{"n": "\xff"}')
        rejects = []
        if as_bytes and undecodable is not None:
            with pytest.raises(IngestError) as streamed:
                list(iter_json_lines(lines, _positive, rejects))
            with pytest.raises(IngestError) as listed:
                read_json_lines(lines, _positive)
            assert str(streamed.value) == str(listed.value)
            assert str(listed.value).startswith("cannot read input: 'utf-8' codec")
        else:
            assert (list(iter_json_lines(lines, _positive, rejects)), rejects) == read_json_lines(
                lines, _positive
            )

    def test_generator_leaves_the_collector_running(self):
        enabled = gc.isenabled()
        gc.enable()
        try:
            states = [gc.isenabled() for _ in iter_json_lines(['{"n": 1}', '{"n": 2}'], _positive, [])]
        finally:
            if not enabled:
                gc.disable()
        assert states == [True, True]

    def test_strict_raises_on_first_reject_naming_the_source(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"n": 1}\n{"n": 0}\n{oops\n')
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(IngestError) as raised:
                read_json_lines_strict(handle, _positive)
        assert str(raised.value) == f"{path} line 2: n must be positive, got 0"
        assert read_json_lines_strict(['{"n": 7}', ""], _positive) == [7]
