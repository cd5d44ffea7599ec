"""Bad input never ends in a traceback: seeded byte mutations and line
splices of small valid inputs, run through ``cli.main`` in process. Every
run exits 0, 1 or 2, and a failing run prints one ``error:`` line and
writes nothing. A records run that exits 0 writes what its lines give one
at a time, and a configured run what the config's values give as flags."""

import contextlib
import io
import json
import re
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctype.cli import main

from conftest import write_click_log, write_seeded_records

#: bytes that JSON gives meaning to; an edit draws one of them about as
#: often as it draws any byte at all
JSON_BYTES = b'{}[]":,.-+e0123456789 \n\\nulltrue'

#: one edit of a file: ("set", at, byte), ("insert", at, byte), ("delete",
#: at) or ("splice", i, j, at): line i keeps its head up to ``at`` and takes
#: line j's tail from ``at``; offsets wrap around the length they index
EDITS = st.one_of(
    st.tuples(st.sampled_from(["set", "insert"]), st.integers(0, 1 << 16),
              st.one_of(st.sampled_from(JSON_BYTES), st.integers(0, 255))),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16)),
    st.tuples(st.just("splice"), st.integers(0, 1 << 8), st.integers(0, 1 << 8), st.integers(0, 1 << 10)),
)


def edited(data: bytes, edit: tuple) -> bytes:
    kind, at, *rest = edit
    if kind == "splice":
        lines = data.splitlines(keepends=True)
        i, j, cut = at % len(lines), rest[0] % len(lines), rest[1]
        lines[i] = lines[i][: cut % (len(lines[i]) + 1)] + lines[j][cut % (len(lines[j]) + 1):]
        return b"".join(lines)
    at %= len(data) + (kind == "insert")
    if kind == "delete":
        return data[:at] + data[at + 1:]
    return data[:at] + bytes(rest) + data[at + (kind == "set"):]


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` in process: its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def check_failure(code: int, err: str) -> bool:
    """Whether a run failed; asserts that it ended in an exit code, not a
    traceback, and that a failure printed one ``error:`` line, last."""
    assert code in (0, 1, 2) and "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (code != 0) and (not errors or err.endswith(errors[0] + "\n"))
    return code != 0


@pytest.mark.parametrize("command", ["extract", "label"])
def test_mutated_records_fail_cleanly_or_match_each_line_alone(command, tmp_path):
    records = write_seeded_records(tmp_path, n=6, words=12)
    raw, alone, out = records.read_bytes(), tmp_path / "alone.jsonl", tmp_path / "out.jsonl"

    @settings(max_examples=100, deadline=timedelta(seconds=2))
    @given(edits=st.lists(EDITS, min_size=1, max_size=4), to_file=st.booleans())
    def run(edits, to_file):
        data = raw
        for edit in edits:
            data = edited(data, edit)
        records.write_bytes(data)
        out.unlink(missing_ok=True)
        code, stdout, err = run_main([command, str(records), *(["--out", str(out)] * to_file)])
        if check_failure(code, err):
            assert stdout == "" and not out.exists()
            return
        # Each line alone: line 1 first in its file, any other after a blank
        # line, so that a byte order mark is dropped from line 1 only.
        rows, seen, skipped = [], set(), 0
        for number, line in enumerate(data.split(b"\n")):
            alone.write_bytes(b"\n" * (number > 0) + line + b"\n")
            code, lines, counts = run_main([command, str(alone)])
            assert code == 0
            skipped += int(re.match(r"\w+: \d+ \w+, (\d+) skipped\n", counts).group(1))
            for row in lines.splitlines(keepends=True):
                doc_id = json.loads(row)["id"]
                if doc_id in seen:
                    skipped += 1
                else:
                    seen.add(doc_id)
                    rows.append(row)
        assert (out.read_text() if to_file else stdout) == "".join(rows)
        noun = "records" if command == "extract" else "examples"
        assert err.startswith(f"{command}: {len(rows)} {noun}, {skipped} skipped\n")

    run()


def test_mutated_click_log_and_predictions_fail_cleanly(tmp_path):
    log, predictions = write_click_log(tmp_path, n=10, seed=3)
    files = {log: log.read_bytes(), predictions: predictions.read_bytes()}
    out = tmp_path / "report.json"
    forms = {"human": ["--format", "human"], "machine": ["--format", "machine"], "out": ["--out", str(out)]}

    @settings(max_examples=250, deadline=timedelta(seconds=2))
    @given(edits=st.lists(st.tuples(st.sampled_from(sorted(files)), EDITS), min_size=1, max_size=4),
           form=st.sampled_from(sorted(forms)))
    def run(edits, form):
        data = dict(files)
        for path, edit in edits:
            data[path] = edited(data[path], edit)
        for path, raw in data.items():
            path.write_bytes(raw)
        for written in (out, out.with_suffix(".txt")):
            written.unlink(missing_ok=True)
        code, stdout, err = run_main(["engagement", str(log), "--predictions", str(predictions), *forms[form]])
        if check_failure(code, err):
            assert stdout == "" and not out.exists() and not out.with_suffix(".txt").exists()
        else:
            assert out.exists() == (form == "out")

    run()


def test_mutated_config_fails_cleanly_or_gives_its_values(tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "out.jsonl"
    raw = json.dumps({
        "seed": 5, "paths": {"labeled": "labeled.jsonl"}, "k_folds": 4, "quantiles": {"lo": 0.05, "hi": 0.95},
        "proportions": {"Research": 0.5, "Slides": 0.25, "Thesis": 0.25},
        "sweep": {"kinds": ["gnb", "knn"], "grids": {"knn": [{"k": 3}]}},
    }, indent=1).encode()

    @settings(max_examples=200, deadline=timedelta(seconds=2))
    @given(edits=st.lists(EDITS, min_size=1, max_size=4), to_file=st.booleans())
    def run(edits, to_file):
        data = raw
        for edit in edits:
            data = edited(data, edit)
        config.write_bytes(data)
        out.unlink(missing_ok=True)
        code, stdout, err = run_main(["synth", "--n", "30", "--config", str(config),
                                      *(["--out", str(out)] * to_file)])
        if check_failure(code, err):
            assert stdout == "" and not out.exists()
            return
        assert err == ""
        # the same run with the seed and proportions the file holds given as flags
        payload = json.loads(data.decode("utf-8-sig"))
        flags = ["--proportions", json.dumps(payload["proportions"])] if "proportions" in payload else []
        assert run_main(["synth", "--n", "30", "--seed", str(payload.get("seed", 0)), *flags]) == (
            0, out.read_text() if to_file else stdout, "")

    run()
