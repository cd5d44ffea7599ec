"""Bad input never ends in a traceback: seeded byte mutations and line
splices of small valid inputs, run through ``cli.main`` in process. Every
run exits 0, 1 or 2, and a failing run prints one ``error:`` line and
writes nothing."""

import contextlib
import io
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from doctype.cli import main

from conftest import write_click_log

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
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["engagement", str(log), "--predictions", str(predictions), *forms[form]])
        err = stderr.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if code:
            assert len(errors) == 1 and err.endswith(errors[0] + "\n")
            assert stdout.getvalue() == "" and not out.exists() and not out.with_suffix(".txt").exists()
        else:
            assert errors == [] and out.exists() == (form == "out")

    run()
