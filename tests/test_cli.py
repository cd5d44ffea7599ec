"""Command-line surface: subcommands, exit codes, and output formats."""

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import re
import shutil
import tracemalloc

import pytest

from doctype import cli
from doctype.cli import _build_parser, main
from doctype.config import DEFAULT_PROPORTIONS, config_from_dict
from doctype.engagement import engagement_report, human_engagement, read_log_events
from doctype.ingest import DocType
from doctype.labeling import read_examples, write_examples
from doctype.models import KINDS, dataset_matrix, load_model, train, train_folds
from doctype.models.baselines import _TABLE_KEYS
from doctype.models.dispatch import Kind
from doctype.stats import apply_imputer, apply_transform
from doctype.synthetic import generate_synthetic

from conftest import (
    KNN_TRAIN_X_CORRUPTIONS,
    OVERFLOWING_CELLS,
    blank_f1,
    overflow_rows,
    random_events,
    toy_dataset,
    write_click_log,
    write_seeded_records,
)
from reference_words import tokenize


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_records(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def record_row(doc_id, title="A study", subjects=(), pages=("alpha beta gamma",), authors=("x",)):
    return {
        "id": doc_id,
        "authors": list(authors),
        "title": title,
        "subjects": list(subjects),
        "pages": list(pages),
    }


@pytest.fixture
def records_file(tmp_path):
    rows = [record_row(f"d{i}") for i in range(3)]
    path = tmp_path / "records.jsonl"
    write_records(path, rows)
    return path


@pytest.fixture
def labeled_file(tmp_path):
    from doctype.labeling import write_examples

    path = tmp_path / "labeled.jsonl"
    with open(path, "w") as handle:
        write_examples(handle, toy_dataset(30, seed=1))
    return path


def research_f1(cell):
    """A corrupt(parameters, transform) storing ``cell(old)`` as the
    baseline-threshold table's (Research, f1) cell."""
    def corrupt(p, t):
        cells = p["table"]["bounds"]["Research"]
        cells["f1"] = cell(cells["f1"])
    return corrupt


#: (kind, transform, corrupt(parameters, transform)): model files that parse
#: but hold parameters no predictor can score with.
CORRUPTED_MODELS = [
    ("gnb", "identity", lambda p, t: p.pop("means")),
    ("gnb", "identity", lambda p, t: p.update(variances=[[-1.0] * 4, *p["variances"][1:]])),
    ("linear-svm", "identity", lambda p, t: p.update(weights=[[1.0], [2.0]])),
    ("linear-svm", "identity", lambda p, t: p.update(biases=[None, *p["biases"][1:]])),
    ("random-forest", "z-score", lambda p, t: t.update(mean=t["mean"][:2])),
    ("baseline-random", "identity", lambda p, t: p.update(weights=[0.5, 0.5])),
    ("decision-tree", "identity",
     lambda p, t: p["trees"].update(threshold=[None, *p["trees"]["threshold"][1:]])),
    ("adaboost", "identity", lambda p, t: p.update(alphas=[0.0] * len(p["alphas"]))),
    ("baseline-threshold", "identity", research_f1(lambda cell: ["1.5", cell[1]])),
    ("baseline-threshold", "identity", research_f1(lambda cell: [True, cell[1]])),
    ("baseline-threshold", "identity", research_f1(lambda cell: [math.nan, cell[1]])),
    ("baseline-threshold", "identity", research_f1(lambda cell: [*cell, cell[1]])),
    ("baseline-threshold", "identity", lambda p, t: p["table"].update(format_version=True)),
    # two rounds whose weights sum past the largest float
    ("adaboost", "identity", lambda p, t: p.update(
        trees={field: column * 2 for field, column in p["trees"].items()},
        sizes=p["sizes"] * 2, alphas=[1e308] * 2 * len(p["alphas"]))),
    ("gnb", "identity", lambda p, t: t.update(mean="abc")),
    ("gnb", "identity", lambda p, t: p.update(
        priors=[0.5, 0.5, 0.0], means=[*p["means"][:2], "abc"],
        variances=[*p["variances"][:2], None])),
    ("knn", "identity", lambda p, t: p.update(train_y=[True, *p["train_y"][1:]])),
    # keys no reader reads, and quantile levels the fit refuses
    ("knn", "identity", lambda p, t: p.update(shape=[len(p["train_y"]), 4])),
    ("gnb", "identity", lambda p, t: p.update(junk="y")),
    ("decision-tree", "identity", lambda p, t: p["trees"].update(junk=[])),
    ("baseline-threshold", "identity", lambda p, t: p["table"].update(junk="y")),
    ("baseline-threshold", "identity", lambda p, t: p["table"]["bounds"].update(junk={})),
    ("baseline-threshold", "identity", lambda p, t: p["table"]["bounds"]["Research"].update(f9=["x"])),
    ("baseline-threshold", "identity", lambda p, t: p["table"].update(quantile_lo=5.0)),
    ("baseline-threshold", "identity", lambda p, t: p["table"].update(quantile_lo=0.5, quantile_hi=0.5)),
] + [
    ("knn", "identity", lambda p, t, corrupt=corrupt: p.update(train_x=corrupt(p["train_x"])))
    for _, corrupt in KNN_TRAIN_X_CORRUPTIONS
]


#: Every (command, option) pair the parser accepts, and every key path of
#: the run config: a new setting changes these on purpose.
OPTIONS = {
    (command, option)
    for command, options in {
        "extract": "--out",
        "label": "--out",
        "samplesize": "--out --format --z --p --c",
        "sample": "--config --out --seed --total --proportions",
        "thresholds": "--config --out --quantile-lo --quantile-hi",
        "train": "--config --out --seed --kind --hyperparameters --transform",
        "sweep": "--config --out --seed --format --kind --k --grid",
        "evaluate": "--config --out --seed --format --kind --k --hyperparameters --transform",
        "ablation": "--config --out --seed --format --kinds --k",
        "predict": "--out",
        "engagement": "--out --format --predictions",
        "synth": "--config --out --seed --n --proportions",
        "pipeline": "--config",
    }.items()
    for option in options.split()
}
RUN_CONFIG_KEYS = [
    "seed", "paths.records", "paths.labeled", "paths.output_dir", "proportions", "sample_total",
    "k_folds", "validation_fraction", "quantiles.lo", "quantiles.hi", "sweep.kinds",
    "sweep.transforms", "sweep.grids",
]

#: A new kind flag or fitting keyword edits these on purpose.
KIND_FIELDS = [
    "fit", "predictor", "stored", "hyperparameters", "size_key", "ensemble", "nested", "raw_only",
    "every_class", "grid",
]
TRAIN_PARAMETERS = ["kind", "dataset", "hyperparameters", "seed", "transform", "features"]
TRAIN_FOLDS_PARAMETERS = ["kind", "folds", "hyperparameters", "seeds", "transform", "features"]


class TestExtract:
    def test_three_records(self, records_file, tmp_path, capsys):
        out = tmp_path / "features.jsonl"
        assert main(["extract", str(records_file), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3
        assert rows[0]["f2"] == 3
        assert "label" not in rows[0]
        assert "3 records" in capsys.readouterr().err

    def test_empty_input_warns(self, tmp_path, capsys):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = tmp_path / "features.jsonl"
        assert main(["extract", str(src), "--out", str(out)]) == 0
        assert out.read_text() == ""
        assert "warning" in capsys.readouterr().err

    def test_lone_surrogate_in_page_text(self, tmp_path, capsys):
        page = "a\ud800b \udfff c-\udbff"
        src = tmp_path / "records.jsonl"
        write_records(src, [record_row("s", pages=(page, "\ud800"))])
        assert '"a\\ud800b \\udfff c-\\udbff"' in src.read_text()
        out = tmp_path / "features.jsonl"
        assert main(["extract", str(src), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["f2"] == len(tokenize(page)) == 2
        assert capsys.readouterr().err == "extract: 1 records, 0 skipped\n"

    def test_memory_is_bounded_by_the_largest_line(self, tmp_path, capsys):
        # 32 records of 21 pages of 11 kB each: 229 kB a line, 7.3 MB in all
        page = " ".join(f"w{j}" for j in range(2000))
        src, out = tmp_path / "records.jsonl", tmp_path / "features.jsonl"
        write_records(src, [record_row(f"r{i}", pages=[f"{i} {page}"] * 21) for i in range(32)])
        largest = max(map(len, src.read_bytes().splitlines()))
        tracemalloc.start()
        try:
            assert main(["extract", str(src), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == "extract: 32 records, 0 skipped\n"
        assert [json.loads(line)["f2"] for line in out.read_text().splitlines()] == [42021] * 32
        # About 4.9 lines when each line is reduced to its features as it is
        # read; 36 when every record's pages are held until the file ends.
        assert peak < 8 * largest, f"peak {peak} bytes for a largest line of {largest}"

    def test_engagement_memory_does_not_grow_with_the_log(self, tmp_path, capsys):
        # fully typed logs of 2,000 and 8,000 events and no predictions file
        peaks = []
        for n in (2000, 8000):
            log, out = tmp_path / f"log-{n}.jsonl", tmp_path / f"report-{n}.json"
            log.write_text("".join(json.dumps({
                "engine": event.engine, "query_id": event.query_id,
                "impressions": [{"doc_id": imp.doc_id, "position": imp.position,
                                 "doc_type": imp.doc_type.label} for imp in event.impressions],
                "clicks": [{"doc_id": click.doc_id, "position": click.position} for click in event.clicks],
            }) + "\n" for event in random_events(n, 7)))
            tracemalloc.start()
            try:
                assert main(["engagement", str(log), "--out", str(out)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert capsys.readouterr().err == f"engagement: {n} events, 0 rejected\n"
        # 100-150 kB for either log when each event is counted and dropped as
        # it is read; 1.9 and 7.2 MB when every event is kept until the file ends.
        assert peaks[1] < 1.5 * peaks[0], f"peaks {peaks} bytes for 2,000 and 8,000 events"

    def test_unreadable_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["extract", str(missing), "--out", str(tmp_path / "o")]) == 2
        assert str(missing) in capsys.readouterr().err


class TestLabelAndSample:
    def test_label_rules_applied(self, tmp_path):
        rows = [
            record_row("a", subjects=["doctoral thesis"]),
            record_row("b", title="slides for lecture"),
            record_row("c"),
        ]
        src = tmp_path / "records.jsonl"
        write_records(src, rows)
        out = tmp_path / "labeled.jsonl"
        assert main(["label", str(src), "--out", str(out)]) == 0
        labels = {row["id"]: row["label"] for row in map(json.loads, out.read_text().splitlines())}
        assert labels == {"a": "Thesis", "b": "Slides", "c": "Research"}

    def test_sample(self, labeled_file, tmp_path):
        out = tmp_path / "sampled.jsonl"
        code = main(
            [
                "sample", str(labeled_file), "--total", "15", "--out", str(out),
                "--proportions", '{"Research":0.4,"Slides":0.2,"Thesis":0.4}',
            ]
        )
        assert code == 0
        with open(out) as handle:
            picked = read_examples(handle)
        assert len(picked) == 15

    def test_sample_bad_proportions_exit_one(self, labeled_file, tmp_path):
        code = main(
            [
                "sample", str(labeled_file), "--total", "10",
                "--proportions", '{"Research":0.5,"Slides":0.2,"Thesis":0.2}',
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1


def with_byte_order_mark(path):
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return path


class TestByteOrderMark:
    """Every input file accepts a UTF-8 byte order mark at its start."""

    def test_pipeline_config(self, labeled_file, tmp_path, capsys):
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 3, "paths": {"labeled": str(labeled_file), "output_dir": str(out)},
            "proportions": {"Research": 0.4, "Slides": 0.3, "Thesis": 0.3},
            "sample_total": 60, "k_folds": 3,
            "sweep": {"kinds": ["gnb", "adaboost"], "grids": {"adaboost": [{"rounds": 5}]}},
        }))
        assert main(["pipeline", "--config", str(config)]) == 0
        plain = {path.name: path.read_bytes() for path in out.iterdir()}
        shutil.rmtree(out)
        with_byte_order_mark(config)
        assert main(["pipeline", "--config", str(config)]) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == plain
        assert len(plain) == 6

    def test_model_file(self, labeled_file, tmp_path):
        model = tmp_path / "model.json"
        assert main(["train", str(labeled_file), "--kind", "adaboost", "--out", str(model)]) == 0
        features = tmp_path / "features.jsonl"
        features.write_text(json.dumps({"id": "q", "f1": 2, "f2": 900, "f3": 9, "f4": 100.0}) + "\n")
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        assert main(["predict", str(model), str(features), "--out", str(plain)]) == 0
        with_byte_order_mark(model)
        assert main(["predict", str(model), str(features), "--out", str(marked)]) == 0
        assert marked.read_bytes() == plain.read_bytes()
        assert json.loads(plain.read_text())["doc_id"] == "q"

    @pytest.mark.parametrize("command", ["extract", "label"])
    def test_records(self, command, records_file, tmp_path, capsys):
        plain = tmp_path / "plain.jsonl"
        assert main([command, str(records_file), "--out", str(plain)]) == 0
        marked = tmp_path / "marked.jsonl"
        with_byte_order_mark(records_file)
        assert main([command, str(records_file), "--out", str(marked)]) == 0
        assert marked.read_bytes() == plain.read_bytes()
        assert capsys.readouterr().err.count(" 3 ") == 2

    def test_labeled_rows(self, labeled_file, tmp_path):
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        argv = ["sample", str(labeled_file), "--total", "30", "--out"]
        assert main([*argv, str(plain)]) == 0
        with_byte_order_mark(labeled_file)
        assert main([*argv, str(marked)]) == 0
        assert marked.read_bytes() == plain.read_bytes()
        assert len(plain.read_text().splitlines()) == 30

    @pytest.mark.parametrize("marked", [("log",), ("predictions",), ("log", "predictions")])
    def test_click_log_and_predictions(self, marked, tmp_path, capsys):
        line = {
            "engine": "search",
            "query_id": "q1",
            "impressions": [{"doc_id": "a", "position": 1}],
            "clicks": [{"doc_id": "a", "position": 1}],
        }
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(line) + "\n")
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(json.dumps({"doc_id": "a", "doc_type": "Thesis", "scores": {}}) + "\n")
        for name in marked:
            with_byte_order_mark(tmp_path / f"{name}.jsonl")
        out = tmp_path / "report.json"
        code = main(["engagement", str(log), "--predictions", str(predictions), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["engines"]["search"]["types"]["Thesis"]["qtctr_any"] == 1.0
        assert capsys.readouterr().err == "engagement: 1 events, 0 rejected\n"


class TestSampleSize:
    def test_reference(self, capsys):
        assert main(["samplesize", "--z", "1.96", "--p", "0.5", "--c", "0.01"]) == 0
        assert capsys.readouterr().out.strip() == "9604"

    def test_machine_format(self, capsys):
        assert main(["samplesize", "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sample_size"] == 9604

    def test_bad_interval(self, capsys):
        assert main(["samplesize", "--c", "0"]) == 1

    @pytest.mark.parametrize("flags", [["--z", "inf"], ["--p", "nan"], ["--c", "1e-200"]])
    def test_non_finite_value_exits_one(self, flags, capsys):
        assert main(["samplesize", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTrainPredict:
    def test_train_writes_no_model_that_cannot_load(self, labeled_file, tmp_path, monkeypatch, capsys):
        # a baseline-random model with a negative seed cannot be scored
        model = train("baseline-random", toy_dataset(10, seed=2))
        unloadable = dataclasses.replace(model, seed=-1)
        monkeypatch.setattr(cli, "train", lambda *args: unloadable)
        out = tmp_path / "model.json"
        argv = ["train", str(labeled_file), "--kind", "baseline-random", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: malformed baseline-random parameters")
        assert list(tmp_path.iterdir()) == [labeled_file]  # no model file, no temp file

    def test_train_then_predict(self, labeled_file, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = main(
            [
                "train", str(labeled_file), "--kind", "random-forest",
                "--hyperparameters", '{"n_trees": 5, "max_depth": 3}',
                "--seed", "3", "--out", str(model_path),
            ]
        )
        assert code == 0

        features = tmp_path / "features.jsonl"
        rows = [
            {"id": "q1", "f1": 1, "f2": 70000, "f3": 200, "f4": 350.0},
            {"id": "q2", "f1": None, "f2": 100, "f3": 1, "f4": 100.0},
        ]
        features.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "predictions.jsonl"
        assert main(["predict", str(model_path), str(features), "--out", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["doc_id"] == "q1"
        assert lines[0]["doc_type"] in {"Research", "Slides", "Thesis"}
        # a null f1 is filled by the model's imputer, as a row holding the fill
        fill = apply_imputer(load_model(model_path).imputer, [[math.nan, 100, 1, 100.0]])[0, 0]
        features.write_text(json.dumps({**rows[1], "f1": fill}) + "\n")
        assert main(["predict", str(model_path), str(features), "--out", str(out)]) == 0
        assert [json.loads(out.read_text())] == lines[1:]
        err = capsys.readouterr().err
        assert "0 errors" in err and "ms/row" in err

    def test_non_finite_features_give_error_rows(self, labeled_file, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        args = ["train", str(labeled_file), "--kind", "gnb", "--transform", "log-scale"]
        assert main(args + ["--out", str(model_path)]) == 0
        features = tmp_path / "features.jsonl"
        rows = [
            {"id": "ok", "f1": 1, "f2": 5000, "f3": 10, "f4": 500.0},
            {"id": "nan", "f1": 1, "f2": float("nan"), "f3": 10, "f4": 500.0},
            {"id": "inf", "f1": 1, "f2": 5000, "f3": float("inf"), "f4": 500.0},
            {"id": "negative", "f1": 1, "f2": -5, "f3": 10, "f4": 500.0},
        ]
        features.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "predictions.jsonl"
        assert main(["predict", str(model_path), str(features), "--out", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert "doc_type" in lines[0]
        assert [set(line) for line in lines[1:]] == [{"doc_id", "error"}] * 3
        assert [line["doc_id"] for line in lines[1:]] == ["nan", "inf", "negative"]
        assert "f2 must be a finite number, got nan" in lines[1]["error"]
        assert "f3 must be a finite number, got inf" in lines[2]["error"]
        assert "f2 = -5.0 is not finite after the log-scale transform" in lines[3]["error"]
        assert "1 rows, 3 errors" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, errors", [("gnb", ["huge", "limit"]), ("linear-svm", ["limit"])])
    def test_scores_that_are_not_finite_give_error_rows(self, kind, errors, tmp_path, capsys):
        # finite features whose scores overflow to NaN: JSON has no NaN, so
        # such a row is an error row and no numpy warning reaches stderr
        src, model_path = tmp_path / "synth.jsonl", tmp_path / "model.json"
        assert main(["synth", "--n", "200", "--seed", "3", "--out", str(src)]) == 0
        assert main(["train", str(src), "--kind", kind, "--out", str(model_path)]) == 0
        features, out = tmp_path / "features.jsonl", tmp_path / "predictions.jsonl"
        rows = [
            {"id": "huge", "f1": 2, "f2": 1e200, "f3": 10, "f4": 1e199},
            {"id": "limit", "f1": 2, "f2": 1.7e308, "f3": 1e-300, "f4": 1.7e308},
            {"id": "ok", "f1": 2, "f2": 5000, "f3": 10, "f4": 500.0},
        ]
        features.write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        assert main(["predict", str(model_path), str(features), "--out", str(out)]) == 0

        def refuse(constant):
            raise AssertionError(f"{constant} written")

        lines = [json.loads(line, parse_constant=refuse) for line in out.read_text().splitlines()]
        assert [line["doc_id"] for line in lines] == ["huge", "limit", "ok"]
        for line in lines:
            if line["doc_id"] in errors:
                assert set(line) == {"doc_id", "error"}
                assert line["error"].startswith("Out of range float values are not JSON compliant")
            else:
                assert set(line) == {"doc_id", "doc_type", "scores"}
        err = capsys.readouterr().err
        assert re.fullmatch(rf"predict: {3 - len(errors)} rows, {len(errors)} errors, [0-9.]+ ms/row mean\n", err)

    def test_malformed_rows_give_error_rows_that_say_why(self, labeled_file, tmp_path, capsys):
        # a missing key is named as read_json_lines names it in a labeled file
        model_path = tmp_path / "model.json"
        assert main(["train", str(labeled_file), "--kind", "gnb", "--out", str(model_path)]) == 0
        features, out = tmp_path / "features.jsonl", tmp_path / "predictions.jsonl"
        features.write_text('{"id": "a", "f1": 1, "f2": 5000, "f3": 10}\n[1]\n"row"\n')
        assert main(["predict", str(model_path), str(features), "--out", str(out)]) == 0
        assert [json.loads(line) for line in out.read_text().splitlines()] == [
            {"doc_id": "a", "error": "missing field 'f4'"},
            {"doc_id": None, "error": "a feature row must be a JSON object"},
            {"doc_id": None, "error": "a feature row must be a JSON object"},
        ]
        assert "0 rows, 3 errors" in capsys.readouterr().err
        labeled = tmp_path / "labeled.jsonl"
        labeled.write_text('{"id": "a", "f1": 1, "f2": 5000, "f3": 10, "f4": 500.0}\n')
        assert main(["train", str(labeled), "--kind", "gnb"]) == 2
        assert capsys.readouterr().err == f"error: {labeled} line 1: missing field 'label'\n"

    def test_mistyped_feature_rows_give_error_rows(self, labeled_file, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", str(labeled_file), "--kind", "gnb", "--out", str(model_path)]) == 0
        features = tmp_path / "features.jsonl"
        rows = [
            {"id": "ok", "f1": 1, "f2": 5000, "f3": 10, "f4": 500.0},
            {"id": "a", "f1": "3", "f2": "1200", "f3": True, "f4": 400},
            {"id": "b", "f1": 1, "f2": 5000, "f3": True, "f4": 500.0},
            {"id": 7, "f1": 1, "f2": 5000, "f3": 10, "f4": 500.0},
        ]
        features.write_text("".join(json.dumps(r) + "\n" for r in rows) + "[" * 20000 + "\n")
        out = tmp_path / "predictions.jsonl"
        assert main(["predict", str(model_path), str(features), "--out", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["doc_id"] == "ok" and "doc_type" in lines[0]
        assert lines[1:4] == [
            {"doc_id": "a", "error": "f1 must be a finite number, got '3'"},
            {"doc_id": "b", "error": "f3 must be a finite number, got True"},
            {"doc_id": 7, "error": "id must be a string, got 7"},
        ]
        assert lines[4]["doc_id"] is None and "recursion" in lines[4]["error"]
        assert "1 rows, 4 errors" in capsys.readouterr().err
        # Error rows are skipped when the predictions file types a log.
        log = tmp_path / "log.jsonl"
        event = {"engine": "search", "query_id": "q", "impressions": [{"doc_id": "ok", "position": 1}]}
        log.write_text(json.dumps(event) + "\n")
        assert main(["engagement", str(log), "--predictions", str(out)]) == 0

    def test_malformed_labeled_line_exit_two(self, labeled_file, tmp_path, capsys):
        lines = labeled_file.read_text().splitlines(keepends=True)
        lines.insert(4, '{"id": "broken", "f1": 1,\n')
        labeled_file.write_text("".join(lines))
        code = main(["train", str(labeled_file), "--kind", "gnb", "--out", str(tmp_path / "m")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {labeled_file} line 5: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["random-forest", "gnb"])
    @pytest.mark.parametrize("value", ['"abc"', "NaN", "true"])
    def test_bad_feature_value_exit_two_without_model(self, kind, value, tmp_path, capsys):
        src = tmp_path / "synth.jsonl"
        assert main(["synth", "--n", "60", "--seed", "2", "--out", str(src)]) == 0
        lines = src.read_text().splitlines(keepends=True)
        row = json.loads(lines[3])
        lines[3] = lines[3].replace(f'"f2": {json.dumps(row["f2"])}', f'"f2": {value}')
        src.write_text("".join(lines))
        model_path = tmp_path / "model.json"
        code = main(["train", str(src), "--kind", kind, "--out", str(model_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src} line 4: f2 must be a finite number, got ")
        assert "Traceback" not in err
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "kind, flags, f2, error",
        [
            *(
                pytest.param(
                    kind, ["--transform", "log-scale"], [-5],
                    "example synth-000003: feature f2 = -5.0 "
                    "is not finite after the log-scale transform",
                    id=kind,
                )
                for kind in ("knn", "gnb", "random-forest")
            ),
            # a fit that overflows gives parameters its predictor rejects
            pytest.param(
                "linear-svm", ["--hyperparameters", '{"step": 1e308}'], [],
                "linear-svm fit gave unusable parameters: weights must be 3 x 4 finite numbers",
                id="linear-svm-overflow",
            ),
            pytest.param(
                "gnb", [], [1.5e308, 1.6e308],
                "gnb fit gave unusable parameters: means must be 3 x 4 finite numbers",
                id="gnb-overflow",
            ),
        ],
    )
    def test_value_not_finite_after_transform_exit_two_without_model(
        self, kind, flags, f2, error, tmp_path, capsys
    ):
        src = tmp_path / "synth.jsonl"
        assert main(["synth", "--n", "60", "--seed", "2", "--out", str(src)]) == 0
        rows = [json.loads(line) for line in src.read_text().splitlines()]
        for row, value in zip(rows[3:], f2):
            row["f2"] = value
        src.write_text("".join(json.dumps(row) + "\n" for row in rows))
        model_path = tmp_path / "model.json"
        argv = ["train", str(src), "--kind", kind, *flags, "--out", str(model_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not model_path.exists()

    def test_z_score_fit_that_overflows_says_only_its_error(self, tmp_path, capsys):
        # ±1.7e308 in turn: the z-score mean and std overflow, and so do the
        # transformed values, which the fit refuses by name
        src, model_path = tmp_path / "huge.jsonl", tmp_path / "model.json"
        with open(src, "w", encoding="utf-8") as handle:
            write_examples(handle, [
                dataclasses.replace(ex, features=dataclasses.replace(
                    ex.features, f2_total_words=1.7e308 if i % 2 else -1.7e308))
                for i, ex in enumerate(toy_dataset(5))
            ])
        assert main(["train", str(src), "--kind", "gnb", "--transform", "z-score", "--out", str(model_path)]) == 2
        assert capsys.readouterr() == (
            "", "error: example toy-1: feature f2 = 1.7e+308 is not finite after the z-score transform\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.jsonl"]

    def test_undecodable_features_line_gives_error_row(self, labeled_file, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", str(labeled_file), "--kind", "gnb", "--out", str(model_path)]) == 0
        features = tmp_path / "features.jsonl"
        good = json.dumps({"id": "ok", "f1": 1, "f2": 5000, "f3": 10, "f4": 500.0})
        features.write_bytes(good.encode() + b'\n{"id": "\xff"}\n')
        out = tmp_path / "predictions.jsonl"
        assert main(["predict", str(model_path), str(features), "--out", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert "doc_type" in lines[0]
        assert lines[1]["doc_id"] is None and "utf-8" in lines[1]["error"]

    def test_malformed_model_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        features = tmp_path / "f.jsonl"
        features.write_text("")
        for payload in (b"{oops", b"\xff\xfe{", b"[" * 100000):
            bad.write_bytes(payload)
            assert main(["predict", str(bad), str(features)]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        # parsed files whose stored parameters cannot be scored with
        features.write_text(json.dumps({"id": "a", "f1": 2, "f2": 5000, "f3": 10, "f4": 500.0}) + "\n")
        out = tmp_path / "predictions.jsonl"
        payloads = []
        for kind, transform, corrupt in CORRUPTED_MODELS:
            payload = json.loads(train(kind, toy_dataset(10, seed=2), transform=transform).to_json())
            corrupt(payload["parameters"], payload["transform"])
            payloads.append((kind, payload))
        # a seed that is not a JSON integer
        payload = json.loads(train("baseline-random", toy_dataset(10, seed=2), seed=7).to_json())
        payloads += [(f"seed {seed!r}", {**payload, "seed": seed}) for seed in ("7", True)]
        # stored imputers that cannot fill a row, and a version-1 file
        payload = json.loads(train("gnb", toy_dataset(10, seed=2)).to_json())
        imputer, coef = payload["imputer"], payload["imputer"]["coef"]
        payloads += [
            (f"imputer {bad!r}", {**payload, "imputer": bad})
            for bad in (
                {**imputer, "coef": [math.nan, *coef[1:]]},
                {**imputer, "coef": [*coef[:-1], math.inf]},
                {**imputer, "coef": [True, *coef[1:]]},
                {**imputer, "coef": coef[:-1]},
                {**imputer, "lo": imputer["hi"] + 1},
                None,
            )
        ]
        without_f1 = train("gnb", toy_dataset(10, seed=2), features=("f2", "f3"))
        without_f1 = json.loads(without_f1.to_json())
        payloads += [
            ("imputer without f1", {**without_f1, "imputer": {**imputer, "coef": coef[:2]}}),
            ("no imputer key", {k: v for k, v in payload.items() if k != "imputer"}),
            ("version 1", {**payload, "format_version": 1}),
        ]
        payload = json.loads(train("gnb", toy_dataset(10, seed=2), transform="log-scale").to_json())
        payloads.append(("log of a fill of -1", {**payload, "imputer": {**imputer, "lo": -1}}))
        # a decision tree with a boolean feature or child id, or a leaf that
        # names a feature (True == 1 and False == 0 in Python)
        payload = json.loads(train("decision-tree", toy_dataset(10, seed=2)).to_json())
        columns = payload["parameters"]["trees"]
        leaf = columns["feature"].index(-1)
        for at, field, value in ((0, "feature", True), (0, "feature", False), (0, "left", True),
                                 (leaf, "feature", -2)):
            wrong = {**columns, field: [*columns[field][:at], value, *columns[field][at + 1 :]]}
            payloads.append((f"node {at} {field} {value!r}",
                             {**payload, "parameters": {**payload["parameters"], "trees": wrong}}))
        # columns and sizes that do not describe the same nodes
        sizes = payload["parameters"]["sizes"]
        payloads += [
            (f"sizes {wrong!r}", {**payload, "parameters": {**payload["parameters"], "sizes": wrong}})
            for wrong in ([], [-1, sizes[0] + 1], [sizes[0] - 1], [sizes[0] + 1])
        ]
        payloads += [
            (f"short {field}", {**payload, "parameters": {
                **payload["parameters"], "trees": {**columns, field: columns[field][:-1]}}})
            for field in columns
        ]
        payloads.append(("trees not an object", {**payload, "parameters": {"trees": [], "sizes": sizes}}))
        for kind, payload in payloads:
            bad.write_text(json.dumps(payload))
            assert main(["predict", str(bad), str(features), "--out", str(out)]) == 2, kind
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not out.exists()


    def test_corrupted_models_cover_every_kind(self):
        assert {kind for kind, _, _ in CORRUPTED_MODELS} == set(KINDS)

    def test_boolean_class_code_names_column(self, tmp_path, capsys):
        # kNN class codes are read as trees' integer columns are
        payload = json.loads(train("knn", toy_dataset(10, seed=2)).to_json())
        train_y = payload["parameters"]["train_y"]
        train_y[0] = True
        bad, features = tmp_path / "bad.json", tmp_path / "f.jsonl"
        bad.write_text(json.dumps(payload))
        features.write_text("")
        assert main(["predict", str(bad), str(features)]) == 2
        expected = "error: malformed knn parameters: train_y must be n integers\n"
        assert capsys.readouterr().err == expected

    def test_version_two_model_exit_two(self, tmp_path, capsys):
        # a model file of the format before trees were stored as columns
        payload = json.loads(train("decision-tree", toy_dataset(10, seed=2)).to_json())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**payload, "format_version": 2}))
        features = tmp_path / "f.jsonl"
        features.write_text(json.dumps({"id": "a", "f1": 2, "f2": 5000, "f3": 10, "f4": 500.0}) + "\n")
        out = tmp_path / "predictions.jsonl"
        assert main(["predict", str(bad), str(features), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: model format version 2 is not supported (this build reads version 4)\n"
        assert not out.exists()

    def test_version_three_model_exit_two(self, tmp_path, capsys):
        # a kNN file of the format before its rows were stored as base64 bytes
        model = train("knn", toy_dataset(10, seed=2))
        payload = json.loads(model.to_json())
        X = dataset_matrix(toy_dataset(10, seed=2))[0]
        rows = apply_transform(model.transform, apply_imputer(model.imputer, X))
        payload["parameters"]["train_x"] = rows.tolist()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**payload, "format_version": 3}))
        features = tmp_path / "f.jsonl"
        features.write_text(json.dumps({"id": "a", "f1": 2, "f2": 5000, "f3": 10, "f4": 500.0}) + "\n")
        assert main(["predict", str(bad), str(features)]) == 2
        err = capsys.readouterr().err
        assert err == "error: model format version 3 is not supported (this build reads version 4)\n"

    def test_repeated_feature_model_exit_two(self, tmp_path, capsys):
        payload = json.loads(train("gnb", toy_dataset(10, seed=2), features=("f2", "f3")).to_json())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**payload, "features": ["f2", "f2"]}))
        features = tmp_path / "f.jsonl"
        features.write_text(json.dumps({"id": "a", "f1": 2, "f2": 5000, "f3": 10, "f4": 500.0}) + "\n")
        assert main(["predict", str(bad), str(features)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid feature list: ('f2', 'f2');")


class TestOtherCommands:
    def test_thresholds(self, labeled_file, tmp_path):
        out = tmp_path / "thresholds.json"
        assert main(["thresholds", str(labeled_file), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["bounds"]) == {"Research", "Slides", "Thesis"}

    @pytest.mark.parametrize("f2, levels, bounds", OVERFLOWING_CELLS, ids=["fences", "bound"])
    def test_thresholds_overflowing_cell_exit_zero(self, f2, levels, bounds, tmp_path, capsys):
        labeled = tmp_path / "labeled.jsonl"
        with open(labeled, "w") as handle:
            write_examples(handle, overflow_rows(f2))
        out = tmp_path / "thresholds.json"
        flags = ["--quantile-lo", str(levels[0]), "--quantile-hi", str(levels[1])]
        assert main(["thresholds", str(labeled), *flags, "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert json.loads(out.read_text())["bounds"]["Research"]["f2"] == list(bounds)

    def test_evaluate_human(self, labeled_file, capsys):
        code = main(
            ["evaluate", str(labeled_file), "--kind", "knn", "--k", "3",
             "--hyperparameters", '{"k": 1}']
        )
        assert code == 0
        assert "mean weighted F1" in capsys.readouterr().out

    def test_sweep_machine(self, labeled_file, capsys):
        code = main(
            ["sweep", str(labeled_file), "--kind", "knn", "--k", "3",
             "--grid", '[{"k": 1}, {"k": 3}]', "--format", "machine"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["entries"]) == 6  # 2 points x 3 transforms

    def test_synth(self, tmp_path):
        out = tmp_path / "synth.jsonl"
        assert main(["synth", "--n", "100", "--seed", "3", "--out", str(out)]) == 0
        with open(out) as handle:
            examples = read_examples(handle)
        assert len(examples) == 100

    def test_ablation(self, labeled_file, capsys):
        code = main(["ablation", str(labeled_file), "--kinds", "gnb", "--k", "3"])
        assert code == 0
        assert "f1+f2+f3+f4" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kinds, error",
        [
            (",", "error: ablation kinds must be non-empty\n"),
            ("gnb,gnb", "error: ablation kinds must not repeat an entry, got ['gnb', 'gnb']\n"),
        ],
        ids=["empty", "repeated"],
    )
    def test_ablation_rejects_empty_or_repeated_kinds(self, kinds, error, labeled_file, capsys):
        assert main(["ablation", str(labeled_file), "--kinds", kinds, "--k", "3"]) == 1
        assert capsys.readouterr() == ("", error)


def synthetic_file(tmp_path, blank_share: float):
    """A fixed 400-row synthetic labeled file, f1 blanked on about ``blank_share`` of rows."""
    path = tmp_path / "synthetic.jsonl"
    with open(path, "w") as handle:
        write_examples(handle, blank_f1(generate_synthetic(400, DEFAULT_PROPORTIONS, 7), blank_share, 7))
    return path


#: (flags, sha256 of ``doctype thresholds`` stdout) over ``synthetic_file``
#: with a fifth of f1 blanked, recorded when the command printed
#: ``ThresholdTable.to_dict()``
PINNED_THRESHOLDS_BYTES = [
    ([], "2f76118b6d1eaceab5fc7a37d2e54116365a1e24c5ab227efa4b756637cfcf25"),
    (["--quantile-lo", "0.1", "--quantile-hi", "0.8"],
     "1c7273af5952865379ad357270afa33e51ac37209ee349dc4c1804de5d621200"),
]


class TestThresholdTable:
    @pytest.mark.parametrize("flags, digest", PINNED_THRESHOLDS_BYTES, ids=["default", "0.1-0.8"])
    def test_stdout_keeps_its_bytes(self, flags, digest, tmp_path, capsys):
        assert main(["thresholds", str(synthetic_file(tmp_path, 0.2)), *flags]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_printed_table_is_the_stored_table(self, tmp_path, capsys):
        # no f1 is missing, so train's f1 fill changes no row
        path = synthetic_file(tmp_path, 0.0)
        assert main(["thresholds", str(path), "--quantile-lo", "0.1", "--quantile-hi", "0.8"]) == 0
        printed = json.loads(capsys.readouterr().out)
        with open(path) as handle:
            rows = read_examples(handle)
        model = train("baseline-threshold", rows, {"quantile_lo": 0.1, "quantile_hi": 0.8})
        assert printed == json.loads(model.to_json())["parameters"]["table"]
        assert sorted(printed) == sorted(_TABLE_KEYS)


#: (arguments, sha256 of stdout in ``--format human`` and ``machine``) of
#: the report commands over ``synthetic_file`` with a fifth of f1 blanked,
#: with ``--k 4``; recorded when each report was a dataclass with a
#: ``to_dict``
PINNED_REPORT_BYTES = [
    (["sweep", "--kind", "knn"],
     "fc19708e18c029da49cc381dd12665375a52accba1d6bb4e62dc4d29a20acadb",
     "8ffb9eff7582a6c24722106f5a511832c3ccbc079e24a05597bd15104fd25493"),
    (["sweep", "--kind", "random-forest"],
     "fb155bac546b685170e02eb4965006f1810a9f1471a12b34782d49b5670be07d",
     "a4be110d392631478f4f197727c38767179c79ab88b21d51bf87018f41b628bf"),
    (["evaluate", "--kind", "adaboost"],
     "8ab5f9548a5d542928d159d13f16a997f143c3aa4ea0eb7dd1816de80ca494b3",
     "4ab2379d6459995de254f9782dc3ea1424c2a0fe9c56ff23f2a6bd5ad2b1f27a"),
    (["evaluate", "--kind", "gnb", "--transform", "log-scale"],
     "2d2c3fdedc6b6fef50a3d0c2f5b463c85eb40cf5e9b7cd667e3ef5b6ca7207da",
     "3cccbe4f8b65908def8685808bae5827c1b2fb7a3d884721482a23215d24d9ad"),
    (["ablation", "--kinds", "gnb,decision-tree"],
     "d09bb5589585301c838ff91a846f5bff35c3bb7ad1f2b1a6c7daf2199207ae1d",
     "412baeed244000fd9e206509c92313f579b6a1bd6ebfde91ece7aa6dc52ab97a"),
]

#: sha256 of a three-kind pipeline's sweep results, manifest and stderr
#: line over the same file, recorded with ``PINNED_REPORT_BYTES``
PINNED_PIPELINE_REPORT_BYTES = {
    "sweep_results.json": "4c1006039cb5644a6cd039ec9b23e17043e2e533ea4119241dcad0fa7eaa4ae9",
    "manifest.json": "a75b94593085656f826a30fd6cbd5b49b9e96bcfca558a3decfb06f9e86f26d9",
    "stderr": "df4ecec9f46f20209b74b9833ca2441a58e0ecf98e6b0578e6cbd60108317216",
}


class TestReportBytes:
    @pytest.mark.parametrize("arguments, human, machine", PINNED_REPORT_BYTES,
                             ids=lambda value: "-".join(value) if isinstance(value, list) else "")
    def test_stdout_keeps_its_bytes(self, arguments, human, machine, tmp_path, capsys):
        path = str(synthetic_file(tmp_path, 0.2))
        digests = []
        for form in ("human", "machine"):
            assert main([*arguments, path, "--k", "4", "--format", form]) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert digests == [human, machine]

    def test_pipeline_keeps_its_bytes(self, tmp_path, monkeypatch, capsys):
        # relative paths keep the config hash, which the reports carry, fixed
        monkeypatch.chdir(tmp_path)
        synthetic_file(tmp_path, 0.2)
        config = {"seed": 3, "k_folds": 4, "sweep": {"kinds": ["gnb", "knn", "decision-tree"]},
                  "paths": {"labeled": "synthetic.jsonl", "output_dir": "out"}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["pipeline", "--config", "config.json"]) == 0
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in ("sweep_results.json", "manifest.json")}
        digests["stderr"] = hashlib.sha256(capsys.readouterr().err.encode()).hexdigest()
        assert digests == PINNED_PIPELINE_REPORT_BYTES



#: (argv, sha256 of stdout) of each command that reads a value from
#: ``--config``, once from ``CONFIGURED`` alone and once with each flag
#: that overrides one of its values, over ``synthetic_file`` with a fifth
#: of f1 blanked; recorded when the config was a dataclass
CONFIGURED = {"seed": 13, "proportions": {"Research": 0.5, "Slides": 0.2, "Thesis": 0.3},
              "quantiles": {"lo": 0.05, "hi": 0.9}}
PROPORTIONS_FLAG = ["--proportions", '{"Research": 0.6, "Slides": 0.1, "Thesis": 0.3}']
PINNED_CONFIGURED_BYTES = [
    (["sample", "LABELED", "--total", "60"],
     "b2efe274cd308323fc8d1708cf3dbff59220a55faf816d4ceff759cffc13cb8c"),
    (["sample", "LABELED", "--total", "60", "--seed", "2"],
     "c1061672493d31dfdd5f49b5b0d461db80410305d5408759b33c37b1c78b8dc4"),
    (["sample", "LABELED", "--total", "60", *PROPORTIONS_FLAG],
     "d3486d9c15f479c36c754a4996172ce4007fc9b6aadc23f5ef11352af94132b2"),
    (["synth", "--n", "30"],
     "1431ca46e9c8e8902053a238a62743c16169dc44706a9dc410ac52645bed284d"),
    (["synth", "--n", "30", "--seed", "2"],
     "5725703617e6e43cd87ca2ac12672c8ac952469d2dc9573d153300f6f0941ae4"),
    (["synth", "--n", "30", *PROPORTIONS_FLAG],
     "91dfc86294677d225568c94c852f47f689cb6157cca4d8d4664515fb6c671358"),
    (["thresholds", "LABELED"],
     "f535ffbdc315f4b41f8f1c439bf7f942dc0ad5e7840176769c8024f7c9e8789a"),
    (["thresholds", "LABELED", "--quantile-lo", "0.1"],
     "4db47e1f89be412ba5e7a1de04534dd5f57ac0efe62a8f00424c79ec439163ba"),
    (["thresholds", "LABELED", "--quantile-hi", "0.8"],
     "2bc8020af1fb07b0e0378572d290dd2665810a063149a04ce53671c3c28fdf1f"),
]

#: sha256 of ``predict`` stdout and of its stderr with the ms/row figure
#: masked, and the exit code, for a seeded forest over feature rows that
#: include a null f1, bad values and a line that is not JSON; stdout
#: re-recorded when a missing key became "missing field 'f4'" and a
#: non-object row "a feature row must be a JSON object"
PINNED_PREDICT_BYTES = {"stdout": "a7c4caef808608c5750c649bebcc8846f273f0c9b63346b1abb03f9fa8027383",
                        "stderr": "a6716f2babd46fe577318bb00634e64d733f5fcdb7117fd15ce13792ec1385f3", "exit": 0}


class TestConfiguredBytes:
    @pytest.mark.parametrize("argv, digest", PINNED_CONFIGURED_BYTES, ids=[
        f"{command}{flag}" for command in ("sample", "synth") for flag in ("", "-seed", "-proportions")
    ] + ["thresholds", "thresholds-lo", "thresholds-hi"])
    def test_stdout_keeps_its_bytes(self, argv, digest, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIGURED))
        labeled = str(synthetic_file(tmp_path, 0.2))
        assert main([labeled if a == "LABELED" else a for a in argv] + ["--config", str(config)]) == 0
        out, err = capsys.readouterr()
        assert (sha256(out.encode()), err) == (digest, "")

    def test_predict_keeps_its_bytes(self, tmp_path, capsys):
        labeled, model = synthetic_file(tmp_path, 0.2), tmp_path / "model.json"
        assert main(["train", str(labeled), "--kind", "random-forest", "--seed", "3",
                     "--hyperparameters", '{"n_trees": 5, "max_depth": 3}', "--out", str(model)]) == 0
        rows = labeled.read_text().splitlines()[:12]
        bad = [{"id": "x1", "f1": 1, "f2": "many", "f3": 2, "f4": 3.0}, {"id": 7, "f1": 1, "f2": 1, "f3": 1, "f4": 1},
               {"id": "x3", "f1": None, "f2": 900, "f3": 3}]
        features = tmp_path / "features.jsonl"
        features.write_text("\n".join([*rows, *map(json.dumps, bad), "{", "", "[1]"]) + "\n")
        code = main(["predict", str(model), str(features)])
        out, err = capsys.readouterr()
        err = re.sub(r"\d+\.\d{3} ms/row", "X ms/row", err)
        assert {"stdout": sha256(out.encode()), "stderr": sha256(err.encode()), "exit": code} == PINNED_PREDICT_BYTES

#: sha256 of ``extract`` and ``label`` stdout (the same bytes as the file
#: each writes with ``--out``) and of the stderr lines each prints, and the
#: exit code, over ``write_seeded_records``' file of 40 records; and of the
#: ``model.json`` of a pipeline run from that file, with its manifest's
#: counts. Recorded when ``parse_records`` still held every record's pages
#: before any feature was computed.
PINNED_INGEST_BYTES = {
    "extract": {"stdout": "b8942d2a76a935777ab30ddc00d3dd69506a51df016b0d6fa8351a0d697b3e8b",
                "stderr": "de27c8585112600ecca64bec9bd4d3d99966fbbedf8d6785feaa8bcbdea1c907", "exit": 0},
    "label": {"stdout": "db816b3e6c78ef347994c9a6ecbef24ed42412a9bb1b6f4413d5146661011b44",
              "stderr": "74e426bf78b5f5fbfb016cc710997c0a2f5c0223fb75dd6a631adc54d37d1e78", "exit": 0},
    "pipeline": {"model.json": "d20345fbb97ecaf63280f081144d0b3cdb180df8b8dec5ea26b25857ab373287",
                 "counts": {"records": 40, "records_skipped": 2, "labeled": 40,
                            "sampled": 40, "train_pool": 32, "validation": 8}},
}


class TestIngestBytes:
    @pytest.mark.parametrize("command", ["extract", "label"])
    def test_records_commands_keep_their_bytes(self, command, tmp_path, capsys):
        records, out = write_seeded_records(tmp_path), tmp_path / "out.jsonl"
        code = main([command, str(records)])
        printed = capsys.readouterr()
        assert main([command, str(records), "--out", str(out)]) == code
        assert capsys.readouterr() == ("", printed.err)
        assert out.read_bytes() == printed.out.encode()
        digests = {"stdout": sha256(printed.out.encode()), "stderr": sha256(printed.err.encode()), "exit": code}
        assert digests == PINNED_INGEST_BYTES[command]

    def _records_pipeline(self, tmp_path, monkeypatch):
        # relative paths keep the config hash, and the error's file name, fixed
        monkeypatch.chdir(tmp_path)
        config = {"seed": 11, "k_folds": 3, "paths": {"records": "records.jsonl", "output_dir": "out"},
                  "sweep": {"kinds": ["decision-tree", "gnb"], "transforms": ["identity"],
                            "grids": {"decision-tree": [{"max_depth": 2}, {"max_depth": 3}]}}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        return write_seeded_records(tmp_path)

    def test_records_pipeline_keeps_its_bytes(self, tmp_path, monkeypatch, capsys):
        self._records_pipeline(tmp_path, monkeypatch)
        assert main(["pipeline", "--config", "config.json"]) == 0
        pinned = PINNED_INGEST_BYTES["pipeline"]
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["counts"] == pinned["counts"]
        assert sha256((tmp_path / "out" / "model.json").read_bytes()) == pinned["model.json"]

    def test_undecodable_records_pipeline_exit_two(self, tmp_path, monkeypatch, capsys):
        records = self._records_pipeline(tmp_path, monkeypatch)
        raw = records.read_bytes()
        records.write_bytes(raw[:1000] + b"\xff" + raw[1000:])
        assert main(["pipeline", "--config", "config.json"]) == 2
        assert capsys.readouterr() == ("", "error: stage extract: cannot read records.jsonl: 'utf-8' "
                                           "codec can't decode byte 0xff in position 129: invalid start byte\n")
        assert not (tmp_path / "out").exists()


#: sha256 of ``engagement`` stdout in ``--format human`` and ``machine``,
#: of the ``--out`` JSON report and its ``.txt`` (the same bytes as the two
#: forms of stdout), and of the stderr line every run prints, and the exit
#: code, over ``write_click_log``'s log and predictions file; recorded when
#: the report was a dataclass with a ``to_dict`` and a ``human``
PINNED_ENGAGEMENT_BYTES = {
    "human": "64a4d8e8b9bd07736a7f291f991c9a4092859b63d2ccc19d224c1726a11896e0",
    "machine": "de320cdbc52946e25b381065034dce414a37580ee9747e2756fc4b0d293dc016",
    "json": "de320cdbc52946e25b381065034dce414a37580ee9747e2756fc4b0d293dc016",
    "txt": "64a4d8e8b9bd07736a7f291f991c9a4092859b63d2ccc19d224c1726a11896e0",
    "stderr": "ecec5f89b7942964deaf574e7cfc675e588d34cf29b4bf0e7b0de1ba0280b035",
    "exit": 0,
}


class TestEngagementCommand:
    def _log(self, tmp_path, with_types=True):
        imp = {"doc_id": "a", "position": 1}
        if with_types:
            imp["doc_type"] = "Research"
        line = {
            "engine": "search",
            "query_id": "q1",
            "impressions": [imp],
            "clicks": [{"doc_id": "a", "position": 1}],
        }
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(line) + "\n")
        return path

    def test_embedded_types(self, tmp_path):
        log = self._log(tmp_path)
        out = tmp_path / "report.json"
        assert main(["engagement", str(log), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["engines"]["search"]["types"]["Research"]["qtctr_any"] == 1.0
        assert (tmp_path / "report.txt").exists()

    def test_report_keeps_its_bytes(self, tmp_path, capsys):
        log, predictions = write_click_log(tmp_path)
        out = tmp_path / "report.json"
        digests, runs = {}, []
        for form, flags in (("human", ["--format", "human"]), ("machine", ["--format", "machine"]),
                            ("out", ["--out", str(out)])):
            code = main(["engagement", str(log), "--predictions", str(predictions), *flags])
            captured = capsys.readouterr()
            digests[form] = sha256(captured.out.encode())
            runs.append((code, sha256(captured.err.encode())))
        assert digests.pop("out") == sha256(b"") and len(set(runs)) == 1
        digests.update(json=sha256(out.read_bytes()), txt=sha256(out.with_suffix(".txt").read_bytes()))
        digests.update(exit=runs[0][0], stderr=runs[0][1])
        assert digests == PINNED_ENGAGEMENT_BYTES

    def test_out_that_is_its_own_human_report_exit_one(self, tmp_path, capsys):
        log = self._log(tmp_path)
        out = tmp_path / "report.txt"
        assert main(["engagement", str(log), "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: --out {out}: the .txt file beside it holds the human report\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]

    @pytest.mark.parametrize("flags", [[], ["--format", "machine"], ["--out", "report.json"]],
                             ids=["human", "machine", "out"])
    def test_no_valid_events_exit_two_and_write_nothing(self, flags, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        lines = [{"engine": "web", "query_id": "q1", "impressions": []},
                 {"engine": "search", "query_id": "q2", "impressions": [], "clicks": [{"doc_id": "a", "position": 1}]}]
        log = tmp_path / "log.jsonl"
        log.write_text("".join(json.dumps(line) + "\n" for line in lines) + "{not json\n")
        assert main(["engagement", str(log), *flags]) == 2
        assert capsys.readouterr() == ("", "engagement: 0 events, 3 rejected\nerror: no valid events\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]

    @pytest.mark.parametrize("flags", [[], ["--out", "report.json"]], ids=["human", "out"])
    def test_undecodable_log_exit_two_and_write_nothing(self, flags, tmp_path, monkeypatch, capsys):
        # the decode error surfaces while the report is being folded
        monkeypatch.chdir(tmp_path)
        log = self._log(tmp_path)
        log.write_bytes(log.read_bytes() * 3 + b'{"engine": "\xff"}\n')
        assert main(["engagement", str(log), *flags]) == 2
        assert capsys.readouterr() == ("", (
            f"error: cannot read {log}: 'utf-8' codec can't decode byte 0xff in position "
            f"{len(log.read_bytes()) - 4}: invalid start byte\n"
        ))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]

    def test_report_is_what_out_writes(self, tmp_path):
        log, predictions = write_click_log(tmp_path)
        out = tmp_path / "report.json"
        assert main(["engagement", str(log), "--predictions", str(predictions), "--out", str(out)]) == 0
        with open(predictions) as handle:
            typed = {row["doc_id"]: DocType.from_label(row["doc_type"]) for row in map(json.loads, handle)}
        with open(log) as handle:
            report = engagement_report(read_log_events(handle, typed).events)
        assert json.loads(out.read_text()) == report
        assert (tmp_path / "report.txt").read_text() == human_engagement(report)

    def test_join_with_predictions(self, tmp_path):
        log = self._log(tmp_path, with_types=False)
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(
            json.dumps({"doc_id": "a", "doc_type": "Thesis", "scores": {}}) + "\n"
        )
        out = tmp_path / "report.json"
        code = main(
            ["engagement", str(log), "--predictions", str(predictions), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["engines"]["search"]["types"]["Thesis"]["qtctr_any"] == 1.0

    def test_engine_without_impressions_reports_null_rqtctr(self, tmp_path, capsys):
        search = {"engine": "search", "query_id": "q0", "impressions": [], "clicks": []}
        recommender = dict(json.loads(self._log(tmp_path).read_text()), engine="recommender")
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps(search) + "\n" + json.dumps(recommender) + "\n")
        out = tmp_path / "report.json"
        assert main(["engagement", str(log), "--out", str(out)]) == 0
        engines = json.loads(out.read_text())["engines"]
        for t in ("Research", "Slides", "Thesis"):
            cell = engines["search"]["types"][t]
            assert cell["rqtctr_any"] is None and cell["rqtctr_top"] is None
            assert cell["ctr"] is None and cell["qtctr_any"] == 0.0
        assert engines["recommender"]["types"]["Research"]["rqtctr_any"] == 1.0
        human = (tmp_path / "report.txt").read_text().splitlines()
        search_research = human[human.index("search: 1 events, 1 sets, 0 impressions, 0 rejected") + 2]
        assert search_research.split() == ["Research", "nan", "0.00000", "0.00000", "nan", "nan"]
        assert capsys.readouterr().err == "engagement: 2 events, 0 rejected\n"

    def test_mistyped_reference_rejected(self, tmp_path, capsys):
        log = self._log(tmp_path)
        good = log.read_text()
        bad = json.loads(good)
        bad["clicks"][0]["doc_id"] = {"x": 1}
        log.write_text(good + json.dumps(bad) + "\n" + good)
        assert main(["engagement", str(log), "--format", "machine"]) == 0
        err = capsys.readouterr().err
        assert err == "engagement: 2 events, 1 rejected\n"

    def test_missing_doc_id_rejected(self, tmp_path, capsys):
        log = self._log(tmp_path, with_types=False)
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(
            json.dumps({"doc_id": "other", "doc_type": "Thesis", "scores": {}}) + "\n"
        )
        code = main(["engagement", str(log), "--predictions", str(predictions)])
        assert code == 2  # the only event is unresolvable
        assert "1 rejected" in capsys.readouterr().err


    def test_malformed_predictions_line_exit_two(self, tmp_path, capsys):
        log = self._log(tmp_path, with_types=False)
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(
            json.dumps({"doc_id": "a", "doc_type": "Thesis", "scores": {}})
            + "\n\n{not json\n"
        )
        code = main(["engagement", str(log), "--predictions", str(predictions)])
        assert code == 2
        assert f"error: {predictions} line 3: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, reason",
        [
            ([1, 2], "a prediction must be a JSON object, got [1, 2]"),
            ("an error", 'a prediction must be a JSON object, got "an error"'),
            (7, "a prediction must be a JSON object, got 7"),
            ({"doc_id": "a"}, "missing field 'doc_type'"),
            ({"doc_id": 5, "doc_type": "Research"}, "doc_id must be a string, got 5"),
            ({"doc_id": "a", "doc_type": ["x"]}, "unknown document type: ['x']"),
        ],
    )
    def test_bad_predictions_row_exit_two(self, tmp_path, capsys, row, reason):
        log = self._log(tmp_path, with_types=False)
        predictions = tmp_path / "predictions.jsonl"
        rows = [
            {"doc_id": None, "error": "feature f2 is missing"},
            {"doc_id": "a", "doc_type": "Thesis", "scores": {}},
            row,
        ]
        predictions.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code = main(["engagement", str(log), "--predictions", str(predictions)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {predictions} line 3: {reason}\n"


class TestUsage:
    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "LABELED", "--kind", "gnb", "--k", "1"],
            ["train", "LABELED", "--kind", "knn", "--hyperparameters", '{"k":"x"}'],
            ["train", "LABELED", "--kind", "gnb", "--transform", "bogus"],
            ["evaluate", "LABELED", "--kind", "gnb", "--k", "3", "--transform", "bogus"],
            ["sweep", "LABELED", "--kind", "knn", "--k", "3", "--grid", "5"],
            ["sweep", "LABELED", "--kind", "knn", "--k", "3", "--grid", "[]"],
            ["sweep", "LABELED", "--kind", "knn", "--k", "3", "--grid", "[5]"],
            ["thresholds", "LABELED", "--quantile-lo", "0.9", "--quantile-hi", "0.1"],
            ["synth", "--n", "5"],
            ["train", "LABELED", "--kind", "knn", "--hyperparameters", '{"k": [1]}'],
            ["train", "LABELED", "--kind", "knn", "--hyperparameters", '{"k": null}'],
            ["train", "LABELED", "--kind", "random-forest", "--hyperparameters", '{"n_trees": 2.5}'],
            ["train", "LABELED", "--kind", "random-forest", "--hyperparameters", '{"max_depth": "3"}'],
            ["train", "LABELED", "--kind", "random-forest", "--hyperparameters", '{"n_trees": [2]}'],
            ["sweep", "LABELED", "--kind", "knn", "--k", "3", "--grid", '[{"k": 1}, {"k": true}]'],
            ["train", "LABELED", "--kind", "random-forest", "--hyperparameters", '{"ntrees": 3}'],
            ["train", "LABELED", "--kind", "gnb", "--hyperparameters", '{"k": 1}'],
            ["sweep", "LABELED", "--kind", "adaboost", "--k", "3", "--grid", '[{"rounds": 2}, {"round": 3}]'],
            ["sample", "LABELED", "--total", "6", "--proportions", '{"Research": true, "Slides": 0, "Thesis": 0}'],
            ["sample", "LABELED", "--total", "6", "--proportions", '{"Research": "1", "Slides": 0, "Thesis": 0}'],
            ["sample", "LABELED", "--total", "6", "--proportions", "[1]"],
            ["synth", "--n", "6", "--proportions", '{"Research": 1, "Slides": null, "Thesis": 0}'],
            ["sweep", "LABELED", "--kind", "bogus", "--k", "3"],
            ["train", "LABELED", "--kind", "bogus"],
            ["evaluate", "LABELED", "--kind", "bogus", "--k", "3"],
            ["sweep", "LABELED", "--kind", "bogus", "--k", "3", "--grid", "[{}]"],
            ["ablation", "LABELED", "--kinds", "bogus", "--k", "3"],
            ["sample", "LABELED", "--total", "20", "--proportions",
             '{"Research": -0.5, "Slides": 1.0, "Thesis": 0.5}'],
            ["synth", "--n", "100", "--proportions", '{"Research": 0.5}'],
            ["synth", "--n", "100", "--proportions", '{"Research": 0.9, "Slides": 0.9}'],
            # nesting too deep for the JSON decoder
            ["train", "LABELED", "--kind", "gnb", "--hyperparameters", "[" * 20000],
            ["sweep", "LABELED", "--kind", "knn", "--k", "3", "--grid", "[" * 20000],
            ["sample", "LABELED", "--total", "6", "--proportions", "[" * 20000],
        ],
    )
    def test_bad_flag_value_exits_one(self, argv, labeled_file, tmp_path, capsys):
        argv = [str(labeled_file) if a == "LABELED" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_hyperparameter_named(self, labeled_file, tmp_path, capsys):
        argv = ["train", str(labeled_file), "--kind", "random-forest",
                "--hyperparameters", '{"ntrees": 3}', "--out", str(tmp_path / "model.json")]
        assert main(argv) == 1
        assert "ntrees" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "LABELED"],  # missing required flag
            ["train", "LABELED", "--kind", "gnb", "--bogus"],  # unknown flag
            ["sweep", "LABELED", "--kind", "gnb", "--format", "xml"],  # bad choice
            ["thresholds", "LABELED", "--seed", "3"],  # thresholds reads no seed
            ["extract", "LABELED", "--format", "machine"],  # extract has one format
            # only the commands that read a run config take --config
            ["extract", "LABELED", "--config", "CONFIG"],
            ["label", "LABELED", "--config", "CONFIG"],
            ["samplesize", "--config", "CONFIG"],
            ["predict", "LABELED", "LABELED", "--config", "CONFIG"],
            ["engagement", "LABELED", "--config", "CONFIG"],
            # a seed is a non-negative integer, from the flag or from a config
            ["synth", "--n", "10", "--seed", "-1"],
            ["sample", "LABELED", "--total", "5", "--seed", "-1"],
            ["train", "LABELED", "--kind", "random-forest", "--seed", "-1"],
            ["train", "LABELED", "--kind", "baseline-random", "--seed", "-1"],
            ["sweep", "LABELED", "--kind", "gnb", "--seed", "-1"],
            ["evaluate", "LABELED", "--kind", "gnb", "--seed", "-1"],
            ["ablation", "LABELED", "--kinds", "gnb", "--seed", "-1"],
            ["synth", "--n", "10", "--config", "NEGSEED"],
        ],
    )
    def test_usage_error_exits_one(self, argv, labeled_file, tmp_path, capsys):
        config, negative_seed = tmp_path / "config.json", tmp_path / "negseed.json"
        config.write_text("{}")
        negative_seed.write_text('{"seed": -1}')
        seed_error = "-1" in argv or "NEGSEED" in argv
        paths = {"LABELED": labeled_file, "CONFIG": config, "NEGSEED": negative_seed}
        argv = [str(paths.get(a, a)) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        if seed_error:
            assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_option_inventory(self):
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            (name, option)
            for name, cmd in sub.choices.items()
            for action in cmd._actions
            if action.dest != "help"
            for option in action.option_strings
        }
        assert got == OPTIONS and len(got) == 53
        keys = []
        for key, value in config_from_dict({}).items():
            nested = key in ("paths", "quantiles", "sweep")
            keys += [f"{key}.{inner}" for inner in value] if nested else [key]
        assert keys == RUN_CONFIG_KEYS
        assert [f.name for f in dataclasses.fields(Kind)] == KIND_FIELDS
        assert list(inspect.signature(train).parameters) == TRAIN_PARAMETERS
        assert list(inspect.signature(train_folds).parameters) == TRAIN_FOLDS_PARAMETERS

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["train", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_config_supplies_seed_and_proportions(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 99,
                    "proportions": {"Research": 0.5, "Slides": 0.25, "Thesis": 0.25},
                }
            )
        )
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert main(["synth", "--n", "40", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["synth", "--n", "40", "--seed", "99", "--out", str(out_b),
                     "--proportions", '{"Research":0.5,"Slides":0.25,"Thesis":0.25}']) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_flag_overrides_config_seed(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": 99}))
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert main(["synth", "--n", "40", "--config", str(cfg), "--seed", "1",
                     "--out", str(out_a)]) == 0
        assert main(["synth", "--n", "40", "--seed", "99", "--out", str(out_b)]) == 0
        assert out_a.read_text() != out_b.read_text()
