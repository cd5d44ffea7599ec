"""Command-line surface: subcommands, exit codes, and output formats."""

import json

import pytest

from doctype.cli import main
from doctype.labeling import read_examples
from doctype.models import train

from conftest import toy_dataset


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


#: (kind, transform, corrupt(parameters, transform)): model files that parse
#: but hold parameters no predictor can score with.
CORRUPTED_MODELS = [
    ("gnb", "identity", lambda p, t: p.pop("means")),
    ("gnb", "identity", lambda p, t: p.update(variances=[[-1.0] * 4, *p["variances"][1:]])),
    ("linear-svm", "identity", lambda p, t: p.update(weights=[[1.0], [2.0]])),
    ("linear-svm", "identity", lambda p, t: p.update(biases=[None, *p["biases"][1:]])),
    ("random-forest", "z-score", lambda p, t: t.update(mean=t["mean"][:2])),
    ("baseline-random", "identity", lambda p, t: p.update(weights=[0.5, 0.5])),
    ("decision-tree", "identity", lambda p, t: p["nodes"][0].update(threshold=None)),
    ("adaboost", "identity", lambda p, t: p.update(alphas=[0.0] * len(p["alphas"]))),
]


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


class TestTrainPredict:
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
        assert "error" in lines[1]
        err = capsys.readouterr().err
        assert "1 errors" in err and "ms/row" in err

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
        assert "feature f2 = nan is not finite" in lines[1]["error"]
        assert "feature f3 = inf is not finite" in lines[2]["error"]
        assert "f2 = -5.0 is not finite after the log-scale transform" in lines[3]["error"]
        assert "1 rows, 3 errors" in capsys.readouterr().err

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
        for kind, transform, corrupt in CORRUPTED_MODELS:
            payload = json.loads(train(kind, toy_dataset(10, seed=2), transform=transform).to_json())
            corrupt(payload["parameters"], payload["transform"])
            bad.write_text(json.dumps(payload))
            assert main(["predict", str(bad), str(features), "--out", str(out)]) == 2, kind
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not out.exists()


class TestOtherCommands:
    def test_split_counts(self, labeled_file, tmp_path):
        out = tmp_path / "split.json"
        assert main(["split", str(labeled_file), "--k", "3", "--validation-fraction", "0.2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["folds"]) == 3
        total = len(payload["validation"]) + sum(len(f) for f in payload["folds"])
        assert total == 90

    def test_impute_fills_missing(self, tmp_path):
        src = tmp_path / "labeled.jsonl"
        rows = [
            {"id": "a", "f1": 1, "f2": 0, "f3": 10, "f4": 0.0, "label": "Research"},
            {"id": "b", "f1": 4, "f2": 0, "f3": 40, "f4": 0.0, "label": "Research"},
            {"id": "c", "f1": None, "f2": 0, "f3": 30, "f4": 0.0, "label": "Research"},
        ]
        src.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "imputed.jsonl"
        assert main(["impute", str(src), "--out", str(out)]) == 0
        filled = [json.loads(line) for line in out.read_text().splitlines()]
        assert filled[2]["f1"] == 3

    def test_thresholds(self, labeled_file, tmp_path):
        out = tmp_path / "thresholds.json"
        assert main(["thresholds", str(labeled_file), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["bounds"]) == {"Research", "Slides", "Thesis"}

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


class TestUsage:
    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["split", "LABELED", "--k", "1"],
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
            ["impute", "LABELED", "--seed", "3"],  # impute reads no seed
            ["extract", "LABELED", "--format", "machine"],  # extract has one format
        ],
    )
    def test_usage_error_exits_one(self, argv, labeled_file, capsys):
        argv = [str(labeled_file) if a == "LABELED" else a for a in argv]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["train", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_unknown_kind_is_data_error(self, labeled_file):
        assert main(["train", str(labeled_file), "--kind", "perceptron"]) == 2

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
