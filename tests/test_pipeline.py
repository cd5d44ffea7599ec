"""Config validation and the end-to-end pipeline contract."""

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctype.cli import main
from doctype.config import config_from_dict, config_hash, load_config
from doctype.errors import ConfigError
from doctype import pipeline
from doctype.ingest import DocType
from doctype.labeling import stratified_split, write_examples
from doctype.models import predict_batch
from doctype.pipeline import run_pipeline
from doctype.seeding import derive_seed
from doctype.synthetic import generate_synthetic

from conftest import blank_f1


def build_records(tmp_path, n_research=60, n_thesis=30, n_slides=20):
    rows = []
    for i in range(n_research):
        pages = [" ".join(f"w{j}" for j in range(40 + (i * 7) % 20))] * (8 + i % 5)
        rows.append(
            {
                "id": f"res-{i}",
                "authors": ["a"] * (1 + i % 4),
                "title": f"A study number {i}",
                "subjects": ["article"],
                "pages": pages,
            }
        )
    for i in range(n_thesis):
        pages = [" ".join(f"w{j}" for j in range(70 + (i * 11) % 30))] * (18 + i % 6)
        rows.append(
            {
                "id": f"the-{i}",
                "authors": ["a"],
                "title": f"On the nature of {i}",
                "subjects": ["info:eu-repo/semantics/doctoralthesis"],
                "pages": pages,
            }
        )
    for i in range(n_slides):
        pages = [" ".join(f"w{j}" for j in range(3 + i % 4))] * (9 + i % 7)
        rows.append(
            {
                "id": f"sli-{i}",
                # half the decks have no author metadata: exercises imputation
                "authors": ["a", "b"] if i % 2 == 0 else [],
                "title": f"Presentation {i}",
                "subjects": [],
                "pages": pages,
            }
        )
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def build_config(tmp_path, records_path, out_name="out"):
    cfg = {
        "seed": 17,
        "paths": {"records": str(records_path), "output_dir": str(tmp_path / out_name)},
        "proportions": {"Research": 0.55, "Slides": 0.10, "Thesis": 0.35},
        "sample_total": 80,
        "k_folds": 4,
        "validation_fraction": 0.2,
        "sweep": {
            "kinds": ["decision-tree", "gnb"],
            "transforms": ["identity"],
            "grids": {"decision-tree": [{"max_depth": 2}, {"max_depth": 3}]},
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            config_from_dict({"proportions": {"Research": 0.5, "Slides": 0.4}})

    def test_missing_input_path(self, tmp_path):
        absent, records = tmp_path / "absent.jsonl", build_records(tmp_path)
        out = str(tmp_path / "out")
        for paths, message in (
            ({"records": absent}, f"records path does not exist: {absent}"),
            ({"labeled": absent}, f"labeled path does not exist: {absent}"),
            ({"records": absent, "labeled": records}, f"records path does not exist: {absent}"),
        ):
            config = {"paths": {"output_dir": out, **{key: str(path) for key, path in paths.items()}}}
            # only the pipeline reads paths, so the config reader takes them
            assert config_from_dict(config)["paths"]["output_dir"] == out
            with pytest.raises(ConfigError) as err:
                run_pipeline(config)
            assert str(err.value) == message
        assert not (tmp_path / "out").exists()
        # records win, so an unread labeled path need not exist
        paths = {"records": str(records), "labeled": str(absent), "output_dir": out}
        manifest = run_pipeline({"paths": paths, "k_folds": 3, "sweep": {"kinds": ["gnb"]}})
        assert manifest["counts"]["records"] == 110

    def test_synth_may_write_the_labeled_path_a_config_names(self, tmp_path, capsys):
        labeled, config = tmp_path / "labeled.jsonl", tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "paths": {"labeled": str(labeled)}}))
        assert main(["synth", "--n", "30", "--config", str(config), "--out", str(labeled)]) == 0
        assert capsys.readouterr() == ("", "")
        assert main(["synth", "--n", "30", "--seed", "3"]) == 0
        assert labeled.read_text() == capsys.readouterr().out

    def test_paths_no_stage_reads_are_ignored(self, tmp_path):
        cfg = config_from_dict({"paths": {"log": str(tmp_path / "absent.jsonl"), "model": 5}})
        assert set(cfg["paths"]) == {"records", "labeled", "output_dir"}

    def test_unknown_sweep_kind(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sweep": {"kinds": ["perceptron"]}})

    @pytest.mark.parametrize(
        "grids, message",
        [
            ({"knn": [{"k": "x"}]}, "knn hyperparameter k must be an integer >= 1"),
            ({"random-forest": [{"ntrees": 3}]}, "random-forest has no hyperparameter 'ntrees'"),
            ({"gnb": [{"k": 1}]}, "gnb has no hyperparameter 'k'"),
            ({"perceptron": [{}]}, "unknown sweep grid kind"),
            ({"knn": {"k": 1}}, "must be a list of objects"),
            ({"knn": [5]}, "must be a list of objects"),
            ({"knn": [["k", 1]]}, "must be a list of objects"),
            ([{"k": 1}], "sweep.grids must be an object"),
            # quantile levels the fit refuses, with the defaults filled in
            ({"baseline-threshold": [{"quantile_lo": 0.9, "quantile_hi": 0.1}]},
             r"sweep grid for baseline-threshold: quantile levels must satisfy 0 <= lo < hi <= 1, got \(0.9, 0.1\)"),
            ({"baseline-threshold": [{"quantile_hi": 0.01}]}, r"got \(0.025, 0.01\)"),
        ],
    )
    def test_bad_sweep_grid(self, grids, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"sweep": {"grids": grids}})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"sweep": []}, "sweep must be an object, got []"),
            ({"paths": "x"}, 'paths must be an object, got "x"'),
            ({"quantiles": [0.1]}, "quantiles must be an object, got [0.1]"),
            ({"proportions": [1]}, "proportions must be an object, got [1]"),
            ({"sweep": {"kinds": "random-forest"}},
             'sweep.kinds must be a list of strings, got "random-forest"'),
            ({"sweep": {"transforms": "identity"}},
             'sweep.transforms must be a list of strings, got "identity"'),
            ({"sample_total": "5"}, 'sample_total must be an integer or null, got "5"'),
            ({"sample_total": 2.5}, "sample_total must be an integer or null, got 2.5"),
            ({"sample_total": True}, "sample_total must be an integer or null, got true"),
            ({"seed": True}, "seed must be an integer, got true"),
            # the id keeps the name the case had when it matched a prefix of the message
            pytest.param({"seed": "5"}, 'seed must be an integer, got "5"',
                         id="payload10-seed must be an integer"),
            ({"k_folds": 3.0}, "k_folds must be an integer, got 3.0"),
            ({"paths": {"records": 5}}, "paths.records must be a string or null, got 5"),
            ({"validation_fraction": "0.1"}, 'validation_fraction must be a finite number, got "0.1"'),
            ({"validation_fraction": True}, "validation_fraction must be a finite number, got true"),
            ({"quantiles": {"lo": "0.1"}}, 'quantiles.lo must be a finite number, got "0.1"'),
            ({"quantiles": {"hi": False}}, "quantiles.hi must be a finite number, got false"),
            ({"proportions": {"Research": True, "Slides": 0, "Thesis": 0}},
             "proportions.Research must be a finite number, got true"),
            ({"proportions": {"Research": 1, "Slides": "0", "Thesis": 0}},
             'proportions.Slides must be a finite number, got "0"'),
            ({"proportions": {"Research": 1, "Slides": 0, "Thesis": None}},
             "proportions.Thesis must be a finite number, got null"),
            ({"proportions": {"Paper": 1}}, "proportions: unknown document type: 'Paper'"),
            ({"proportions": {"Research": -0.5, "Slides": 1.0, "Thesis": 0.5}},
             "proportions must be non-negative, got {'Research': -0.5}"),
            ({"seed": -1}, "seed must be a non-negative integer, got -1"),
            ({"sweep": {"kinds": []}}, "sweep.kinds must be non-empty"),
            ({"sweep": {"transforms": []}}, "sweep.transforms must be non-empty"),
            ({"sweep": {"grids": {"adaboost": []}}}, "sweep grid for adaboost must be non-empty"),
            ({"sweep": {"kinds": ["gnb", "gnb"]}}, "sweep.kinds must not repeat an entry, got ['gnb', 'gnb']"),
            ({"sweep": {"transforms": ["z-score", "z-score"]}},
             "sweep.transforms must not repeat an entry, got ['z-score', 'z-score']"),
            ({"sweep": {"grids": {"knn": [{"k": 1}]}}}, "sweep grid for knn: knn is not in sweep.kinds"),
            # files that are not a JSON document; PATH is the config's path
            pytest.param(b"[" * 20000, "config PATH is not valid JSON: maximum recursion depth exceeded "
                         "while decoding a JSON array from a unicode string",
                         id="nested-20000-deep"),
            pytest.param(b'{"seed": "\xff"}', "cannot read config PATH: 'utf-8' codec can't decode byte 0xff "
                         "in position 10: invalid start byte",
                         id="not-utf-8"),
        ],
    )
    def test_bad_config_value_exits_one(self, payload, message, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        message = message.replace("PATH", str(path))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == message
        assert main(["pipeline", "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({}, "pipeline needs paths.records or paths.labeled"),
            ({"labeled": True, "sweep": {"kinds": []}}, "sweep.kinds must be non-empty"),
            ({"labeled": True, "k_folds": 1}, "k_folds must be at least 2, got 1"),
            ({"labeled": True, "sweep": {"kinds": ("gnb",)}}, 'sweep.kinds must be a list of strings, got ["gnb"]'),
        ],
    )
    def test_run_pipeline_checks_a_config_built_in_python(self, fields, message, tmp_path):
        # the check comes before any stage, so an empty labeled file will do
        labeled = tmp_path / "labeled.jsonl"
        labeled.write_text("")
        paths = {"output_dir": str(tmp_path / "out")}
        if fields.pop("labeled", False):
            paths["labeled"] = str(labeled)
        with pytest.raises(ConfigError) as err:
            run_pipeline({**fields, "paths": paths})
        assert str(err.value) == message
        assert not (tmp_path / "out").exists()

    def test_round_trip_hash_stable(self, tmp_path):
        records = build_records(tmp_path)
        cfg_path = build_config(tmp_path, records)
        a = load_config(cfg_path)
        b = load_config(cfg_path)
        assert config_hash(a) == config_hash(b)


class TestPipeline:
    def test_end_to_end_outputs(self, tmp_path):
        records = build_records(tmp_path)
        cfg = load_config(build_config(tmp_path, records))
        returned = run_pipeline(cfg)
        out = tmp_path / "out"
        for name in (
            "model.json",
            "thresholds.json",
            "sweep_results.json",
            "cv_report.json",
            "validation_report.json",
            "manifest.json",
        ):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["counts"]["records"] == 110
        assert manifest["counts"]["sampled"] == 80
        assert manifest["best"]["kind"] in {"decision-tree", "gnb"}
        assert 0.0 <= manifest["validation_weighted_f1"] <= 1.0
        assert returned == manifest

    def test_rerun_byte_identical(self, tmp_path):
        records = build_records(tmp_path)
        cfg_path = build_config(tmp_path, records)
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_bad_proportions_fail_before_work(self, tmp_path, capsys):
        records = build_records(tmp_path)
        cfg_path = build_config(tmp_path, records)
        payload = json.loads(cfg_path.read_text())
        payload["proportions"] = {"Research": 0.5, "Slides": 0.2, "Thesis": 0.2}
        cfg_path.write_text(json.dumps(payload))
        assert main(["pipeline", "--config", str(cfg_path)]) == 1
        assert not (tmp_path / "out").exists()

    def test_bad_grid_point_fails_before_work(self, tmp_path, capsys):
        records = build_records(tmp_path)
        cfg_path = build_config(tmp_path, records)
        payload = json.loads(cfg_path.read_text())
        payload["sweep"]["grids"] = {"knn": [{"k": "x"}]}
        cfg_path.write_text(json.dumps(payload))
        assert main(["pipeline", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error: sweep grid for knn: ")
        assert not (tmp_path / "out").exists()

    def test_refused_quantile_levels_fail_before_work(self, tmp_path, capsys):
        cfg_path = build_config(tmp_path, build_records(tmp_path))
        payload = json.loads(cfg_path.read_text())
        payload["sweep"] = {"kinds": ["baseline-threshold"], "grids": {"baseline-threshold": [
            {"quantile_lo": 0.1}, {"quantile_lo": 0.9, "quantile_hi": 0.1}]}}
        cfg_path.write_text(json.dumps(payload))
        with mock.patch.object(pipeline, "parse_records", side_effect=AssertionError("read")):
            assert main(["pipeline", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr() == ("", "error: sweep grid for baseline-threshold: quantile levels "
                                           "must satisfy 0 <= lo < hi <= 1, got (0.9, 0.1)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fraction", [0.0, 0.001], ids=["zero", "rounds-to-zero-rows"])
    def test_empty_validation_set_fails_before_the_sweep(self, fraction, tmp_path, capsys):
        cfg_path = build_config(tmp_path, build_records(tmp_path))
        payload = json.loads(cfg_path.read_text())
        payload["validation_fraction"] = fraction
        cfg_path.write_text(json.dumps(payload))
        with mock.patch.object(pipeline, "sweep", side_effect=AssertionError("swept")):
            assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: stage split: validation_fraction {fraction} of 80 rows leaves no validation rows\n"
        )
        assert not (tmp_path / "out").exists()

    def test_stage_error_names_stage(self, tmp_path):
        records = build_records(tmp_path, n_slides=4)  # not enough slides to sample
        cfg_path = build_config(tmp_path, records)
        cfg = load_config(cfg_path)
        with pytest.raises(Exception) as err:
            run_pipeline(cfg)
        assert "sample" in str(err.value)


#: sha256 of four pipeline outputs, and of each swept kind's identity
#: entries and best entry, for the default sweep over one fixed synthetic
#: file; recorded when the tree kinds were still swept under every transform.
#: The best model is a random forest, which draws feature subsets: its model,
#: CV report and sweep entries were recorded again when a node's draw became
#: a hash of its path key. The adaboost entries did not change. The model
#: was recorded again when model files took format versions 3 and 4 (at 4,
#: the version-3 file with only its ``format_version`` changed).
PINNED_PIPELINE_BYTES = {
    "model.json": "5cda6d8361c24030bfacaf9069980aebfea9a0c8f7157f1564999d9cf6b1fb52",
    "thresholds.json": "7a3a6b8375c1d134cfc54f9a543854a2c48d731805e8e0a181b0b2c8a15129b8",
    "cv_report.json": "4f9a9d672e52023e49d0dc5c3c75ee226ff6ed250f080970383996912cb025d2",
    "validation_report.json": "58b4f475c03041a771f414a4c9fa80e75dc90cb6fa99dfc444cd8955fa7044d7",
    "sweep identity entries": "fe6ac489e9c3fa2e12c2994ef60a36efa7690af18777197d2983a7a5076b868d",
}


def test_default_pipeline_keeps_its_bytes(tmp_path, monkeypatch):
    # relative paths keep the config hash, which the reports carry, fixed
    monkeypatch.chdir(tmp_path)
    props = {DocType.RESEARCH: 0.55, DocType.SLIDES: 0.10, DocType.THESIS: 0.35}
    with open("labeled.jsonl", "w") as handle:
        write_examples(handle, blank_f1(generate_synthetic(160, props, 21), 0.2, 21))
    paths = {"labeled": "labeled.jsonl", "output_dir": "out"}
    run_pipeline(config_from_dict({"seed": 5, "paths": paths, "k_folds": 4}))
    out = tmp_path / "out"
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in list(PINNED_PIPELINE_BYTES)[:4]}
    sweeps = json.loads((out / "sweep_results.json").read_text())["sweeps"]
    listing = {
        kind: {
            "best": result["entries"][result["best_index"]],
            "entries": [e for e in result["entries"] if e["transform"] == "identity"],
        }
        for kind, result in sweeps.items()
    }
    digests["sweep identity entries"] = hashlib.sha256(
        json.dumps(listing, sort_keys=True).encode()
    ).hexdigest()
    assert digests == PINNED_PIPELINE_BYTES


def split_by_position(rows, k_folds, validation_fraction, seed):
    """``stratified_split`` as if every row had one label, so where a row
    goes depends on its position only."""
    one_class = [replace(ex, label=DocType.RESEARCH) for ex in rows]
    original = {id(copy): ex for copy, ex in zip(one_class, rows)}
    split = stratified_split(one_class, k_folds, validation_fraction, seed)
    back = lambda part: [original[id(ex)] for ex in part]  # noqa: E731
    return replace(
        split,
        train=back(split.train),
        validation=back(split.validation),
        test_folds=[back(fold) for fold in split.test_folds],
    )


class TestLabelFreeValidation:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10**6), shuffle=st.randoms())
    def test_validation_labels_change_no_model_or_prediction(self, seed, shuffle):
        props = {DocType.RESEARCH: 0.55, DocType.SLIDES: 0.10, DocType.THESIS: 0.35}
        rows = blank_f1(generate_synthetic(80, props, seed), 0.3, seed)
        config = {
            "seed": seed,
            "k_folds": 3,
            "validation_fraction": 0.25,
            "sweep": {
                "kinds": ["decision-tree"],
                "transforms": ["identity"],
                "grids": {"decision-tree": [{"max_depth": 3}]},
            },
        }
        validation = split_by_position(rows, 3, 0.25, derive_seed(seed, "split")).validation
        labels = [ex.label for ex in validation]
        shuffle.shuffle(labels)
        relabel = {ex.id: label for ex, label in zip(validation, labels)}
        relabeled = [replace(ex, label=relabel.get(ex.id, ex.label)) for ex in rows]
        outcomes = []
        for data in (rows, relabeled):
            predicted = []

            def recording(model, X):
                labels, scores = predict_batch(model, X)
                predicted.append(labels.tolist())
                return labels, scores

            with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(
                pipeline,
                stratified_split=split_by_position,
                predict_batch=recording,
            ):
                labeled = Path(tmp) / "labeled.jsonl"
                with open(labeled, "w") as handle:
                    write_examples(handle, data)
                paths = {"labeled": str(labeled), "output_dir": str(Path(tmp) / "out")}
                run_pipeline(config_from_dict({**config, "paths": paths}))
                outcomes.append((predicted, (Path(tmp) / "out" / "model.json").read_text()))
        assert outcomes[0] == outcomes[1]


#: A config that sets every key the reader reads, some keys it drops, and
#: integer quantile levels, which the reader stores as floats.
EVERY_KEY_CONFIG = {
    "seed": 4,
    "note": "no stage reads this",
    "paths": {"records": None, "labeled": "labeled.jsonl", "output_dir": "out", "log": "clicks.jsonl"},
    "proportions": {"Thesis": 0.3, "Research": 0.5, "Slides": 0.2},
    "sample_total": 60,
    "k_folds": 3,
    "validation_fraction": 0.25,
    "quantiles": {"lo": 0, "hi": 1},
    "sweep": {"kinds": ["gnb", "decision-tree"], "transforms": ["log-scale", "identity"],
              "grids": {"decision-tree": [{"max_depth": 1}, {"max_depth": 2}]}},
}

#: sha256 of the manifest's ``config`` as ``manifest.json`` stores it, and
#: the manifest's ``config_hash``, for ``EVERY_KEY_CONFIG``; recorded when
#: the config was a dataclass with a ``to_dict`` and a ``hash``
PINNED_CONFIG_BYTES = {
    "config": "33f85534b6b1794a667677624075017f96e321f7deaa50bab92ae3fc6e07eb64",
    "config_hash": "2ab4885d127946d8dde360b935bd59c1928ca57d75147c6c483bfbc889e18dd5",
}


def test_every_key_config_keeps_its_bytes(tmp_path, monkeypatch):
    # relative paths keep the config hash fixed
    monkeypatch.chdir(tmp_path)
    props = {DocType.RESEARCH: 0.55, DocType.SLIDES: 0.10, DocType.THESIS: 0.35}
    with open("labeled.jsonl", "w") as handle:
        write_examples(handle, generate_synthetic(120, props, 9))
    (tmp_path / "config.json").write_text(json.dumps(EVERY_KEY_CONFIG))
    assert main(["pipeline", "--config", "config.json"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"] == config_from_dict(EVERY_KEY_CONFIG)
    stored = json.dumps(manifest["config"], sort_keys=True, indent=2)
    digests = {"config": hashlib.sha256(stored.encode()).hexdigest(), "config_hash": manifest["config_hash"]}
    assert digests == PINNED_CONFIG_BYTES


@pytest.mark.parametrize("payload", [{}, EVERY_KEY_CONFIG, {"proportions": {"Slides": 1}, "quantiles": {"hi": 1}}],
                         ids=["empty", "every-key", "integer-values"])
def test_config_reader_returns_its_own_output_unchanged(payload):
    config = config_from_dict(payload)
    # JSON, unlike ==, tells 1 from 1.0
    assert json.dumps(config_from_dict(config), sort_keys=True) == json.dumps(config, sort_keys=True)
