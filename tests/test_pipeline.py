"""Config validation and the end-to-end pipeline contract."""

import json

import pytest

from doctype.cli import main
from doctype.config import config_from_dict, load_config
from doctype.errors import ConfigError
from doctype.pipeline import run_pipeline


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
        with pytest.raises(ConfigError):
            config_from_dict({"paths": {"records": str(tmp_path / "absent.jsonl")}})

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
            ({"quantiles": [0.1]}, "quantiles must be an object"),
            ({"proportions": [1]}, "proportions must be an object"),
            ({"sweep": {"kinds": "random-forest"}}, "sweep.kinds must be a list of strings"),
            ({"sweep": {"transforms": "identity"}}, "sweep.transforms must be a list of strings"),
            ({"sample_total": "5"}, "sample_total must be an integer or null"),
            ({"sample_total": 2.5}, "sample_total must be an integer or null"),
            ({"sample_total": True}, "sample_total must be an integer or null, got true"),
            ({"seed": True}, "seed must be an integer, got true"),
            ({"seed": "5"}, "seed must be an integer"),
            ({"k_folds": 3.0}, "k_folds must be an integer"),
            ({"paths": {"records": 5}}, "paths.records must be a string or null"),
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
        ],
    )
    def test_bad_config_value_exits_one(self, payload, message, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError) as err:
            config_from_dict(payload)
        assert message in str(err.value)
        assert main(["pipeline", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_round_trip_hash_stable(self, tmp_path):
        records = build_records(tmp_path)
        cfg_path = build_config(tmp_path, records)
        a = load_config(cfg_path)
        b = load_config(cfg_path)
        assert a.hash() == b.hash()


class TestPipeline:
    def test_end_to_end_outputs(self, tmp_path):
        records = build_records(tmp_path)
        cfg = load_config(build_config(tmp_path, records))
        result = run_pipeline(cfg)
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
        assert manifest["config_hash"] == cfg.hash()
        assert manifest["counts"]["records"] == 110
        assert manifest["counts"]["sampled"] == 80
        assert manifest["best"]["kind"] in {"decision-tree", "gnb"}
        assert 0.0 <= result.validation_report.weighted_f1 <= 1.0

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

    def test_stage_error_names_stage(self, tmp_path):
        records = build_records(tmp_path, n_slides=4)  # not enough slides to sample
        cfg_path = build_config(tmp_path, records)
        cfg = load_config(cfg_path)
        with pytest.raises(Exception) as err:
            run_pipeline(cfg)
        assert "sample" in str(err.value)
