"""End-to-end pipeline: extract, label, sample, split, sweep, train, validate.

Every stage derives its own sub-seed from the config seed, and all
outputs are canonical JSON, so rerunning one config reproduces the
output files byte for byte.
"""

from __future__ import annotations

from pathlib import Path

from . import __version__
from .config import config_from_dict, config_hash, read_proportions
from .errors import ConfigError, DocTypeError
from .evaluation import evaluate, sweep
from .ingest import parse_records, extract_features
from .ioutils import atomic_write_text, canonical_json
from .labeling import (
    LabeledExample,
    balanced_sample,
    rule_label,
    stratified_split,
)
from .models import ModelArtifact, dataset_matrix, predict_batch, save_model, train
from .seeding import derive_seed
from .stats import derive_thresholds
from .stats import impute_f1  # noqa: F401 -- no stage imputes; bench/tracer.py wraps this name


def run_pipeline(config: dict) -> dict:
    """Run every stage of ``config``, write its outputs and return the
    manifest. A config built in Python is read by ``config_from_dict`` as a
    config file is; then it needs an input path that exists."""
    cfg = config_from_dict(config)
    paths, seed = cfg["paths"], cfg["seed"]
    # only the path the pipeline reads: records when given, else labeled
    source = "records" if paths["records"] is not None else "labeled"
    if paths[source] is None:
        raise ConfigError("pipeline needs paths.records or paths.labeled")
    if not Path(paths[source]).exists():
        raise ConfigError(f"{source} path does not exist: {paths[source]}")

    counts: dict[str, int] = {}
    if source == "records":
        labeled = _extract_and_label(paths["records"], counts)
    else:
        from .labeling import read_examples

        with open(paths["labeled"], "r", encoding="utf-8") as handle:
            labeled = read_examples(handle)
        counts["labeled"] = len(labeled)

    if cfg["sample_total"] is not None:
        proportions = read_proportions(cfg["proportions"])
        sampled = _stage(
            "sample",
            lambda: balanced_sample(
                labeled, cfg["sample_total"], proportions, derive_seed(seed, "sample")
            ),
        )
    else:
        sampled = labeled
    counts["sampled"] = len(sampled)

    split = _stage(
        "split",
        lambda: stratified_split(
            sampled, cfg["k_folds"], cfg["validation_fraction"], derive_seed(seed, "split")
        ),
    )
    if not split.validation:
        raise DocTypeError(f"stage split: validation_fraction {cfg['validation_fraction']} "
                           f"of {len(sampled)} rows leaves no validation rows")
    counts["train_pool"] = len(split.train)
    counts["validation"] = len(split.validation)

    thresholds = _stage(
        "thresholds",
        lambda: derive_thresholds(
            *dataset_matrix(split.train), cfg["quantiles"]["lo"], cfg["quantiles"]["hi"]
        ),
    )

    best, cv_report = None, None
    sweeps = {}
    for kind in cfg["sweep"]["kinds"]:
        table, reports = _stage(
            f"sweep[{kind}]",
            lambda kind=kind: sweep(
                kind,
                split.train,
                grid=cfg["sweep"]["grids"].get(kind),
                transforms=cfg["sweep"]["transforms"],
                k=cfg["k_folds"],
                seed=derive_seed(seed, f"sweep-{kind}"),
                folds=split.test_folds,
            ),
        )
        sweeps[kind] = table
        entry = table["entries"][table["best_index"]]
        if best is None or entry["mean_weighted_f1"] > best["mean_weighted_f1"]:
            best = {"kind": kind, "hyperparameters": entry["hyperparameters"],
                    "transform": entry["transform"], "mean_weighted_f1": entry["mean_weighted_f1"]}
            cv_report = reports[table["best_index"]]

    model = _stage(
        "train",
        lambda: train(
            best["kind"],
            split.train,
            best["hyperparameters"],
            derive_seed(seed, "train"),
            best["transform"],
        ),
    )

    validation_report = _stage(
        "validate", lambda: _evaluate_validation(model, split.validation)
    )

    digest = config_hash(cfg)
    manifest = {
        "format_version": 1,
        "package_version": __version__,
        "config": cfg,
        "config_hash": digest,
        "stage_seeds": {
            name: derive_seed(seed, name)
            for name in ("sample", "split", "train")
        },
        "counts": counts,
        "best": best,
        "validation_weighted_f1": validation_report["weighted_f1"],
    }

    _write_outputs(Path(paths["output_dir"]), digest, model, thresholds, sweeps, cv_report,
                   validation_report, manifest)
    return manifest


def _extract_and_label(records_path: str, counts: dict) -> list[LabeledExample]:
    # Each record is labeled as its line is read, so no page text outlives its line.
    with open(records_path, "rb") as handle:
        parsed = _stage("extract", lambda: parse_records(
            handle, lambda rec: LabeledExample(extract_features(rec), rule_label(rec), rec.id)
        ))
    counts["records"] = counts["labeled"] = len(parsed.records)
    counts["records_skipped"] = parsed.skipped
    return parsed.records


def _stage(name: str, thunk):
    try:
        return thunk()
    except (DocTypeError, ValueError) as exc:
        raise DocTypeError(f"stage {name}: {exc}") from exc


def _evaluate_validation(model: ModelArtifact, validation: list[LabeledExample]) -> dict:
    X, y = dataset_matrix(validation, model.features)
    return evaluate(predict_batch(model, X)[0], y)


def _write_outputs(out, digest, model, thresholds, sweeps, cv_report, validation_report, manifest):
    save_model(model, out / "model.json")
    atomic_write_text(out / "thresholds.json", canonical_json(thresholds))
    for name, report in [
        ("sweep_results.json", {"sweeps": sweeps}),
        ("cv_report.json", cv_report),
        ("validation_report.json", validation_report),
    ]:
        atomic_write_text(
            out / name,
            canonical_json({"config_hash": digest, "format_version": 1, **report}),
        )
    atomic_write_text(out / "manifest.json", canonical_json(manifest))
