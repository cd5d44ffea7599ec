"""End-to-end pipeline: extract, label, sample, impute, split, sweep, train.

Every stage derives its own sub-seed from the config seed, and all
outputs are canonical JSON, so rerunning one config reproduces the
output files byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .config import RunConfig
from .errors import ConfigError, DocTypeError
from .evaluation import CVResult, EvalReport, evaluate, sweep
from .ingest import DocType, parse_records, extract_features
from .ioutils import atomic_write_text, canonical_json
from .labeling import (
    LabeledExample,
    balanced_sample,
    rule_label,
    stratified_split,
)
from .models import ModelArtifact, dataset_matrix, predict_batch, train
from .seeding import derive_seed
from .stats import derive_thresholds, impute_f1


@dataclass
class PipelineResult:
    model: ModelArtifact
    best_kind: str
    best_hyperparameters: dict
    best_transform: str
    cv_result: CVResult
    validation_report: EvalReport
    manifest: dict


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    if cfg.records_path is None and cfg.labeled_path is None:
        raise ConfigError("pipeline needs paths.records or paths.labeled")

    counts: dict[str, int] = {}
    if cfg.records_path is not None:
        labeled = _extract_and_label(cfg, counts)
    else:
        from .labeling import read_examples

        with open(cfg.labeled_path, "r", encoding="utf-8") as handle:
            labeled = read_examples(handle)
        counts["labeled"] = len(labeled)

    if cfg.sample_total is not None:
        sampled = _stage(
            "sample",
            lambda: balanced_sample(
                labeled, cfg.sample_total, cfg.proportions, derive_seed(cfg.seed, "sample")
            ),
        )
    else:
        sampled = labeled
    counts["sampled"] = len(sampled)

    imputed = _stage("impute", lambda: impute_f1(sampled))
    split = _stage(
        "split",
        lambda: stratified_split(
            imputed, cfg.k_folds, cfg.validation_fraction, derive_seed(cfg.seed, "split")
        ),
    )
    counts["train_pool"] = len(split.train)
    counts["validation"] = len(split.validation)

    thresholds = _stage(
        "thresholds",
        lambda: derive_thresholds(
            *dataset_matrix(split.train), cfg.quantile_lo, cfg.quantile_hi
        ),
    )

    best = None
    sweep_payload = {}
    for kind in cfg.sweep_kinds:
        result = _stage(
            f"sweep[{kind}]",
            lambda kind=kind: sweep(
                kind,
                split.train,
                grid=cfg.sweep_grids.get(kind),
                transforms=cfg.sweep_transforms,
                k=cfg.k_folds,
                seed=derive_seed(cfg.seed, f"sweep-{kind}"),
                folds=split.test_folds,
            ),
        )
        sweep_payload[kind] = result.to_dict()
        entry = result.best
        if best is None or entry.result.mean_weighted_f1 > best[1].result.mean_weighted_f1:
            best = (kind, entry, result)
    best_kind, best_entry, _ = best

    model = _stage(
        "train",
        lambda: train(
            best_kind,
            split.train,
            best_entry.hyperparameters,
            derive_seed(cfg.seed, "train"),
            best_entry.transform,
        ),
    )

    validation_report = _stage(
        "validate", lambda: _evaluate_validation(model, split.validation)
    )

    manifest = {
        "format_version": 1,
        "package_version": __version__,
        "config": cfg.to_dict(),
        "config_hash": cfg.hash(),
        "stage_seeds": {
            name: derive_seed(cfg.seed, name)
            for name in ("sample", "split", "train")
        },
        "counts": counts,
        "best": {
            "kind": best_kind,
            "hyperparameters": best_entry.hyperparameters,
            "transform": best_entry.transform,
            "mean_weighted_f1": best_entry.result.mean_weighted_f1,
        },
        "validation_weighted_f1": validation_report.weighted_f1,
    }

    _write_outputs(cfg, model, thresholds, sweep_payload, best_entry.result, validation_report, manifest)
    return PipelineResult(
        model=model,
        best_kind=best_kind,
        best_hyperparameters=best_entry.hyperparameters,
        best_transform=best_entry.transform,
        cv_result=best_entry.result,
        validation_report=validation_report,
        manifest=manifest,
    )


def _extract_and_label(cfg: RunConfig, counts: dict) -> list[LabeledExample]:
    with open(cfg.records_path, "rb") as handle:
        parsed = _stage("extract", lambda: parse_records(handle))
    counts["records"] = len(parsed.records)
    counts["records_skipped"] = parsed.skipped
    labeled = _stage(
        "label",
        lambda: [
            LabeledExample(extract_features(rec), rule_label(rec), rec.id)
            for rec in parsed.records
        ],
    )
    counts["labeled"] = len(labeled)
    return labeled


def _stage(name: str, thunk):
    try:
        return thunk()
    except DocTypeError as exc:
        raise DocTypeError(f"stage {name}: {exc}") from exc
    except ValueError as exc:
        raise DocTypeError(f"stage {name}: {exc}") from exc


def _evaluate_validation(model: ModelArtifact, validation: list[LabeledExample]) -> EvalReport:
    X, y = dataset_matrix(validation, model.features)
    labels, _ = predict_batch(model, X)
    return evaluate([DocType(int(v)) for v in labels], [DocType(int(v)) for v in y])


def _write_outputs(cfg, model, thresholds, sweep_payload, cv_result, validation_report, manifest):
    out = Path(cfg.output_dir)
    atomic_write_text(out / "model.json", model.to_json())
    atomic_write_text(out / "thresholds.json", canonical_json(thresholds.to_dict()))
    atomic_write_text(
        out / "sweep_results.json",
        canonical_json({"config_hash": cfg.hash(), "format_version": 1, "sweeps": sweep_payload}),
    )
    atomic_write_text(
        out / "cv_report.json",
        canonical_json(
            {"config_hash": cfg.hash(), "format_version": 1, **cv_result.to_dict()}
        ),
    )
    atomic_write_text(
        out / "validation_report.json",
        canonical_json(
            {"config_hash": cfg.hash(), "format_version": 1, **validation_report.to_dict()}
        ),
    )
    atomic_write_text(out / "manifest.json", canonical_json(manifest))
