"""Stratified cross-validation, weighted metrics, sweeps, and ablations."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ingest import DOC_TYPES, FEATURE_IDS, N_CLASSES
from .labeling import LabeledExample, stratified_split
from .models import (
    check_features,
    check_hyperparameters,
    dataset_matrix,
    kind_spec,
    nested_keys,
    predict_batch,
    prefix_labels,
    train_folds,
)
from .models import train  # noqa: F401 -- unused; bench/tracer.py wraps this name
from .seeding import derive_seed
from .stats import TRANSFORM_KINDS

METRICS = ("precision", "recall", "f1")


def evaluate(predictions: Sequence[int], truths: Sequence[int]) -> dict:
    """The report (``report_from_confusion``) of class codes, DocTypes or
    ints, against the true codes. A value that is not an integer class code
    raises ValueError."""
    if len(predictions) != len(truths):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(truths)} truths"
        )
    if not len(truths):
        raise ValueError("cannot evaluate an empty prediction list")
    predictions, truths = _class_codes(predictions, "prediction"), _class_codes(truths, "truth")
    cells = np.bincount(truths * N_CLASSES + predictions, minlength=N_CLASSES * N_CLASSES)
    return report_from_confusion(cells.reshape(N_CLASSES, N_CLASSES).tolist())


def _class_codes(values: Sequence[int], name: str) -> np.ndarray:
    """``values`` as an int array; ValueError naming the first value that
    is not an integer from 0 to ``N_CLASSES - 1`` (a boolean is none)."""
    codes = np.asarray(values)
    if codes.dtype.kind in "iu":
        listed = codes.tolist()
        if 0 <= min(listed) and max(listed) < N_CLASSES:
            return codes
    for value in values:
        value = value.item() if isinstance(value, np.generic) else value
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < N_CLASSES:
            raise ValueError(f"{name} {value!r} is not a class code from 0 to {N_CLASSES - 1}")
    return codes.astype(int)


def report_from_confusion(confusion: Sequence[Sequence[int]]) -> dict:
    """Per-class and support-weighted precision, recall and F1 of a
    confusion table, whose rows are true classes and columns predicted, both
    in DocType order; an empty denominator scores 0. The report is the
    object ``validation_report.json`` and each CV fold hold: ``{"confusion",
    "per_class": {label: {"precision", "recall", "f1"}}, "weighted_precision",
    "weighted_recall", "weighted_f1", "n_examples"}``."""
    confusion = [list(map(int, row)) for row in confusion]
    supports = [sum(row) for row in confusion]
    predicted = [sum(column) for column in zip(*confusion)]
    per_class = {}
    for i, t in enumerate(DOC_TYPES):
        tp = confusion[i][i]
        precision = tp / predicted[i] if predicted[i] else 0.0
        recall = tp / supports[i] if supports[i] else 0.0
        denom = precision + recall
        f1 = 2 * precision * recall / denom if denom else 0.0
        per_class[t.label] = {"precision": precision, "recall": recall, "f1": f1}
    n = sum(supports)
    report = {"confusion": confusion, "per_class": per_class}
    for metric in METRICS:
        weighted = (support * scores[metric] for support, scores in zip(supports, per_class.values()))
        report[f"weighted_{metric}"] = sum(weighted) / n
    report["n_examples"] = n
    return report


def human_report(report: dict) -> str:
    """A report's per-class and weighted rows as a table."""
    lines = [
        f"{'class':<10}{'precision':>11}{'recall':>11}{'f1':>11}{'support':>9}"
    ]
    for t in DOC_TYPES:
        scores = report["per_class"][t.label]
        support = sum(report["confusion"][int(t)])
        lines.append(
            f"{t.label:<10}{scores['precision']:>11.4f}"
            f"{scores['recall']:>11.4f}{scores['f1']:>11.4f}"
            f"{support:>9}"
        )
    lines.append(
        f"{'weighted':<10}{report['weighted_precision']:>11.4f}"
        f"{report['weighted_recall']:>11.4f}{report['weighted_f1']:>11.4f}"
        f"{report['n_examples']:>9}"
    )
    return "\n".join(lines)


@dataclass
class PreparedFold:
    """One CV fold: the ids of its training rows and its raw train and test
    matrices over ``features``, NaN where f1 is missing; ``train_folds``
    fits the fill and names a bad training row by its id."""

    features: tuple[str, ...]
    train_ids: np.ndarray
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray


def prepare_folds(
    folds: Sequence[Sequence[LabeledExample]], features: Sequence[str] = FEATURE_IDS
) -> list[PreparedFold]:
    """Build the folds' matrix over ``features`` once and cut it into
    each fold's training and test rows."""
    features = check_features(features)
    rows = [ex for fold in folds for ex in fold]
    X, y = dataset_matrix(rows, features)
    ids = np.array([ex.id for ex in rows], dtype=object)
    fold_of = np.repeat(np.arange(len(folds)), [len(fold) for fold in folds])
    prepared = []
    for i in range(len(folds)):
        test = fold_of == i
        prepared.append(PreparedFold(features, ids[~test], X[~test], y[~test], X[test], y[test]))
    return prepared


def _cv_folds(dataset: Sequence[LabeledExample], k: int, seed: int):
    """The seeded stratified k-way split used when no folds are given."""
    return stratified_split(list(dataset), k, 0.0, derive_seed(seed, "cv-folds")).test_folds


def cross_validate(
    kind: str,
    dataset: Sequence[LabeledExample],
    k: int,
    hyperparameters: dict | None = None,
    seed: int = 0,
    transform: str = "identity",
    features: Sequence[str] = FEATURE_IDS,
) -> dict:
    """k-fold CV; imputation and transform fitting see training folds only.
    Returns the CV report (``cross_validate_sizes``)."""
    prepared = prepare_folds(_cv_folds(dataset, k, seed), features)
    return cross_validate_sizes(kind, prepared, hyperparameters, None, seed, transform)[0]


def cross_validate_sizes(
    kind: str,
    prepared: Sequence[PreparedFold],
    hyperparameters: dict | None,
    nested: Sequence[dict] | None,
    seed: int = 0,
    transform: str = "identity",
) -> list[dict]:
    """Cross-validate on ``prepared`` folds: one CV report per point in ``nested``.

    A point gives values of ``kind``'s nested keys (``models.nested_keys``)
    and replaces them in ``hyperparameters``. Each fold fits once, at each
    key's largest value in ``nested`` (``null``, an unbounded depth, is the
    largest), and scores every point from that fit's one predictor
    (``models.prefix_labels``): its size as the first members, capped at the
    fit's own size, and its ``max_depth`` as a depth cut. ``None`` gives the
    one report of ``hyperparameters`` as they are, for any kind.

    A CV report is the object ``cv_report.json`` holds: ``{"folds"}``, each
    fold's ``evaluate`` report, the across-fold means
    ``"mean_weighted_precision"``, ``"mean_weighted_recall"`` and
    ``"mean_weighted_f1"``, and ``"pooled_confusion"``, the folds' summed
    confusion tables.

    The folds are fitted by one ``models.train_folds`` call: each fold's
    model is the one ``train`` gives on its training rows, the first fold
    ``train`` fails on raises its error, and each fold builds its own
    predictor and is scored in turn.
    """
    spec, fit_hyperparameters = kind_spec(kind), dict(hyperparameters or {})
    if nested is not None:
        keys = {key for point in nested for key in point}
        allowed = nested_keys(kind, fit_hyperparameters)
        if not nested or not keys <= set(allowed) or any(point.keys() != keys for point in nested):
            raise ValueError(f"{kind} points must all give the same keys of {list(allowed)}")
        for key in keys:
            values = [point[key] for point in nested]
            fit_hyperparameters[key] = None if None in values else max(values)
    reports: list[list[dict]] = [[] for _ in nested or [None]]
    seeds = [derive_seed(seed, f"fold-{i}") for i in range(len(prepared))]
    folds = [(fold.train_ids, (fold.X_train, fold.y_train)) for fold in prepared]
    features = prepared[0].features if prepared else FEATURE_IDS
    models = train_folds(kind, folds, fit_hyperparameters, seeds, transform, features)
    for fold, model in zip(prepared, models):
        if nested is not None:
            cuts, labels = {}, []
            for point in nested:
                depth = point.get("max_depth")
                if depth not in cuts:
                    cuts[depth] = prefix_labels(model, fold.X_test, depth)
                fitted = len(cuts[depth])
                size = min(point.get(spec.size_key, fitted), fitted) if spec.ensemble else 1
                labels.append(cuts[depth][size - 1])
        else:
            labels = [predict_batch(model, fold.X_test)[0]]
        for point_reports, predictions in zip(reports, labels):
            point_reports.append(evaluate(predictions, fold.y_test))
    return [_cv_report(point_reports) for point_reports in reports]


def _cv_report(reports: list[dict]) -> dict:
    pooled = [
        [sum(r["confusion"][i][j] for r in reports) for j in range(N_CLASSES)]
        for i in range(N_CLASSES)
    ]
    means = {
        f"mean_weighted_{metric}": float(np.mean([r[f"weighted_{metric}"] for r in reports]))
        for metric in METRICS
    }
    return {**means, "pooled_confusion": pooled, "folds": reports}


def default_grid(kind: str) -> list[dict]:
    return [dict(point) for point in kind_spec(kind).grid]


def sweep(
    kind: str,
    dataset: Sequence[LabeledExample],
    grid: Sequence[dict] | None = None,
    transforms: Sequence[str] = TRANSFORM_KINDS,
    k: int = 10,
    seed: int = 0,
    folds: Sequence[Sequence[LabeledExample]] | None = None,
) -> tuple[dict, list[dict]]:
    """Cross-validate the full grid x transforms product; pick the best mean F1.

    Returns ``(table, reports)``. ``table`` is the object ``sweep --format
    machine`` prints and ``sweep_results.json`` holds for the kind:
    ``{"best_index", "entries"}``, each entry ``{"hyperparameters",
    "transform", "mean_weighted_f1", "mean_weighted_precision",
    "mean_weighted_recall"}``, grid points in order, each under every
    transform in turn. ``reports[i]`` is entry ``i``'s CV report.

    Grid points that differ only in their nested keys (``models.nested_keys``:
    an ensemble's size, and a tree kind's ``max_depth`` unless a
    ``max_leaf_nodes`` budget is set) form a family, cross-validated by one
    ``cross_validate_sizes`` call: one fit per fold at the family's largest
    values scores every point. A kind that nests nothing runs each point on
    its own. A ``raw_only`` kind (``models.Kind``: the tree kinds and
    ``baseline-random``) is swept on raw values only. Each of its grid
    points is listed once, as ``identity``, whatever ``transforms`` holds.

    Among equal mean F1 the smaller model wins (``_rank``), then the
    earlier entry.
    """
    if grid is None:
        grid = default_grid(kind)
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    if not transforms:
        raise ValueError("sweep transforms must be non-empty")
    for transform in transforms:
        if transform not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind: {transform!r}")
    for point in grid:
        check_hyperparameters(kind, point)
    if kind_spec(kind).raw_only:
        transforms = ("identity",)
    if folds is None:
        folds = _cv_folds(dataset, k, seed)
    prepared = prepare_folds(folds)
    families: dict[str, tuple[dict, dict]] = {}
    cells = []
    for point in grid:
        rest, values = _split_nested(kind, point)
        name, cell = json.dumps(rest, sort_keys=True), json.dumps(values, sort_keys=True)
        families.setdefault(name, (rest, {}))[1][cell] = values
        cells.append((name, cell))
    results = {}
    for name, (rest, points) in families.items():
        nested = list(points.values()) if nested_keys(kind, rest) else None
        for transform in transforms:
            family_reports = cross_validate_sizes(kind, prepared, rest, nested, seed, transform)
            for cell, report in zip(points, family_reports):
                results[name, cell, transform] = report
    entries, reports = [], []
    for (name, cell), point in zip(cells, grid):
        for transform in transforms:
            report = results[name, cell, transform]
            means = {f"mean_weighted_{m}": report[f"mean_weighted_{m}"] for m in METRICS}
            entries.append({"hyperparameters": dict(point), "transform": transform, **means})
            reports.append(report)
    best_index = min(
        range(len(entries)),
        key=lambda i: (
            -entries[i]["mean_weighted_f1"], _rank(kind, entries[i]["hyperparameters"]), i
        ),
    )
    return {"best_index": best_index, "entries": entries}, reports


def _split_nested(kind: str, point: dict) -> tuple[dict, dict]:
    """A grid point without its nested keys, and their values, defaults
    filled in."""
    keys = nested_keys(kind, point)
    defaults = kind_spec(kind).hyperparameters
    return (
        {k: v for k, v in point.items() if k not in keys},
        {k: point.get(k, defaults[k][2]) for k in keys},
    )


def _rank(kind: str, hyperparameters: dict) -> float:
    """Tie-break size: the size hyperparameter, its default when omitted,
    ``inf`` when null (an unbounded depth); 0 for kinds without a size."""
    spec = kind_spec(kind)
    default = spec.hyperparameters[spec.size_key][2] if spec.size_key else 0
    size = hyperparameters.get(spec.size_key, default)
    return math.inf if size is None else size


FEATURE_SUBSETS: tuple[tuple[str, ...], ...] = (
    ("f1",),
    ("f2",),
    ("f3",),
    ("f4",),
    FEATURE_IDS,
)


def ablation(
    dataset: Sequence[LabeledExample],
    kinds: Sequence[str],
    k: int = 10,
    seed: int = 0,
    hyperparameters: Mapping[str, dict] | None = None,
) -> dict[str, dict[str, float]]:
    """Mean weighted F1 per kind and feature subset, each singleton and all
    four: ``{kind: {"f1": f1, ..., "f1+f2+f3+f4": f1}}``, kinds in the order
    given and subsets in ``FEATURE_SUBSETS`` order, as ``ablation --format
    machine`` prints it.

    ``kinds`` must be a non-empty list of distinct known kinds; ValueError,
    before any fit, otherwise.
    """
    if not kinds:
        raise ValueError("ablation kinds must be non-empty")
    if len(set(kinds)) < len(kinds):
        raise ValueError(f"ablation kinds must not repeat an entry, got {list(kinds)}")
    for kind in kinds:
        kind_spec(kind)
    hyperparameters = hyperparameters or {}
    return {
        kind: {
            "+".join(subset): cross_validate(
                kind, dataset, k, hyperparameters.get(kind), seed, features=subset
            )["mean_weighted_f1"]
            for subset in FEATURE_SUBSETS
        }
        for kind in kinds
    }
