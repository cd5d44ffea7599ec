"""Stratified cross-validation, weighted metrics, sweeps, and ablations."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ingest import DOC_TYPES, FEATURE_IDS, N_CLASSES, DocType
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


@dataclass
class EvalReport:
    """Per-class and support-weighted precision/recall/F1 plus the confusion matrix.

    Confusion rows are true classes, columns predicted, both in DocType order.
    """

    confusion: list[list[int]]
    per_class_precision: dict[DocType, float]
    per_class_recall: dict[DocType, float]
    per_class_f1: dict[DocType, float]
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    n_examples: int

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion,
            "per_class": {
                t.label: {
                    "precision": self.per_class_precision[t],
                    "recall": self.per_class_recall[t],
                    "f1": self.per_class_f1[t],
                }
                for t in DOC_TYPES
            },
            "weighted_precision": self.weighted_precision,
            "weighted_recall": self.weighted_recall,
            "weighted_f1": self.weighted_f1,
            "n_examples": self.n_examples,
        }

    def human(self) -> str:
        lines = [
            f"{'class':<10}{'precision':>11}{'recall':>11}{'f1':>11}{'support':>9}"
        ]
        for t in DOC_TYPES:
            support = sum(self.confusion[int(t)])
            lines.append(
                f"{t.label:<10}{self.per_class_precision[t]:>11.4f}"
                f"{self.per_class_recall[t]:>11.4f}{self.per_class_f1[t]:>11.4f}"
                f"{support:>9}"
            )
        lines.append(
            f"{'weighted':<10}{self.weighted_precision:>11.4f}"
            f"{self.weighted_recall:>11.4f}{self.weighted_f1:>11.4f}"
            f"{self.n_examples:>9}"
        )
        return "\n".join(lines)


def evaluate(predictions: Sequence[int], truths: Sequence[int]) -> EvalReport:
    """Standard multi-class metrics from class codes (DocTypes or ints);
    empty denominators score 0."""
    predictions = np.asarray(predictions, dtype=int)
    truths = np.asarray(truths, dtype=int)
    if len(predictions) != len(truths):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(truths)} truths"
        )
    if not len(truths):
        raise ValueError("cannot evaluate an empty prediction list")
    cells = np.bincount(truths * N_CLASSES + predictions, minlength=N_CLASSES * N_CLASSES)
    return report_from_confusion(cells.reshape(N_CLASSES, N_CLASSES).tolist())


def report_from_confusion(confusion: Sequence[Sequence[int]]) -> EvalReport:
    precision, recall, f1 = {}, {}, {}
    n = sum(sum(row) for row in confusion)
    for t in DOC_TYPES:
        i = int(t)
        tp = confusion[i][i]
        predicted = sum(confusion[r][i] for r in range(N_CLASSES))
        actual = sum(confusion[i])
        precision[t] = tp / predicted if predicted else 0.0
        recall[t] = tp / actual if actual else 0.0
        denom = precision[t] + recall[t]
        f1[t] = 2 * precision[t] * recall[t] / denom if denom else 0.0
    supports = {t: sum(confusion[int(t)]) for t in DOC_TYPES}
    return EvalReport(
        confusion=[list(map(int, row)) for row in confusion],
        per_class_precision=precision,
        per_class_recall=recall,
        per_class_f1=f1,
        weighted_precision=sum(supports[t] * precision[t] for t in DOC_TYPES) / n,
        weighted_recall=sum(supports[t] * recall[t] for t in DOC_TYPES) / n,
        weighted_f1=sum(supports[t] * f1[t] for t in DOC_TYPES) / n,
        n_examples=n,
    )


@dataclass
class CVResult:
    """Per-fold reports plus their across-fold metric means."""

    fold_reports: list[EvalReport]
    mean_weighted_precision: float
    mean_weighted_recall: float
    mean_weighted_f1: float
    pooled_confusion: list[list[int]]

    def to_dict(self) -> dict:
        return {
            "mean_weighted_precision": self.mean_weighted_precision,
            "mean_weighted_recall": self.mean_weighted_recall,
            "mean_weighted_f1": self.mean_weighted_f1,
            "pooled_confusion": self.pooled_confusion,
            "folds": [r.to_dict() for r in self.fold_reports],
        }


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
) -> CVResult:
    """k-fold CV; imputation and transform fitting see training folds only."""
    prepared = prepare_folds(_cv_folds(dataset, k, seed), features)
    return cross_validate_sizes(kind, prepared, hyperparameters, None, seed, transform)[0]


def cross_validate_sizes(
    kind: str,
    prepared: Sequence[PreparedFold],
    hyperparameters: dict | None,
    nested: Sequence[dict] | None,
    seed: int = 0,
    transform: str = "identity",
) -> list[CVResult]:
    """Cross-validate on ``prepared`` folds: one result per point in ``nested``.

    A point gives values of ``kind``'s nested keys (``models.nested_keys``)
    and replaces them in ``hyperparameters``. Each fold fits once, at each
    key's largest value in ``nested`` (``null``, an unbounded depth, is the
    largest), and scores every point from that fit's one predictor
    (``models.prefix_labels``): its size as the first members, capped at the
    fit's own size, and its ``max_depth`` as a depth cut. ``None`` gives the
    one result of ``hyperparameters`` as they are, for any kind.

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
    reports: list[list[EvalReport]] = [[] for _ in nested or [None]]
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
    return [_cv_result(point_reports) for point_reports in reports]


def _cv_result(reports: list[EvalReport]) -> CVResult:
    pooled = [
        [sum(r.confusion[i][j] for r in reports) for j in range(N_CLASSES)]
        for i in range(N_CLASSES)
    ]
    return CVResult(
        fold_reports=reports,
        mean_weighted_precision=float(np.mean([r.weighted_precision for r in reports])),
        mean_weighted_recall=float(np.mean([r.weighted_recall for r in reports])),
        mean_weighted_f1=float(np.mean([r.weighted_f1 for r in reports])),
        pooled_confusion=pooled,
    )


def default_grid(kind: str) -> list[dict]:
    return [dict(point) for point in kind_spec(kind).grid]


@dataclass
class SweepEntry:
    hyperparameters: dict
    transform: str
    result: CVResult


@dataclass
class SweepResult:
    entries: list[SweepEntry]
    best_index: int

    @property
    def best(self) -> SweepEntry:
        return self.entries[self.best_index]

    def to_dict(self) -> dict:
        return {
            "best_index": self.best_index,
            "entries": [
                {
                    "hyperparameters": e.hyperparameters,
                    "transform": e.transform,
                    "mean_weighted_f1": e.result.mean_weighted_f1,
                    "mean_weighted_precision": e.result.mean_weighted_precision,
                    "mean_weighted_recall": e.result.mean_weighted_recall,
                }
                for e in self.entries
            ],
        }


def sweep(
    kind: str,
    dataset: Sequence[LabeledExample],
    grid: Sequence[dict] | None = None,
    transforms: Sequence[str] = TRANSFORM_KINDS,
    k: int = 10,
    seed: int = 0,
    folds: Sequence[Sequence[LabeledExample]] | None = None,
) -> SweepResult:
    """Cross-validate the full grid x transforms product; pick the best mean F1.

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
            family_results = cross_validate_sizes(kind, prepared, rest, nested, seed, transform)
            for cell, result in zip(points, family_results):
                results[name, cell, transform] = result
    entries = [
        SweepEntry(dict(point), transform, results[name, cell, transform])
        for (name, cell), point in zip(cells, grid)
        for transform in transforms
    ]
    best_index = min(
        range(len(entries)),
        key=lambda i: (
            -entries[i].result.mean_weighted_f1, _rank(kind, entries[i].hyperparameters), i
        ),
    )
    return SweepResult(entries, best_index)


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
) -> dict[tuple[str, tuple[str, ...]], float]:
    """Mean weighted F1 per (kind, feature subset): each singleton and all four.

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
    out: dict[tuple[str, tuple[str, ...]], float] = {}
    for kind in kinds:
        for subset in FEATURE_SUBSETS:
            result = cross_validate(
                kind,
                dataset,
                k,
                hyperparameters.get(kind),
                seed,
                features=subset,
            )
            out[(kind, subset)] = result.mean_weighted_f1
    return out
