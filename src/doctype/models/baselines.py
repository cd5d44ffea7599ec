"""The two reference baselines: weighted random guessing and threshold rules."""

from __future__ import annotations

import numpy as np

from ..errors import ModelFormatError, TrainingError
from ..ingest import FEATURE_IDS, N_CLASSES, DocType
from ..ioutils import number_array
from ..stats import ThresholdTable, derive_thresholds

#: Classes are tested most-restrictive-first; unmatched vectors fall back
#: to the majority class.
THRESHOLD_TEST_ORDER = (DocType.THESIS, DocType.SLIDES, DocType.RESEARCH)
FALLBACK_CLASS = DocType.RESEARCH


def fit_baseline_random(X, y, seed, hyperparameters) -> dict:
    del X, seed, hyperparameters
    counts = np.bincount(y, minlength=N_CLASSES)
    return {"weights": [float(v) for v in counts / counts.sum()]}


def fit_baseline_threshold(X, y, seed, hyperparameters) -> dict:
    del seed
    if X.shape[1] != len(FEATURE_IDS):
        raise TrainingError("baseline-threshold requires the full feature set")
    table = derive_thresholds(
        X,
        y,
        quantile_lo=hyperparameters["quantile_lo"],
        quantile_hi=hyperparameters["quantile_hi"],
    )
    return {
        "table": table.to_dict(),
        "fallback": FALLBACK_CLASS.label,
    }


def baseline_random_predict(model, n: int, seed: int) -> list[DocType]:
    """Draw n class labels from the stored categorical distribution."""
    if model.kind != "baseline-random":
        raise ValueError(f"expected a baseline-random model, got {model.kind!r}")
    weights = RandomBaselinePredictor(model.parameters, model.seed).weights
    rng = np.random.default_rng(seed)
    draws = rng.choice(N_CLASSES, size=n, p=weights)
    return [DocType(int(v)) for v in draws]


class RandomBaselinePredictor:
    """Every row gets the first draw of the model seed, so ``predict`` and
    ``predict_batch`` are deterministic and agree row by row. Only
    cross-validation draws one label per row (baseline_random_predict)."""

    def __init__(self, parameters: dict, seed: int):
        self.weights = number_array(parameters["weights"], (N_CLASSES,), "weights")
        if abs(self.weights.sum() - 1.0) > 1e-9 or (self.weights < 0).any():
            raise ModelFormatError(f"baseline weights must sum to 1: {parameters['weights']!r}")
        self._first_draw = int(np.random.default_rng(seed).choice(N_CLASSES, p=self.weights))

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros((X.shape[0], N_CLASSES))
        scores[:, self._first_draw] = 1.0
        return scores


class ThresholdBaselinePredictor:
    """The threshold rule: a row is the first class in THRESHOLD_TEST_ORDER
    whose bounds all contain its features; the fallback is tested last, as
    a box without bounds."""

    def __init__(self, parameters: dict, features: tuple[str, ...]):
        if features != FEATURE_IDS:
            raise ModelFormatError("baseline-threshold requires the full feature set")
        table = ThresholdTable.from_dict(parameters["table"])
        fallback = DocType.from_label(parameters["fallback"])
        bounds = [[table.bounds[(t, fid)] for fid in FEATURE_IDS] for t in THRESHOLD_TEST_ORDER]
        bounds.append([(-np.inf, np.inf)] * len(FEATURE_IDS))
        self.lower, self.upper = np.array(bounds).transpose(2, 0, 1)
        self.scores = np.eye(N_CLASSES)[[*THRESHOLD_TEST_ORDER, fallback]]

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        rows = X[:, None, :]
        inside = ((self.lower <= rows) & (rows <= self.upper)).all(axis=2)
        return self.scores[inside.argmax(axis=1)]
