"""The two reference baselines: weighted random guessing and threshold rules."""

from __future__ import annotations

import numpy as np

from ..errors import ModelFormatError, TrainingError
from ..ingest import DOC_TYPES, FEATURE_IDS, N_CLASSES, DocType
from ..ioutils import known_keys, number_array
from ..stats import THRESHOLD_FORMAT_VERSION, check_quantile_levels, derive_thresholds
from .tree import splitmix64

#: Classes are tested most-restrictive-first; unmatched vectors fall back
#: to the majority class.
THRESHOLD_TEST_ORDER = (DocType.THESIS, DocType.SLIDES, DocType.RESEARCH)
FALLBACK_CLASS = DocType.RESEARCH

#: the keys of a stored threshold table (``stats.derive_thresholds``)
_TABLE_KEYS = ("format_version", "quantile_lo", "quantile_hi", "bounds")


def fit_baseline_random(X, y, seed, hyperparameters) -> dict:
    del X, seed, hyperparameters
    counts = np.bincount(y, minlength=N_CLASSES)
    return {"weights": [float(v) for v in counts / counts.sum()]}


def fit_baseline_threshold(X, y, seed, hyperparameters) -> dict:
    del seed
    if X.shape[1] != len(FEATURE_IDS):
        raise TrainingError("baseline-threshold requires the full feature set")
    table = derive_thresholds(X, y, hyperparameters["quantile_lo"], hyperparameters["quantile_hi"])
    return {"table": table, "fallback": FALLBACK_CLASS.label}


class RandomBaselinePredictor:
    """Weighted random guessing as a pure function of the model seed and the
    row: a counter-based draw (Salmon et al., SC 2011). The row's float64
    bits, column by column, are folded into a key from the seed with
    ``splitmix64``; the hash's top 53 bits give a uniform u in [0, 1), and
    the row is the class whose cumulative weight interval holds u. So a
    row's label does not depend on the rows beside it, ``predict`` and
    ``predict_batch`` agree, equal rows (``-0.0`` and ``0.0`` too) get equal
    labels, and a class of weight 0 is never drawn. Scores are one-hot."""

    def __init__(self, parameters: dict, seed: int):
        weights = number_array(parameters["weights"], (N_CLASSES,), "weights")
        if abs(weights.sum() - 1.0) > 1e-9 or (weights < 0).any():
            raise ModelFormatError(f"baseline weights must sum to 1: {parameters['weights']!r}")
        self._key = np.random.SeedSequence(seed).generate_state(1, np.uint64)
        self._bounds = np.cumsum(weights)
        # a u at or above the rounded total goes to the last class with weight
        self._last = int(np.flatnonzero(weights)[-1])

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        bits = (X + 0.0).view(np.uint64)
        h = np.repeat(self._key, len(bits))
        for column in bits.T:
            h = splitmix64(h ^ column)
        u = (h >> np.uint64(11)) * 2.0**-53
        labels = np.minimum(np.searchsorted(self._bounds, u, side="right"), self._last)
        return np.eye(N_CLASSES)[labels]


class ThresholdBaselinePredictor:
    """The threshold rule: a row is the first class in THRESHOLD_TEST_ORDER
    whose bounds all contain its features; the fallback is tested last, as
    a box without bounds. Stored bounds are finite, each lower <= upper."""

    def __init__(self, parameters: dict, features: tuple[str, ...]):
        if features != FEATURE_IDS:
            raise ModelFormatError("baseline-threshold requires the full feature set")
        table = known_keys(parameters["table"], _TABLE_KEYS, "the threshold table")
        version = table["format_version"]
        if type(version) is not int or version != THRESHOLD_FORMAT_VERSION:
            raise ModelFormatError(f"unsupported threshold format version {version!r}")
        levels = number_array([table["quantile_lo"], table["quantile_hi"]], (2,), "quantile levels")
        check_quantile_levels(*levels.tolist())
        by_class = known_keys(table["bounds"], [t.label for t in DOC_TYPES], "bounds")
        rows = [known_keys(by_class[t.label], FEATURE_IDS, f"{t.label} bounds")
                for t in THRESHOLD_TEST_ORDER]
        cells = [[row[fid] for fid in FEATURE_IDS] for row in rows]
        bounds = number_array(cells, (N_CLASSES, len(FEATURE_IDS), 2), "threshold bounds")
        if (bounds[..., 0] > bounds[..., 1]).any():
            raise ValueError("threshold bounds must have lower <= upper")
        fallback = DocType.from_label(parameters["fallback"])
        unbounded = np.full((1, len(FEATURE_IDS), 2), [-np.inf, np.inf])
        self.lower, self.upper = np.concatenate([bounds, unbounded]).transpose(2, 0, 1)
        self.scores = np.eye(N_CLASSES)[[*THRESHOLD_TEST_ORDER, fallback]]

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        rows = X[:, None, :]
        inside = ((self.lower <= rows) & (rows <= self.upper)).all(axis=2)
        return self.scores[inside.argmax(axis=1)]
