"""Gaussian naive Bayes over the four features."""

from __future__ import annotations

import math

import numpy as np

from ..ingest import N_CLASSES
from ..ioutils import number_array

VARIANCE_FLOOR = 1e-9
_LOG_2PI = math.log(2.0 * math.pi)


def fit_gnb(X, y, seed, hyperparameters) -> dict:
    del seed, hyperparameters
    n = len(y)
    priors = [0.0] * N_CLASSES
    means: list[list[float] | None] = [None] * N_CLASSES
    variances: list[list[float] | None] = [None] * N_CLASSES
    for c in range(N_CLASSES):
        rows = X[y == c]
        if rows.shape[0] == 0:
            continue
        priors[c] = rows.shape[0] / n
        means[c] = [float(v) for v in rows.mean(axis=0)]
        variances[c] = [
            float(max(v, VARIANCE_FLOOR)) for v in rows.var(axis=0)
        ]
    return {"priors": priors, "means": means, "variances": variances}


class GnbPredictor:
    """A class with a positive prior has a mean and a positive variance per
    feature; any other class stores null ones and scores 0."""

    def __init__(self, parameters: dict, n_features: int):
        self.priors = number_array(parameters["priors"], (N_CLASSES,), "priors").tolist()
        self.classes = [c for c, prior in enumerate(self.priors) if prior > 0.0]
        if not self.classes:
            raise ValueError("no class has a positive prior")
        shape = (len(self.classes), n_features)
        self.means, self.variances = (
            number_array([parameters[key][c] for c in self.classes], shape, key)
            for key in ("means", "variances")
        )
        if (self.variances <= 0.0).any():
            raise ValueError("variances must be positive")
        unused = set(range(N_CLASSES)) - set(self.classes)
        if any(parameters[key][c] is not None for key in ("means", "variances") for c in unused):
            raise ValueError("a class without a positive prior stores null means and variances")

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        log_joint = np.full((X.shape[0], N_CLASSES), -np.inf)
        for c, mean, var in zip(self.classes, self.means, self.variances):
            log_pdf = -0.5 * (_LOG_2PI + np.log(var) + (X - mean) ** 2 / var)
            log_joint[:, c] = math.log(self.priors[c]) + log_pdf.sum(axis=1)
        shifted = log_joint - log_joint.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        weights[np.isneginf(log_joint)] = 0.0
        return weights / weights.sum(axis=1, keepdims=True)
