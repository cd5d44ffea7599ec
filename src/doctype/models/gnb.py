"""Gaussian naive Bayes over the four features."""

from __future__ import annotations

import math

import numpy as np

from ..ingest import N_CLASSES

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
    def __init__(self, parameters: dict):
        self.priors = parameters["priors"]
        self.means = parameters["means"]
        self.variances = parameters["variances"]

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        log_joint = np.full((X.shape[0], N_CLASSES), -np.inf)
        for c in range(N_CLASSES):
            if self.priors[c] <= 0.0 or self.means[c] is None:
                continue
            mean = np.asarray(self.means[c])
            var = np.asarray(self.variances[c])
            log_pdf = -0.5 * (_LOG_2PI + np.log(var) + (X - mean) ** 2 / var)
            log_joint[:, c] = math.log(self.priors[c]) + log_pdf.sum(axis=1)
        shifted = log_joint - log_joint.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        weights[np.isneginf(log_joint)] = 0.0
        return weights / weights.sum(axis=1, keepdims=True)
