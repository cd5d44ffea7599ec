"""Brute-force reference for ``doctype.models.svm``: the one-vs-rest
subgradient descent as the library wrote it before it kept each class's
signed rows, gathering the violating rows and their targets with boolean
masks every epoch. ``fit_linear_svm`` must return the same weights and
biases, to the last bit, for the same arguments.
"""

from __future__ import annotations

import numpy as np

from doctype.ingest import N_CLASSES


def reference_fit_linear_svm(X, y, seed, hyperparameters) -> dict:
    del seed
    epochs = hyperparameters["epochs"]
    step = float(hyperparameters["step"])
    reg = float(hyperparameters["reg"])
    n, d = X.shape
    weights = []
    biases = []
    for c in range(N_CLASSES):
        target = np.where(y == c, 1.0, -1.0)
        w = np.zeros(d)
        b = 0.0
        for _ in range(epochs):
            margins = target * (X @ w + b)
            violating = margins < 1.0
            grad_w = reg * w - (target[violating, None] * X[violating]).sum(axis=0) / n
            grad_b = -target[violating].sum() / n
            w = w - step * grad_w
            b = b - step * grad_b
        weights.append([float(v) for v in w])
        biases.append(float(b))
    return {"weights": weights, "biases": biases}
