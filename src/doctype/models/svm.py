"""One-vs-rest linear separators trained by full-batch subgradient descent."""

from __future__ import annotations

import numpy as np

from ..ingest import N_CLASSES
from ..ioutils import number_array


def fit_linear_svm(X, y, seed, hyperparameters) -> dict:
    """Minimize hinge loss + L2 penalty per class for a fixed epoch count.

    The descent is full-batch and zero-initialized, hence deterministic;
    the seed is recorded on the artifact but does not affect training.

    Each epoch's hinge term is the sum of the violating rows of ``signed``
    (each row times its ±1 target, an exact product), gathered into an
    ``(m, d)`` C-order array. numpy reduces that along axis 0 row after
    row when d >= 2 but pairwise when d == 1, and a stored model depends
    on every rounding of the sum, so the gather and the reduction must
    stay as they are: a BLAS product (``violating @ signed``) or a running
    ``cumsum`` sums in another order and changes the weights. The bias
    term is a sum of ±1.0, an exact integer, so it is counted.
    """
    del seed
    epochs = hyperparameters["epochs"]
    step = float(hyperparameters["step"])
    reg = float(hyperparameters["reg"])
    n, d = X.shape
    weights = []
    biases = []
    for c in range(N_CLASSES):
        positive = y == c
        target = np.where(positive, 1.0, -1.0)
        signed = target[:, None] * X
        w = np.zeros(d)
        b = 0.0
        for _ in range(epochs):
            margins = target * (X @ w + b)
            violating = margins < 1.0
            grad_w = reg * w - np.compress(violating, signed, axis=0).sum(axis=0) / n
            # (positive - negative) violators; -0.0 when they cancel, as a float sum gives
            hinge_b = 2 * np.count_nonzero(violating & positive) - np.count_nonzero(violating)
            grad_b = -np.float64(hinge_b) / n
            w = w - step * grad_w
            b = b - step * grad_b
        weights.append([float(v) for v in w])
        biases.append(float(b))
    return {"weights": weights, "biases": biases}


class SvmPredictor:
    """Argmax of per-class margins; scores are a softmax for reporting only."""

    def __init__(self, parameters: dict, n_features: int):
        self.weights = number_array(parameters["weights"], (N_CLASSES, n_features), "weights")
        self.biases = number_array(parameters["biases"], (N_CLASSES,), "biases")

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        # a per-row sum, not a matrix product: BLAS may round a row
        # differently depending on how many rows share the call
        margins = (X[:, None, :] * self.weights).sum(axis=2) + self.biases
        shifted = np.exp(margins - margins.max(axis=1, keepdims=True))
        return shifted / shifted.sum(axis=1, keepdims=True)
