"""One-vs-rest linear separators trained by full-batch subgradient descent."""

from __future__ import annotations

import numpy as np

from ..ingest import N_CLASSES
from ..ioutils import number_array
from .artifact import model_size


def fit_linear_svm(X, y, seed, hyperparameters) -> dict:
    """Minimize hinge loss + L2 penalty per class for a fixed epoch count.

    The descent is full-batch and zero-initialized, hence deterministic;
    the seed is recorded on the artifact but does not affect training.
    """
    del seed
    epochs = model_size("linear-svm", hyperparameters)
    step = float(hyperparameters.get("step", 1e-2))
    reg = float(hyperparameters.get("reg", 1e-4))
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
