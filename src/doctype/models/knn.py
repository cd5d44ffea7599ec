"""k-nearest-neighbours over the stored (transformed) training set."""

from __future__ import annotations

import numpy as np

from ..ingest import N_CLASSES

# exact pairwise differences, chunked to bound the (rows, train, d) temporary
_CHUNK_ROWS = 128


def fit_knn(X, y, seed, hyperparameters) -> dict:
    del seed
    return {
        "k": int(hyperparameters.get("k", 5)),
        "train_x": [[float(v) for v in row] for row in X],
        "train_y": [int(v) for v in y],
    }


class KnnPredictor:
    """Euclidean kNN; neighbour ties resolve to the earlier training row.

    Scores are neighbour-vote fractions. k is clamped to the training
    size when the stored set is smaller.
    """

    def __init__(self, parameters: dict):
        self.train_x = np.asarray(parameters["train_x"], dtype=float)
        self.train_y = np.asarray(parameters["train_y"], dtype=int)
        self.k = min(int(parameters["k"]), len(self.train_y))

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros((X.shape[0], N_CLASSES))
        for start in range(0, X.shape[0], _CHUNK_ROWS):
            chunk = X[start : start + _CHUNK_ROWS]
            d2 = ((chunk[:, None, :] - self.train_x[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            for offset, row in enumerate(nearest):
                votes[start + offset] = np.bincount(
                    self.train_y[row], minlength=N_CLASSES
                )
        return votes / votes.sum(axis=1, keepdims=True)
