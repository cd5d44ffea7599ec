"""k-nearest-neighbours over the stored (transformed) training set."""

from __future__ import annotations

import numpy as np

from ..errors import ModelFormatError
from ..ingest import N_CLASSES
from ..ioutils import number_array
from .artifact import model_size

# query rows per step, to bound the (rows, train) distance matrix
_CHUNK_ROWS = 128


def fit_knn(X, y, seed, hyperparameters) -> dict:
    del seed
    return {
        "k": model_size("knn", hyperparameters),
        "train_x": [[float(v) for v in row] for row in X],
        "train_y": [int(v) for v in y],
    }


class KnnPredictor:
    """Euclidean kNN; neighbour ties resolve to the earlier training row.

    Scores are neighbour-vote fractions. k is clamped to the training
    size when the stored set is smaller.
    """

    def __init__(self, parameters: dict, n_features: int):
        k, train_y = parameters["k"], parameters["train_y"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ModelFormatError(f"knn k must be an integer >= 1, got {k!r}")
        self.train_x = number_array(parameters["train_x"], (None, n_features), "train_x")
        if len(train_y) != len(self.train_x) or not all(
            type(v) is int and 0 <= v < N_CLASSES for v in train_y
        ):
            raise ValueError(f"train_y must be {len(self.train_x)} class codes")
        self.train_y = np.asarray(train_y, dtype=int)
        self.k = min(k, len(self.train_y))
        self._is_class = self.train_y == np.arange(N_CLASSES)[:, None]

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros((X.shape[0], N_CLASSES))
        for start in range(0, X.shape[0], _CHUNK_ROWS):
            chunk = X[start : start + _CHUNK_ROWS]
            # squared distances added in feature order, the same rounding for any chunk
            d2 = (chunk[:, :1] - self.train_x[:, 0]) ** 2
            for j in range(1, X.shape[1]):
                d2 += (chunk[:, j : j + 1] - self.train_x[:, j]) ** 2
            kth = np.partition(d2, self.k - 1, axis=1)[:, self.k - 1 : self.k]
            # every row nearer than the k-th distance, then the earliest rows at it
            nearer = d2 < kth
            at_kth = d2 == kth
            room = self.k - nearer.sum(axis=1, keepdims=True)
            chosen = nearer | (at_kth & (np.cumsum(at_kth, axis=1) <= room))
            for c in range(N_CLASSES):
                votes[start : start + len(chunk), c] = (chosen & self._is_class[c]).sum(axis=1)
        return votes / votes.sum(axis=1, keepdims=True)
