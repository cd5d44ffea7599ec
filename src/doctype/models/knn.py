"""k-nearest-neighbours over the stored (transformed) training set, scored
as an ensemble of each row's neighbours: prefix s is the s-NN model."""

from __future__ import annotations

import numpy as np

from ..errors import ModelFormatError
from ..ingest import N_CLASSES
from ..ioutils import integer_array, number_array

# query rows per step, to bound the (rows, train) distance matrix
_CHUNK_ROWS = 128


def fit_knn(X, y, seed, hyperparameters) -> dict:
    del seed
    return {
        "k": hyperparameters["k"],
        "train_x": X.tolist(),
        "train_y": y.tolist(),
    }


class KnnPredictor:
    """Euclidean kNN; neighbour ties resolve to the earlier training row.

    Scores are neighbour-vote fractions. k is clamped to the training
    size when the stored set is smaller.
    """

    def __init__(self, parameters: dict, n_features: int):
        k = parameters["k"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ModelFormatError(f"knn k must be an integer >= 1, got {k!r}")
        train_x = number_array(parameters["train_x"], (None, n_features), "train_x")
        self.train_y = integer_array(parameters["train_y"], len(train_x), "train_y")
        if ((self.train_y < 0) | (self.train_y >= N_CLASSES)).any():
            raise ValueError(f"train_y must be {len(train_x)} class codes")
        self.columns = train_x.T.copy()  # each feature's values contiguous
        self.k = min(k, len(self.train_y))

    def prefix_scores(self, X: np.ndarray, depth: int | None = None) -> np.ndarray:
        """Prefix s holds each row's vote fractions over its first s neighbours
        by (squared distance, training row), shape (k, rows, classes). Only
        a tree has a ``depth``."""
        neighbours = np.empty((X.shape[0], self.k), dtype=int)
        for start in range(0, X.shape[0], _CHUNK_ROWS):
            chunk = X[start : start + _CHUNK_ROWS]
            # squared distances added in feature order, the same rounding for any chunk
            d2 = (chunk[:, :1] - self.columns[0]) ** 2
            for j in range(1, X.shape[1]):
                d2 += (chunk[:, j : j + 1] - self.columns[j]) ** 2
            kth = np.partition(d2, self.k - 1, axis=1)[:, self.k - 1 : self.k]
            chosen = d2 <= kth
            if np.count_nonzero(chosen) > chosen.shape[0] * self.k:
                # rows tie at the k-th distance: keep the earliest that fit
                at_kth, room = d2 == kth, self.k - (d2 < kth).sum(axis=1, keepdims=True)
                chosen &= ~at_kth | (np.cumsum(at_kth, axis=1) <= room)
            rows = np.flatnonzero(chosen).reshape(-1, self.k) % len(self.train_y)
            # a stable sort of rows in training order breaks distance ties by row
            order = np.argsort(np.take_along_axis(d2, rows, axis=1), axis=1, kind="stable")
            neighbours[start : start + len(chunk)] = np.take_along_axis(rows, order, axis=1)
        votes = np.eye(N_CLASSES)[self.train_y[neighbours.T]].cumsum(axis=0)
        return votes / np.arange(1, self.k + 1)[:, None, None]

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        return self.prefix_scores(X)[-1]
