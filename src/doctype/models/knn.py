"""k-nearest-neighbours over the stored (transformed) training set, scored
as an ensemble of each row's neighbours: prefix s is the s-NN model.

Query rows are scored in blocks of ``max(1, _CHUNK_CELLS // n_train)``, so
each block's (rows, train) distance matrix and its temporaries stay in
cache whatever the training size (loop blocking: Lam, Rothberg & Wolf,
ASPLOS 1991). ``predict_batch`` of 400 queries, k 5, z-score, medians of 15
interleaved repeats on a 2-CPU Linux host (Python 3.11, numpy 2.4), with
the tracemalloc peak:

    training rows   128-row blocks    2^15 cells       2^16 cells
    11,500          55 ms, 36.8 MB    30 ms, 0.8 MB    29 ms, 1.5 MB
    2,000           10.0 ms           7.9 ms           8.3 ms
    270             1.7 ms            1.6 ms           1.7 ms

2^17 took 32 ms at 11,500 rows. The cap is 2^15: within 5% of 2^16 at
11,500 rows (2 rows a block), faster at the smaller sizes (121 rows a
block at 270) and at half the peak. A block only groups rows: each row's
distances are summed in feature order whatever its block, so no
neighbour, tie or score depends on the cap.

A model stores ``train_x`` as the rows' little-endian float64 bytes in
row order, base64-encoded, and ``train_y`` as one list of class codes.
"""

from __future__ import annotations

import base64

import numpy as np

from ..errors import ModelFormatError
from ..ingest import N_CLASSES
from ..ioutils import integer_array

#: distance cells a block of query rows may hold
_CHUNK_CELLS = 1 << 15


def fit_knn(X, y, seed, hyperparameters) -> dict:
    del seed
    return {
        "k": hyperparameters["k"],
        "train_x": base64.b64encode(np.asarray(X, dtype="<f8").tobytes()).decode("ascii"),
        "train_y": y.tolist(),
    }


def _rows(text, n_rows: int, n_features: int) -> np.ndarray:
    """Stored ``train_x`` as an (n_rows, n_features) float array: the one
    base64 encoding of exactly that many finite little-endian float64
    values; anything else raises ValueError naming train_x."""
    if not isinstance(text, str):
        raise ValueError("train_x must be a base64 string")
    if not n_rows:
        raise ValueError("train_x must store at least one row")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character beyond ASCII
        raise ValueError(f"train_x is not base64: {exc}") from exc
    if base64.b64encode(raw).decode("ascii") != text:
        # padding or trailing bits that the decoder passes and fit_knn never writes
        raise ValueError("train_x is not base64 as fit_knn writes it")
    if len(raw) != 8 * n_rows * n_features:
        raise ValueError(
            f"train_x must hold {n_rows} x {n_features} float64 values, got {len(raw)} bytes"
        )
    rows = np.frombuffer(raw, dtype="<f8").reshape(n_rows, n_features)
    if not np.isfinite(rows).all():
        raise ValueError("train_x must hold finite numbers")
    return rows


class KnnPredictor:
    """Euclidean kNN; neighbour ties resolve to the earlier training row.

    Scores are neighbour-vote fractions. k is clamped to the training
    size when the stored set is smaller.
    """

    def __init__(self, parameters: dict, n_features: int):
        k = parameters["k"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ModelFormatError(f"knn k must be an integer >= 1, got {k!r}")
        self.train_y = integer_array(parameters["train_y"], None, "train_y")
        if ((self.train_y < 0) | (self.train_y >= N_CLASSES)).any():
            raise ValueError(f"train_y must be {len(self.train_y)} class codes")
        train_x = _rows(parameters["train_x"], len(self.train_y), n_features)
        self.columns = train_x.T.copy()  # each feature's values contiguous
        self.k = min(k, len(self.train_y))

    def prefix_scores(self, X: np.ndarray, depth: int | None = None) -> np.ndarray:
        """Prefix s holds each row's vote fractions over its first s neighbours
        by (squared distance, training row), shape (k, rows, classes). Only
        a tree has a ``depth``."""
        n_train = len(self.train_y)
        block = max(1, _CHUNK_CELLS // n_train)
        neighbours = np.empty((X.shape[0], self.k), dtype=int)
        for start in range(0, X.shape[0], block):
            chunk = X[start : start + block]
            # squared distances added in feature order, the same rounding for any block
            d2 = (chunk[:, :1] - self.columns[0]) ** 2
            for j in range(1, X.shape[1]):
                d2 += (chunk[:, j : j + 1] - self.columns[j]) ** 2
            kth = np.partition(d2, self.k - 1, axis=1)[:, self.k - 1 : self.k]
            chosen = d2 <= kth
            if np.count_nonzero(chosen) > chosen.shape[0] * self.k:
                # rows tie at the k-th distance: keep the earliest that fit
                at_kth, room = d2 == kth, self.k - (d2 < kth).sum(axis=1, keepdims=True)
                chosen &= ~at_kth | (np.cumsum(at_kth, axis=1) <= room)
            rows = np.flatnonzero(chosen).reshape(-1, self.k) % n_train
            # a stable sort of rows in training order breaks distance ties by row
            order = np.argsort(np.take_along_axis(d2, rows, axis=1), axis=1, kind="stable")
            neighbours[start : start + len(chunk)] = np.take_along_axis(rows, order, axis=1)
        votes = np.eye(N_CLASSES)[self.train_y[neighbours.T]].cumsum(axis=0)
        return votes / np.arange(1, self.k + 1)[:, None, None]

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        return self.prefix_scores(X)[-1]
