"""Multi-class boosting (SAMME) over depth-limited Gini trees.

The fit ignores its seed, and a round depends only on the rounds before
it. So an r-round model is the first r rounds of any longer run on the same
data and other hyperparameters, an early stop included, and
``models.truncate`` cuts one from the other.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import TrainingError
from ..ingest import N_CLASSES
from .artifact import model_size
from .tree import CompiledTrees, ForestPredictor, grow_tree

_ERR_FLOOR = 1e-10


def fit_adaboost(X, y, seed, hyperparameters) -> dict:
    del seed
    rounds = model_size("adaboost", hyperparameters)
    max_depth = int(hyperparameters.get("max_depth", 2))
    min_leaf = int(hyperparameters.get("min_leaf_size", 1))
    n = len(y)
    weights = np.full(n, 1.0 / n)
    trees: list[list[dict]] = []
    alphas: list[float] = []
    for _ in range(rounds):
        nodes = grow_tree(
            X, y, sample_weight=weights, max_depth=max_depth, min_leaf_size=min_leaf
        )
        predicted = ForestPredictor([nodes], max_depth).scores_matrix(X).argmax(axis=1)
        miss = predicted != y
        err = float(weights[miss].sum())
        if err >= 1.0 - 1.0 / N_CLASSES:
            # weak learner no better than random guessing; stop boosting
            break
        err = max(err, _ERR_FLOOR)
        alpha = math.log((1.0 - err) / err) + math.log(N_CLASSES - 1.0)
        trees.append(nodes)
        alphas.append(alpha)
        if err <= _ERR_FLOOR:
            break
        weights = weights * np.exp(alpha * miss)
        weights /= weights.sum()
    if not trees:
        raise TrainingError("boosting found no weak learner better than random")
    return {"trees": trees, "alphas": alphas}


class AdaboostPredictor:
    """Weighted vote of round predictions; scores normalized by total weight.

    Each leaf carries its tree's weight at the leaf's argmax class, so the
    votes add up over trees in tree order, as the rounds were fitted.
    """

    def __init__(self, parameters: dict, depth: int):
        self.compiled = CompiledTrees(parameters["trees"], depth)
        alphas = np.repeat(np.asarray(parameters["alphas"], dtype=float), self.compiled.sizes)
        picks = self.compiled.dist.argmax(axis=1)
        self.votes = np.where(np.arange(N_CLASSES) == picks[:, None], alphas[:, None], 0.0)
        self._total = sum(parameters["alphas"])

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        return self.votes[self.compiled.leaves(X)].sum(axis=0) / self._total
