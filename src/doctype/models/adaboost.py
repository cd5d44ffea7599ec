"""Multi-class boosting (SAMME) over depth-limited Gini trees.

The fit ignores its seed, and a round depends only on the rounds before
it. So an r-round model is the first r rounds of any longer run on the same
data and other hyperparameters, an early stop included.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ModelFormatError, TrainingError
from ..ingest import N_CLASSES
from ..ioutils import finite_number
from .tree import ForestPredictor, grow_tree

_ERR_FLOOR = 1e-10


def fit_adaboost(X, y, seed, hyperparameters) -> dict:
    del seed
    rounds = hyperparameters["rounds"]
    max_depth = hyperparameters["max_depth"]
    min_leaf = hyperparameters["min_leaf_size"]
    n = len(y)
    weights = np.full(n, 1.0 / n)
    # rounds change only the weights, so one presort serves them all
    order = np.argsort(X.T, axis=1, kind="stable")
    trees: list[list[dict]] = []
    alphas: list[float] = []
    for _ in range(rounds):
        nodes, leaf = grow_tree(
            X, y, sample_weight=weights, max_depth=max_depth, min_leaf_size=min_leaf, order=order
        )
        # each leaf's class: the first of its most probable ones, as argmax
        votes = [node["dist"].index(max(node["dist"])) for node in nodes]
        predicted = np.array(votes)[leaf]
        miss = predicted != y
        err = float(np.add.reduce(weights[miss]))
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
        weights /= np.add.reduce(weights)
    if not trees:
        raise TrainingError("boosting found no weak learner better than random")
    return {"trees": trees, "alphas": alphas}


def adaboost_predictor(parameters: dict, n_features: int) -> ForestPredictor:
    """The forest predictor voting each round's weight at its leaf's argmax
    class, in round order; raises on weights it cannot vote with."""
    trees, alphas = parameters["trees"], parameters["alphas"]
    if not trees:
        raise ModelFormatError("adaboost has no trees")
    if len(alphas) != len(trees):
        raise ModelFormatError("adaboost weight/tree count mismatch")
    for alpha in alphas:
        if not finite_number(alpha):
            raise ModelFormatError(f"non-finite boosting weight: {alpha!r}")
        if alpha <= 0:
            raise ModelFormatError(f"boosting weight is not positive: {alpha!r}")
    return ForestPredictor(trees, n_features, alphas)
