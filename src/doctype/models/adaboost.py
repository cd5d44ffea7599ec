"""Multi-class boosting (SAMME) over depth-limited Gini trees.

The fit draws nothing, so it takes no seed, and a round depends only on
the rounds before it. So an r-round model is the first r rounds of any
longer run on the same data and other hyperparameters, an early stop
included.

``fit_adaboost`` boosts a list of independent problems in lockstep, as a
sweep's folds are: each round grows the trees of every problem still
boosting in one ``grow_trees`` call. Each problem keeps its own presort,
weights, error and stopping rule, and one that stops leaves the batch, so
its fit is the one it gets alone.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator

import numpy as np

from ..errors import TrainingError
from ..ingest import N_CLASSES
from ..ioutils import number_array
from .tree import ForestPredictor, Tree, grow_trees, stored

_ERR_FLOOR = 1e-10

#: Random guessing's error, 1 - 1/N_CLASSES, less 16 ulps. A learner's
#: error is a rounded sum of weights, so one no better than random may land
#: a few ulps either side of it; below it, it would boost a round of alpha
#: about 1e-16, which carries no information.
_RANDOM_ERR = 1.0 - 1.0 / N_CLASSES - 8 * sys.float_info.epsilon


def fit_adaboost(problems, hyperparameters) -> Iterator[dict | TrainingError]:
    """Boost each ``(X, y)`` problem; return an iterator of each one's
    parameters, its trees as ``tree.stored`` gives them and its round
    weights ``"alphas"``, or the TrainingError it fails with, in order. The
    boosting is done when this returns.
    """
    limits = {key: hyperparameters[key] for key in ("max_depth", "min_leaf_size")}
    # rounds change only the weights, so one presort serves them all
    orders = [np.argsort(X.T, axis=1, kind="stable") for X, _ in problems]
    weights = [np.full(len(y), 1.0 / len(y)) for _, y in problems]
    fits = [{"trees": [], "alphas": []} for _ in problems]
    live = list(range(len(problems)))
    for _ in range(hyperparameters["rounds"]):
        if not live:
            break
        grown = grow_trees([(*problems[i], weights[i], 0, orders[i]) for i in live], **limits)
        boosting = []
        for i, (tree, leaf) in zip(live, grown):
            # each leaf's class: the first of its most probable ones
            miss = tree.dist.argmax(axis=1)[leaf] != problems[i][1]
            err = float(np.add.reduce(weights[i][miss]))
            if err >= _RANDOM_ERR:
                # weak learner no better than random guessing; stop boosting
                continue
            err = max(err, _ERR_FLOOR)
            alpha = math.log((1.0 - err) / err) + math.log(N_CLASSES - 1.0)
            fits[i]["trees"].append(tree)
            fits[i]["alphas"].append(alpha)
            if err <= _ERR_FLOOR:
                continue
            weights[i] = weights[i] * np.exp(alpha * miss)
            weights[i] /= np.add.reduce(weights[i])
            boosting.append(i)
        live = boosting
    return (
        {**stored(fit["trees"]), "alphas": fit["alphas"]} if fit["trees"]
        else TrainingError("boosting found no weak learner better than random")
        for fit in fits
    )


def adaboost_predictor(parameters: dict, n_features: int) -> ForestPredictor:
    """The forest predictor voting each round's weight at its leaf's argmax
    class, in round order; raises on weights it cannot vote with."""
    forest, sizes = Tree.read(parameters)
    alphas = number_array(parameters["alphas"], (len(sizes),), "alphas")
    if (alphas <= 0).any():
        raise ValueError("boosting weights must be positive")
    return ForestPredictor(forest, sizes, n_features, alphas)
