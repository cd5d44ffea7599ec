"""Gini decision trees and bootstrapped random forests.

Trees split on ``x <= v`` where v is an observed training value, so any
strictly increasing per-feature remapping of train and test data leaves
predictions unchanged. ``stats.preserves_order`` checks that a fitted
transform is such a remapping on given data, and ``evaluation.sweep``
shares one CV result across the transforms that pass it. Growth is
best-first by impurity decrease, which lets a ``max_leaf_nodes`` budget
pick the most valuable splits first; without a budget the result is
identical to exhaustive recursive growth.

A random forest grows tree i from ``SeedSequence(seed).spawn(n_trees)[i]``,
which does not depend on ``n_trees``. So an n-tree forest is the first n
trees of any larger forest fitted with the same seed, data and other
hyperparameters, and ``models.truncate`` cuts one from the other.

Trees are stored as dict nodes and compiled for prediction into flat
arrays (feature, threshold, left, right, dist), the trees of an ensemble
stacked end to end, after scikit-learn's array trees and QuickScorer
(Lucchese et al., SIGIR 2015). All rows of all trees move down together,
one level per step, for the deepest tree's depth. A leaf compiles to a
split at threshold ``+inf`` whose children are the leaf itself, so a row
that reaches a shallow leaf stays there without a per-row or per-tree test.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import ModelFormatError
from ..ingest import N_CLASSES
from ..ioutils import finite_number
from .artifact import model_size

_NO_DIST = (0.0,) * N_CLASSES


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray | None = None,
    *,
    max_depth: int | None = None,
    min_leaf_size: int = 1,
    max_leaf_nodes: int | None = None,
    feature_subset: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[dict]:
    """Build a tree as a flat node list.

    Each node is ``{"feature", "threshold", "left", "right", "dist"}``;
    leaves have feature -1 and a class distribution summing to 1.
    """
    n, d = X.shape
    if sample_weight is None:
        sample_weight = np.full(n, 1.0 / n)
    if feature_subset is not None and rng is None:
        raise ValueError("feature_subset requires an rng")

    nodes: list[dict] = []
    heap: list[tuple[float, int, int, tuple]] = []
    counter = 0

    def new_node(indices: np.ndarray, depth: int) -> int:
        nonlocal counter
        node_id = len(nodes)
        dist = _class_distribution(y[indices], sample_weight[indices])
        nodes.append(
            {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "dist": dist}
        )
        if max_depth is not None and depth >= max_depth:
            return node_id
        if len(indices) < 2 * min_leaf_size or len(indices) < 2:
            return node_id
        if feature_subset is not None and feature_subset < d:
            feats = np.sort(rng.choice(d, size=feature_subset, replace=False))
        else:
            feats = np.arange(d)
        split = _best_split(X, y, sample_weight, indices, feats, min_leaf_size)
        if split is not None:
            decrease, feature, threshold, left_idx, right_idx = split
            heapq.heappush(
                heap,
                (-decrease, counter, node_id, (feature, threshold, left_idx, right_idx, depth)),
            )
            counter += 1
        return node_id

    new_node(np.arange(n), 0)
    n_leaves = 1
    while heap and (max_leaf_nodes is None or n_leaves < max_leaf_nodes):
        _, _, node_id, (feature, threshold, left_idx, right_idx, depth) = heapq.heappop(heap)
        left = new_node(left_idx, depth + 1)
        right = new_node(right_idx, depth + 1)
        nodes[node_id]["feature"] = int(feature)
        nodes[node_id]["threshold"] = float(threshold)
        nodes[node_id]["left"] = left
        nodes[node_id]["right"] = right
        n_leaves += 1
    return nodes


def _class_distribution(labels: np.ndarray, weights: np.ndarray) -> list[float]:
    counts = np.bincount(labels, weights=weights, minlength=N_CLASSES)
    total = counts.sum()
    if total <= 0:
        return [1.0 / N_CLASSES] * N_CLASSES
    return [float(c) for c in counts / total]


def _best_split(X, y, sample_weight, indices, features, min_leaf_size):
    """Scan candidate thresholds on each feature; return the best valid split.

    Candidates are boundaries between distinct sorted values; ties in
    impurity decrease resolve to the lowest feature id, then the lowest
    threshold, making growth deterministic.
    """
    labels = y[indices]
    weights = sample_weight[indices]
    total_w = weights.sum()
    if total_w <= 0:
        return None
    total_counts = np.bincount(labels, weights=weights, minlength=N_CLASSES)
    gini_parent = 1.0 - ((total_counts / total_w) ** 2).sum()
    if gini_parent <= 0.0:
        return None

    best = None
    for feature in features:
        values = X[indices, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_labels = labels[order]
        sorted_weights = weights[order]

        boundaries = np.nonzero(sorted_values[:-1] < sorted_values[1:])[0]
        if boundaries.size == 0:
            continue
        left_sizes = boundaries + 1
        valid = (left_sizes >= min_leaf_size) & (len(indices) - left_sizes >= min_leaf_size)
        boundaries = boundaries[valid]
        if boundaries.size == 0:
            continue

        onehot = np.zeros((len(indices), N_CLASSES))
        onehot[np.arange(len(indices)), sorted_labels] = sorted_weights
        cum_counts = np.cumsum(onehot, axis=0)
        cum_weights = np.cumsum(sorted_weights)

        left_w = cum_weights[boundaries]
        right_w = total_w - left_w
        left_counts = cum_counts[boundaries]
        right_counts = total_counts - left_counts
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_left = 1.0 - np.where(
                left_w > 0, (left_counts**2).sum(axis=1) / left_w**2, 1.0
            )
            gini_right = 1.0 - np.where(
                right_w > 0, (right_counts**2).sum(axis=1) / right_w**2, 1.0
            )
        decrease = gini_parent - (left_w * gini_left + right_w * gini_right) / total_w
        pick = int(np.argmax(decrease))
        if decrease[pick] <= 1e-12:
            continue
        if best is None or decrease[pick] > best[0]:
            threshold = float(sorted_values[boundaries[pick]])
            mask = values <= threshold
            best = (
                float(decrease[pick]),
                int(feature),
                threshold,
                indices[mask],
                indices[~mask],
            )
    return best


class CompiledTrees:
    """Flat node arrays for a sequence of trees, with global node ids.

    Compiling checks each tree (``_tree_depth``). ``depth`` is the deepest
    tree's depth. Split nodes get a zero distribution: routing for
    ``depth`` steps always ends on a leaf.
    """

    def __init__(self, trees, n_features: int):
        self.depth = max(_tree_depth(nodes, n_features) for nodes in trees)
        self.sizes = [len(nodes) for nodes in trees]
        self.roots = np.cumsum([0] + self.sizes[:-1])
        columns = []
        for base, nodes in zip(self.roots.tolist(), trees):
            for i, node in enumerate(nodes, base):
                if node["feature"] < 0:
                    columns.append((0, np.inf, i, i, node["dist"]))
                else:
                    left, right = base + node["left"], base + node["right"]
                    columns.append((node["feature"], node["threshold"], left, right, _NO_DIST))
        self.feature, self.threshold, self.left, self.right, dist = map(np.array, zip(*columns))
        self.dist = dist.astype(float)

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf id each row reaches in each tree, shape (trees, rows)."""
        rows = np.arange(X.shape[0])
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        for _ in range(self.depth):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return node


def _tree_depth(nodes, n_features: int) -> int:
    """Check one tree's nodes and shape; return its depth.

    The walk from node 0 must reach every node exactly once, so routing a
    row cannot loop or merge (a node that is its own child, a shared child)
    and the file holds one tree (no unreachable node). A split tests one of
    ``n_features`` columns against a finite threshold; a leaf holds class
    probabilities.
    """
    if not nodes:
        raise ModelFormatError("tree has no nodes")
    reached = [True] + [False] * (len(nodes) - 1)
    level, depth = [0], -1
    while level:
        depth, below = depth + 1, []
        for parent in level:
            node = nodes[parent]
            if node["feature"] < 0:
                dist = node["dist"]
                shaped = len(dist) == N_CLASSES and all(finite_number(p) and p >= 0 for p in dist)
                if not shaped or abs(sum(dist) - 1.0) > 1e-9:
                    raise ModelFormatError(f"leaf is not {N_CLASSES} probabilities: {dist!r}")
                continue
            if not isinstance(node["feature"], int) or node["feature"] >= n_features:
                raise ModelFormatError(f"split references feature {node['feature']}")
            if not finite_number(node["threshold"]):
                raise ModelFormatError(f"split threshold is not a number: {node['threshold']!r}")
            for child in (node["left"], node["right"]):
                if not 0 <= child < len(nodes):
                    raise ModelFormatError(f"split references node {child}")
                if child == parent:
                    raise ModelFormatError(f"node {child} is its own child")
                if reached[child]:
                    raise ModelFormatError(f"node {child} has more than one parent")
                reached[child] = True
                below.append(child)
        level = below
    if not all(reached):
        raise ModelFormatError(f"node {reached.index(False)} is unreachable from node 0")
    return depth


def balanced_weights(y: np.ndarray) -> np.ndarray:
    """Sample weights that give each observed class equal total mass."""
    counts = np.bincount(y, minlength=N_CLASSES)
    present = counts > 0
    per_class = np.zeros(N_CLASSES)
    per_class[present] = 1.0 / (present.sum() * counts[present])
    return per_class[y]


def _sample_weights(y: np.ndarray, hyperparameters: dict) -> np.ndarray | None:
    if hyperparameters.get("class_weight") == "balanced":
        return balanced_weights(y)
    return None


def fit_decision_tree(X, y, seed, hyperparameters) -> dict:
    del seed
    nodes = grow_tree(
        X,
        y,
        sample_weight=_sample_weights(y, hyperparameters),
        max_depth=hyperparameters.get("max_depth"),
        min_leaf_size=hyperparameters.get("min_leaf_size", 1),
        max_leaf_nodes=hyperparameters.get("max_leaf_nodes"),
    )
    return {"nodes": nodes}


def fit_random_forest(X, y, seed, hyperparameters) -> dict:
    n_trees = model_size("random-forest", hyperparameters)
    bootstrap = hyperparameters.get("bootstrap", True)
    subset = hyperparameters.get("feature_subset", 2)
    subset = min(subset, X.shape[1])
    seeds = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for tree_seed in seeds:
        rng = np.random.default_rng(tree_seed)
        if bootstrap:
            sample = rng.integers(0, len(y), len(y))
            Xb, yb = X[sample], y[sample]
        else:
            Xb, yb = X, y
        trees.append(
            grow_tree(
                Xb,
                yb,
                sample_weight=_sample_weights(yb, hyperparameters),
                max_depth=hyperparameters.get("max_depth"),
                min_leaf_size=hyperparameters.get("min_leaf_size", 1),
                max_leaf_nodes=hyperparameters.get("max_leaf_nodes"),
                feature_subset=subset,
                rng=rng,
            )
        )
    return {"trees": trees}


class ForestPredictor:
    """Soft-voting ensemble: scores are the mean of per-tree leaf distributions.

    A decision tree is the one-tree case. Distributions are summed in tree
    order and then divided by the tree count.
    """

    def __init__(self, trees, n_features: int):
        if not trees:
            raise ModelFormatError("random-forest has no trees")
        self.compiled = CompiledTrees(trees, n_features)
        self.n_trees = len(trees)

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        return self.compiled.dist[self.compiled.leaves(X)].sum(axis=0) / self.n_trees
