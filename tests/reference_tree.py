"""Brute-force references for ``doctype.models.tree``: a grower for one
tree of ``grow_trees`` and a walk that checks a model file's trees.

The grower sorts every drawn feature of each node's own rows again (stable
argsort) and scores the features one at a time; growth is best-first by
impurity decrease, ties popping in node-creation order. A node draws its
features from its path key with its own copy of splitmix64 over numpy
``uint64`` arrays, written apart from the library's. The library grower
must give the same nodes, to the JSON byte, for the same arguments and key.

``reference_distributions`` turns class counts into probabilities one
Python float at a time, as the library did before it took whole arrays.

The walk (``reference_forest_depth``) checks one tree's dict nodes at a
time, node by node from node 0; ``ForestPredictor``'s array check must
accept the same trees and raise the same first error. A model stores its
trees as columns end to end; ``tree_nodes`` and ``stored_trees`` convert
between that layout and the dict nodes used here.
"""

from __future__ import annotations

import heapq
from itertools import accumulate

import numpy as np

from doctype.errors import ModelFormatError
from doctype.ingest import N_CLASSES
from doctype.ioutils import finite_number


FIELDS = ("feature", "threshold", "left", "right", "dist")


def tree_nodes(parameters) -> list[list[dict]]:
    """A tree kind's stored ``trees`` columns and ``sizes`` as each tree's
    list of dict nodes."""
    columns, sizes = parameters["trees"], parameters["sizes"]
    nodes = [dict(zip(FIELDS, row)) for row in zip(*(columns[f] for f in FIELDS))]
    return [nodes[end - size : end] for size, end in zip(sizes, accumulate(sizes))]


def stored_trees(trees) -> dict:
    """Lists of dict nodes as a model stores them: ``trees``, the columns
    end to end, and ``sizes``, each tree's node count."""
    nodes = [node for tree in trees for node in tree]
    columns = {field: [node[field] for node in nodes] for field in FIELDS}
    return {"trees": columns, "sizes": [len(tree) for tree in trees]}


def reference_grow_tree(
    X, y, sample_weight=None, *, max_depth=None, min_leaf_size=1, max_leaf_nodes=None,
    feature_subset=None, key=0,
) -> list[dict]:
    n, d = X.shape
    if sample_weight is None:
        sample_weight = np.full(n, 1.0 / n)
    nodes: list[dict] = []
    heap: list[tuple[float, int, tuple]] = []

    def new_node(indices, depth, key):
        node_id = len(nodes)
        dist = _class_distribution(y[indices], sample_weight[indices])
        nodes.append({"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "dist": dist})
        if max_depth is not None and depth >= max_depth:
            return node_id
        if len(indices) < 2 * min_leaf_size or len(indices) < 2:
            return node_id
        if feature_subset is not None and feature_subset < d:
            hashes = _splitmix64(np.uint64(key) + np.arange(d, dtype=np.uint64) * _GAMMA)
            feats = np.sort(np.argsort(hashes, kind="stable")[:feature_subset])
        else:
            feats = np.arange(d)
        split = _best_split(X, y, sample_weight, indices, feats, min_leaf_size)
        if split is not None:
            decrease, feature, threshold, left_idx, right_idx = split
            heapq.heappush(
                heap, (-decrease, node_id, (feature, threshold, left_idx, right_idx, depth, key))
            )
        return node_id

    new_node(np.arange(n), 0, key)
    n_leaves = 1
    while heap and (max_leaf_nodes is None or n_leaves < max_leaf_nodes):
        _, node_id, (feature, threshold, left_idx, right_idx, depth, key) = heapq.heappop(heap)
        left_key, right_key = _splitmix64(np.uint64(key) ^ np.array([1, 2], dtype=np.uint64))
        left = new_node(left_idx, depth + 1, int(left_key))
        right = new_node(right_idx, depth + 1, int(right_key))
        nodes[node_id].update(
            feature=int(feature), threshold=float(threshold), left=left, right=right
        )
        n_leaves += 1
    return nodes


_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 (Steele, Lea & Flood, OOPSLA 2014) over a uint64 array,
    which wraps mod 2**64."""
    z = z + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _class_distribution(labels, weights) -> list[float]:
    counts = np.bincount(labels, weights=weights, minlength=N_CLASSES)
    total = counts.sum()
    if total <= 0:
        return [1.0 / N_CLASSES] * N_CLASSES
    return [float(c) for c in counts / total]


def _best_split(X, y, sample_weight, indices, features, min_leaf_size):
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
            best = (float(decrease[pick]), int(feature), threshold, indices[mask], indices[~mask])
    return best


def reference_forest_depth(trees, n_features: int) -> int:
    """Check each tree in order (``reference_tree_depth``); return the
    deepest one's depth."""
    return max(reference_tree_depth(nodes, n_features) for nodes in trees)


def reference_tree_depth(nodes, n_features: int) -> int:
    """Check one tree's nodes and shape; return its depth.

    The walk from node 0 must reach every node exactly once, so routing a
    row cannot loop or merge (a node that is its own child, a shared child)
    and the file holds one tree (no unreachable node). A split tests one of
    ``n_features`` columns against a finite threshold, a leaf has feature
    -1, and feature and child ids are integers, not booleans. Every node
    holds class probabilities, which a depth cap can make a split node's
    vote.
    """
    if not nodes:
        raise ModelFormatError("tree has no nodes")
    reached = [True] + [False] * (len(nodes) - 1)
    level, depth = [0], -1
    while level:
        depth, below = depth + 1, []
        for parent in level:
            node, dist = nodes[parent], nodes[parent]["dist"]
            shaped = len(dist) == N_CLASSES and all(finite_number(p) and p >= 0 for p in dist)
            if not shaped or abs(sum(dist) - 1.0) > 1e-9:
                raise ModelFormatError(f"node {parent} is not {N_CLASSES} probabilities: {dist!r}")
            # ``type(...) is int``: True and False are ints to isinstance
            feature = node["feature"]
            if type(feature) is int and feature == -1:
                continue
            if type(feature) is not int or not 0 <= feature < n_features:
                raise ModelFormatError(f"split references feature {feature!r}")
            if not finite_number(node["threshold"]):
                raise ModelFormatError(f"split threshold is not a number: {node['threshold']!r}")
            for child in (node["left"], node["right"]):
                if type(child) is not int or not 0 <= child < len(nodes):
                    raise ModelFormatError(f"split references node {child!r}")
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


def reference_distributions(counts: np.ndarray) -> list[list[float]]:
    """Each row of class counts as probabilities, its total added in order;
    uniform for no weight."""
    dists = []
    for row in counts.tolist():
        total = 0.0
        for count in row:
            total += count
        dists.append([c / total for c in row] if total > 0 else [1.0 / N_CLASSES] * N_CLASSES)
    return dists
