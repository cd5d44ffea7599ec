"""Gini decision trees and bootstrapped random forests.

Trees split on ``x <= v`` where v is an observed training value, so any
strictly increasing per-feature remapping of train and test data leaves
predictions unchanged, and ``evaluation.sweep`` runs the tree kinds on
raw values only. Growth is best-first by impurity decrease, which lets a
``max_leaf_nodes`` budget pick the most valuable splits first; without a
budget the result is identical to exhaustive recursive growth.

Split search follows SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996): each
column is sorted once per tree (once per fit for AdaBoost), nodes keep
their rows in every column's sorted order, and a node scores all drawn
features in one pass over ``(features, rows)`` arrays. The trees are those
of a per-node stable argsort scored one feature at a time
(``tests/reference_tree.py``), to the JSON byte: a ``cumsum`` along an
axis adds in the order of a 1-D one, ``l0*l0 + l1*l1 + l2*l2`` in that of
a length-3 ``sum``, and a node's totals are still summed over its rows in
ascending order (a pairwise ``sum`` depends on length, so no padding).

A random forest grows tree i from ``SeedSequence(seed).spawn(n_trees)[i]``,
which does not depend on ``n_trees``: its bootstrap sample comes from that
sequence's generator, its 64-bit tree key from the sequence's own state. So
an n-tree forest is the first n trees of any larger forest fitted with the
same seed, data and other hyperparameters, and
``ForestPredictor.prefix_scores`` scores every n.

A node draws its ``feature_subset`` from a counter-based hash of its own
64-bit key (Salmon et al., SC 2011), not from a generator the tree shares:
the features j with the smallest ``splitmix64(key + j * GAMMA)``, GAMMA
being splitmix64's increment (Steele, Lea & Flood, OOPSLA 2014). The root
holds the tree key and a child ``splitmix64(parent ^ side)``, side 1 left
and 2 right, so a key stays 64 bits at any depth. A draw depends on the
node's path alone, not on the order best-first growth pops nodes in. So
without a ``max_leaf_nodes`` budget a tree fitted at ``max_depth`` d is,
node for node, a tree fitted deeper (or unbounded) cut at depth d, and
``ForestPredictor.leaves`` scores every depth from the deepest fit.

Trees are stored as dict nodes and compiled for prediction into flat
arrays (feature, threshold, left, right, dist), the trees of an ensemble
stacked end to end, after scikit-learn's array trees and QuickScorer
(Lucchese et al., SIGIR 2015). ``ForestPredictor`` scores all three tree
kinds; AdaBoost passes it the round weights. All rows of all trees move
down together, one level per step, for the deepest tree's depth or a
smaller cap. A leaf compiles to a split at threshold ``+inf`` whose
children are the leaf itself, so a row that reaches a shallow leaf stays
there without a per-row or per-tree test. Every node votes its own class
distribution, so a row stopped by the cap at a split node votes what that
node would as a leaf.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import ModelFormatError
from ..ingest import N_CLASSES
from ..ioutils import finite_number

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """The next output of a splitmix64 generator in state ``z``; a bijection on 64-bit ints."""
    z = (z + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def draw_features(key: int, d: int, m: int) -> np.ndarray:
    """The node keyed ``key``'s m of d features, ascending: those with the m
    smallest ``splitmix64(key + j * GAMMA)``, feature j, ties to the lower j."""
    hashes = [splitmix64((key + j * _GAMMA) & _MASK) for j in range(d)]
    return np.array(sorted(sorted(range(d), key=hashes.__getitem__)[:m]))


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray | None = None,
    *,
    max_depth: int | None = None,
    min_leaf_size: int = 1,
    max_leaf_nodes: int | None = None,
    feature_subset: int | None = None,
    key: int = 0,
    order: np.ndarray | None = None,
) -> tuple[list[dict], np.ndarray]:
    """Build a tree as a flat node list; also return the leaf id of each row.

    Each node is ``{"feature", "threshold", "left", "right", "dist"}``;
    leaves have feature -1 and a class distribution summing to 1.
    ``order`` is each column's stable argsort, shape ``(d, n)`` (AdaBoost
    passes one for all rounds). A node holds its rows ascending, to sum its
    totals over, and in each column's order, shape ``(d, rows)``; a split
    cuts both with a membership mask, which keeps their order.
    ``key`` is the root's 64-bit draw key (``draw_features``).
    """
    n, d = X.shape
    if sample_weight is None:
        sample_weight = np.full(n, 1.0 / n)
    if order is None:
        order = np.argsort(X.T, axis=1, kind="stable")
    # row i's weight in the row of its class and 0 in the others
    class_weights = np.where(y == np.arange(N_CLASSES)[:, None], sample_weight, 0.0)

    nodes: list[dict] = []
    leaf = np.zeros(n, dtype=np.intp)
    # ties in decrease pop in node_id order: the order the splits were pushed
    heap: list[tuple[float, int, tuple]] = []

    def new_node(rows: np.ndarray, sorted_rows: np.ndarray, depth: int, key: int) -> int:
        node_id = len(nodes)
        leaf[rows] = node_id
        weights = sample_weight[rows]
        counts = np.bincount(y[rows], weights=weights, minlength=N_CLASSES)
        total = counts.sum()
        dist = np.full(N_CLASSES, 1.0 / N_CLASSES) if total <= 0 else counts / total
        nodes.append(
            {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "dist": dist.tolist()}
        )
        if max_depth is not None and depth >= max_depth:
            return node_id
        if len(rows) < 2 * min_leaf_size or len(rows) < 2:
            return node_id
        if feature_subset is not None and feature_subset < d:
            feats = draw_features(key, d, feature_subset)
        else:
            feats = np.arange(d)
        split = _best_split(X, sample_weight, class_weights, sorted_rows[feats], feats,
                            weights.sum(), counts, min_leaf_size)
        if split is not None:
            heapq.heappush(heap, (-split[0], node_id, (*split[1:], rows, sorted_rows, depth, key)))
        return node_id

    new_node(np.arange(n), order, 0, key)
    n_leaves = 1
    while heap and (max_leaf_nodes is None or n_leaves < max_leaf_nodes):
        _, node_id, split = heapq.heappop(heap)
        feature, threshold, left_rows, rows, sorted_rows, depth, key = split
        goes_left = np.zeros(n, dtype=bool)
        goes_left[left_rows] = True
        in_left, sorted_in_left = goes_left[rows], goes_left[sorted_rows]
        left = new_node(rows[in_left], sorted_rows[sorted_in_left].reshape(d, -1), depth + 1,
                        splitmix64(key ^ 1))
        right = new_node(rows[~in_left], sorted_rows[~sorted_in_left].reshape(d, -1), depth + 1,
                         splitmix64(key ^ 2))
        nodes[node_id].update(feature=feature, threshold=threshold, left=left, right=right)
        n_leaves += 1
    return nodes, leaf


def _best_split(X, sample_weight, class_weights, ordered, features, total_w, total_counts,
                min_leaf_size):
    """Score every boundary of every drawn feature in one pass; return the
    best valid split as ``(decrease, feature, threshold, left rows)``.

    ``ordered`` holds the node's rows in each drawn feature's sorted order.
    Candidates are boundaries between distinct sorted values that leave at
    least ``min_leaf_size`` rows on each side; a position in that range
    between equal values scores ``-inf``. Ties in impurity decrease resolve
    to the lowest feature id (a strict ``>`` in ascending feature order),
    then the lowest threshold (``argmax`` keeps the first).
    """
    if total_w <= 0:
        return None
    gini_parent = 1.0 - ((total_counts / total_w) ** 2).sum()
    if gini_parent <= 0.0:
        return None

    values = X[ordered, features[:, None]]
    # a boundary after position p leaves p + 1 rows on the left
    lo, hi = min_leaf_size - 1, ordered.shape[1] - min_leaf_size
    boundary = values[:, lo:hi] < values[:, lo + 1 : hi + 1]
    left_w = np.cumsum(sample_weight[ordered], axis=-1)[:, lo:hi]
    right_w = total_w - left_w
    left_sq, right_sq = np.zeros_like(left_w), np.zeros_like(left_w)
    for weight_c, total_c in zip(class_weights, total_counts):
        left_c = np.cumsum(weight_c[ordered], axis=-1)[:, lo:hi]
        left_sq += left_c * left_c
        right_c = total_c - left_c
        right_sq += right_c * right_c
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_left = 1.0 - np.where(left_w > 0, left_sq / left_w**2, 1.0)
        gini_right = 1.0 - np.where(right_w > 0, right_sq / right_w**2, 1.0)
    decrease = gini_parent - (left_w * gini_left + right_w * gini_right) / total_w
    decrease = np.where(boundary, decrease, -np.inf)
    picks = decrease.argmax(axis=1)

    best = None
    for i, pick in enumerate(picks.tolist()):
        if decrease[i, pick] <= 1e-12:
            continue
        if best is None or decrease[i, pick] > best[0]:
            threshold, left_rows = float(values[i, lo + pick]), ordered[i, : lo + pick + 1]
            best = (float(decrease[i, pick]), int(features[i]), threshold, left_rows)
    return best


def _tree_depth(nodes, n_features: int) -> int:
    """Check one tree's nodes and shape; return its depth.

    The walk from node 0 must reach every node exactly once, so routing a
    row cannot loop or merge (a node that is its own child, a shared child)
    and the file holds one tree (no unreachable node). A split tests one of
    ``n_features`` columns against a finite threshold; every node holds
    class probabilities, which a depth cap can make a split node's vote.
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
            if node["feature"] < 0:
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


def fit_decision_tree(X, y, seed, hyperparameters) -> dict:
    """Tree 0 of a one-tree forest without bootstrap that tries every
    feature at each node, so it draws nothing and ignores its seed."""
    del seed
    forest = {**hyperparameters, "n_trees": 1, "bootstrap": False, "feature_subset": X.shape[1]}
    return {"nodes": fit_random_forest(X, y, 0, forest)["trees"][0]}


def fit_random_forest(X, y, seed, hyperparameters) -> dict:
    subset = min(hyperparameters["feature_subset"], X.shape[1])
    seeds = np.random.SeedSequence(seed).spawn(hyperparameters["n_trees"])
    trees = []
    for tree_seed in seeds:
        rng = np.random.default_rng(tree_seed)
        key = int(tree_seed.generate_state(1, np.uint64)[0])
        if hyperparameters["bootstrap"]:
            sample = rng.integers(0, len(y), len(y))
            Xb, yb = X[sample], y[sample]
        else:
            Xb, yb = X, y
        nodes, _ = grow_tree(
            Xb,
            yb,
            sample_weight=(
                balanced_weights(yb) if hyperparameters["class_weight"] == "balanced" else None
            ),
            max_depth=hyperparameters["max_depth"],
            min_leaf_size=hyperparameters["min_leaf_size"],
            max_leaf_nodes=hyperparameters["max_leaf_nodes"],
            feature_subset=subset,
            key=key,
        )
        trees.append(nodes)
    return {"trees": trees}


class ForestPredictor:
    """A vote of trees compiled into flat node arrays with global node ids.

    Without ``weights`` (random forest, decision tree) each tree votes the
    class distribution of the node a row ends at; with ``weights``
    (AdaBoost's round weights) it votes its weight at that node's argmax
    class. The first s trees score their votes summed in tree order, over s
    or the Python ``sum`` of their weights: what a predictor of those s
    trees alone gives.

    A row ends at a leaf, or with a depth cap d at the node it reaches after
    d levels, if that comes first. A split node's vote is its own ``dist``,
    so the cap scores each tree as if every node at depth d were a leaf: for
    trees grown without a ``max_leaf_nodes`` budget and without AdaBoost's
    reweighting, the ``max_depth`` d fit (module docstring).

    Compiling checks each tree (``_tree_depth``). ``depth`` is the deepest
    tree's depth.
    """

    def __init__(self, trees, n_features: int, weights=None):
        if not trees:
            raise ModelFormatError("random-forest has no trees")
        self.depth = max(_tree_depth(nodes, n_features) for nodes in trees)
        sizes = [len(nodes) for nodes in trees]
        self.roots = np.cumsum([0] + sizes[:-1])
        columns = []
        for base, nodes in zip(self.roots.tolist(), trees):
            for i, node in enumerate(nodes, base):
                if node["feature"] < 0:
                    columns.append((0, np.inf, i, i, node["dist"]))
                else:
                    left, right = base + node["left"], base + node["right"]
                    columns.append((node["feature"], node["threshold"], left, right, node["dist"]))
        self.feature, self.threshold, self.left, self.right, dist = map(np.array, zip(*columns))
        self.votes, self.totals = dist.astype(float), np.arange(1.0, len(trees) + 1)
        if weights is not None:
            per_node = np.repeat(np.asarray(weights, dtype=float), sizes)
            picks = self.votes.argmax(axis=1)
            self.votes = np.where(np.arange(N_CLASSES) == picks[:, None], per_node[:, None], 0.0)
            self.totals = np.array([sum(weights[:s]) for s in range(1, len(weights) + 1)])

    def leaves(self, X: np.ndarray, depth: int | None = None) -> np.ndarray:
        """Node id each row ends at in each tree, shape (trees, rows): its
        leaf, or its node at ``depth`` when that is shallower."""
        rows = np.arange(X.shape[0])
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        for _ in range(self.depth if depth is None else min(depth, self.depth)):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return node

    def prefix_scores(self, X: np.ndarray, depth: int | None = None) -> np.ndarray:
        """Each prefix's scores from running vote sums, with the trees cut at
        ``depth`` when given, shape (trees, rows, classes)."""
        votes = self.votes[self.leaves(X, depth)]
        return np.cumsum(votes, axis=0) / self.totals[:, None, None]

    def scores_matrix(self, X: np.ndarray) -> np.ndarray:
        return self.prefix_scores(X)[-1]
