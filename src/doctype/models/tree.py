"""Gini decision trees and bootstrapped random forests.

Trees split on ``x <= v`` where v is an observed training value, so any
strictly increasing per-feature remapping of train and test data leaves
predictions unchanged, and ``evaluation.sweep`` runs the tree kinds on
raw values only.

``grow_trees`` grows a batch of independent trees together, level by
level, as SPRINT (Shafer, Agrawal & Mehta, VLDB 1996) and XGBoost's
depth-wise grower (Chen & Guestrin, KDD 2016) do: one pass scores the new
nodes of every tree in ``_best_split`` calls over right-padded
``(nodes x drawn features, rows)`` arrays, each call a group of nodes of
similar width, not one call per node. Split search follows SLIQ (Mehta,
Agrawal & Rissanen, EDBT 1996): each column is sorted once per tree (once
per boosted problem for AdaBoost, whose rounds all reuse it), and nodes
keep their rows in every column's sorted order. Node ids and a
``max_leaf_nodes`` budget still follow best-first order by impurity
decrease, ties by creation order. Without a budget every node with a split
is expanded and the ids come from a best-first replay of the scored
splits, so a tree is the one exhaustive recursive growth gives; with a
budget a pass expands only each tree's best waiting node, so the budget
buys the most valuable splits and no node is scored that best-first
growth would not score.

The trees are those of a grower that sorts each node's rows again and
scores one feature at a time (``tests/reference_tree.py``), to the JSON
byte: padding repeats a line's last row, and a ``cumsum`` along an axis
adds in the order of a 1-D one, so no real position's prefix sum changes;
``l0*l0 + l1*l1 + l2*l2`` adds in the order of a length-3 ``sum``; and a
node's class counts (one ``bincount`` over ``node * classes + class``) and
its total weight (a pairwise ``sum``, which depends on length, so never
padded) are summed over its own rows in ascending order.

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
node's path alone, not on the order its tree grows in. So
without a ``max_leaf_nodes`` budget a tree fitted at ``max_depth`` d is,
node for node, a tree fitted deeper (or unbounded) cut at depth d, and
``ForestPredictor.leaves`` scores every depth from the deepest fit.

A tree is columns (``Tree``) from the grower through the model file to
the predictor, after scikit-learn's array trees and QuickScorer (Lucchese
et al., SIGIR 2015): a model stores an ensemble's trees end to end
(``stored``), ``Tree.read`` reads them back, and ``ForestPredictor`` checks
them in array operations and scores all three tree kinds; AdaBoost passes
it the round weights. All rows of all trees move down together, a level
per step, for the deepest tree's depth or a smaller cap. A leaf becomes a
split at threshold ``+inf`` whose children are itself, so a row at a
shallow leaf stays there, and a row stopped by the cap at a split node
votes that node's own distribution.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence
from itertools import accumulate

import numpy as np

from ..errors import ModelFormatError
from ..ingest import N_CLASSES
from ..ioutils import integer_array, known_keys, number_array

_GAMMA = np.uint64(0x9E3779B97F4A7C15)

#: The most cells, (nodes x drawn features) lines times the widest node's
#: rows, that one ``_best_split`` call holds, at about 80 bytes of work
#: arrays a cell. A pass groups its nodes widest first under this cap
#: (``_groups``), so nodes of similar width share a call: padding stays
#: small, and so does a call's memory. A larger cap saves calls but pads
#: more and raises peak memory.
_PASS_CELLS = 1 << 12

#: The most training rows, summed over trees, one ``grow_trees`` call of a
#: random forest holds; a forest on more is grown in batches of trees.
_BATCH_ROWS = 1 << 13

_CLASSES = np.arange(N_CLASSES)[:, None]


def splitmix64(z: np.ndarray) -> np.ndarray:
    """The next outputs of splitmix64 generators in states ``z``, a uint64
    array, which wraps mod 2**64; a bijection on each element."""
    z = z + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def draw_features(keys: np.ndarray, d: int, m: int) -> np.ndarray:
    """Each node's m of d features, ascending, shape ``(len(keys), m)``: for
    the node keyed ``key``, the m features j with the smallest
    ``splitmix64(key + j * GAMMA)``, ties to the lower j."""
    hashes = splitmix64(keys[:, None] + np.arange(d, dtype=np.uint64) * _GAMMA)
    return np.sort(np.argsort(hashes, axis=1, kind="stable")[:, :m], axis=1)


def grow_trees(
    problems: Sequence[tuple],
    *,
    max_depth: int | None = None,
    min_leaf_size: int = 1,
    max_leaf_nodes: int | None = None,
    feature_subset: int | None = None,
) -> list[tuple[Tree, np.ndarray]]:
    """Grow one tree per problem ``(X, y, sample_weight, key, order)``, all
    under the same limits; return each ``Tree`` and the leaf id of each of
    its rows. The problems share d. ``sample_weight`` None weighs a
    problem's rows equally; ``key`` is the root's 64-bit draw key
    (``draw_features``); ``order`` is each column's stable argsort, shape
    ``(d, n)``, or None to sort here (AdaBoost passes one for all rounds).

    The trees grow together, one pass at a time. The rows of all trees sit
    end to end in one array, in each column's sorted order and, in a last
    line, ascending; each node holds a span of it. A pass scores the new
    nodes (``_best_split``), picks the nodes to expand and routes their
    rows: one ``bincount`` over their ascending lines gives every child's
    class counts, each summed over its rows in ascending order, and a
    stable sort of each expanded span by side gives the left child its
    first part and the right child the rest, in the same orders. A node
    may split when depth and size allow and it holds weight of two classes
    (a node of one class has no split that decreases impurity). Without a
    ``max_leaf_nodes`` budget a pass expands every node that has a split,
    one level per pass; with one it expands each tree's best node, so each
    tree scores the nodes best-first growth would. Node ids then come from
    a best-first replay of the splits (``_number``).
    """
    X, y, weights, rows, sizes = _stack(problems)
    n_trees, d = len(problems), X.shape[1]
    m = d if feature_subset is None else min(feature_subset, d)
    deepest = np.inf if max_depth is None else max_depth
    smallest = max(2 * min_leaf_size, 2)
    leaf = np.arange(n_trees).repeat(sizes)
    every = np.arange(d)[None, :]
    counts = np.bincount(leaf * N_CLASSES + y, weights[0], n_trees * N_CLASSES)
    counts = counts.reshape(n_trees, N_CLASSES)
    tallies = [counts]
    # each node by provisional id (creation order): the span of ``rows`` it
    # holds (start, size), its depth, tree and draw key; (decrease,
    # feature, threshold) once scored with a split, and its children's ids
    # once expanded. Under a budget a scored node waits in its tree's heap.
    start, size, depth = [0, *accumulate(sizes)][:-1], list(sizes), [0] * n_trees
    tree = list(range(n_trees))
    key = np.array([problem[3] for problem in problems], dtype=np.uint64)
    scored: list = [None] * n_trees
    children: list = [None] * n_trees
    heaps: list[list] = [[] for _ in range(n_trees)]
    n_leaves = [1] * n_trees
    # the new nodes that may split, and their class counts
    grows = _may_split(counts, size, depth, smallest, deepest)
    live = [p for p, g in enumerate(grows) if g]
    counts = counts[live]

    while True:
        split = []
        if live:
            w = weights[0, rows[d]]
            new_starts, new_sizes = [start[p] for p in live], [size[p] for p in live]
            spans = zip(new_starts, new_sizes)
            total_w = np.array([np.add.reduce(w[a : a + n]) for a, n in spans])
            gini = 1.0 - np.add.reduce((counts / total_w[:, None]) ** 2, axis=1)
            totals = np.concatenate([total_w[:, None], counts], axis=1)
            feats = draw_features(key[live], d, m) if m < d else every.repeat(len(live), axis=0)
            groups = _groups(new_sizes, m)
            if len(groups) == 1:
                decrease, feature, threshold = _best_split(
                    X, weights, rows, new_starts, new_sizes, feats, totals, gini, min_leaf_size
                )
            else:
                # a node scored in parts keeps a later part's split only if
                # it is strictly better: ties go to the lower feature
                decrease, feature = np.full(len(live), -np.inf), feats[:, 0].copy()
                threshold = np.zeros(len(live))
                for nodes, part in groups:
                    found = _best_split(X, weights, rows, [new_starts[j] for j in nodes],
                                        [new_sizes[j] for j in nodes], feats[nodes, part],
                                        totals[nodes], gini[nodes], min_leaf_size)
                    better = found[0] > decrease[nodes]
                    at = np.array(nodes)[better]
                    decrease[at], feature[at], threshold[at] = (part[better] for part in found)
            found = zip(decrease.tolist(), feature.tolist(), threshold.tolist())
            for p, entry in zip(live, found):
                if entry[0] > -np.inf:
                    scored[p] = entry
                    split.append(p)
        if max_leaf_nodes is None:
            expand = split
        else:
            for p in split:
                heapq.heappush(heaps[tree[p]], (-scored[p][0], p))
            # each tree under budget expands its best node, in ascending id
            # order: that order numbers the children
            expand = []
            for t, heap in enumerate(heaps):
                if heap and n_leaves[t] < max_leaf_nodes:
                    expand.append(heapq.heappop(heap)[1])
                    n_leaves[t] += 1
            expand.sort()
        e = len(expand)
        if not e:
            break

        # the expanded spans end to end: position p is in expanded node
        # part[p], whose rows go to slot part (its left child) or e + part
        split_feature, split_threshold = zip(*(scored[p][1:] for p in expand))
        if e == 1:
            at, part = slice(start[expand[0]], start[expand[0]] + size[expand[0]]), 0
            ascending = rows[d, at]
            right = X[ascending, split_feature[0]] > split_threshold[0]
            slot = right.astype(np.intp)
        else:
            lengths = np.array([size[p] for p in expand])
            # a small integer type keeps the sort by (part, side) a radix sort
            part = np.arange(e, dtype=np.int16 if e < 1 << 14 else np.intp).repeat(lengths)
            shift = np.array([start[p] for p in expand]) - (lengths.cumsum() - lengths)
            at = shift.repeat(lengths) + np.arange(len(part))
            ascending = rows[d, at]
            right = X[ascending, np.repeat(split_feature, lengths)]
            right = right > np.repeat(split_threshold, lengths)
            slot = part + e * right
        counts = np.bincount(slot * N_CLASSES + y[ascending], weights[0, ascending],
                             2 * e * N_CLASSES).reshape(2 * e, N_CLASSES)
        first = len(scored)
        tallies.append(counts)
        scored += [None] * (2 * e)
        children += [None] * (2 * e)
        for j, p in enumerate(expand):
            children[p] = (first + j, first + e + j)
        leaf[ascending] = slot + first

        # the children that may split are the next pass's new nodes
        child_depth = [depth[p] + 1 for p in expand] * 2
        if not (any(heaps) or min(child_depth) < deepest):
            break
        child_size = np.bincount(slot, None, 2 * e).tolist()
        grows = _may_split(counts, child_size, child_depth, smallest, deepest)
        if not (any(heaps) or any(grows)):
            break
        child_start = [start[p] for p in expand]
        child_start += [a + n for a, n in zip(child_start, child_size)]
        if any(grows):
            # each expanded span, in every line, stably sorted by side
            side = np.empty(len(y), dtype=np.int8)
            side[ascending] = right
            block = rows[:, at]
            keyed = side[block] if e == 1 else side[block] + 2 * part
            line = np.arange(d + 1)[:, None]
            rows[:, at] = block[line, keyed.argsort(axis=1, kind="stable")]
        start += child_start
        size += child_size
        depth += child_depth
        tree += [tree[p] for p in expand] * 2
        if m < d:
            sides = [key[expand] ^ np.uint64(side) for side in (1, 2)]
            key = np.concatenate([key, splitmix64(np.concatenate(sides))])
        kids = [j for j, g in enumerate(grows) if g]
        live, counts = [first + j for j in kids], counts[kids]

    # every tree's provisional ids in best-first order, trees end to end; a
    # node's final id is its place in its tree's
    order, starts = [], []
    for t in range(n_trees):
        starts.append(len(order))
        _number(t, scored, children, order)
    ends = [*starts[1:], len(order)]
    final = np.empty(len(order), dtype=np.intp)
    final[order] = np.arange(len(order)) - np.repeat(starts, np.subtract(ends, starts))
    # the columns by provisional id, then in that order
    feature, left, right = np.full((3, len(order)), -1, dtype=np.intp)
    threshold = np.zeros(len(order))
    if split := [p for p, pair in enumerate(children) if pair is not None]:
        feature[split], threshold[split] = zip(*(scored[p][1:] for p in split))
        left[split], right[split] = final[np.array([children[p] for p in split])].T
    columns = (feature, threshold, left, right, _distributions(np.concatenate(tallies)))
    columns = [column[order] for column in columns]
    rows = [0, *accumulate(sizes)]
    return [
        (Tree(*(column[a:b] for column in columns)), final[leaf[r:r_end]])
        for a, b, r, r_end in zip(starts, ends, rows, rows[1:])
    ]


def _may_split(counts, sizes, depths, smallest, deepest) -> list[bool]:
    """Whether each node may split: it is shallower than ``deepest``, holds
    ``smallest`` rows or more, and has weight of two classes or more."""
    return [
        n >= smallest and depth < deepest and sum(c > 0 for c in row) >= 2
        for n, depth, row in zip(sizes, depths, counts.tolist())
    ]


def _distributions(counts: np.ndarray) -> np.ndarray:
    """Each row of class counts as probabilities; uniform for no weight.
    ``sum`` over the columns adds each row's counts in order, as a numpy
    ``sum`` of 3 does (a ``sum`` of floats compensates from Python 3.12)."""
    total = sum(counts.T)[:, None]
    out = np.full(counts.shape, 1.0 / N_CLASSES)
    return np.divide(counts, total, out=out, where=total > 0)


def _number(root: int, scored, children, order: list[int]) -> None:
    """Append one tree's provisional node ids to ``order`` in the order
    best-first growth numbers them: it pops the split of largest impurity
    decrease first, ties by node id, and numbers the two children on
    creation."""
    heap: list[tuple[float, int, int]] = []

    def add(p: int) -> None:
        if children[p] is not None:
            heapq.heappush(heap, (-scored[p][0], len(order), p))
        order.append(p)

    add(root)
    while heap:
        for p in children[heapq.heappop(heap)[2]]:
            add(p)


def _stack(problems):
    """The problems' rows end to end: X, y, ``weights`` (the sample weights,
    then each class's: a row's weight in the line of its class and 0 in the
    others), ``rows`` (each column's order, then ascending, shape
    ``(d + 1, rows)``) and each problem's row count."""
    sizes = [len(problem[1]) for problem in problems]
    if len(problems) == 1:
        X, y = problems[0][:2]
    else:
        X = np.concatenate([problem[0] for problem in problems])
        y = np.concatenate([problem[1] for problem in problems])
    weights = np.empty((1 + N_CLASSES, len(y)))
    rows = np.empty((X.shape[1] + 1, len(y)), dtype=np.intp)
    a = 0
    for (Xp, _, sample_weight, _, order), n in zip(problems, sizes):
        weights[0, a : a + n] = 1.0 / n if sample_weight is None else sample_weight
        if order is None:
            order = np.argsort(Xp.T, axis=1, kind="stable")
        np.add(order, a, out=rows[:-1, a : a + n])
        a += n
    np.multiply(y == _CLASSES, weights[0], out=weights[1:])
    rows[-1] = np.arange(len(y))
    return X, y, weights, rows, sizes


def _groups(sizes: list[int], m: int) -> list[tuple[list[int], slice]]:
    """The nodes to score, by index, in groups with the drawn features of
    each to score: all at once when they fit ``_PASS_CELLS`` cells at the
    widest node's width. Else widest first, each group as many nodes as fit
    at its first node's width, and a node too wide for all its features in
    parts of as many features as fit (at least one)."""
    if len(sizes) * m * max(sizes) <= _PASS_CELLS:
        return [(list(range(len(sizes))), slice(None))]
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    groups, i = [], 0
    while i < len(order):
        lines = _PASS_CELLS // sizes[order[i]]
        if lines < m:
            step = max(1, lines)
            groups += [([order[i]], slice(f, f + step)) for f in range(0, m, step)]
            i += 1
        else:
            groups.append((order[i : i + lines // m], slice(None)))
            i += lines // m
    return groups


def _best_split(X, weights, rows, starts, sizes, features, totals, gini, min_leaf_size):
    """Score every boundary of every drawn feature of a group of nodes in
    one pass; return each node's best valid split as ``(decrease, feature,
    threshold)`` arrays, decrease ``-inf`` for a node with none.

    Node i holds ``rows[:, starts[i] : starts[i] + sizes[i]]``, draws
    ``features[i]`` (ascending), has impurity ``gini[i]`` and totals
    ``totals[i]``: its weight, then each class's. Its rows in each drawn
    feature's order make one line of a ``(nodes x features, widest)``
    array, right-padded by repeating the line's last row: an equal value is
    no boundary, and a ``cumsum`` along a line adds in the order of the
    node's own, so padding changes no candidate's score. Candidates are
    boundaries between distinct sorted values that leave at least
    ``min_leaf_size`` rows on each side; any other position scores
    ``-inf``. Ties in impurity decrease resolve to the lowest feature id,
    then the lowest threshold (``argmax`` keeps the first).
    """
    g, m = features.shape
    if g == 1:
        ordered = rows[features[0], starts[0] : starts[0] + sizes[0]]
        totals, gini = totals[0][:, None, None], gini[0]
    else:
        starts, sizes = np.array(starts), np.array(sizes)
        first = (features * rows.shape[1] + starts[:, None]).reshape(-1)
        ordered = first[:, None] + np.arange(sizes.max())
        np.minimum(ordered, (first + sizes.repeat(m) - 1)[:, None], out=ordered)
        ordered = rows.reshape(-1)[ordered]
        totals, gini = totals.repeat(m, axis=0).T[:, :, None], gini.repeat(m)[:, None]
    lines = features.reshape(-1)
    values = X[ordered, lines[:, None]]
    # a boundary after position p leaves p + 1 rows on the left
    lo, hi = min_leaf_size - 1, ordered.shape[1] - min_leaf_size
    boundary = np.zeros(ordered.shape, dtype=bool)
    np.less(values[:, lo:hi], values[:, lo + 1 : hi + 1], out=boundary[:, lo:hi])
    del values
    if g > 1 and min_leaf_size > 1:
        boundary &= np.arange(ordered.shape[1]) < (sizes - min_leaf_size).repeat(m)[:, None]
    # the weight, then each class's, left of each boundary and right of it.
    # The arithmetic runs in place in these two blocks, which bounds a
    # call's memory: the right block holds the gathered weights until it
    # takes the right sums, and the class sums their squares.
    sides = np.empty((2, 1 + N_CLASSES, *ordered.shape))
    np.cumsum(np.take(weights, ordered, axis=1, out=sides[1]), axis=-1, out=sides[0])
    np.subtract(totals, sides[0], out=sides[1])
    side_w, side_c = sides[:, 0], sides[:, 1:]
    np.multiply(side_c, side_c, out=side_c)
    sum_sq = side_c[:, 0]
    for c in range(1, N_CLASSES):
        sum_sq += side_c[:, c]
    # each side's gini weighted by its weight: w * (1 - sum_sq / w**2), 0
    # for a side without weight
    weighed = side_w > 0
    square_w = np.multiply(side_w, side_w, out=side_c[:, 1])
    np.divide(sum_sq, square_w, out=sum_sq, where=weighed)
    np.copyto(sum_sq, 1.0, where=~weighed)
    np.subtract(1.0, sum_sq, out=sum_sq)
    sum_sq *= side_w
    decrease = np.add(sum_sq[0], sum_sq[1], out=square_w[0])
    decrease /= totals[0]
    np.subtract(gini, decrease, out=decrease)
    np.copyto(decrease, -np.inf, where=~boundary)
    best, picks = decrease.max(axis=1), decrease.argmax(axis=1)
    best[best <= 1e-12] = -np.inf
    line = best.reshape(g, m).argmax(axis=1)
    if g > 1:
        line += np.arange(0, g * m, m)
    return best[line], lines[line], X[ordered[line, picks[line]], lines[line]]


def balanced_weights(y: np.ndarray) -> np.ndarray:
    """Sample weights that give each observed class equal total mass."""
    counts = np.bincount(y, minlength=N_CLASSES)
    present = counts > 0
    per_class = np.zeros(N_CLASSES)
    per_class[present] = 1.0 / (present.sum() * counts[present])
    return per_class[y]


def fit_decision_tree(X, y, seed, hyperparameters) -> dict:
    """A one-tree forest without bootstrap that tries every feature at each
    node, so it draws nothing and ignores its seed."""
    del seed
    forest = {**hyperparameters, "n_trees": 1, "bootstrap": False, "feature_subset": X.shape[1]}
    return fit_random_forest(X, y, 0, forest)


def fit_random_forest(X, y, seed, hyperparameters) -> dict:
    names = ("max_depth", "min_leaf_size", "max_leaf_nodes", "feature_subset")
    limits = {key: hyperparameters[key] for key in names}
    seeds = np.random.SeedSequence(seed).spawn(hyperparameters["n_trees"])
    per_batch = max(1, _BATCH_ROWS // len(y))
    trees = []
    for first in range(0, len(seeds), per_batch):
        problems = []
        for tree_seed in seeds[first : first + per_batch]:
            rng = np.random.default_rng(tree_seed)
            key = int(tree_seed.generate_state(1, np.uint64)[0])
            if hyperparameters["bootstrap"]:
                sample = rng.integers(0, len(y), len(y))
                Xb, yb = X[sample], y[sample]
            else:
                Xb, yb = X, y
            balanced = hyperparameters["class_weight"] == "balanced"
            problems.append((Xb, yb, balanced_weights(yb) if balanced else None, key, None))
        trees += [tree for tree, _ in grow_trees(problems, **limits)]
    return stored(trees)


def stored(trees: Sequence[Tree]) -> dict:
    """Fitted trees as a model stores them: ``"trees"``, their columns end
    to end as lists, and ``"sizes"``, each tree's node count."""
    columns = {f: np.concatenate([getattr(tree, f) for tree in trees]).tolist() for f in _FIELDS}
    return {"trees": columns, "sizes": [len(tree.feature) for tree in trees]}


_FIELDS = ("feature", "threshold", "left", "right", "dist")


class Tree:
    """Trees as columns over their nodes, each tree's in best-first ids and
    trees end to end: ``feature``, ``threshold``, ``left`` and ``right``
    (-1, 0.0, -1 and -1 at a leaf) and ``dist``, shape (nodes, classes). A
    model file holds the same columns as lists (``stored``), and ``read``
    is their one reader."""

    __slots__ = _FIELDS

    def __init__(self, feature, threshold, left, right, dist):
        self.feature, self.threshold, self.left, self.right = feature, threshold, left, right
        self.dist = dist

    @classmethod
    def read(cls, parameters: Mapping) -> tuple[Tree, np.ndarray]:
        """A model's stored trees and each one's node count: the
        ``"trees"`` columns, one value per node, and ``"sizes"``, at least
        one count, none negative, summing to the node count. Ids are
        integers (a boolean is not one) and numbers finite; anything else
        raises ValueError naming its column, as does a column it does not
        know. What the columns build is checked when a ``ForestPredictor``
        is built from them."""
        columns = parameters["trees"]
        if not isinstance(columns, Mapping):
            raise ValueError("trees must be an object of columns")
        feature = integer_array(columns["feature"], None, "feature")
        n, sizes = len(feature), integer_array(parameters["sizes"], None, "sizes")
        if not len(sizes) or not ((0 <= sizes) & (sizes <= n)).all() or sizes.sum() != n:
            raise ValueError(f"sizes must be 1 or more non-negative integers summing to {n}")
        threshold = number_array(columns["threshold"], (n,), "threshold")
        left, right = (integer_array(columns[side], n, side) for side in ("left", "right"))
        # empty trees have no dist rows to read, and fail their check
        empty = np.empty((0, N_CLASSES))
        dist = number_array(columns["dist"], (n, N_CLASSES), "dist") if n else empty
        known_keys(columns, _FIELDS, "trees")
        return cls(feature, threshold, left, right, dist), sizes


#: A split node's checks in the order the walk runs them, each the field it
#: reads and its message; a leaf runs the first only. ``Tree.read`` has
#: refused a threshold that is not finite.
_CHECKS = [
    ("dist", f"node {{node}} is not {N_CLASSES} probabilities: {{value!r}}"),
    ("feature", "split references feature {value!r}"),
] + [(side, message) for side in ("left", "right") for message in (
    "split references node {value!r}", "node {value} is its own child",
    "node {value} has more than one parent",
)]


def _check(forest: Tree, sizes: np.ndarray, n_features: int) -> int:
    """Check trees of ``sizes`` nodes stacked in ``forest`` (``Tree.read``
    columns); return the deepest one's depth.

    A walk from each tree's node 0 must reach each of its nodes once, so
    routing a row cannot loop or merge and a tree holds one tree. A split
    tests one of ``n_features`` columns, a leaf has feature -1, and every
    node holds class probabilities, which a depth cap can make a split
    node's vote. The walk goes a level at a time over every tree at once;
    the error raised is the one walking the trees one at a time raises
    first, at the first failing tree's first failing node in walk order.
    """
    n, n_trees, roots = len(forest.feature), len(sizes), np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(n_trees), sizes)
    base, split, dist = roots[owner], forest.feature != -1, forest.dist
    failed = np.zeros((n, len(_CHECKS)), dtype=bool)
    with np.errstate(over="ignore"):
        failed[:, 0] = (dist < 0).any(axis=1) | (np.abs(sum(dist.T) - 1.0) > 1e-9)
    failed[:, 1] = split & ((forest.feature < 0) | (forest.feature >= n_features))
    below = np.full((n, 2), n)  # each split's children by stacked id, else n
    for s, child in enumerate((forest.left, forest.right)):
        valid = split & (0 <= child) & (child < sizes[owner])
        failed[:, 2 + 3 * s] = split & ~valid
        failed[:, 3 + 3 * s] = valid & (child == np.arange(n) - base)
        np.add(base, child, out=below[:, s], where=valid)
    reached, levels = np.zeros(n + 1, dtype=bool), [roots[sizes > 0]]
    reached[levels[0]] = True
    while levels[-1].size:
        children = below[levels[-1]].reshape(-1)
        # a child reached before: at a level above, or earlier in this one
        order = np.argsort(children, kind="stable")
        again = np.zeros(len(children), dtype=bool)
        again[order[1:]] = children[order[1:]] == children[order[:-1]]
        again = (again | reached[children]) & (children < n)
        failed[levels[-1], 4::3] = again.reshape(-1, 2)
        # a failing node's children walk on: its tree's first failure is set
        levels.append(children[(children < n) & ~again])
        reached[levels[-1]] = True
    walk = np.concatenate(levels)
    bad = walk[failed[walk].any(axis=1)]
    trouble = sizes == 0
    trouble[owner[bad]] = trouble[owner[~reached[:n]]] = True
    if not trouble.any():
        return len(levels) - 2
    t = int(trouble.argmax())
    if not sizes[t]:
        raise ModelFormatError("tree has no nodes")
    if not (bad := bad[owner[bad] == t]).size:
        node = np.flatnonzero(~reached[:n] & (owner == t))[0] - roots[t]
        raise ModelFormatError(f"node {node} is unreachable from node 0")
    node, check = int(bad[0] - roots[t]), int(failed[bad[0]].argmax())
    field, message = _CHECKS[check]
    value = getattr(forest, field)[bad[0]].tolist()
    raise ModelFormatError(message.format(node=node, value=value))


class ForestPredictor:
    """A vote of trees stacked into one set of columns with global node ids.

    Without ``weights`` (random forest, decision tree) each tree votes the
    class distribution of the node a row ends at; with ``weights``
    (AdaBoost's round weights) it votes its weight at that node's argmax
    class. The first s trees score their votes summed in tree order, over s
    or the running sum of the weights in round order at s: what a
    predictor of those s trees alone gives.

    A row ends at a leaf, or with a depth cap d at the node it reaches after
    d levels, if that comes first. A split node's vote is its own ``dist``,
    so the cap scores each tree as if every node at depth d were a leaf: for
    trees grown without a ``max_leaf_nodes`` budget and without AdaBoost's
    reweighting, the ``max_depth`` d fit (module docstring).

    ``forest`` and ``sizes`` are what ``Tree.read`` gives for a model's
    stored trees. Building checks every tree (``_check``); ``depth`` is the
    deepest tree's depth. Positive ``weights`` whose sum overflows raise
    ValueError, so every running sum is finite.
    """

    def __init__(self, forest: Tree, sizes: np.ndarray, n_features: int, weights=None):
        self.depth = _check(forest, sizes, n_features)
        # a leaf becomes a split at threshold +inf whose children are itself
        self.roots = np.cumsum(sizes) - sizes
        leaf, ids = forest.feature == -1, np.arange(len(forest.feature))
        base = np.repeat(self.roots, sizes)
        self.feature = np.where(leaf, 0, forest.feature)
        self.threshold = np.where(leaf, np.inf, forest.threshold)
        self.left, self.right = (np.where(leaf, ids, base + c) for c in (forest.left, forest.right))
        self.votes, self.totals = forest.dist, np.arange(1.0, len(sizes) + 1)
        if weights is not None:
            per_node = np.repeat(np.asarray(weights, dtype=float), sizes)
            picks = self.votes.argmax(axis=1)
            self.votes = np.where(np.arange(N_CLASSES) == picks[:, None], per_node[:, None], 0.0)
            self.totals = np.fromiter(accumulate(map(float, weights)), float)
            if not np.isfinite(self.totals[-1]):
                raise ValueError("boosting weights must sum to a finite total")

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
