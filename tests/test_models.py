"""Baselines, the six classifiers, and the model file format."""

import base64
import hashlib
import io
import json
import math
import re
import struct
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doctype.errors import (
    DocTypeError,
    ImputationError,
    ModelFormatError,
    TrainingError,
    UnsupportedVersionError,
)
from doctype.ingest import FEATURE_IDS, DocType, FeatureVector
from doctype.ioutils import finite_number
from doctype.labeling import LabeledExample, stratified_split
from doctype.models import (
    DEPLOYED_FOREST_PROFILE,
    KINDS,
    MODEL_FORMAT_VERSION,
    SPECS,
    THRESHOLD_TEST_ORDER,
    ModelArtifact,
    check_hyperparameters,
    dataset_matrix,
    load_model,
    predict,
    predict_batch,
    prefix_labels,
    save_model,
    train,
    train_folds,
)
from doctype.models import baselines as baselines_module
from doctype.models import knn as knn_module
from doctype.models import adaboost as adaboost_module
from doctype.models.adaboost import fit_adaboost
from doctype.models.baselines import RandomBaselinePredictor
from doctype.models.knn import KnnPredictor, fit_knn
from doctype.models.svm import fit_linear_svm
from doctype.models import tree as tree_module
from doctype.models.tree import (
    ForestPredictor,
    Tree,
    balanced_weights,
    draw_features,
    fit_random_forest,
    grow_trees,
    splitmix64,
    stored,
)
from doctype.stats import TRANSFORM_KINDS, Imputer, TransformSpec
from doctype.synthetic import generate_synthetic
from conftest import (
    KNN_TRAIN_X_CORRUPTIONS,
    REFERENCE_CELLS,
    blank_f1,
    cell,
    make_example,
    threshold_model,
    threshold_table,
    toy_dataset,
)
from reference_svm import reference_fit_linear_svm
from reference_threshold import reference_threshold_predict
from reference_tree import (
    reference_distributions,
    reference_forest_depth,
    FIELDS,
    reference_grow_tree,
    stored_trees,
    tree_nodes,
)


def example_1d(f2: float, label: DocType, doc_id: str) -> LabeledExample:
    return LabeledExample(FeatureVector(1, f2, 1, f2), label, doc_id)


def random_vectors(n: int, seed: int) -> list[FeatureVector]:
    rng = np.random.default_rng(seed)
    return [
        FeatureVector(
            int(rng.integers(1, 9)),
            float(np.rint(rng.lognormal(8, 1.5))),
            float(rng.integers(1, 400)),
            float(rng.lognormal(5, 1)),
        )
        for _ in range(n)
    ]


feature_rows = st.tuples(
    st.one_of(st.none(), st.integers(1, 20)),
    st.floats(0, 3e5),
    st.integers(1, 600),
    st.floats(0, 2e4),
)



@st.composite
def grower_cases(draw):
    """A small matrix with ties and maybe a constant column, labels,
    sample weights (uniform, balanced, or drawn with zeros), growth limits
    and a 64-bit draw key, for the grower and its brute-force reference."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    levels = draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, levels - 1), min_size=d, max_size=d)
    X = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
    constant = draw(st.one_of(st.none(), st.integers(0, d - 1)))
    if constant is not None:
        X[:, constant] = 2.0
    y = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    weighting = draw(st.sampled_from(["uniform", "balanced", "drawn"]))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
    sample_weight = {
        "uniform": None,
        "balanced": balanced_weights(y),
        "drawn": np.array(draw(st.lists(weight, min_size=n, max_size=n))),
    }[weighting]
    limits = {
        "min_leaf_size": draw(st.integers(1, 3)),
        "max_depth": draw(st.one_of(st.none(), st.integers(0, 4))),
        "max_leaf_nodes": draw(st.one_of(st.none(), st.integers(1, 8))),
        "feature_subset": draw(st.one_of(st.none(), st.integers(1, d))),
    }
    return X, y, sample_weight, limits, draw(st.integers(0, 2**64 - 1))


@st.composite
def grower_batches(draw):
    """1-6 grower problems cut to one column count, under the first one's
    limits: trees of very different sizes grown in one batch."""
    cases = draw(st.lists(grower_cases(), min_size=1, max_size=6))
    d = min(X.shape[1] for X, *_ in cases)
    limits = dict(cases[0][3])
    if limits["feature_subset"] is not None:
        limits["feature_subset"] = min(limits["feature_subset"], d)
    return [(X[:, :d], y, sample_weight, key) for X, y, sample_weight, _, key in cases], limits


#: Every kind, over all three transforms.
EVERY_KIND = [
    ("baseline-random", {}, "identity"),
    ("baseline-threshold", {}, "identity"),
    ("gnb", {}, "log-scale"),
    ("knn", {"k": 5}, "z-score"),
    ("decision-tree", {"max_depth": 3}, "log-scale"),
    ("random-forest", {"n_trees": 6, "max_depth": 3}, "z-score"),
    ("adaboost", {"rounds": 8, "max_depth": 1}, "log-scale"),
    ("linear-svm", {"epochs": 50}, "z-score"),
]


@lru_cache(maxsize=1)
def every_kind_models() -> dict:
    data = toy_dataset(30, seed=16)
    return {kind: train(kind, data, hp, seed=3, transform=tr) for kind, hp, tr in EVERY_KIND}


def walk_tree(nodes: list[dict], row) -> list[float]:
    """Reference dict-node walk: the leaf distribution one row reaches."""
    node = nodes[0]
    while node["feature"] >= 0:
        go_left = row[node["feature"]] <= node["threshold"]
        node = nodes[node["left"] if go_left else node["right"]]
    return node["dist"]


def forest_oracle(trees: list[list[dict]], row) -> list[float]:
    acc = [0.0, 0.0, 0.0]
    for nodes in trees:
        for c, p in enumerate(walk_tree(nodes, row)):
            acc[c] += p
    return [v / len(trees) for v in acc]


def adaboost_oracle(trees: list[list[dict]], alphas: list[float], row) -> list[float]:
    acc = [0.0, 0.0, 0.0]
    for nodes, alpha in zip(trees, alphas):
        dist = walk_tree(nodes, row)
        acc[max(range(3), key=lambda c: (dist[c], -c))] += alpha
    return [v / sum(alphas) for v in acc]


MASK64 = (1 << 64) - 1


def splitmix64_int(z: int) -> int:
    """Reference splitmix64 step over Python ints."""
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_random_label(weights: list[float], seed: int, row) -> int:
    """Reference weighted guess for one model-input row: fold each value's
    float64 bits into the seed's key, take the top 53 bits as u, and walk
    the cumulative weights; past the rounded total, the last weighted class."""
    h = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    for value in row:
        h = splitmix64_int(h ^ struct.unpack("<Q", struct.pack("<d", value + 0.0))[0])
    u = (h >> 11) / 2**53
    total = 0.0
    for k, weight in enumerate(weights):
        total += weight
        if u < total:
            return k
    return max(k for k, weight in enumerate(weights) if weight > 0)


def class_counts_dataset(counts) -> list[LabeledExample]:
    return [
        make_example(t, doc_id=f"{t.label}{i}") for t, n in zip(DocType, counts) for i in range(n)
    ]


class TestBaselineRandom:
    def test_degenerate_weights(self):
        model = train("baseline-random", class_counts_dataset((5, 0, 0)))
        labels, _ = predict_batch(model, np.array([fv.values() for fv in random_vectors(50, 3)]))
        assert labels.tolist() == [DocType.RESEARCH] * 50

    def test_law_of_large_numbers(self):
        model = train("baseline-random", class_counts_dataset((55, 10, 35)))
        n = 100_000
        labels, _ = predict_batch(model, np.arange(4.0 * n).reshape(n, 4))
        freq = np.bincount(labels, minlength=3) / n
        assert abs(freq[DocType.RESEARCH] - 0.55) < 0.01
        assert abs(freq[DocType.SLIDES] - 0.10) < 0.01
        assert abs(freq[DocType.THESIS] - 0.35) < 0.01

    def test_same_seed_same_sequence(self):
        X = np.array([fv.values() for fv in random_vectors(100, seed=5)])
        first, again, other = (
            predict_batch(train("baseline-random", toy_dataset(), seed=seed), X)[0]
            for seed in (5, 5, 6)
        )
        assert first.tolist() == again.tolist()
        assert first.tolist() != other.tolist()

    def test_draw_matches_scalar_reference(self):
        rows = [fv.values() for fv in random_vectors(200, seed=1)] + [
            (0.0, -0.0, 1e300, -5e-324), (1.0, 2.0, 3.0, 4.0)
        ]
        for counts, seed in [((55, 10, 35), 9), ((0, 3, 1), 2**70), ((4, 4, 0), 0)]:
            model = train("baseline-random", class_counts_dataset(counts), seed=seed)
            labels, scores = predict_batch(model, np.array(rows))
            weights = model.parameters["weights"]
            assert labels.tolist() == [reference_random_label(weights, seed, r) for r in rows]
            assert (scores == np.eye(3)[labels]).all()

    def test_weight_zero_class_never_drawn_at_the_ends(self):
        # u = 0 and u = 1 - 2**-53 are the extreme hashes; a total rounded
        # below 1 leaves a gap at the top that goes to the last weighted class
        X = np.zeros((1, 4))
        for weights, hashed, expected in [
            ([0.0, 0.5, 0.5], 0, 1),
            ([0.5, 0.5, 0.0], MASK64, 1),
            ([0.3, 0.3, 0.4 - 1e-10], MASK64, 2),
            ([0.5, 0.5 - 1e-10, 0.0], MASK64, 1),
            ([0.0, 0.0, 1.0], 0, 2),
        ]:
            predictor = RandomBaselinePredictor({"weights": weights}, 1)
            with patch.object(baselines_module, "splitmix64", lambda z: np.full_like(z, hashed)):
                assert predictor.scores_matrix(X).argmax(axis=1).tolist() == [expected]

    @settings(max_examples=100, deadline=None)
    @given(
        counts=st.tuples(*[st.integers(0, 3)] * 3).filter(any),
        seed=st.integers(0, 2**70),
        rows=st.lists(st.tuples(*[st.floats(-1e6, 1e6)] * 4), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_label_is_a_function_of_the_row(self, counts, seed, rows, data):
        """Alone, in any batch and in any order a row gets one label; equal
        rows, -0.0 against 0.0 included, get equal labels; and no class of
        weight 0 is drawn."""
        model = train("baseline-random", class_counts_dataset(counts), seed=seed)
        X = np.array(rows)
        labels = predict_batch(model, X)[0]
        assert all(counts[label] for label in labels)
        for i in range(len(X)):
            assert predict_batch(model, X[i : i + 1])[0].tolist() == [labels[i]]
        order = data.draw(st.permutations(range(len(X))))
        assert predict_batch(model, X[order])[0].tolist() == labels[order].tolist()
        signs_flipped = np.where(X == 0, -X, X)
        both = predict_batch(model, np.concatenate([X, signs_flipped]))[0]
        assert both.tolist() == labels.tolist() * 2


def threshold_label(table: dict, fv: FeatureVector) -> DocType:
    """The label ``predict`` gives ``fv`` under a model holding ``table``,
    after checking that the scalar reference rule gives the same."""
    label, _ = predict(threshold_model(table), fv)
    assert label is reference_threshold_predict(table, fv)
    return label


class TestBaselineThreshold:
    def test_thesis_vector(self, reference_table):
        fv = FeatureVector(1, 50000, 200, 250.0)
        assert threshold_label(reference_table, fv) is DocType.THESIS

    def test_fallback_research(self, reference_table):
        fv = FeatureVector(20, 5000, 10, 500.0)
        assert threshold_label(reference_table, fv) is DocType.RESEARCH

    def test_slides_vector(self, reference_table):
        fv = FeatureVector(6, 500, 60, 8.3)
        assert threshold_label(reference_table, fv) is DocType.SLIDES

    def test_fallback_when_any_feature_exceeds_all_uppers(self, reference_table):
        rng = np.random.default_rng(17)
        uppers = {
            fid: max(REFERENCE_CELLS[label][fid][1] for label in REFERENCE_CELLS)
            for fid in ("f1", "f2", "f3", "f4")
        }
        for _ in range(100):
            fv = FeatureVector(
                float(rng.integers(1, 10)),
                float(rng.lognormal(8, 1)),
                float(rng.integers(1, 300)),
                float(rng.lognormal(5, 1)),
            )
            blown = rng.integers(0, 4)
            values = fv.values()
            values[blown] = uppers[("f1", "f2", "f3", "f4")[blown]] + 1.0
            fv = FeatureVector(*values)
            assert threshold_label(reference_table, fv) is DocType.RESEARCH

    def test_trained_on_dataset(self):
        data = toy_dataset(40)
        model = train("baseline-threshold", data)
        label, scores = predict(model, data[0].features)
        assert label in DocType
        assert sum(scores.values()) == pytest.approx(1.0)


class TestGnb:
    def test_two_separated_classes(self):
        data = [example_1d(v, DocType.RESEARCH, f"a{v}") for v in (-1.0, 0.0, 1.0)]
        data += [example_1d(v, DocType.SLIDES, f"b{v}") for v in (99.0, 100.0, 101.0)]
        model = train("gnb", data, features=("f2",))
        label, _ = predict(model, FeatureVector(1, 1.0, 1, 1.0))
        assert label is DocType.RESEARCH

    def test_tie_breaks_to_lowest_class(self):
        data = [example_1d(v, DocType.RESEARCH, f"a{v}") for v in (-2.0, -1.0)]
        data += [example_1d(v, DocType.SLIDES, f"b{v}") for v in (1.0, 2.0)]
        model = train("gnb", data, features=("f2",))
        label, scores = predict(model, FeatureVector(1, 0.0, 1, 0.0))
        assert scores[DocType.RESEARCH] == scores[DocType.SLIDES]
        assert label is DocType.RESEARCH

    def test_brute_force_posterior_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            n = int(rng.integers(6, 200))
            data = []
            for i in range(n):
                label = DocType(int(rng.integers(0, 3)))
                data.append(
                    make_example(
                        label,
                        f1=int(rng.integers(1, 9)),
                        f2=float(rng.normal(100 * int(label), 30)),
                        f3=float(rng.integers(1, 50)),
                        doc_id=f"{trial}-{i}",
                    )
                )
            if len({ex.label for ex in data}) < 2:
                continue
            model = train("gnb", data)
            priors = model.parameters["priors"]
            means = model.parameters["means"]
            variances = model.parameters["variances"]
            query = random_vectors(1, seed=1000 + trial)[0]
            _, scores = predict(model, query)
            x = [float(v) for v in query.values()]
            joint = []
            for c in range(3):
                if priors[c] == 0:
                    joint.append(0.0)
                    continue
                density = priors[c]
                for value, mean, var in zip(x, means[c], variances[c]):
                    density *= math.exp(-((value - mean) ** 2) / (2 * var)) / math.sqrt(
                        2 * math.pi * var
                    )
                joint.append(density)
            total = sum(joint)
            if total == 0.0:
                continue  # underflow outside the oracle's reach
            for t in DocType:
                assert scores[t] == pytest.approx(joint[int(t)] / total, abs=1e-9)


def knn_argsort_scores(train_x, train_y, k, X) -> np.ndarray:
    """Reference kNN: stable argsort of all summed squared distances."""
    k = min(k, len(train_y))
    d2 = ((X[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    votes = np.array([np.bincount(train_y[row], minlength=3) for row in nearest], dtype=float)
    return votes / votes.sum(axis=1, keepdims=True)


# few distinct coordinates, so rows repeat and distances tie
knn_coordinate = st.one_of(st.sampled_from([0.0, 1.0, 2.0, -1.0]), st.floats(-50, 50))


class TestKnn:
    def test_nearest_neighbor(self):
        data = [
            example_1d(0.0, DocType.RESEARCH, "a"),
            example_1d(10.0, DocType.SLIDES, "b"),
        ]
        model = train("knn", data, {"k": 1})
        label, _ = predict(model, FeatureVector(1, 1.0, 1, 1.0))
        assert label is DocType.RESEARCH

    def test_single_example_permitted(self):
        model = train("knn", [make_example(DocType.THESIS, doc_id="only")], {"k": 3})
        label, _ = predict(model, make_example(DocType.THESIS).features)
        assert label is DocType.THESIS

    def test_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            n = int(rng.integers(2, 200))
            data = [
                make_example(
                    DocType(int(rng.integers(0, 3))),
                    f1=int(rng.integers(1, 9)),
                    f2=float(rng.integers(0, 50)),
                    f3=float(rng.integers(1, 50)),
                    doc_id=f"{trial}-{i}",
                )
                for i in range(n)
            ]
            k = int(rng.integers(1, n + 1))
            model = train("knn", data, {"k": k})
            query = random_vectors(1, seed=2000 + trial)[0]
            got, scores = predict(model, query)

            qx = [float(v) for v in query.values()]
            dists = []
            for i, ex in enumerate(data):
                delta = [a - b for a, b in zip([float(v) for v in ex.features.values()], qx)]
                dists.append((sum(d * d for d in delta), i))
            dists.sort()
            votes = [0, 0, 0]
            for _, i in dists[:k]:
                votes[int(data[i].label)] += 1
            expected = DocType(max(range(3), key=lambda c: (votes[c], -c)))
            assert got is expected, (trial, votes)
            for t in DocType:
                assert scores[t] == pytest.approx(votes[int(t)] / k, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        train_rows=st.lists(st.lists(knn_coordinate, min_size=3, max_size=3), min_size=1, max_size=25),
        labels=st.lists(st.integers(0, 2), min_size=25, max_size=25),
        queries=st.lists(st.lists(knn_coordinate, min_size=3, max_size=3), min_size=1, max_size=9),
        k_extra=st.integers(0, 30),
        block=st.integers(0, 4),
    )
    def test_partition_matches_argsort_oracle(self, train_rows, labels, queries, k_extra, block):
        train_x, X = np.array(train_rows), np.array(queries)
        train_y = np.array(labels[: len(train_rows)])
        k = 1 + k_extra  # reaches past the training size
        predictor = KnnPredictor(fit_knn(train_x, train_y, 0, {"k": k}), 3)
        # a cap of ``block`` rows of distances; 0: a cap below one row, so
        # a block still holds one row
        original = knn_module._CHUNK_CELLS
        knn_module._CHUNK_CELLS = block * len(train_rows) or len(train_rows) - 1
        try:
            got, prefixes = predictor.scores_matrix(X), predictor.prefix_scores(X)
        finally:
            knn_module._CHUNK_CELLS = original
        assert np.array_equal(got, knn_argsort_scores(train_x, train_y, k, X))
        # prefix s is the s-NN model, up to the clamped k
        assert len(prefixes) == min(k, len(train_rows))
        for s, prefix in enumerate(prefixes, 1):
            assert np.array_equal(prefix, knn_argsort_scores(train_x, train_y, s, X)), s

    def test_batch_working_memory_stays_in_blocks(self):
        # 400 queries against 11,500 training rows, the size of the
        # benchmark's model-kinds job: 128-row blocks peaked at 35 MB
        props = {DocType.RESEARCH: 0.55, DocType.SLIDES: 0.10, DocType.THESIS: 0.35}
        model = train("knn", generate_synthetic(11_500, props, 7), {"k": 5}, transform="z-score")
        queries = dataset_matrix(generate_synthetic(400, props, 8))[0]
        tracemalloc.start()
        try:
            predict_batch(model, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class TestDecisionTree:
    def test_perfect_split_on_pages(self):
        data = [
            make_example(DocType.RESEARCH, f3=float(v), doc_id=f"r{v}")
            for v in (3, 10, 20, 30, 41)
        ] + [
            make_example(DocType.THESIS, f3=float(v), doc_id=f"t{v}")
            for v in (47, 100, 200, 478)
        ]
        model = train("decision-tree", data, {"max_depth": 1})
        for ex in data:
            label, _ = predict(model, ex.features)
            assert label is ex.label

    def test_monotone_transform_invariance(self):
        data = toy_dataset(40, seed=2)
        queries = random_vectors(60, seed=3)
        transforms = [lambda v: v**3, lambda v: 5 * v + 2, lambda v: math.expm1(v / 1e5), lambda v: v]

        def remap_example(ex):
            vals = [f(v) for f, v in zip(transforms, ex.features.values())]
            return LabeledExample(FeatureVector(*vals), ex.label, ex.id)

        def remap_vector(fv):
            return FeatureVector(*[f(v) for f, v in zip(transforms, fv.values())])

        for kind, hp in [
            ("decision-tree", {"max_depth": 4}),
            ("random-forest", {"n_trees": 7, "max_depth": 3}),
        ]:
            plain = train(kind, data, hp, seed=9)
            warped = train(kind, [remap_example(ex) for ex in data], hp, seed=9)
            for fv in queries:
                a, _ = predict(plain, fv)
                b, _ = predict(warped, remap_vector(fv))
                assert a is b

    def test_tied_decreases_split_in_creation_order(self):
        # both root children split perfectly on column 1 (decrease 0.5
        # each); a three-leaf budget splits the one created first
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        tree, _ = grow_trees([(X, np.array([0, 1, 2, 0]), None, 0, None)], max_leaf_nodes=3)[0]
        assert tree.feature.tolist() == [0, 1, -1, -1, -1]

    @settings(max_examples=400, deadline=None)
    @given(case=grower_cases())
    def test_presorted_grower_matches_reference(self, case):
        X, y, sample_weight, limits, key = case
        want = reference_grow_tree(X, y, sample_weight, **limits, key=key)
        tree, leaf = grow_trees([(X, y, sample_weight, key, None)], **limits)[0]
        [nodes] = tree_nodes(stored([tree]))
        assert json.dumps(nodes) == json.dumps(want)
        # each training row's leaf id gives the compiled tree's prediction
        routed = ForestPredictor(*Tree.read(stored([tree])), X.shape[1]).scores_matrix(X).argmax(axis=1)
        assert np.array_equal(np.array([node["dist"] for node in nodes]).argmax(axis=1)[leaf], routed)

    @settings(max_examples=300, deadline=None)
    @given(batch=grower_batches())
    def test_batch_grower_matches_reference(self, batch):
        problems, limits = batch
        batch = [(X, y, sample_weight, key, None) for X, y, sample_weight, key in problems]
        grown = grow_trees(batch, **limits)
        for (X, y, sample_weight, key), (tree, leaf) in zip(problems, grown):
            want = reference_grow_tree(X, y, sample_weight, **limits, key=key)
            [nodes] = tree_nodes(stored([tree]))
            assert json.dumps(nodes) == json.dumps(want)
            # each training row's leaf id is the node the compiled tree routes it to
            predictor = ForestPredictor(*Tree.read(stored([tree])), X.shape[1])
            assert np.array_equal(leaf, predictor.leaves(X)[0])
        # one node or one feature per scoring call: the same trees
        with patch.object(tree_module, "_PASS_CELLS", 1):
            one_at_a_time = grow_trees(batch, **limits)
        for (tree, leaf), (again, again_leaf) in zip(grown, one_at_a_time):
            assert json.dumps(stored([again])) == json.dumps(stored([tree]))
            assert np.array_equal(again_leaf, leaf)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.sampled_from([0.0, 5e-324, 2.5e-320, 1e-300, 1.0, 1e300, 1.7e308])
                | st.floats(0, 1e308),
                min_size=3, max_size=3,
            ),
            min_size=1, max_size=20,
        )
    )
    def test_distributions_match_the_python_loop(self, rows):
        # zero, sub-normal and 1e300-apart weights, bit for bit; a total
        # may overflow to inf, as the fit allows
        counts = np.array(rows)
        want = np.array(reference_distributions(counts))
        with np.errstate(over="ignore"):
            got = tree_module._distributions(counts)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_forest_scores_a_level_in_one_pass(self, monkeypatch):
        # 20 bootstrapped trees of depth 4 on 185 rows: one scoring pass per
        # level across all trees, in calls of many nodes, not one per node
        props = {DocType.RESEARCH: 0.55, DocType.SLIDES: 0.10, DocType.THESIS: 0.35}
        X, y = dataset_matrix(generate_synthetic(185, props, 3))
        passes, calls = [], []
        groups, best_split = tree_module._groups, tree_module._best_split
        monkeypatch.setattr(tree_module, "_groups", lambda *a: passes.append(1) or groups(*a))
        monkeypatch.setattr(tree_module, "_best_split", lambda *a: calls.append(1) or best_split(*a))
        hp = {"n_trees": 20, "max_depth": 4, "min_leaf_size": 1, "max_leaf_nodes": None,
              "feature_subset": 2, "bootstrap": True, "class_weight": None}
        splits = sum(f >= 0 for f in fit_random_forest(X, y, 0, hp)["trees"]["feature"])
        assert len(passes) <= 4 and 4 * len(calls) <= splits

    @pytest.mark.parametrize("kind, n, hp, seed, pinned", [
        ("random-forest", 2000, DEPLOYED_FOREST_PROFILE, 7, (15, 164)),
        ("decision-tree", 2000, {"max_leaf_nodes": 6}, 0, (6, 44)),
        ("random-forest", 185, {"n_trees": 20, "max_depth": 4, "feature_subset": 2}, 0,
         (4, 328)),
    ])
    def test_grower_scoring_work_is_pinned(self, kind, n, hp, seed, pinned, monkeypatch):
        # the passes a fit makes and the (node, drawn feature) lines it
        # scores, recorded before the grower kept its nodes by provisional
        # id: a change to which nodes are scored, or when, fails here,
        # including the nodes that wait under a leaf budget
        props = {DocType.RESEARCH: 0.55, DocType.SLIDES: 0.10, DocType.THESIS: 0.35}
        data = generate_synthetic(n, props, 3)
        passes, lines = [], []
        groups, best_split = tree_module._groups, tree_module._best_split
        monkeypatch.setattr(tree_module, "_groups", lambda *a: passes.append(1) or groups(*a))
        monkeypatch.setattr(tree_module, "_best_split",
                            lambda *a: lines.append(a[5].size) or best_split(*a))
        train(kind, data, hp, seed)
        assert (len(passes), sum(lines)) == pinned


#: sha256 of ``to_json()`` and of the ``predict_batch`` score bytes of tree
#: models fitted on one fixed synthetic set with 20% of f1 blank. The scores
#: were recorded before the decision tree became a one-tree forest and
#: AdaBoost moved onto the forest's predictor, the files when model files
#: took format version 3 (tree columns on one line) and again at version 4,
#: where each file is the version-3 file with only its ``format_version``
#: changed. Any change to the fitted nodes, the imputer or the rounding of a
#: vote fails here.
PINNED_TREE_BYTES = [
    ("decision-tree", {"max_leaf_nodes": 6}, 0, "identity",
     "507c3e0bf9796e9a2d287b1345c7e670a74f96812c8a739b2c99e3ad2d198574",
     "ca9c0ea89e4b84bff35952d34b0a473389dc74122677f6059c0109fb4bbffbb5"),
    ("decision-tree", {"class_weight": "balanced", "max_depth": 5}, 0, "log-scale",
     "f86502b2b4cee95c35429fdc41b4384052c0636391fa7a8f3f3a9452e658d252",
     "e40e5ebaf1df3b124fd4b489af7f01d77105e3407605ffbee2929780de5f133f"),
    # a library call may pass any int seed: the decision tree draws nothing
    ("decision-tree", {"max_depth": 4}, -1, "identity",
     "097e2ce9364146ad07246a29857c016d12aae6ec268ba6af71f5220303b59183",
     "b3b61db6340a0353e3cfb6c91ab6d50eddd1c488b7fd4b8f58dd486bea78ede1"),
    # the two random-forest rows draw feature subsets: recorded when a node's
    # draw became a hash of its path key
    ("random-forest", {"n_trees": 7, "max_depth": 4}, 3, "z-score",
     "fd561c3a88afa7c6ed7e99943f14d8b49255968851269646db7d6ea369e1e5b5",
     "90b69410e24550d4965eb6aa9bcaf3b73be709ef19dd481c410f4ee1f9ed060b"),
    ("adaboost", {"rounds": 15, "max_depth": 2}, 0, "identity",
     "1e2f95435eee35e66efdcf5413fef308db20940a3ab0eec42bc18f511d613d9e",
     "4f0fae844e139e05c7c3a4d52e1fa9d973b5da32ea3ec835f81680f0fa60c524"),
    ("random-forest", DEPLOYED_FOREST_PROFILE, 5, "identity",
     "3b38b54fd165db32f6d6cd7ec5bf2b06a111b30d0bd9ddd510ac81b3f40b876e",
     "5db3cb0f42e4acbe92b2f591e07a0d191ca9e48179b38157981dbb1ff6df5ab0"),
    ("adaboost", {"rounds": 50, "max_depth": 1}, 0, "identity",
     "1896fe79ae6a69cbaf0d0249d7afb53a5cb409225dba7b95008925555f0d3d3c",
     "d766a8836652a1169a00c852bc8b45cd0a53cf2b73a0f1097ec2c81790660704"),
    ("decision-tree", {"min_leaf_size": 3, "max_depth": 4}, 0, "identity",
     "c792f47e231c0d79796fc6945f4a837df43b155d465eaa229fea19bc89506e28",
     "5b698d66b97b34c0171339ad9ac5107a9d875ce5fd6dab96da2a2467e709451b"),
]


@lru_cache(maxsize=1)
def pinned_data():
    props = {DocType.RESEARCH: 0.55, DocType.SLIDES: 0.10, DocType.THESIS: 0.35}
    data = blank_f1(generate_synthetic(400, props, 11), 0.2, 11)
    queries = dataset_matrix(blank_f1(generate_synthetic(300, props, 12), 0.2, 12))[0]
    return data, queries


@pytest.mark.parametrize(
    "kind, hp, seed, transform, model_sha, scores_sha", PINNED_TREE_BYTES,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(PINNED_TREE_BYTES)],
)
def test_tree_kinds_keep_their_bytes(kind, hp, seed, transform, model_sha, scores_sha):
    data, queries = pinned_data()
    model = train(kind, data, hp, seed, transform)
    assert hashlib.sha256(model.to_json().encode()).hexdigest() == model_sha
    assert hashlib.sha256(predict_batch(model, queries)[1].tobytes()).hexdigest() == scores_sha


#: The other kinds on the same data: sha256 of the model file as parsed JSON
#: without its ``format_version`` (``json.dumps`` with sorted keys), and of
#: the ``predict_batch`` score bytes. Recorded at format version 2, so they
#: show that versions 3 and 4 changed no score and, but for kNN, no stored
#: value. kNN's file was recorded again at version 4, which stores its
#: training rows as base64 float64 bytes; its scores did not change.
PINNED_OTHER_KINDS = [
    ("baseline-random", {}, 0, "identity",
     "660bfc4cb133e9d5f786a9cbe21cb0e5123525acc8443971321adba3e8cce1b4",
     "88d09a04b88d20528a1b90ff154f00feedc94774f94c87852b4429c078730376"),
    ("baseline-threshold", {}, 0, "identity",
     "7251a44d0eec6ef08d21afb2182e9c53f0e8a7d8b84e183be7b637402ca97311",
     "daf3bfa34da7c3b39d2287bc0dd6c7cd62928099d254fce7a50409c5ed67ecce"),
    ("gnb", {}, 0, "log-scale",
     "3ad71e346793913b558e1d274196ec68c13bd9cfb3f24399acb3f69eb10f88b1",
     "b23ae337fff0b50d060fbcd7417f5c4e5da86a3762f3f826f832db65ed3f5774"),
    ("knn", {"k": 5}, 0, "z-score",
     "6af5dc641200ed803dae67cf8e166dea8f1a8fc219cefba57a76cb1eda43b277",
     "4269f8beaa196782af5e68a3f720cec5425e875511cba5f8674b2080746eccfe"),
    ("linear-svm", {"epochs": 50}, 0, "z-score",
     "a9747d628560ff604b04cb4aaefb6a5870e250adc94178919cebe813e75e9a17",
     "6fbba1387dd3ff901dd8aabdd3b79050d85344efc33a2b2aa56a4d0939e08b68"),
]


@pytest.mark.parametrize(
    "kind, hp, seed, transform, content_sha, scores_sha", PINNED_OTHER_KINDS,
    ids=[case[0] for case in PINNED_OTHER_KINDS],
)
def test_other_kinds_keep_their_bytes(kind, hp, seed, transform, content_sha, scores_sha):
    data, queries = pinned_data()
    model = train(kind, data, hp, seed, transform)
    payload = json.loads(model.to_json())
    assert payload.pop("format_version") == MODEL_FORMAT_VERSION
    content = json.dumps(payload, sort_keys=True).encode()
    assert hashlib.sha256(content).hexdigest() == content_sha
    assert hashlib.sha256(predict_batch(model, queries)[1].tobytes()).hexdigest() == scores_sha


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_tree(self):
        data = toy_dataset(35, seed=4)
        hp = {"max_depth": 3, "min_leaf_size": 2}
        tree = train("decision-tree", data, hp, seed=1)
        forest = train(
            "random-forest",
            data,
            {**hp, "n_trees": 1, "bootstrap": False, "feature_subset": 4},
            seed=1,
        )
        for fv in random_vectors(200, seed=5):
            assert predict(tree, fv)[0] is predict(forest, fv)[0]

    def test_unanimous_leaf_scores_one(self):
        data = [make_example(DocType.THESIS, doc_id=f"t{i}") for i in range(10)]
        model = train("random-forest", data, {"n_trees": 5})
        label, scores = predict(model, data[0].features)
        assert label is DocType.THESIS
        assert scores[DocType.THESIS] == pytest.approx(1.0)

    def test_deployed_profile_leaf_budget(self):
        data = toy_dataset(50, seed=6)
        model = train("random-forest", data, DEPLOYED_FOREST_PROFILE, seed=2)
        assert len(model.parameters["sizes"]) <= 10
        for nodes in tree_nodes(model.parameters):
            leaves = sum(1 for node in nodes if node["feature"] < 0)
            assert leaves <= 5

    def test_deterministic_serialization(self):
        data = toy_dataset(30, seed=7)
        a = train("random-forest", data, {"n_trees": 4, "max_depth": 3}, seed=12)
        b = train("random-forest", data, {"n_trees": 4, "max_depth": 3}, seed=12)
        assert a.to_json() == b.to_json()


#: Two columns that no split separates, three equal classes: the first
#: learner's weighted error is 2/3 up to rounding, so the fit finds no weak
#: learner.
UNSPLITTABLE = (np.zeros((9, 2)), np.arange(9) % 3)
#: One class: a tree of any depth, a lone root included, makes no error,
#: so boosting stops at the error floor in round 1.
ONE_CLASS = (np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]), np.array([2, 2, 2]))
#: Three classes a depth-2 tree separates.
SEPARABLE = (np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0]]), np.array([0, 1, 2, 2]))


@st.composite
def boosting_problems(draw):
    """1-6 ``(X, y)`` problems over two columns with ties: drawn ones of
    1-40 rows with every class or not, and the fixed problems above."""
    problems = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            problems.append(draw(st.sampled_from([UNSPLITTABLE, ONE_CLASS, SEPARABLE])))
            continue
        n = draw(st.integers(1, 40))
        cells = st.lists(st.integers(0, draw(st.integers(0, 5))), min_size=2, max_size=2)
        X = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
        problems.append((X, np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))))
    return problems


def boosted(fit) -> str:
    """A ``fit_adaboost`` result as text: its JSON, or its error."""
    return json.dumps(fit) if isinstance(fit, dict) else f"{type(fit).__name__}: {fit}"


class TestAdaboost:
    @settings(max_examples=150, deadline=None)
    @given(
        problems=boosting_problems(),
        rounds=st.integers(1, 12),
        max_depth=st.integers(0, 2),
        min_leaf_size=st.integers(1, 2),
    )
    def test_lockstep_fit_is_each_problem_fitted_alone(self, problems, rounds, max_depth, min_leaf_size):
        hp = {"rounds": rounds, "max_depth": max_depth, "min_leaf_size": min_leaf_size}
        together = list(fit_adaboost(problems, hp))
        assert len(together) == len(problems)
        for problem, fit in zip(problems, together):
            [alone] = fit_adaboost([problem], hp)
            assert boosted(fit) == boosted(alone)

    @pytest.mark.parametrize("max_depth", [0, 1, 2])
    def test_stopped_problems_leave_the_batch(self, max_depth, monkeypatch):
        hp = {"rounds": 10, "max_depth": max_depth, "min_leaf_size": 1}
        data = toy_dataset(15, seed=3)[:40]  # unequal classes: a lone root boosts
        X, y = dataset_matrix(data, ("f2", "f3"))
        batches, grow = [], adaboost_module.grow_trees

        def counted(problems, **limits):
            batches.append(len(problems))
            return grow(problems, **limits)

        monkeypatch.setattr(adaboost_module, "grow_trees", counted)
        fits = list(fit_adaboost([UNSPLITTABLE, (X, y), ONE_CLASS, SEPARABLE], hp))
        # one grower call a round; after round 1 only two problems can be boosting
        assert batches[0] == 4 and max(batches[1:], default=0) <= 2
        assert boosted(fits[0]) == "TrainingError: boosting found no weak learner better than random"
        # a problem a tree separates stops at the error floor in round 1
        assert len(fits[2]["sizes"]) == 1
        assert len(fits[3]["sizes"]) == 1 or max_depth < 2
        # the failed and stopped problems change nothing for the one boosting on
        assert [boosted(fits[1])] == [boosted(fit) for fit in fit_adaboost([(X, y)], hp)]
        alone = train("adaboost", data, hp, features=("f2", "f3"))
        assert boosted(fits[1]) == boosted(alone.parameters)

    @pytest.mark.parametrize("n", range(3, 40, 3))
    @pytest.mark.parametrize("max_depth", [0, 2])
    def test_no_better_than_random_at_any_row_count(self, n, max_depth):
        # the first learner's error is 2/3 rounded up or down by a few ulps,
        # as n sets the order of its sum: at no n does it boost a round
        hp = {"rounds": 5, "max_depth": max_depth, "min_leaf_size": 1}
        [fit] = fit_adaboost([(np.zeros((n, 2)), np.arange(n) % 3)], hp)
        assert boosted(fit) == "TrainingError: boosting found no weak learner better than random"

    def test_round_one_equals_weak_learner(self):
        data = toy_dataset(25, seed=8)
        boosted = train("adaboost", data, {"rounds": 1, "max_depth": 2}, seed=0)
        tree = train("decision-tree", data, {"max_depth": 2}, seed=0)
        for fv in random_vectors(150, seed=9):
            assert predict(boosted, fv)[0] is predict(tree, fv)[0]

    def test_weights_finite_and_scores_normalized(self):
        data = toy_dataset(30, seed=10)
        model = train("adaboost", data, {"rounds": 25, "max_depth": 1}, seed=0)
        assert all(math.isfinite(a) for a in model.parameters["alphas"])
        _, scores = predict(model, data[0].features)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_requires_all_classes(self):
        data = [make_example(DocType.RESEARCH, doc_id=f"r{i}") for i in range(6)]
        with pytest.raises(TrainingError):
            train("adaboost", data, {"rounds": 5})

    def test_single_example_rejected(self):
        with pytest.raises(TrainingError):
            train("adaboost", [make_example(DocType.RESEARCH, doc_id="x")])


def noisy_examples(seed: int, n: int = 30) -> list[LabeledExample]:
    """Few distinct values, repeated rows with clashing labels, every class."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        f2, f3 = float(rng.integers(1, 6)), float(rng.integers(1, 4))
        fv = FeatureVector(int(rng.integers(1, 3)), f2, f3, f2 / f3)
        out.append(LabeledExample(fv, DocType(i % 3), f"n{i}"))
    return out


def fit_or_error(kind, data, hp, seed, transform):
    try:
        return train(kind, data, hp, seed, transform).to_json()
    except TrainingError as exc:
        return str(exc)


sizes_pair = st.lists(st.integers(1, 8), min_size=2, max_size=2).map(sorted)
oracle_data = st.one_of(
    st.integers(0, 5).map(noisy_examples),
    st.integers(0, 5).map(lambda seed: toy_dataset(6, seed)),
)


def first_members(model: ModelArtifact, size: int) -> ModelArtifact:
    """The model of ``model``'s first ``size`` trees, and their round
    weights for AdaBoost."""
    sizes = model.parameters["sizes"][:size]
    columns = {name: column[: sum(sizes)] for name, column in model.parameters["trees"].items()}
    parameters = {**model.parameters, "trees": columns, "sizes": sizes}
    if "alphas" in parameters:
        parameters["alphas"] = parameters["alphas"][:size]
    return replace(model, parameters=parameters)


#: Per ensemble kind, its hyperparameters without the size.
ENSEMBLE_HYPERPARAMETERS = {
    "random-forest": st.fixed_dictionaries({
        "bootstrap": st.booleans(),
        "feature_subset": st.integers(1, 4),
        "class_weight": st.sampled_from([None, "balanced"]),
        "max_depth": st.one_of(st.none(), st.integers(0, 4)),
        "max_leaf_nodes": st.one_of(st.none(), st.integers(1, 6)),
    }),
    "adaboost": st.fixed_dictionaries({"max_depth": st.integers(0, 3)}),
    "knn": st.just({}),
}
ensemble_fits = st.sampled_from(sorted(ENSEMBLE_HYPERPARAMETERS)).flatmap(
    lambda kind: ENSEMBLE_HYPERPARAMETERS[kind].map(lambda hp: (kind, hp))
)


class TestTruncate:
    """The first s members of an ensemble fitted at size S are the fit at
    size s, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=oracle_data,
        sizes=sizes_pair,
        hp=st.fixed_dictionaries({
            "bootstrap": st.booleans(),
            "feature_subset": st.integers(1, 4),
            "class_weight": st.sampled_from([None, "balanced"]),
            "max_depth": st.one_of(st.none(), st.integers(0, 4)),
            "max_leaf_nodes": st.one_of(st.none(), st.integers(1, 6)),
        }),
        seed=st.integers(0, 2**32 - 1),
        transform=st.sampled_from(TRANSFORM_KINDS),
    )
    def test_forest_prefix(self, data, sizes, hp, seed, transform):
        small, large = sizes
        full = train("random-forest", data, {**hp, "n_trees": large}, seed, transform)
        direct = train("random-forest", data, {**hp, "n_trees": small}, seed, transform)
        assert first_members(full, small).to_json() == direct.to_json()

    @settings(max_examples=60, deadline=None)
    @given(
        data=oracle_data,
        sizes=sizes_pair,
        max_depth=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        transform=st.sampled_from(TRANSFORM_KINDS),
    )
    def test_adaboost_prefix(self, data, sizes, max_depth, seed, transform):
        small, large = sizes
        full = fit_or_error("adaboost", data, {"rounds": large, "max_depth": max_depth}, seed, transform)
        direct = fit_or_error("adaboost", data, {"rounds": small, "max_depth": max_depth}, seed, transform)
        if full.startswith("{"):
            full = first_members(ModelArtifact.from_json(full), small).to_json()
        assert full == direct


class TestEnsemblePrefixes:
    """Since a smaller ensemble fit is the first members of a larger one (an
    AdaBoost early stop included), ``prefix_labels`` of the larger fit labels
    rows as each smaller fit does."""

    @pytest.mark.parametrize(
        "data, max_depth",
        [
            (toy_dataset(10, seed=1), 2),  # separable: round 1 hits the error floor
            # 11, 10 and 10 rows a class: a lone root boosts once, and round 2
            # is no better than random guessing
            (noisy_examples(0, 31), 0),
        ],
    )
    def test_first_members_through_early_stop(self, data, max_depth):
        full = train("adaboost", data, {"rounds": 6, "max_depth": max_depth})
        assert len(full.parameters["sizes"]) == 1
        X, _ = dataset_matrix(data)
        prefixes = prefix_labels(full, X)
        assert prefixes.shape == (1, len(data))
        for rounds in range(1, 7):
            direct = train("adaboost", data, {"rounds": rounds, "max_depth": max_depth})
            assert first_members(full, rounds).to_json() == direct.to_json()
            assert prefixes[0].tolist() == predict_batch(direct, X)[0].tolist()

    @settings(max_examples=90, deadline=None)
    @given(
        data=oracle_data,
        size=st.integers(1, 8),
        fit=ensemble_fits,
        seed=st.integers(0, 2**32 - 1),
        transform=st.sampled_from(TRANSFORM_KINDS),
        rows=st.lists(feature_rows, min_size=1, max_size=12),
    )
    def test_prefix_labels_match_smaller_fits(self, data, size, fit, seed, transform, rows):
        (kind, hp), X = fit, np.array(rows, dtype=float)
        size_key = SPECS[kind].size_key
        try:
            full = train(kind, data, {**hp, size_key: size}, seed, transform)
        except TrainingError:
            return
        prefixes = prefix_labels(full, X)
        # an early stop or a small training set gives fewer prefixes
        assert 1 <= len(prefixes) <= size and prefixes.shape == (len(prefixes), len(rows))
        for s in range(1, size + 1):
            direct = train(kind, data, {**hp, size_key: s}, seed, transform)
            expected, _ = predict_batch(direct, X)
            assert prefixes[min(s, len(prefixes)) - 1].tolist() == expected.tolist(), s

    def test_every_ensemble_kind_is_drawn(self):
        # a kind that claims to nest is checked by the prefix property test
        assert set(ENSEMBLE_HYPERPARAMETERS) == {kind for kind in KINDS if SPECS[kind].ensemble}

    def test_other_kinds_rejected(self):
        data = toy_dataset(5, seed=1)
        X = dataset_matrix(data)[0]
        with pytest.raises(ValueError, match="not an ensemble"):
            prefix_labels(train("linear-svm", data, {"epochs": 5}), X)
        # boosting rounds reweight rows by the rounds before, at their depth
        with pytest.raises(ValueError, match="adaboost does not nest max_depth"):
            prefix_labels(train("adaboost", data, {"rounds": 2}), X, 1)

    @pytest.mark.parametrize(
        "kind, hp",
        [
            ("random-forest", {"n_trees": 23, "max_depth": 3}),
            ("adaboost", {"rounds": 40, "max_depth": 2}),
            ("adaboost", {"rounds": 40, "max_depth": 0}),
        ],
    )
    def test_scores_are_vote_sums_over_python_sum_totals(self, kind, hp):
        """The last prefix is the one scoring formula ``predict_batch`` uses,
        and prefix s is divided by the tree count s or the running sum of
        the weights in round order at s, as the s-member model's own
        predictor divides."""
        # unequal classes, so a lone root (max_depth 0) boosts a round
        data = noisy_examples(3, 61) + toy_dataset(10, seed=3)
        model = train(kind, data, hp, seed=4)
        n_trees = len(model.parameters["sizes"])
        alphas = model.parameters.get("alphas", [1] * n_trees)
        totals = [alphas[0]]  # running sums in round order
        for alpha in alphas[1:]:
            totals.append(totals[-1] + alpha)
        predictor = ForestPredictor(*Tree.read(model.parameters), 4, model.parameters.get("alphas"))
        for X in (dataset_matrix(data)[0], dataset_matrix(data[:1])[0]):
            votes = predictor.votes[predictor.leaves(X)]
            prefixes = predictor.prefix_scores(X)
            assert np.array_equal(predictor.scores_matrix(X), votes.sum(axis=0) / totals[-1])
            assert np.array_equal(predict_batch(model, X)[1], prefixes[-1])
            for s in range(1, n_trees + 1):
                expected = votes[:s].sum(axis=0) / totals[s - 1]
                assert np.array_equal(prefixes[s - 1], expected), s


#: (kind, hyperparameters without max_depth) of the two kinds that nest it.
depth_fits = st.one_of(
    st.fixed_dictionaries({
        "n_trees": st.integers(1, 5),
        "bootstrap": st.booleans(),
        "feature_subset": st.integers(1, 4),
        "class_weight": st.sampled_from([None, "balanced"]),
        "min_leaf_size": st.integers(1, 3),
    }).map(lambda hp: ("random-forest", hp)),
    st.fixed_dictionaries({
        "class_weight": st.sampled_from([None, "balanced"]),
        "min_leaf_size": st.integers(1, 3),
    }).map(lambda hp: ("decision-tree", hp)),
)


class TestDepthCuts:
    """A node's features are drawn from its path key, so without a leaf
    budget a tree fitted at ``max_depth`` d is a deeper fit cut at d."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.one_of(oracle_data, st.integers(0, 20).map(lambda seed: toy_dataset(20, seed))),
        fit=depth_fits,
        deepest=st.one_of(st.none(), st.integers(0, 6)),
        seed=st.integers(0, 2**32 - 1),
        transform=st.sampled_from(TRANSFORM_KINDS),
        rows=st.lists(feature_rows, min_size=1, max_size=12),
    )
    def test_cut_labels_match_direct_fits(self, data, fit, deepest, seed, transform, rows):
        (kind, hp), X = fit, np.array(rows, dtype=float)
        full = train(kind, data, {**hp, "max_depth": deepest}, seed, transform)
        depths = [*range(8), None] if deepest is None else range(deepest + 1)
        for depth in depths:
            direct = train(kind, data, {**hp, "max_depth": depth}, seed, transform)
            assert prefix_labels(full, X, depth).tolist() == prefix_labels(direct, X).tolist(), depth

    def test_unbounded_tree_deeper_than_64_levels_fits_and_loads(self):
        # labels alternating along four increasing features grow a chain:
        # every split peels one row off, whichever features a node draws
        data = [
            LabeledExample(FeatureVector(i + 1, 1000.0 * (i + 1) ** 2, i + 1, 1000.0 * (i + 1)),
                           DocType(i % 2), f"s{i}")
            for i in range(100)
        ]
        X = dataset_matrix(data)[0]
        for kind, hp in [
            ("random-forest", {"n_trees": 2, "bootstrap": False, "feature_subset": 2}),
            ("decision-tree", {}),
        ]:
            text = train(kind, data, {**hp, "max_depth": None}, seed=3).to_json()
            loaded = load_model(io.StringIO(text))
            assert ForestPredictor(*Tree.read(loaded.parameters), 4).depth == 99
            assert predict_batch(loaded, X)[0].tolist() == [i % 2 for i in range(100)]


def node_keys(n_trees: int = 64, levels: int = 8) -> list[np.ndarray]:
    """Per level, the draw keys of every node of complete trees ``levels``
    deep under forest tree keys: 64 x 255 = 16,320 keys by default."""
    seeds = np.random.SeedSequence(2024).spawn(n_trees)
    level = np.array([s.generate_state(1, np.uint64)[0] for s in seeds])
    out = []
    for _ in range(levels):
        out.append(level)
        level = splitmix64(level[:, None] ^ np.array([1, 2], dtype=np.uint64)).ravel()
    return out


#: Upper 1e-4 tail of the chi-square distribution by degrees of freedom.
CHI2_CRITICAL = {2: 18.421, 3: 21.108, 5: 25.745, 215: 300.795}


def chi_square(counts: Counter, cells: list) -> float:
    expected = sum(counts.values()) / len(cells)
    assert set(counts) <= set(cells)
    return sum((counts[cell] - expected) ** 2 / expected for cell in cells)


class TestKeyedDraws:
    """``draw_features`` over node keys behaves as a uniform draw of an
    m-subset, independently at a node and its two children."""

    @pytest.mark.parametrize("d, m", [(4, 1), (4, 2), (4, 3), (3, 1), (3, 2)])
    def test_every_subset_equally_often(self, d, m):
        keys = np.concatenate(node_keys())
        counts = Counter(map(tuple, draw_features(keys, d, m).tolist()))
        cells = list(combinations(range(d), m))
        assert chi_square(counts, cells) < CHI2_CRITICAL[len(cells) - 1]

    def test_children_draw_apart_from_their_parent(self):
        # each of the 8,128 parents above the last level, with its two children
        keys = np.concatenate(node_keys()[:-1])
        draws = [
            map(tuple, draw_features(level, 4, 2).tolist())
            for level in (keys, splitmix64(keys ^ np.uint64(1)), splitmix64(keys ^ np.uint64(2)))
        ]
        counts = Counter(zip(*draws))
        pairs = list(combinations(range(4), 2))
        assert chi_square(counts, list(product(pairs, repeat=3))) < CHI2_CRITICAL[215]

    def test_draw_is_sorted_and_distinct(self):
        keys = node_keys(4, 4)[-1]
        for d in range(1, 6):
            for m in range(1, d + 1):
                for feats in draw_features(keys, d, m).tolist():
                    assert feats == sorted(set(feats)) and len(feats) == m and feats[-1] < d


def test_models_exports_resolve():
    import doctype.models

    missing = [name for name in doctype.models.__all__ if not hasattr(doctype.models, name)]
    assert not missing
    assert len(set(doctype.models.__all__)) == len(doctype.models.__all__)


class TestHyperparameterKeys:
    @pytest.mark.parametrize(
        "kind, hp",
        [
            ("random-forest", {"ntrees": 3}),
            ("adaboost", {"n_trees": 3}),
            ("decision-tree", {"bootstrap": False}),
            ("knn", {"K": 3}),
            ("gnb", {"k": 1}),
            ("baseline-random", {"seed": 1}),
        ],
    )
    def test_unknown_key_rejected(self, kind, hp):
        (key,) = hp
        with pytest.raises(ValueError, match=f"{kind} has no hyperparameter '{key}'"):
            train(kind, toy_dataset(5, seed=1), hp)


class TestSpecs:
    def test_kinds_keep_their_order(self):
        assert KINDS == tuple(SPECS) == (
            "baseline-random", "baseline-threshold", "gnb", "knn",
            "decision-tree", "random-forest", "adaboost", "linear-svm",
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_spec_is_consistent(self, kind):
        spec = SPECS[kind]
        check_hyperparameters(kind, {key: hp[2] for key, hp in spec.hyperparameters.items()})
        for point in spec.grid:
            check_hyperparameters(kind, point)
        assert spec.size_key is None or spec.size_key in spec.hyperparameters
        assert spec.size_key is not None or not spec.ensemble


#: Small fits of every kind, for tests that fit many folds.
FOLD_HYPERPARAMETERS = {
    "knn": {"k": 3}, "random-forest": {"n_trees": 4}, "adaboost": {"rounds": 6},
    "linear-svm": {"epochs": 30},
}


def fold_rows(k: int, seed: int) -> list[list[LabeledExample]]:
    """``k`` disjoint stratified training sets, with some f1 missing."""
    data = blank_f1(noisy_examples(seed, 12 * k), 0.15, seed)
    return [list(fold) for fold in stratified_split(data, k, 0.0, seed).test_folds]


def per_fold(kind, folds, hp, seeds, transform, features) -> list[str]:
    """One ``train`` call per fold: each model's JSON, up to the first
    error, as its type and message."""
    out = []
    for rows, seed in zip(folds, seeds):
        try:
            out.append(train(kind, rows, hp, seed, transform, features).to_json())
        except (DocTypeError, ValueError) as exc:
            return [*out, f"{type(exc).__name__}: {exc}"]
    return out


def one_call(kind, folds, hp, seeds, transform, features) -> list[str]:
    """``per_fold``'s list from one ``train_folds`` call."""
    out = []
    matrices = [([ex.id for ex in rows], dataset_matrix(rows, features)) for rows in folds]
    try:
        for model in train_folds(kind, matrices, hp, seeds, transform, features):
            out.append(model.to_json())
    except (DocTypeError, ValueError) as exc:
        out.append(f"{type(exc).__name__}: {exc}")
    return out


class TestTrainFolds:
    """One ``train_folds`` call gives, byte for byte, the models of one
    ``train`` call per fold, and raises the first error ``train`` does
    after the models of the folds before it."""

    @pytest.mark.parametrize(
        "k, transform, features",
        [(3, "identity", FEATURE_IDS), (10, "z-score", ("f1", "f3")), (5, "log-scale", ("f2", "f4"))],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_one_train_per_fold(self, kind, k, transform, features):
        folds, hp = fold_rows(k, k), FOLD_HYPERPARAMETERS.get(kind, {})
        seeds = [7 * i + k for i in range(k)]
        expected = per_fold(kind, folds, hp, seeds, transform, features)
        assert one_call(kind, folds, hp, seeds, transform, features) == expected
        if kind != "baseline-threshold" or features == FEATURE_IDS:
            assert len(expected) == k and all(out.startswith("{") for out in expected)

    @pytest.mark.parametrize(
        "kind, folds, transform, features, message",
        [
            *[(kind, [toy_dataset(2, seed=1), [], toy_dataset(2, seed=2)], "identity", FEATURE_IDS,
               "cannot train on an empty dataset") for kind in KINDS],
            *[(kind, [toy_dataset(2, seed=1), toy_dataset(2, seed=2)[:4], toy_dataset(2, seed=3)],
               "identity", FEATURE_IDS, r"needs every class present; missing \['Thesis'\]")
              for kind in KINDS if SPECS[kind].every_class],
            *[(kind, [toy_dataset(2, seed=1),
                      toy_dataset(2, seed=2) + [make_example(DocType.SLIDES, 2, -500, 5, "neg")]],
               "log-scale", FEATURE_IDS,
               "example neg: feature f2 = -500.0 is not finite after the log-scale transform")
              for kind in KINDS],
            ("baseline-threshold", [toy_dataset(2, seed=1)], "identity", ("f2", "f3"),
             "baseline-threshold requires the full feature set"),
            # fold 1's three classes share one row, so no split separates
            # them, before fold 2, which lacks Thesis
            ("adaboost",
             [toy_dataset(2, seed=1), [make_example(t, doc_id=f"same{t}") for t in DocType],
              toy_dataset(2, seed=2)[:4]],
             "identity", FEATURE_IDS, "boosting found no weak learner better than random"),
        ],
    )
    def test_first_error_matches(self, kind, folds, transform, features, message):
        seeds = list(range(3, 3 + len(folds)))
        hp = FOLD_HYPERPARAMETERS.get(kind, {})
        expected = per_fold(kind, folds, hp, seeds, transform, features)
        assert expected[-1].startswith("TrainingError: ") and re.search(message, expected[-1])
        assert one_call(kind, folds, hp, seeds, transform, features) == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_partly_consumed_iterator_keeps_the_callers_error_state(self, kind):
        folds = [([ex.id for ex in rows], dataset_matrix(rows)) for rows in fold_rows(3, 4)]
        with np.errstate(over="raise", invalid="warn", divide="print", under="ignore"):
            caller = np.geterr()
            models = train_folds(kind, folds, FOLD_HYPERPARAMETERS.get(kind), [1, 2, 3])
            next(models)
            assert np.geterr() == caller
            next(models)
            assert np.geterr() == caller


class TestLinearSvm:
    def test_separable_problem(self):
        data = toy_dataset(40, seed=11)
        model = train("linear-svm", data, {"epochs": 200, "step": 1e-2}, seed=0, transform="z-score")
        correct = sum(1 for ex in data if predict(model, ex.features)[0] is ex.label)
        assert correct / len(data) > 0.9

    def test_requires_all_classes(self):
        data = [make_example(DocType.SLIDES, doc_id=f"s{i}") for i in range(4)]
        data += [make_example(DocType.THESIS, doc_id=f"t{i}") for i in range(4)]
        with pytest.raises(TrainingError):
            train("linear-svm", data)

    def test_single_example_rejected(self):
        with pytest.raises(TrainingError):
            train("linear-svm", [make_example(DocType.RESEARCH, doc_id="x")])

    def test_deterministic(self):
        data = toy_dataset(20, seed=12)
        a = train("linear-svm", data, {"epochs": 50}, seed=4)
        b = train("linear-svm", data, {"epochs": 50}, seed=4)
        assert a.to_json() == b.to_json()

    @settings(max_examples=300, deadline=None)
    @given(
        problem=st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.lists(
                    st.tuples(
                        st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0, 3.0, 1e-3, 7e5]),
                                 min_size=d, max_size=d),
                        st.integers(0, 2),
                    ),
                    min_size=1, max_size=25,
                ),
                st.sets(st.integers(0, d - 1)),
            )
        ),
        epochs=st.integers(0, 60),
        step=st.sampled_from([1e-3, 1e-2, 0.3, 10.0, 1e300]),
        reg=st.sampled_from([0.0, 1e-4, 0.5, 1e300]),
    )
    # no row violates after the first epoch: a step of 10 puts every margin at 10
    @example(problem=([([1.0], 0), ([-1.0], 1)], set()), epochs=5, step=10.0, reg=0.0)
    # the weights overflow to inf and then to nan
    @example(problem=([([7e5, 3.0], 0), ([-1.0, 0.5], 2)], set()), epochs=9, step=1e300, reg=1e300)
    def test_descent_matches_reference(self, problem, epochs, step, reg):
        # every row violates in epoch 1 (w and b start at 0); zeroed columns carry signed zeros
        rows, zeroed = problem
        X = np.array([x for x, _ in rows])
        X[:, sorted(zeroed)] *= 0.0
        y = np.array([label for _, label in rows])
        hp = {"epochs": epochs, "step": step, "reg": reg}
        with np.errstate(all="ignore"):
            fitted = fit_linear_svm(X, y, 0, hp)
            expected = reference_fit_linear_svm(X, y, 0, hp)
        hexed = lambda p: ([[v.hex() for v in w] for w in p["weights"]], [v.hex() for v in p["biases"]])
        assert hexed(fitted) == hexed(expected)


class TestMissingF1:
    def data(self):
        rows = toy_dataset(6, seed=3)
        rows[4] = LabeledExample(FeatureVector(None, 1000, 10, 100.0), rows[4].label, "gap")
        return rows

    def test_dataset_matrix_marks_missing_f1_nan(self):
        X, y = dataset_matrix(self.data())
        assert X.shape == (18, 4) and y.shape == (18,)
        assert np.isnan(X[4, 0]) and np.isnan(X).sum() == 1
        assert dataset_matrix([])[0].shape == (0, 4)

    @pytest.mark.parametrize("kind", KINDS)
    def test_train_fills_the_missing_f1(self, kind):
        rows = self.data()
        X, _ = dataset_matrix(rows)
        imputer = Imputer.fit(X)
        gap = rows[4]
        fill = imputer.apply(X)[4, 0]
        rows_filled = [*rows[:4], replace(gap, features=replace(gap.features, f1_authors=fill))]
        model = train(kind, rows)
        assert model.imputer == imputer
        filled = train(kind, rows_filled + rows[5:])
        assert json.dumps(model.parameters) == json.dumps(filled.parameters)

    def test_train_without_f1_ignores_it(self):
        model = train("gnb", self.data(), features=("f2", "f3"))
        assert model.features == ("f2", "f3")

    @pytest.mark.parametrize(
        "features", [c for r in range(1, 5) for c in combinations(("f1", "f2", "f3", "f4"), r)]
    )
    def test_dataset_matrix_matches_per_row_values(self, features):
        rows = self.data()
        X, y = dataset_matrix(rows, features)
        expected = np.array([ex.features.values(features) for ex in rows], dtype=float)
        assert (X.dtype, X.shape, X.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())
        assert y.dtype == np.array([0]).dtype and y.tolist() == [int(ex.label) for ex in rows]
        X, y = dataset_matrix([], features)
        assert (X.dtype, X.shape) == (np.float64, (0, len(features)))
        assert (y.dtype, y.shape) == (np.array([0]).dtype, (0,))

    def test_knn_stores_rows_bit_for_bit(self):
        # train_x is base64 of the filled, transformed rows the fit saw
        rows = self.data()
        model = train("knn", rows, {"k": 3}, transform="z-score")
        fitted = model.transform.apply(model.imputer.apply(dataset_matrix(rows)[0]))
        assert base64.b64decode(model.parameters["train_x"], validate=True) == fitted.tobytes()
        assert {type(v) for v in model.parameters["train_y"]} == {int}
        # signed zeros, subnormals and the ends of the float range survive a file
        X = np.array([[-0.0, 5e-324, 1.7e308], [0.0, -5e-324, -1.7e308], [1.5, -0.0, 2.0**-1074]])
        parameters = fit_knn(X, np.array([2, 0, 1]), 0, {"k": 2})
        assert base64.b64decode(parameters["train_x"], validate=True) == X.astype("<f8").tobytes()
        assert parameters["train_y"] == [2, 0, 1]
        model = ModelArtifact("knn", TransformSpec("identity"), parameters, 0, ("f2", "f3", "f4"))
        loaded = load_model(io.StringIO(model.to_json()))
        assert loaded.parameters == parameters
        assert KnnPredictor(loaded.parameters, 3).columns.T.tobytes() == X.tobytes()

    @pytest.mark.parametrize("kind", ["adaboost", "linear-svm"])
    def test_missing_classes_named_before_any_fill(self, kind):
        # no row has an f1 to fit the imputer on, but the class check comes first
        data = [make_example(DocType.SLIDES, f1=None, doc_id=f"s{i}") for i in range(3)]
        with pytest.raises(TrainingError, match=rf"^{kind} needs every class present; "
                                                r"missing \['Research', 'Thesis'\]$"):
            train(kind, data)


class TestFeatureList:
    @pytest.mark.parametrize("features", [("f2", "f1", "f3", "f4"), ("f9",), (), ("f2", "f2")])
    def test_train_rejects_bad_feature_list(self, features):
        with pytest.raises(ValueError, match=r"^invalid feature list: "):
            train("baseline-threshold", toy_dataset(20, seed=1), features=features)

    @pytest.mark.parametrize("features", [["f2", "f2"], ["f3", "f2"]])
    def test_model_file_with_bad_feature_list_rejected(self, features):
        payload = json.loads(train("gnb", toy_dataset(10, seed=2), features=("f2", "f3")).to_json())
        payload["features"] = features
        with pytest.raises(ModelFormatError, match=r"^invalid feature list: "):
            load_model(io.StringIO(json.dumps(payload)))


class TestPredictContract:
    def test_scores_normalized_for_probabilistic_kinds(self):
        data = toy_dataset(30, seed=13)
        for kind, hp, transform in [
            ("gnb", {}, "identity"),
            ("knn", {"k": 3}, "identity"),
            ("decision-tree", {"max_depth": 3}, "identity"),
            ("random-forest", {"n_trees": 5, "max_depth": 3}, "identity"),
            ("adaboost", {"rounds": 5, "max_depth": 2}, "identity"),
            ("linear-svm", {"epochs": 50}, "z-score"),
        ]:
            model = train(kind, data, hp, seed=1, transform=transform)
            for fv in random_vectors(20, seed=14):
                label, scores = predict(model, fv)
                assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6), kind
                assert all(v >= 0 for v in scores.values()), kind
                top = max(scores.values())
                assert scores[label] == top
                # ties must resolve to the lowest class in the total order
                for t in DocType:
                    if scores[t] == top:
                        assert label <= t
                        break

    def test_missing_feature_rejected(self):
        # only f1 is filled; any other missing feature is refused
        model = train("gnb", toy_dataset(10, seed=15))
        with pytest.raises(ValueError, match="^row 0: feature f2 = nan is not finite$"):
            predict(model, FeatureVector(3, None, 2, 5.0))

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(feature_rows, min_size=1, max_size=12))
    def test_batch_matches_single(self, rows):
        matrix = np.array(rows, dtype=float)
        for kind, model in every_kind_models().items():
            labels, scores = predict_batch(model, matrix)
            for i, row in enumerate(rows):
                label, row_scores = predict(model, FeatureVector(*row))
                assert label is DocType(int(labels[i])), kind
                assert [row_scores[t] for t in DocType] == scores[i].tolist(), kind

    def test_non_finite_feature_rejected(self):
        models = every_kind_models()
        for kind, model in models.items():
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="row 0: feature f2 .* not finite"):
                    predict(model, FeatureVector(3, value, 10, 50.0))
            matrix = np.array([[3, 5000, 10, 500.0], [3, 5000, math.nan, 500.0]])
            with pytest.raises(ValueError, match="row 1: feature f3 = nan is not finite$"):
                predict_batch(model, matrix)

    def test_negative_value_under_log_scale_rejected(self):
        model = every_kind_models()["gnb"]
        assert model.transform.kind == "log-scale"
        with pytest.raises(ValueError, match="feature f2 = -5.0 is not finite after the log-scale"):
            predict(model, FeatureVector(3, -5, 10, 50.0))
        with pytest.raises(ValueError, match="row 0: feature f2 = -5.0"):
            predict_batch(model, np.array([[3, -5, 10, 50.0]]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            train("gnb", [])

    def test_missing_training_feature_rejected(self):
        data = [make_example(DocType.RESEARCH, f1=None, doc_id="bad")]
        with pytest.raises(ImputationError, match="^no observed f1 values"):
            train("gnb", data)

    @pytest.mark.parametrize("kind", ["linear-svm", "gnb", "knn"])
    def test_constant_column_with_inexact_mean(self, kind):
        # f4 = 5400/14 on all 300 rows: z-score shifts the column to 0, not
        # dividing it by a rounding-level std, so an f4 of 386.0 moves no label
        data = [replace(ex, features=replace(ex.features, f4_words_per_page=5400 / 14))
                for ex in toy_dataset(100, seed=0)]
        model = train(kind, data, transform="z-score")
        assert (model.transform.mean[3], model.transform.scale[3]) == (5400 / 14, 1.0)
        X = dataset_matrix(data)[0]
        labels = predict_batch(model, X)[0]
        X[:, 3] = 386.0
        assert predict_batch(model, X)[0].tolist() == labels.tolist()

    @pytest.mark.parametrize("value", [5400 / 14, 386.0])
    @pytest.mark.parametrize("kind", ["linear-svm", "gnb", "knn"])
    def test_constant_column_maps_to_zero(self, kind, value):
        # a constant f4 adds nothing under z-score: the model labels its
        # training rows as the one fitted without f4 does
        data = [replace(ex, features=replace(ex.features, f4_words_per_page=value))
                for ex in toy_dataset(100, seed=0)]
        model = train(kind, data, transform="z-score")
        without = train(kind, data, transform="z-score", features=("f1", "f2", "f3"))
        X = dataset_matrix(data)[0]
        assert (model.transform.apply(X)[:, 3] == 0.0).all()
        assert predict_batch(model, X)[0].tolist() == predict_batch(without, X[:, :3])[0].tolist()


class TestScoringOracles:
    """predict_batch against loop references, bit for bit."""

    def queries(self, model, n=400, seed=40):
        raw = np.array([fv.values() for fv in random_vectors(n, seed)], dtype=float)
        return raw, model.transform.apply(raw)

    def test_tree_kinds_match_dict_walk(self):
        data = toy_dataset(60, seed=41)
        for kind, hp, transform in [
            ("decision-tree", {"max_depth": 4}, "identity"),
            ("decision-tree", {}, "log-scale"),
            ("random-forest", DEPLOYED_FOREST_PROFILE, "identity"),
            ("random-forest", {"n_trees": 25}, "z-score"),
            (
                "random-forest",
                {"n_trees": 9, "max_depth": 5, "class_weight": "balanced"},
                "z-score",
            ),
            ("adaboost", {"rounds": 25, "max_depth": 2}, "identity"),
            ("adaboost", {"rounds": 40, "max_depth": 3}, "log-scale"),
        ]:
            model = train(kind, data, hp, seed=5, transform=transform)
            trees = tree_nodes(model.parameters)
            raw, rows = self.queries(model)
            _, scores = predict_batch(model, raw)
            for row, got in zip(rows, scores.tolist()):
                if kind == "decision-tree":
                    expected = walk_tree(trees[0], row)
                elif kind == "random-forest":
                    expected = forest_oracle(trees, row)
                else:
                    expected = adaboost_oracle(trees, model.parameters["alphas"], row)
                assert got == expected, (kind, hp, transform)

    def test_threshold_matrix_matches_rule(self):
        trained = train("baseline-threshold", toy_dataset(40, seed=42))
        model = load_model(io.StringIO(trained.to_json()))
        table = threshold_table(model)
        raw, _ = self.queries(model, n=300, seed=43)
        # rows on every bound of every class, where <= must be inclusive
        edges = [
            [cell(table, t, fid)[side] for fid in ("f1", "f2", "f3", "f4")]
            for t in THRESHOLD_TEST_ORDER
            for side in (0, 1)
        ]
        raw = np.vstack([raw, edges])
        labels, scores = predict_batch(model, raw)
        for row, label, row_scores in zip(raw, labels, scores):
            expected = reference_threshold_predict(table, FeatureVector(*row.tolist()))
            assert label == expected
            assert row_scores.tolist() == [float(t == expected) for t in DocType]
        assert set(labels.tolist()) == {0, 1, 2}


LEAF = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "dist": [1.0, 0.0, 0.0]}


def split(feature: int, left: int, right: int) -> dict:
    return {**LEAF, "feature": feature, "threshold": 2.0, "left": left, "right": right}


class TestSerialization:
    def test_round_trip_prediction_equivalence(self):
        data = toy_dataset(30, seed=18)
        queries = random_vectors(1000, seed=19)
        for kind, hp in [
            ("baseline-random", {}),
            ("baseline-threshold", {}),
            ("gnb", {}),
            ("knn", {"k": 3}),
            ("decision-tree", {"max_depth": 3}),
            ("random-forest", {"n_trees": 5, "max_depth": 3}),
            ("adaboost", {"rounds": 5, "max_depth": 2}),
            ("linear-svm", {"epochs": 50}),
        ]:
            model = train(kind, data, hp, seed=6, transform="z-score")
            sink = io.StringIO()
            save_model(model, sink)
            loaded = load_model(io.StringIO(sink.getvalue()))
            for fv in queries:
                assert predict(model, fv) == predict(loaded, fv), kind

    def test_model_that_cannot_load_leaves_no_file(self, tmp_path):
        # baseline-random draws from its seed when its predictor is built
        with pytest.raises(TrainingError, match="baseline-random fit gave unusable parameters"):
            train("baseline-random", toy_dataset(10, seed=20), seed=-1)
        model = replace(train("baseline-random", toy_dataset(10, seed=20)), seed=-1)
        with pytest.raises(ModelFormatError, match="malformed baseline-random parameters"):
            save_model(model, tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []

    def test_byte_exact_round_trip(self, tmp_path):
        model = train("random-forest", toy_dataset(20, seed=20), {"n_trees": 3}, seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.to_json() == path.read_text()
        # every kind under every transform, one line each
        queries = np.array([fv.values() for fv in random_vectors(50, seed=20)], dtype=float)
        for kind, hp, _ in EVERY_KIND:
            for transform in TRANSFORM_KINDS:
                model = train(kind, toy_dataset(20, seed=20), hp, seed=1, transform=transform)
                save_model(model, path)
                text = path.read_text()
                loaded = load_model(path)
                assert loaded.to_json() == text and text.count("\n") == 1, (kind, transform)
                for got, want in zip(predict_batch(loaded, queries), predict_batch(model, queries)):
                    assert got.tobytes() == want.tobytes(), (kind, transform)

    def test_future_version_rejected(self):
        model = train("gnb", toy_dataset(10, seed=21))
        payload = json.loads(model.to_json())
        payload["format_version"] = MODEL_FORMAT_VERSION + 1
        payload = json.dumps(payload)
        with pytest.raises(UnsupportedVersionError):
            load_model(io.StringIO(payload))

    def test_truncated_file_is_parse_error(self):
        model = train("gnb", toy_dataset(10, seed=22))
        text = model.to_json()
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(text[: len(text) // 2]))

    def test_corrupted_parameters_rejected(self):
        model = train("decision-tree", toy_dataset(10, seed=23), {"max_depth": 2})
        payload = json.loads(model.to_json())
        assert payload["parameters"]["trees"]["feature"][0] >= 0
        payload["parameters"]["trees"]["feature"][0] = 99
        with pytest.raises(ModelFormatError, match="^split references feature 99$"):
            load_model(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([split(0, 1, 2), split(1, 1, 3), LEAF, LEAF], "node 1 is its own child"),
            ([split(0, 1, 2), split(1, 0, 3), LEAF, LEAF], "node 0 has more than one parent"),
            ([split(0, 1, 2), split(1, 2, 3), LEAF, LEAF], "node 2 has more than one parent"),
            ([split(0, 1, 1), LEAF], "node 1 has more than one parent"),
            ([split(0, 1, 2), LEAF, LEAF, LEAF], "node 3 is unreachable"),
            ([split(0, 1, 2), LEAF, {**LEAF, "dist": [0.5, 0.5, 0.5]}], "not 3 probabilities"),
        ],
    )
    def test_malformed_tree_shape_rejected(self, nodes, message):
        model = train("decision-tree", toy_dataset(10, seed=24), {"max_depth": 2})
        payload = json.loads(model.to_json())
        payload["parameters"] = stored_trees([nodes])
        with pytest.raises(ModelFormatError, match=message):
            load_model(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize("k", [0, -1, 2.5, True, None])
    def test_knn_k_below_one_rejected(self, k):
        payload = json.loads(train("knn", toy_dataset(5, seed=26), {"k": 3}).to_json())
        payload["parameters"]["k"] = k
        with pytest.raises(ModelFormatError, match="knn k must be an integer >= 1"):
            load_model(io.StringIO(json.dumps(payload)))

    def test_many_round_adaboost_loads_in_linear_time(self):
        # 50,000 one-leaf rounds: the running weight sums take one pass over
        # the rounds, not one sum of the rounds so far per round
        rounds = 50_000
        payload = json.loads(train("adaboost", toy_dataset(10, seed=21), {"rounds": 1}).to_json())
        alphas = [0.5 + (i % 7) / 8 for i in range(rounds)]
        payload["parameters"] = {**stored_trees([[LEAF]] * rounds), "alphas": alphas}
        text = json.dumps(payload)
        start = time.perf_counter()
        model = load_model(io.StringIO(text))
        assert time.perf_counter() - start < 5.0
        label, scores = predict(model, FeatureVector(5, 5.0, 9, 1.0))
        assert label is DocType.RESEARCH and scores[DocType.RESEARCH] == 1.0

    def test_forest_depth_is_deepest_tree(self):
        model = train("random-forest", toy_dataset(10, seed=25), {"n_trees": 2, "max_depth": 1})
        payload = json.loads(model.to_json())
        thesis = {**LEAF, "dist": [0.0, 0.0, 1.0]}
        payload["parameters"] = stored_trees([
            [thesis],
            [split(0, 1, 2), LEAF, split(1, 3, 4), LEAF, thesis],
        ])
        loaded = load_model(io.StringIO(json.dumps(payload)))
        label, scores = predict(loaded, FeatureVector(5, 5.0, 9, 1.0))
        assert label is DocType.THESIS
        assert scores == {DocType.RESEARCH: 0.0, DocType.SLIDES: 0.0, DocType.THESIS: 1.0}


@st.composite
def valid_trees(draw) -> list[dict]:
    """A tree of 1-15 dict nodes over 4 features: splits until none is
    left to split, numbered from the root by a drawn order."""
    nodes, waiting = [dict(LEAF)], [0]
    while waiting and len(nodes) < 15:
        parent = waiting.pop(draw(st.integers(0, len(waiting) - 1)))
        if not draw(st.booleans()):
            continue
        left, right = len(nodes), len(nodes) + 1
        nodes[parent] = {
            **split(draw(st.integers(0, 3)), left, right),
            "threshold": draw(st.floats(-1e6, 1e6)),
        }
        nodes += [{**LEAF, "dist": draw(st.sampled_from(DISTS))} for _ in range(2)]
        waiting += [left, right]
    return nodes


#: Class probabilities a node may hold: rows whose sum is 1 within 1e-9.
DISTS = [[1.0, 0.0, 0.0], [0.25, 0.25, 0.5], [0.1, 0.2, 0.7], [0, 1, 0], [1 / 3] * 3]

#: Values a corruption may write in a node's field. ``Tree.read`` refuses
#: those of a wrong type or shape (``TestTreeRead``); the array check sees
#: the rest (``TestTreeCheck``).
BAD_IDS = [True, False, 1.0, -1, -2, 4, 2**70, None, "1"]
BAD_THRESHOLDS = [math.nan, math.inf, -math.inf, None, "2", True, 2**1030]
BAD_DISTS = [
    [0.5, 0.5], [0.5, 0.25, 0.25, 0.0], [0.5, 0.5, 0.1], [1.0, -0.0, 0.0], [1.5, -0.5, 0.0],
    [math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0], [True, 0.0, 0.0], [1, 0, 0], [1.0, 0.0, 1e-10],
    [1.0, 0.0, 1e-8], None, 1, "abc", {}, [],
]


def readable(field: str, value) -> bool:
    """Whether a model file may hold ``value`` in a node's ``field`` as far
    as types go: an id is an integer of 64 bits (a boolean is not), a
    threshold a finite number, and a dist 3 finite numbers."""
    if field == "dist":
        return type(value) is list and len(value) == 3 and all(map(finite_number, value))
    if field == "threshold":
        return finite_number(value)
    return type(value) is int and -(2**63) <= value < 2**63


@st.composite
def corrupted_forests(draw) -> list[list]:
    """1-3 valid trees, then 0-4 corruptions: an id or dist set to a bad
    value of the right type, an id to a node of its own tree or of no node
    (the next tree's, once stacked), a node made a split to any two nodes
    (a self loop, a shared child, a cycle), or nodes appended (a lone leaf
    or a two-node cycle no walk from node 0 reaches)."""
    trees = draw(st.lists(valid_trees(), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 4))):
        nodes = draw(st.sampled_from(trees))
        if draw(st.integers(0, 5)) == 0:
            n = len(nodes)
            nodes += draw(st.sampled_from([[dict(LEAF)], [split(0, n + 1, n + 1), split(1, n, n)]]))
            continue
        node = draw(st.sampled_from(nodes))
        field = draw(st.sampled_from(["feature", "left", "right", "dist", "split"]))
        if field == "split":
            # a node, a leaf or not, splits to any two nodes of its tree, one
            # often a child another node has
            taken = [v for other in nodes for v in (other["left"], other["right"])
                     if 0 <= v < len(nodes)]
            children = st.integers(0, len(nodes) - 1) | st.sampled_from(taken or [0])
            left = draw(children)
            node.update(split(0, left, draw(st.just(left) | children)))
        elif field == "dist":
            node[field] = draw(st.sampled_from([v for v in BAD_DISTS if readable(field, v)]))
        else:
            ids = st.integers(-1, len(nodes) - 1) | st.sampled_from(
                [v for v in BAD_IDS if readable(field, v)] + [len(nodes), len(nodes) + 1]
            )
            node[field] = draw(ids)
    return trees


def check_outcome(check, *args) -> str:
    """What a tree check gives: the depth, or the error it raises."""
    try:
        return f"depth {check(*args)}"
    except (ModelFormatError, KeyError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def forest_depth(parameters) -> int:
    return ForestPredictor(*Tree.read(parameters), 4).depth


class TestTreeCheck:
    """``ForestPredictor`` checks stacked trees with array operations; it
    must take and refuse what a walk of each tree's dict nodes does
    (``tests/reference_tree.py``), with the same first error."""

    @settings(max_examples=500, deadline=None)
    @given(trees=corrupted_forests())
    def test_array_check_matches_the_walk(self, trees):
        want = check_outcome(reference_forest_depth, trees, 4)
        assert check_outcome(forest_depth, stored_trees(trees)) == want

    @pytest.mark.parametrize(
        "trees",
        # each forest of a tree that is not a list of nodes, as stored
        # columns: a tree of no nodes, which the walk refuses as well, a
        # null tree, a node that is not a dict, a string, a dict and a number
        [
            ([[]], "ModelFormatError: tree has no nodes"),
            ([[LEAF], []], "ModelFormatError: tree has no nodes"),
            ({**stored_trees([[LEAF]]), "sizes": [1, None]}, "ValueError: sizes must be n integers"),
            (stored_trees([[LEAF, {f: None for f in LEAF}]]), "ValueError: feature must be n integers"),
            ({"trees": "ab", "sizes": [1]}, "ValueError: trees must be an object of columns"),
            ({"trees": {"a": 1}, "sizes": [1]}, "KeyError: 'feature'"),
            ({**stored_trees([[LEAF]]), "sizes": 5}, "ValueError: sizes must be n integers"),
        ],
    )
    def test_tree_that_is_not_a_node_list(self, trees):
        trees, want = trees
        if isinstance(trees, list):
            assert check_outcome(reference_forest_depth, trees, 4) == want
            trees = stored_trees(trees)
        assert check_outcome(forest_depth, trees) == want


def tree_payload() -> dict:
    """A decision-tree model file, parsed, whose node 0 is a split."""
    payload = json.loads(train("decision-tree", toy_dataset(10, seed=24), {"max_depth": 2}).to_json())
    assert payload["parameters"]["trees"]["feature"][0] >= 0
    return payload


def load_payload(payload: dict) -> ModelArtifact:
    return load_model(io.StringIO(json.dumps(payload)))


#: (column, value) for each bad value ``Tree.read`` refuses by its type or
#: shape, at node 0.
WRONG_TYPES = [
    (field, value)
    for field, values in [("feature", BAD_IDS), ("left", BAD_IDS), ("right", BAD_IDS),
                          ("threshold", BAD_THRESHOLDS), ("dist", BAD_DISTS)]
    for value in values
    if not readable(field, value)
]


class TestTreeRead:
    """``Tree.read`` refuses a column or ``sizes`` of a wrong type or shape
    with a message naming it; what it reads, ``_check`` checks."""

    def test_every_type_case_is_a_wrong_type(self):
        # 6 of BAD_IDS in each of 3 id columns, every threshold, 10 dists
        assert len(WRONG_TYPES) == 6 * 3 + 7 + 10

    @pytest.mark.parametrize("field, value", WRONG_TYPES)
    def test_value_of_a_wrong_type_names_its_column(self, field, value):
        payload = tree_payload()
        payload["parameters"]["trees"][field][0] = value
        message = rf"{field} must be (n|\d+)( x 3)? (finite numbers|integers)"
        with pytest.raises(ModelFormatError, match=rf"^malformed decision-tree parameters: {message}$"):
            load_payload(payload)

    @pytest.mark.parametrize(
        "field, message",
        [
            # the feature column sets the node count, which sizes then miss
            ("feature", "sizes must be 1 or more non-negative integers summing to {short}"),
            ("threshold", "threshold must be {n} finite numbers"),
            ("left", "left must be {n} integers"),
            ("right", "right must be {n} integers"),
            ("dist", "dist must be {n} x 3 finite numbers"),
        ],
    )
    def test_column_shorter_than_the_others(self, field, message):
        payload = tree_payload()
        columns = payload["parameters"]["trees"]
        n = len(columns["feature"])
        del columns[field][-1]
        message = re.escape(message.format(n=n, short=n - 1))
        with pytest.raises(ModelFormatError, match=rf"^malformed decision-tree parameters: {message}$"):
            load_payload(payload)

    @pytest.mark.parametrize(
        "resize",
        [
            lambda sizes: [],  # no tree
            lambda sizes: [*sizes[:-1], sizes[-1] - 1],  # one node too few
            lambda sizes: [*sizes[:-1], sizes[-1] + 1],  # one node too many
            lambda sizes: [sizes[0] + 1, -1, *sizes[1:]],  # a negative size, the right sum
            lambda sizes: [True] * len(sizes),
            lambda sizes: [float(size) for size in sizes],
        ],
    )
    def test_sizes_that_do_not_count_the_nodes(self, resize):
        hp = {"rounds": 3, "max_depth": 1}
        payload = json.loads(train("adaboost", toy_dataset(10, seed=24), hp).to_json())
        payload["parameters"]["sizes"] = resize(payload["parameters"]["sizes"])
        with pytest.raises(ModelFormatError, match=r"^malformed adaboost parameters: sizes must be "):
            load_payload(payload)

    @pytest.mark.parametrize("trees", [[], None, "abc", 7, [[LEAF]]])
    def test_trees_that_is_not_an_object(self, trees):
        payload = tree_payload()
        payload["parameters"]["trees"] = trees
        message = "^malformed decision-tree parameters: trees must be an object of columns$"
        with pytest.raises(ModelFormatError, match=message):
            load_payload(payload)

    def test_tree_kinds_store_columns(self):
        models = every_kind_models()
        for kind in ("decision-tree", "random-forest", "adaboost"):
            parameters = models[kind].parameters
            boosted_keys = {"alphas"} if kind == "adaboost" else set()
            assert set(parameters) == {"trees", "sizes"} | boosted_keys
            assert set(parameters["trees"]) == set(FIELDS)
        assert len(models["decision-tree"].parameters["sizes"]) == 1
        assert SPECS["decision-tree"].predictor is SPECS["random-forest"].predictor


@lru_cache(maxsize=1)
def model_payloads() -> list[dict]:
    """One trained model per kind and transform, as parsed JSON."""
    data = toy_dataset(10, seed=27)
    return [
        json.loads(train(kind, data, hp, seed=4, transform=transform).to_json())
        for kind, hp, _ in EVERY_KIND
        for transform in TRANSFORM_KINDS
    ]


def value_sites(node, path=()):
    """The path of every value nested in ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from value_sites(child, path + (key,))


#: The replacement values a corrupted file may hold instead of a stored
#: one; a stored finite number replaced by one of the first five fails to load.
NOT_NUMBERS = [None, True, "x", [], math.nan]
CORRUPT_VALUES = NOT_NUMBERS + [0, -1]


class TestCorruptedModels:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_file_rejected_or_scored(self, data):
        """Deleting one key or replacing one stored value under parameters,
        transform or imputer either fails to load or leaves every score a
        probability, rows with a missing f1 included. A stored finite number
        replaced by something that is not a number always fails to load."""
        payload = json.loads(json.dumps(data.draw(st.sampled_from(model_payloads()))))
        sites = [
            (section,) + path
            for section in ("parameters", "transform", "imputer")
            for path in value_sites(payload[section])
        ]
        *parents, key = data.draw(st.sampled_from(sites))
        container = payload
        for step in parents:
            container = container[step]
        old = container[key]
        options = ["delete"] if isinstance(container, dict) else []
        options += CORRUPT_VALUES + (["short"] if isinstance(old, list) and old else [])
        choice = data.draw(st.sampled_from(options))
        if choice == "delete":
            del container[key]
        else:
            container[key] = old[:-1] if choice == "short" else choice
        try:
            model = load_model(io.StringIO(json.dumps(payload)))
        except ModelFormatError:
            return
        assert not (finite_number(old) and choice in NOT_NUMBERS), (parents, key, choice)
        rows = np.array([fv.values() for fv in random_vectors(20, seed=28)], dtype=float)
        rows[::3, 0] = math.nan
        _, scores = predict_batch(model, rows)
        assert np.isfinite(scores).all()
        assert ((scores >= 0) & (scores <= 1)).all()
        assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-9

    @pytest.mark.parametrize(
        "corrupt", [c for _, c in KNN_TRAIN_X_CORRUPTIONS], ids=[n for n, _ in KNN_TRAIN_X_CORRUPTIONS]
    )
    def test_knn_rows_corruption_rejected(self, corrupt):
        payload = json.loads(train("knn", toy_dataset(10, seed=29), {"k": 3}).to_json())
        payload["parameters"]["train_x"] = corrupt(payload["parameters"]["train_x"])
        with pytest.raises(ModelFormatError, match=r"^malformed knn parameters: train_x "):
            load_model(io.StringIO(json.dumps(payload)))

    def test_knn_needs_a_stored_row(self):
        payload = json.loads(train("knn", toy_dataset(10, seed=29), {"k": 3}).to_json())
        payload["parameters"].update(train_x="", train_y=[])
        with pytest.raises(ModelFormatError, match="train_x must store at least one row"):
            load_model(io.StringIO(json.dumps(payload)))

    def test_unknown_key_rejected(self):
        """A key no reader reads, added to any object under parameters (a
        tree's columns, a threshold table and its bounds included), fails
        to load: saving would write it back unread."""
        for payload in model_payloads():
            for path in [(), *value_sites(payload["parameters"])]:
                corrupted = json.loads(json.dumps(payload))
                container = corrupted["parameters"]
                for step in path:
                    container = container[step]
                if not isinstance(container, dict):
                    continue
                container["junk"] = "y"
                with pytest.raises(ModelFormatError, match="holds unknown key 'junk'"):
                    load_model(io.StringIO(json.dumps(corrupted)))

    @pytest.mark.parametrize("lo, hi", [(5.0, 6.0), (-0.1, 0.5), (0.5, 0.5), (0.9, 0.1), (0.0, 1.5)])
    def test_threshold_quantile_levels_out_of_range_rejected(self, lo, hi):
        payload = json.loads(train("baseline-threshold", toy_dataset(10, seed=29)).to_json())
        payload["parameters"]["table"].update(quantile_lo=lo, quantile_hi=hi)
        message = re.escape(f"quantile levels must satisfy 0 <= lo < hi <= 1, got ({lo}, {hi})")
        with pytest.raises(ModelFormatError, match=message):
            load_model(io.StringIO(json.dumps(payload)))
