"""Baselines, the six classifiers, and the model file format."""

import io
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctype.errors import ModelFormatError, TrainingError, UnsupportedVersionError
from doctype.ingest import DocType, FeatureVector
from doctype.labeling import LabeledExample
from doctype.models import (
    DEPLOYED_FOREST_PROFILE,
    KINDS,
    THRESHOLD_TEST_ORDER,
    ModelArtifact,
    baseline_random_predict,
    baseline_threshold_predict,
    dataset_matrix,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
    truncate,
)
from doctype.models import knn as knn_module
from doctype.models.knn import KnnPredictor
from doctype.stats import TRANSFORM_KINDS, ThresholdTable
from conftest import REFERENCE_CELLS, make_example, toy_dataset


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
    st.integers(1, 20),
    st.floats(0, 3e5),
    st.integers(1, 600),
    st.floats(0, 2e4),
)

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


class TestBaselineRandom:
    def test_degenerate_weights(self):
        data = [make_example(DocType.RESEARCH, doc_id=f"r{i}") for i in range(5)]
        model = train("baseline-random", data)
        draws = baseline_random_predict(model, 50, seed=3)
        assert all(d is DocType.RESEARCH for d in draws)

    def test_law_of_large_numbers(self):
        data = (
            [make_example(DocType.RESEARCH, doc_id=f"r{i}") for i in range(55)]
            + [make_example(DocType.SLIDES, doc_id=f"s{i}") for i in range(10)]
            + [make_example(DocType.THESIS, doc_id=f"t{i}") for i in range(35)]
        )
        model = train("baseline-random", data)
        draws = baseline_random_predict(model, 100_000, seed=11)
        freq = {t: sum(1 for d in draws if d is t) / len(draws) for t in DocType}
        assert abs(freq[DocType.RESEARCH] - 0.55) < 0.01
        assert abs(freq[DocType.SLIDES] - 0.10) < 0.01
        assert abs(freq[DocType.THESIS] - 0.35) < 0.01

    def test_same_seed_same_sequence(self):
        model = train("baseline-random", toy_dataset())
        assert baseline_random_predict(model, 100, 5) == baseline_random_predict(model, 100, 5)


class TestBaselineThreshold:
    def test_thesis_vector(self, reference_table):
        fv = FeatureVector(1, 50000, 200, 250.0)
        assert baseline_threshold_predict(reference_table, fv) is DocType.THESIS

    def test_fallback_research(self, reference_table):
        fv = FeatureVector(20, 5000, 10, 500.0)
        assert baseline_threshold_predict(reference_table, fv) is DocType.RESEARCH

    def test_slides_vector(self, reference_table):
        fv = FeatureVector(6, 500, 60, 8.3)
        assert baseline_threshold_predict(reference_table, fv) is DocType.SLIDES

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
            assert baseline_threshold_predict(reference_table, fv) is DocType.RESEARCH

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
        chunk=st.integers(1, 4),
    )
    def test_partition_matches_argsort_oracle(self, train_rows, labels, queries, k_extra, chunk):
        train_x, X = np.array(train_rows), np.array(queries)
        train_y = np.array(labels[: len(train_rows)])
        k = 1 + k_extra  # reaches past the training size
        predictor = KnnPredictor({"k": k, "train_x": train_rows, "train_y": train_y.tolist()}, 3)
        original = knn_module._CHUNK_ROWS
        knn_module._CHUNK_ROWS = chunk
        try:
            got = predictor.scores_matrix(X)
        finally:
            knn_module._CHUNK_ROWS = original
        assert np.array_equal(got, knn_argsort_scores(train_x, train_y, k, X))


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
        assert len(model.parameters["trees"]) <= 10
        for nodes in model.parameters["trees"]:
            leaves = sum(1 for node in nodes if node["feature"] < 0)
            assert leaves <= 5

    def test_deterministic_serialization(self):
        data = toy_dataset(30, seed=7)
        a = train("random-forest", data, {"n_trees": 4, "max_depth": 3}, seed=12)
        b = train("random-forest", data, {"n_trees": 4, "max_depth": 3}, seed=12)
        assert a.to_json() == b.to_json()


class TestAdaboost:
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


class TestTruncate:
    """``truncate(train(kind, S), s)`` is ``train(kind, s)`` byte for byte."""

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
        assert truncate(full, small).to_json() == direct.to_json()

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
            full = truncate(ModelArtifact.from_json(full), small).to_json()
        assert full == direct

    @pytest.mark.parametrize(
        "data, max_depth",
        [
            (toy_dataset(10, seed=1), 2),  # separable: round 1 hits the error floor
            (noisy_examples(0), 0),  # round 2 is no better than random guessing
        ],
    )
    def test_adaboost_prefix_through_early_stop(self, data, max_depth):
        full = train("adaboost", data, {"rounds": 6, "max_depth": max_depth})
        assert len(full.parameters["trees"]) == 1
        for rounds in range(1, 7):
            direct = train("adaboost", data, {"rounds": rounds, "max_depth": max_depth})
            assert truncate(full, rounds).to_json() == direct.to_json()

    def test_other_kinds_rejected(self):
        model = train("decision-tree", toy_dataset(5, seed=1), {"max_depth": 1})
        with pytest.raises(ValueError, match="not an ensemble"):
            truncate(model, 1)


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
    def test_train_names_the_row_to_impute(self, kind):
        with pytest.raises(TrainingError, match="^example gap has missing f1; impute first$"):
            train(kind, self.data())

    def test_train_without_f1_ignores_it(self):
        model = train("gnb", self.data(), features=("f2", "f3"))
        assert model.features == ("f2", "f3")


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
        model = train("gnb", toy_dataset(10, seed=15))
        with pytest.raises(ValueError):
            predict(model, FeatureVector(None, 10.0, 2, 5.0))

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
        with pytest.raises(TrainingError):
            train("gnb", data)


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
            params = model.parameters
            raw, rows = self.queries(model)
            _, scores = predict_batch(model, raw)
            for row, got in zip(rows, scores.tolist()):
                if kind == "decision-tree":
                    expected = walk_tree(params["nodes"], row)
                elif kind == "random-forest":
                    expected = forest_oracle(params["trees"], row)
                else:
                    expected = adaboost_oracle(params["trees"], params["alphas"], row)
                assert got == expected, (kind, hp, transform)

    def test_threshold_matrix_matches_rule(self):
        model = train("baseline-threshold", toy_dataset(40, seed=42))
        table = ThresholdTable.from_dict(model.parameters["table"])
        raw, _ = self.queries(model, n=300, seed=43)
        # rows on every bound of every class, where <= must be inclusive
        edges = [
            [table.bounds[(t, fid)][side] for fid in ("f1", "f2", "f3", "f4")]
            for t in THRESHOLD_TEST_ORDER
            for side in (0, 1)
        ]
        raw = np.vstack([raw, edges])
        labels, scores = predict_batch(model, raw)
        for row, label, row_scores in zip(raw, labels, scores):
            expected = baseline_threshold_predict(table, FeatureVector(*row.tolist()))
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

    def test_byte_exact_round_trip(self, tmp_path):
        model = train("random-forest", toy_dataset(20, seed=20), {"n_trees": 3}, seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.to_json() == path.read_text()

    def test_future_version_rejected(self):
        model = train("gnb", toy_dataset(10, seed=21))
        payload = model.to_json().replace('"format_version": 1', '"format_version": 2')
        with pytest.raises(UnsupportedVersionError):
            load_model(io.StringIO(payload))

    def test_truncated_file_is_parse_error(self):
        model = train("gnb", toy_dataset(10, seed=22))
        text = model.to_json()
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(text[: len(text) // 2]))

    def test_corrupted_parameters_rejected(self):
        model = train("decision-tree", toy_dataset(10, seed=23), {"max_depth": 2})
        bad = model.to_json().replace('"feature": 0', '"feature": 99')
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(bad))

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([split(0, 1, 2), split(1, 1, 3), LEAF, LEAF], "node 1 is its own child"),
            ([split(0, 1, 2), split(1, 0, 3), LEAF, LEAF], "node 0 has more than one parent"),
            ([split(0, 1, 2), split(1, 2, 3), LEAF, LEAF], "node 2 has more than one parent"),
            ([split(0, 1, 1), LEAF], "node 1 has more than one parent"),
            ([split(0, 1, 2), LEAF, LEAF, LEAF], "node 3 is unreachable"),
            ([split(0, 1, 2), LEAF, {**LEAF, "dist": [0.5, 0.5]}], "not 3 probabilities"),
        ],
    )
    def test_malformed_tree_shape_rejected(self, nodes, message):
        model = train("decision-tree", toy_dataset(10, seed=24), {"max_depth": 2})
        payload = json.loads(model.to_json())
        payload["parameters"]["nodes"] = nodes
        with pytest.raises(ModelFormatError, match=message):
            load_model(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize("k", [0, -1, 2.5, True, None])
    def test_knn_k_below_one_rejected(self, k):
        payload = json.loads(train("knn", toy_dataset(5, seed=26), {"k": 3}).to_json())
        payload["parameters"]["k"] = k
        with pytest.raises(ModelFormatError, match="knn k must be an integer >= 1"):
            load_model(io.StringIO(json.dumps(payload)))

    def test_forest_depth_is_deepest_tree(self):
        model = train("random-forest", toy_dataset(10, seed=25), {"n_trees": 2, "max_depth": 1})
        payload = json.loads(model.to_json())
        thesis = {**LEAF, "dist": [0.0, 0.0, 1.0]}
        payload["parameters"]["trees"] = [
            [thesis],
            [split(0, 1, 2), LEAF, split(1, 3, 4), LEAF, thesis],
        ]
        loaded = load_model(io.StringIO(json.dumps(payload)))
        label, scores = predict(loaded, FeatureVector(5, 5.0, 9, 1.0))
        assert label is DocType.THESIS
        assert scores == {DocType.RESEARCH: 0.0, DocType.SLIDES: 0.0, DocType.THESIS: 1.0}


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


#: The replacement values a corrupted file may hold instead of a stored one.
CORRUPT_VALUES = [None, True, "x", [], math.nan, 0, -1]


class TestCorruptedModels:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_file_rejected_or_scored(self, data):
        """Deleting one key or replacing one stored value under parameters or
        transform either fails to load or leaves every score a probability."""
        payload = json.loads(json.dumps(data.draw(st.sampled_from(model_payloads()))))
        sites = [
            (section,) + path
            for section in ("parameters", "transform")
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
        rows = np.array([fv.values() for fv in random_vectors(20, seed=28)], dtype=float)
        _, scores = predict_batch(model, rows)
        assert np.isfinite(scores).all()
        assert ((scores >= 0) & (scores <= 1)).all()
        assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-9
