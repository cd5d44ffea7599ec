"""Metrics, cross-validation, sweeps, ablation, and the synthetic generator."""

import collections
import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctype import evaluation
from doctype.evaluation import (
    FEATURE_SUBSETS,
    ablation,
    cross_validate,
    cross_validate_sizes,
    default_grid,
    evaluate,
    prepare_folds,
    report_from_confusion,
    sweep,
)
from doctype.errors import TrainingError
from doctype.ingest import FEATURE_IDS, DocType, FeatureVector
from doctype.labeling import LabeledExample, stratified_split
from doctype.models import KINDS, SPECS, dataset_matrix, predict_batch, prefix_labels, train
from doctype.models import adaboost as adaboost_module
from doctype.models.tree import ForestPredictor
from doctype.seeding import derive_seed
from doctype.stats import TRANSFORM_KINDS, apply_imputer, apply_transform, derive_thresholds, fit_transform
from doctype.synthetic import (
    PARAMETERIZED_FEATURES,
    REFERENCE_BOUNDS,
    generate_synthetic,
)

from conftest import blank_f1, cell, make_example, toy_dataset

PROPS = {DocType.RESEARCH: 0.55, DocType.SLIDES: 0.10, DocType.THESIS: 0.35}
R, S, T = DocType.RESEARCH, DocType.SLIDES, DocType.THESIS


class TestEvaluate:
    def test_perfect_predictions(self):
        truths = [R] * 5 + [S] * 3 + [T] * 4
        report = evaluate(truths, truths)
        assert report["weighted_f1"] == 1.0
        assert report["weighted_precision"] == 1.0
        assert report["weighted_recall"] == 1.0
        for t in DocType:
            assert report["per_class"][t.label]["f1"] == 1.0

    def test_all_research_frozen_values(self):
        truths = [R] * 55 + [S] * 10 + [T] * 35
        preds = [R] * 100
        report = evaluate(preds, truths)
        assert report["confusion"] == [[55, 0, 0], [10, 0, 0], [35, 0, 0]]
        assert report["per_class"]["Research"]["precision"] == pytest.approx(0.55)
        assert report["per_class"]["Slides"]["precision"] == 0.0
        assert report["weighted_precision"] == pytest.approx(0.30250000000000005)
        assert report["weighted_recall"] == pytest.approx(0.55)
        assert report["weighted_f1"] == pytest.approx(0.39032258064516134)

    def test_symmetric_matrix(self):
        report = report_from_confusion([[8, 1, 1], [1, 8, 1], [1, 1, 8]])
        for t in DocType:
            assert report["per_class"][t.label] == pytest.approx(
                {"precision": 0.8, "recall": 0.8, "f1": 0.8}
            )
        assert report["weighted_f1"] == pytest.approx(0.8)

    def test_weighted_identity_from_confusion(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            preds = [DocType(int(v)) for v in rng.integers(0, 3, 60)]
            truths = [DocType(int(v)) for v in rng.integers(0, 3, 60)]
            report = evaluate(preds, truths)
            # independent recomputation from the matrix alone
            conf = np.array(report["confusion"], dtype=float)
            n = conf.sum()
            weighted_f1 = 0.0
            for c in range(3):
                tp = conf[c][c]
                col = conf[:, c].sum()
                row = conf[c].sum()
                p = tp / col if col else 0.0
                r = tp / row if row else 0.0
                f1 = 2 * p * r / (p + r) if p + r else 0.0
                weighted_f1 += (row / n) * f1
            assert report["weighted_f1"] == pytest.approx(weighted_f1, abs=1e-9)
            assert [int(v) for v in conf.sum(axis=1)] == [
                sum(1 for t in truths if t is DocType(c)) for c in range(3)
            ]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        preds = [DocType(int(v)) for v in rng.integers(0, 3, 40)]
        truths = [DocType(int(v)) for v in rng.integers(0, 3, 40)]
        base = evaluate(preds, truths)
        order = rng.permutation(40)
        shuffled = evaluate([preds[i] for i in order], [truths[i] for i in order])
        assert shuffled == base

    def test_class_code_arrays_match_a_counting_loop(self):
        rng = np.random.default_rng(4)
        preds, truths = rng.integers(0, 3, 50), rng.integers(0, 3, 50)
        confusion = [[0] * 3 for _ in range(3)]
        for pred, truth in zip(preds, truths):
            confusion[truth][pred] += 1
        report = evaluate(preds, truths)
        assert report["confusion"] == confusion
        assert evaluate([DocType(int(v)) for v in preds], [DocType(int(v)) for v in truths]) == report

    def test_errors(self):
        with pytest.raises(ValueError):
            evaluate([R], [R, S])
        with pytest.raises(ValueError):
            evaluate([], [])

    @pytest.mark.parametrize(
        "predictions, truths, message",
        [
            ([3], [0], "prediction 3"),
            ([-1], [1], "prediction -1"),
            ([0.7], [0], "prediction 0.7"),
            ([0], [3], "truth 3"),
            ([True], [0], "prediction True"),
            (np.array([0, 5, 4]), np.zeros(3, dtype=int), "prediction 5"),
            ([1, 2.0], [0, 1], "prediction 2.0"),
        ],
        ids=["above", "negative", "fraction", "truth-above", "boolean", "first-of-array", "float"],
    )
    def test_refuses_a_value_that_is_no_class_code(self, predictions, truths, message):
        with pytest.raises(ValueError, match=f"^{message} is not a class code from 0 to 2$"):
            evaluate(predictions, truths)


class TestCrossValidate:
    def test_fold_counting_two_by_two(self):
        data = [
            make_example(R, f2=100.0, doc_id="r0"),
            make_example(R, f2=110.0, doc_id="r1"),
            make_example(S, f2=900.0, doc_id="s0"),
            make_example(S, f2=910.0, doc_id="s1"),
        ]
        result = cross_validate("knn", data, 2, {"k": 1}, seed=0)
        assert len(result["folds"]) == 2
        for report in result["folds"]:
            assert report["n_examples"] == 2

    def test_deterministic(self):
        data = toy_dataset(30, seed=1)
        a = cross_validate("decision-tree", data, 5, {"max_depth": 3}, seed=9)
        b = cross_validate("decision-tree", data, 5, {"max_depth": 3}, seed=9)
        assert a["folds"] == b["folds"]

    def test_memorizer_scores_high_on_separable_data(self):
        data = toy_dataset(40, seed=2)
        result = cross_validate("knn", data, 5, {"k": 1}, seed=1)
        assert result["mean_weighted_f1"] > 0.9

    def test_imputation_restricted_to_training_folds(self):
        data = toy_dataset(40, seed=3)
        # knock out some author counts; CV must still run and stay accurate
        incomplete = [
            LabeledExample(
                replace(ex.features, f1_authors=None) if i % 7 == 0 else ex.features, ex.label, ex.id
            )
            for i, ex in enumerate(data)
        ]
        result = cross_validate("decision-tree", incomplete, 5, {"max_depth": 3}, seed=2)
        assert result["mean_weighted_f1"] > 0.8

    def test_bad_feature_list_named(self):
        with pytest.raises(ValueError, match=r"^invalid feature list: \('f9',\)"):
            cross_validate("gnb", toy_dataset(10, seed=4), 3, features=("f9",))

    def test_prepared_folds_carry_their_features(self):
        folds = stratified_split(toy_dataset(10, seed=4), 3, 0.0, 0).test_folds
        for fold in prepare_folds(folds, ["f2", "f4"]):
            assert fold.features == ("f2", "f4")
            assert fold.X_train.shape[1] == fold.X_test.shape[1] == 2

    def test_pooled_confusion_counts_everything(self):
        data = toy_dataset(30, seed=4)
        result = cross_validate("gnb", data, 5, seed=3)
        assert sum(sum(row) for row in result["pooled_confusion"]) == len(data)


def cv_scored(kind, prepared, hyperparameters, seed, transform="identity"):
    """Each model ``cross_validate_sizes`` scores, with the labels it
    predicts, in fold order."""
    calls = []

    def recording(model, X):
        labels, scores = predict_batch(model, X)
        calls.append((model, labels.tolist()))
        return labels, scores

    with mock.patch.object(evaluation, "predict_batch", recording):
        cross_validate_sizes(kind, prepared, hyperparameters, None, seed, transform)
    return calls


def incomplete_folds(seed):
    """Three stratified folds of 60 synthetic rows, about 30% without f1."""
    data = blank_f1(generate_synthetic(60, PROPS, seed), 0.3, seed)
    return stratified_split(data, 3, 0.0, 0).test_folds


class TestLabelFreeFill:
    """No fill reads a label, so CV fills f1 as a deployed model does."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), fold=st.integers(0, 2), shuffle=st.randoms())
    def test_test_fold_labels_change_no_fill_or_prediction(self, seed, fold, shuffle):
        folds = incomplete_folds(seed)
        labels = [ex.label for ex in folds[fold]]
        shuffle.shuffle(labels)
        relabeled = [list(f) for f in folds]
        relabeled[fold] = [replace(ex, label=label) for ex, label in zip(folds[fold], labels)]
        before, after = prepare_folds(folds), prepare_folds(relabeled)
        hp = {"max_depth": 3}
        scored = [cv_scored("decision-tree", p, hp, seed) for p in (before, after)]
        for a, b, (model_a, _), (model_b, _) in zip(before, after, *scored):
            # prepared folds stay raw; each fold model's imputer fills them
            assert np.array_equal(a.X_train, b.X_train, equal_nan=True)
            assert np.array_equal(a.X_test, b.X_test, equal_nan=True)
            assert model_a.imputer == model_b.imputer
            for X in (a.X_train, a.X_test):
                assert np.array_equal(apply_imputer(model_a.imputer, X), apply_imputer(model_b.imputer, X))
        assert scored[0][fold][1] == scored[1][fold][1]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kind=st.sampled_from([k for k in KINDS if not k.startswith("baseline")]),
        transform=st.sampled_from(TRANSFORM_KINDS),
        features=st.sampled_from([FEATURE_IDS, ("f1", "f3"), ("f1",), ("f2", "f4")]),
    )
    def test_cv_predicts_as_a_model_trained_on_the_raw_fold(self, seed, kind, transform, features):
        folds = incomplete_folds(seed)
        scored = cv_scored(kind, prepare_folds(folds, features), {}, seed, transform)
        for i, (fold, (member, labels)) in enumerate(zip(folds, scored)):
            rows = [ex for j, other in enumerate(folds) if j != i for ex in other]
            model = train(kind, rows, {}, derive_seed(seed, f"fold-{i}"), transform, features)
            assert member.to_json() == model.to_json()
            assert labels == predict_batch(model, dataset_matrix(fold, features)[0])[0].tolist()


def best(table: dict) -> dict:
    """A sweep table's best entry."""
    return table["entries"][table["best_index"]]


class TestSweep:
    def test_singleton_grid(self):
        data = toy_dataset(25, seed=5)
        result, _ = sweep("gnb", data, grid=[{}], transforms=("identity",), k=3, seed=1)
        assert len(result["entries"]) == 1
        assert result["best_index"] == 0

    def test_product_count(self):
        # a tree kind lists each grid point once, on raw values
        data = toy_dataset(25, seed=6)
        grid = [
            {"n_trees": t, "max_depth": d}
            for t, d in itertools.product((5, 10, 20), (2, 3, 4))
        ]
        result, _ = sweep(
            "random-forest",
            data,
            grid=grid,
            transforms=("identity", "z-score", "log-scale"),
            k=3,
            seed=1,
        )
        assert len(result["entries"]) == 9
        assert {e["transform"] for e in result["entries"]} == {"identity"}

    def test_adding_worse_point_keeps_best_report(self):
        data = toy_dataset(25, seed=7)
        base, _ = sweep("knn", data, grid=[{"k": 1}], transforms=("identity",), k=3, seed=1)
        # a 1-NN memorizer on separable data dominates huge-k majority voting
        extended, _ = sweep(
            "knn", data, grid=[{"k": 1}, {"k": 75}], transforms=("identity",), k=3, seed=1
        )
        assert best(extended)["mean_weighted_f1"] == best(base)["mean_weighted_f1"]
        assert best(extended)["hyperparameters"] == {"k": 1}

    def test_tie_prefers_smaller_model(self):
        data = toy_dataset(25, seed=8)
        result, _ = sweep(
            "knn", data, grid=[{"k": 3}, {"k": 1}], transforms=("identity",), k=3, seed=1
        )
        f1s = [e["mean_weighted_f1"] for e in result["entries"]]
        if f1s[0] == f1s[1]:
            assert best(result)["hyperparameters"] == {"k": 1}

    @pytest.mark.parametrize(
        "kind, grid, best",
        [
            # an unbounded depth, null or omitted, is the largest tree
            ("decision-tree", [{"max_depth": 2}, {"max_depth": None}], {"max_depth": 2}),
            ("decision-tree", [{}, {"max_depth": 2}], {"max_depth": 2}),
            # an omitted size ranks at the kind's default, 25 rounds
            ("adaboost", [{"max_depth": 2}, {"rounds": 10, "max_depth": 2}], {"rounds": 10, "max_depth": 2}),
            ("adaboost", [{"rounds": 30, "max_depth": 2}, {"max_depth": 2}], {"max_depth": 2}),
        ],
    )
    def test_tie_ranks_unset_sizes(self, kind, grid, best):
        result, _ = sweep(kind, toy_dataset(20, seed=1), grid=grid, transforms=("identity",), k=3)
        f1s = [e["mean_weighted_f1"] for e in result["entries"]]
        assert f1s[0] == f1s[1]
        assert result["entries"][result["best_index"]]["hyperparameters"] == best

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep("gnb", toy_dataset(10, seed=9), grid=[], k=3)

    def test_default_grids_cover_design(self):
        assert len(default_grid("random-forest")) == 9
        assert len(default_grid("knn")) == 4
        assert len(default_grid("adaboost")) == 6
        assert len(default_grid("linear-svm")) == 4


def count_fold_loops(monkeypatch) -> list:
    """Record the kind of every cross_validate_sizes call made through the
    module: the one fold loop, which cross_validate also runs."""
    calls = []
    real = evaluation.cross_validate_sizes

    def counted(kind, *args, **kwargs):
        calls.append(kind)
        return real(kind, *args, **kwargs)

    monkeypatch.setattr(evaluation, "cross_validate_sizes", counted)
    return calls


#: The documented tie-break size per kind: (size key, default when omitted).
TIE_SIZES = {
    "random-forest": ("n_trees", 10),
    "adaboost": ("rounds", 25),
    "decision-tree": ("max_depth", None),
    "knn": ("k", 5),
}


def tie_size(kind, point) -> float:
    """The size key's value, the kind's default when omitted, and infinite
    when null (an unbounded depth is the largest tree)."""
    key, default = TIE_SIZES[kind]
    value = point.get(key, default)
    return math.inf if value is None else value


def brute_force_sweep(kind, data, grid, transforms, k, seed, folds):
    """One cross_validate per (point, transform) and the documented tie-break."""
    cells = [
        (point, transform,
         cross_validate_sizes(kind, prepare_folds(folds), point, None, seed, transform)[0])
        for point in grid
        for transform in transforms
    ]
    best = 0
    for i, (point, _, result) in enumerate(cells):
        top = cells[best][2]["mean_weighted_f1"]
        if result["mean_weighted_f1"] > top or (
            result["mean_weighted_f1"] == top
            and tie_size(kind, point) < tie_size(kind, cells[best][0])
        ):
            best = i
    return cells, best


#: Per kind, a grid and its family count. Ensemble families of three sizes
#: are listed out of order, with an omitted size (the default) and a point
#: that differs in another key. ``max_depth`` nests for the decision tree
#: and the random forest, so their depths share a family. A kNN family is
#: fitted once per transform. Its folds train on 43 to 46 rows, so k = 60
#: is clamped in every fold and k = 45 in some.
SHARING_GRIDS = {
    "knn": ([{"k": 3}, {"k": 60}, {"k": 1}, {}, {"k": 45}, {"k": 3}], 1),
    "decision-tree": ([{"max_depth": 2}, {"max_depth": None}, {"max_depth": 1}, {}], 1),
    "random-forest": (
        [
            {"n_trees": 3, "max_depth": 2},
            {"n_trees": 2, "max_depth": None},
            {"n_trees": 1, "max_depth": 2},
            {"max_depth": None},
            {"n_trees": 5, "max_depth": 2},
            {"n_trees": 2, "max_depth": 2, "bootstrap": False},
        ],
        2,
    ),
    "adaboost": (
        [
            {"rounds": 4, "max_depth": 1},
            {"rounds": 2, "max_depth": 2},
            {"rounds": 1, "max_depth": 1},
            {"max_depth": 2},
            {"rounds": 7, "max_depth": 1},
            {"rounds": 2, "max_depth": 2},
        ],
        2,
    ),
}


def noisy_dataset(seed: int, blank_f1: bool) -> list[LabeledExample]:
    """Overlapping classes, repeated values, and optionally missing author counts."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(60):
        label = DocType(int(rng.integers(0, 3)))
        f1 = None if blank_f1 and i % 5 == 2 else int(rng.integers(1, 4) + int(label))
        f2 = float(np.rint(np.exp(rng.normal(6 + int(label), 1.2))))
        f3 = float(rng.integers(1, 30))
        out.append(LabeledExample(FeatureVector(f1, f2, f3, f2 / f3), label, f"n{i}"))
    return out


class TestSweepSharing:
    @pytest.mark.parametrize("kind", sorted(SHARING_GRIDS))
    @pytest.mark.parametrize("seed, blank_f1", [(1, False), (2, True), (3, False)])
    def test_matches_one_cross_validate_per_cell(self, kind, seed, blank_f1, monkeypatch):
        data = noisy_dataset(seed, blank_f1)
        folds = stratified_split(data, 4, 0.0, seed).test_folds
        grid, n_families = SHARING_GRIDS[kind]
        # raw-only kinds (the tree kinds) are swept on raw values only, whatever the transforms
        transforms = ("identity",) if SPECS[kind].raw_only else TRANSFORM_KINDS
        cells, best = brute_force_sweep(kind, data, grid, transforms, 4, seed, folds)
        calls = count_fold_loops(monkeypatch)
        result, reports = sweep(
            kind, data, grid=grid, transforms=TRANSFORM_KINDS, k=4, seed=seed, folds=folds
        )
        assert len(calls) == n_families * len(transforms)
        assert result["best_index"] == best
        assert len(result["entries"]) == len(reports) == len(cells)
        for entry, report, (point, transform, expected) in zip(result["entries"], reports, cells):
            assert (entry["hyperparameters"], entry["transform"]) == (point, transform)
            assert report == expected

    def test_log1p_merge_changes_no_tree_entry(self, monkeypatch):
        # 1e17 and 1e17 + 16 are adjacent doubles; log1p maps both to one value
        data = [
            LabeledExample(FeatureVector(1, f2, 10, 100.0), label, f"{label.label}{i}")
            for label, f2 in ((R, 1e17), (S, 1e17 + 16))
            for i in range(6)
        ]
        folds = stratified_split(data, 3, 0.0, 0).test_folds
        calls = count_fold_loops(monkeypatch)
        result, reports = sweep(
            "decision-tree", data, grid=[{"max_depth": 2}], transforms=TRANSFORM_KINDS,
            k=3, folds=folds,
        )
        assert calls == ["decision-tree"]
        assert [e["transform"] for e in result["entries"]] == ["identity"]
        raw = evaluation.cross_validate_sizes("decision-tree", prepare_folds(folds), {"max_depth": 2}, None)[0]
        assert reports[result["best_index"]] == raw

    def test_tree_kind_sweeps_a_negative_count(self):
        # log1p of a count below -1 is NaN; a tree never sees the transform
        data = noisy_dataset(5, blank_f1=True)
        data[::7] = [replace(ex, features=replace(ex.features, f4_words_per_page=-5.0)) for ex in data[::7]]
        result, _ = sweep("random-forest", data, grid=[{"n_trees": 3, "max_depth": 2}], k=3)
        assert [e["transform"] for e in result["entries"]] == ["identity"]
        with pytest.raises(TrainingError, match="not finite after the log-scale transform"):
            sweep("gnb", data, grid=[{}], k=3)

    def test_default_pipeline_sweep_runs_one_fold_loop_per_family(self, tmp_path, monkeypatch):
        from doctype.labeling import write_examples
        from doctype.pipeline import run_pipeline

        labeled = tmp_path / "labeled.jsonl"
        with open(labeled, "w") as handle:
            write_examples(handle, noisy_dataset(4, blank_f1=False))
        calls = count_fold_loops(monkeypatch)
        run_pipeline({"paths": {"labeled": str(labeled), "output_dir": str(tmp_path / "out")}, "k_folds": 3})
        # max_depth nests for the random forest, not for adaboost: one
        # random-forest family and one adaboost family per max_depth
        assert collections.Counter(calls) == {"random-forest": 1, "adaboost": 2}

    @pytest.mark.parametrize(
        "kind, n_families, largest",
        [("random-forest", 1, 20), ("adaboost", 2, 50), ("decision-tree", 1, 1)],
    )
    def test_one_forest_predictor_per_family_and_fold(self, kind, n_families, largest, monkeypatch):
        # every point of a family is scored from its largest fit's one predictor
        built = []
        real = ForestPredictor.__init__

        def counted(self, forest, sizes, *args, **kwargs):
            built.append(len(sizes))
            real(self, forest, sizes, *args, **kwargs)

        monkeypatch.setattr(ForestPredictor, "__init__", counted)
        result, _ = sweep(kind, noisy_dataset(4, blank_f1=False), k=3, seed=2)
        assert len(built) == n_families * 3
        assert max(built) == largest
        assert len(result["entries"]) == len(default_grid(kind))

    @pytest.mark.parametrize(
        "kind, grid",
        [
            ("random-forest", [{"n_trees": 3, "max_depth": 2, "max_leaf_nodes": 3},
                               {"n_trees": 2, "max_depth": 3, "max_leaf_nodes": 3},
                               {"n_trees": 1, "max_depth": 3, "max_leaf_nodes": 3}]),
            ("decision-tree", [{"max_depth": 2, "max_leaf_nodes": 3},
                               {"max_depth": 3, "max_leaf_nodes": 3}]),
        ],
    )
    def test_leaf_budget_keeps_one_family_per_depth(self, kind, grid, monkeypatch):
        # a budget spends its splits in best-first order across depths, so a
        # budgeted tree at depth d is not a deeper budgeted tree cut at d
        data = noisy_dataset(6, blank_f1=True)
        folds = stratified_split(data, 3, 0.0, 6).test_folds
        cells, best = brute_force_sweep(kind, data, grid, ("identity",), 3, 6, folds)
        calls = count_fold_loops(monkeypatch)
        result, reports = sweep(kind, data, grid=grid, k=3, seed=6, folds=folds)
        assert len(calls) == 2
        assert result["best_index"] == best
        for report, (_, _, expected) in zip(reports, cells):
            assert report == expected
        with pytest.raises(ValueError, match="points must all give the same keys of"):
            evaluation.cross_validate_sizes(
                kind, prepare_folds(folds), {"max_leaf_nodes": 3}, [{"max_depth": 2}]
            )

    @pytest.mark.parametrize("kind, grid", [("linear-svm", [{"epochs": 5}, {"epochs": 9}]), ("gnb", [{}])])
    def test_other_kinds_cross_validate_every_cell(self, kind, grid, monkeypatch):
        calls = count_fold_loops(monkeypatch)
        sweep(kind, toy_dataset(10, seed=3), grid=grid, k=3)
        assert len(calls) == len(grid) * len(TRANSFORM_KINDS)

    def test_default_knn_sweep_fits_once_per_transform_and_fold(self, monkeypatch):
        calls, fitted = count_fold_loops(monkeypatch), []
        real = evaluation.train_folds

        def counted(kind, folds, hyperparameters, *args):
            for model in real(kind, folds, hyperparameters, *args):
                fitted.append((kind, hyperparameters["k"], model.transform["kind"]))
                yield model

        monkeypatch.setattr(evaluation, "train_folds", counted)
        result, _ = sweep("knn", noisy_dataset(4, blank_f1=False), k=3, seed=2)
        # every k of a transform is scored from one 7-NN fit per fold
        assert calls == ["knn"] * len(TRANSFORM_KINDS)
        assert sorted(fitted) == sorted(("knn", 7, t) for t in TRANSFORM_KINDS for _ in range(3))
        assert len(result["entries"]) == len(default_grid("knn")) * len(TRANSFORM_KINDS)

    def test_bad_point_fails_before_any_cross_validation(self, monkeypatch):
        calls = count_fold_loops(monkeypatch)
        with pytest.raises(ValueError, match="n_trees must be an integer >= 1"):
            sweep("random-forest", toy_dataset(10, seed=3), grid=[{"n_trees": 2}, {"n_trees": 2.5}], k=3)
        assert calls == []

    @pytest.mark.parametrize("kind", ["gnb", "random-forest"])
    @pytest.mark.parametrize(
        "transforms, message",
        [((), "sweep transforms must be non-empty"), (("sqrt",), "unknown transform kind: 'sqrt'")],
    )
    def test_bad_transforms_fail_before_any_cross_validation(self, kind, transforms, message, monkeypatch):
        calls = count_fold_loops(monkeypatch)
        with pytest.raises(ValueError, match=message):
            sweep(kind, toy_dataset(10, seed=3), grid=[{}], transforms=transforms, k=3)
        assert calls == []

    def test_unknown_key_fails_before_any_cross_validation(self, monkeypatch):
        calls = count_fold_loops(monkeypatch)
        with pytest.raises(ValueError, match="random-forest has no hyperparameter 'ntrees'"):
            sweep("random-forest", toy_dataset(10, seed=3), grid=[{"n_trees": 2}, {"ntrees": 3}], k=3)
        assert calls == []


# Repeated values, adjacent large doubles that log1p merges, values below -1
# that log1p maps to NaN, and ordinary counts.
guard_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e17, 1e17 + 16, 5e-324, -0.5, -2.0, 1e300]),
    st.floats(-1e3, 1e18, allow_nan=False),
)
guard_matrix = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(guard_values, min_size=4, max_size=4), min_size=n, max_size=n)
)


def per_fold_models(kind, folds, hyperparameters, seed, transform="identity"):
    """The oracle of a cross-validated family: ``train`` on each fold's
    training rows in turn, stopping at the first fold it fails on, and that
    fold's error."""
    models = []
    for i in range(len(folds)):
        rows = [ex for j, fold in enumerate(folds) if j != i for ex in fold]
        try:
            models.append(
                train(kind, rows, hyperparameters, derive_seed(seed, f"fold-{i}"), transform)
            )
        except TrainingError as exc:
            return models, exc
    return models, None


def same_rows(n: int, label: DocType, tag: str) -> list[LabeledExample]:
    return [make_example(label, 2, 500, 5, doc_id=f"{tag}{i}") for i in range(n)]


class TestLockstepFamily:
    """An AdaBoost family's folds are boosted together, and each fold's
    model, scores and errors are what fitting it through ``train`` gives."""

    @pytest.mark.parametrize(
        "seed, max_depth, transform", [(1, 1, "identity"), (2, 2, "log-scale"), (3, 0, "z-score")]
    )
    def test_family_matches_per_fold_train(self, seed, max_depth, transform, monkeypatch):
        data = blank_f1(generate_synthetic(150, PROPS, seed), 0.3, seed)
        folds = stratified_split(data, 10, 0.0, seed).test_folds
        prepared = prepare_folds(folds)
        nested = [{"rounds": rounds} for rounds in (12, 1, 5, 40)]
        grown, grow = [], adaboost_module.grow_trees

        def counted(problems, **limits):
            grown.append(len(problems))
            return grow(problems, **limits)

        monkeypatch.setattr(adaboost_module, "grow_trees", counted)
        results = cross_validate_sizes(
            "adaboost", prepared, {"max_depth": max_depth}, nested, seed, transform
        )
        # one grower call a round for all ten folds, not one per fold and round
        assert 0 < len(grown) <= 40 and grown[0] == 10
        monkeypatch.undo()
        models, error = per_fold_models(
            "adaboost", folds, {"max_depth": max_depth, "rounds": 40}, seed, transform
        )
        assert error is None
        for result, point in zip(results, nested):
            expected = []
            for fold, model in zip(prepared, models):
                labels = prefix_labels(model, fold.X_test)
                expected.append(evaluate(labels[min(point["rounds"], len(labels)) - 1], fold.y_test))
            assert result["folds"] == expected

    @pytest.mark.parametrize(
        "folds, transform, message",
        [
            # fold 2's training rows lack Thesis
            ([same_rows(2, R, "a") + same_rows(1, S, "b"), same_rows(2, S, "c") + same_rows(1, R, "d"),
              same_rows(3, T, "e") + same_rows(1, R, "f")],
             "identity", r"needs every class present; missing \['Thesis'\]"),
            # fold 0 trains on a count below -1, which log1p makes NaN
            ([toy_dataset(3, seed=1), toy_dataset(3, seed=2),
              same_rows(2, R, "a") + [make_example(S, 2, -500, 5, doc_id="neg")]],
             "log-scale", "example neg: feature f2 = -500.0 is not finite after the log-scale transform"),
            # fold 0 trains on three equal classes no split separates, so it
            # finds no weak learner before fold 1, which lacks Thesis
            ([same_rows(1, R, "a") + same_rows(1, S, "b"), same_rows(3, T, "c"),
              same_rows(3, R, "d") + same_rows(3, S, "e")],
             "identity", "boosting found no weak learner better than random"),
        ],
    )
    def test_first_failing_fold_raises_its_error(self, folds, transform, message):
        hp = {"rounds": 5, "max_depth": 1}
        _, error = per_fold_models("adaboost", folds, hp, 4, transform)
        assert error is not None
        with pytest.raises(TrainingError, match=message) as raised:
            cross_validate_sizes("adaboost", prepare_folds(folds), hp, None, 4, transform)
        assert str(raised.value) == str(error)


def pairwise_order_kept(kind, train_rows, test_rows) -> bool:
    fitted = fit_transform(np.array(train_rows), kind)
    raw = np.vstack([train_rows, test_rows])
    mapped = np.vstack([apply_transform(fitted, np.array(rows)) for rows in (train_rows, test_rows)])
    for col in range(raw.shape[1]):
        for a in range(len(raw)):
            if not np.isfinite(mapped[a, col]):
                return False
            for b in range(len(raw)):
                if np.sign(raw[a, col] - raw[b, col]) != np.sign(mapped[a, col] - mapped[b, col]):
                    return False
    return True


class TestOrderGuard:
    @settings(max_examples=60, deadline=None)
    @given(
        train_rows=guard_matrix.filter(lambda rows: len(rows) >= 2),
        test_rows=guard_matrix,
        labels=st.lists(st.integers(0, 2), min_size=8, max_size=8),
        kind=st.sampled_from(TRANSFORM_KINDS),
    )
    def test_passing_transform_keeps_tree_predictions(self, train_rows, test_rows, labels, kind):
        X_test = np.array(test_rows)
        with np.errstate(all="ignore"):
            if not pairwise_order_kept(kind, train_rows, test_rows) or not np.isfinite(X_test).all():
                return
        data = [
            LabeledExample(FeatureVector(*row), DocType(label), f"g{i}")
            for i, (row, label) in enumerate(zip(train_rows, labels))
        ]
        plain = train("decision-tree", data, {})
        mapped = train("decision-tree", data, {}, transform=kind)
        assert predict_batch(plain, X_test)[0].tolist() == predict_batch(mapped, X_test)[0].tolist()


def f2_signal_dataset(n_per_class: int = 200, seed: int = 0) -> list[LabeledExample]:
    """Only the word count separates classes; pages are shared noise."""
    rng = np.random.default_rng(seed)
    out = []
    for label, mu in ((R, 5.0), (S, 7.0), (T, 9.0)):
        for i in range(n_per_class):
            f2 = float(np.rint(np.exp(rng.normal(mu, 0.25))))
            f3 = float(max(1, np.rint(np.exp(rng.normal(2.0, 2.0)))))
            out.append(
                LabeledExample(
                    FeatureVector(3, f2, f3, f2 / f3), label, f"{label.label}-{i}"
                )
            )
    return out


class TestAblation:
    def test_f2_only_carries_the_signal(self):
        data = f2_signal_dataset(150, seed=10)
        hp = {"random-forest": {"n_trees": 10, "max_depth": 4, "feature_subset": 4}}
        scores = ablation(data, ["random-forest"], k=5, seed=3, hyperparameters=hp)
        f2_only = scores["random-forest"]["f2"]
        all_feats = scores["random-forest"]["f1+f2+f3+f4"]
        for fid in ("f1", "f3", "f4"):
            assert f2_only >= scores["random-forest"][fid] + 0.2
        assert all_feats >= f2_only

    def test_report_shape(self):
        data = toy_dataset(30, seed=11)
        scores = ablation(data, ["gnb"], k=3, seed=1)
        assert list(scores) == ["gnb"]
        assert list(scores["gnb"]) == ["+".join(subset) for subset in FEATURE_SUBSETS]

    @pytest.mark.parametrize(
        "kinds, message",
        [
            ([], "ablation kinds must be non-empty"),
            (["gnb", "knn", "gnb"], r"must not repeat an entry, got \['gnb', 'knn', 'gnb'\]"),
            (["gnb", "bogus"], "unknown model kind: 'bogus'"),
        ],
    )
    def test_bad_kinds_fail_before_any_cross_validation(self, kinds, message, monkeypatch):
        calls = count_fold_loops(monkeypatch)
        with pytest.raises(ValueError, match=message):
            ablation(toy_dataset(10, seed=3), kinds, k=3)
        assert calls == []


class TestGenerateSynthetic:
    def test_largest_remainder_counts(self):
        data = generate_synthetic(11500, PROPS, seed=0)
        counts = collections.Counter(ex.label for ex in data)
        assert counts[R] == 6325
        assert counts[S] == 1150
        assert counts[T] == 4025

    @pytest.mark.parametrize(
        "proportions, message",
        [
            ({R: 0.5}, "proportions must sum to 1, got 0.5"),
            ({R: 0.9, S: 0.9}, "proportions must sum to 1, got 1.8"),
            ({R: -0.5, S: 1.0, T: 0.5}, "proportions must be non-negative"),
        ],
    )
    def test_bad_proportions_rejected(self, proportions, message):
        with pytest.raises(ValueError, match=message):
            generate_synthetic(100, proportions, seed=0)

    def test_thesis_author_count_constant_one(self):
        data = generate_synthetic(5000, PROPS, seed=1)
        assert all(
            ex.features.f1_authors == 1 for ex in data if ex.label is T
        )

    def test_feature_vector_invariants(self):
        data = generate_synthetic(2000, PROPS, seed=2)
        for ex in data:
            fv = ex.features
            assert fv.f1_authors >= 1
            assert fv.f2_total_words >= 0
            assert fv.f3_pages >= 1
            assert fv.f4_words_per_page == pytest.approx(
                fv.f2_total_words / fv.f3_pages
            )

    def test_deterministic(self):
        a = generate_synthetic(500, PROPS, seed=3)
        b = generate_synthetic(500, PROPS, seed=3)
        assert a == b

    def test_thresholds_reproduce_targets_within_ten_percent(self):
        data = generate_synthetic(40000, PROPS, seed=4)
        table = derive_thresholds(*dataset_matrix(data))
        for t in DocType:
            for fid in PARAMETERIZED_FEATURES:
                target_lo, target_hi = REFERENCE_BOUNDS[t][fid]
                got_lo, got_hi = cell(table, t, fid)
                assert abs(got_lo - target_lo) <= 0.10 * max(target_lo, 1.0), (t, fid)
                assert abs(got_hi - target_hi) <= 0.10 * max(target_hi, 1.0), (t, fid)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, PROPS, seed=0)

    def test_every_kind_beats_random_baseline_expectation(self):
        data = generate_synthetic(2000, PROPS, seed=5)
        # analytical accuracy of weight-matched random guessing
        expectation = sum(p * p for p in PROPS.values())
        assert expectation == pytest.approx(0.435)
        for kind, hp, transform in [
            ("gnb", {}, "log-scale"),
            ("knn", {"k": 5}, "z-score"),
            ("decision-tree", {"max_depth": 4}, "identity"),
            ("random-forest", {"n_trees": 10, "max_depth": 4}, "identity"),
            ("adaboost", {"rounds": 10, "max_depth": 2}, "identity"),
            ("linear-svm", {"epochs": 200, "step": 1e-2}, "z-score"),
        ]:
            result = cross_validate(kind, data, 5, hp, seed=6, transform=transform)
            assert result["mean_weighted_f1"] > expectation, kind


class TestSplitFoldsDisjoint:
    def test_folds_partition_non_validation(self):
        data = toy_dataset(50, seed=12)
        split = stratified_split(data, 5, 0.2, seed=0)
        fold_ids = [sorted(ex.id for ex in fold) for fold in split.test_folds]
        for a, b in itertools.combinations(range(5), 2):
            assert not set(fold_ids[a]) & set(fold_ids[b])
        union = sorted(i for ids in fold_ids for i in ids)
        assert union == sorted(ex.id for ex in split.train)
