"""Training and prediction entry points for every model kind."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterator, Mapping, Sequence

import numpy as np

from .. import stats
from ..errors import DocTypeError, ModelFormatError, TrainingError
from ..ingest import DOC_TYPES, FEATURE_IDS, FIELD_BY_ID, N_CLASSES, DocType, FeatureVector
from ..ioutils import atomic_write_text, finite_number, known_keys
from ..labeling import LabeledExample
from .adaboost import adaboost_predictor, fit_adaboost
from .artifact import ModelArtifact
from .baselines import (
    RandomBaselinePredictor,
    ThresholdBaselinePredictor,
    fit_baseline_random,
    fit_baseline_threshold,
)
from .gnb import GnbPredictor, fit_gnb
from .knn import KnnPredictor, fit_knn
from .svm import SvmPredictor, fit_linear_svm
from .tree import ForestPredictor, Tree, fit_decision_tree, fit_random_forest

#: Production profile: a small forest kept within the deployment budget of
#: at most 10 trees and 5 leaf nodes per tree.
DEPLOYED_FOREST_PROFILE = {
    "n_trees": 10,
    "max_leaf_nodes": 5,
    "min_leaf_size": 1,
    "bootstrap": True,
    "feature_subset": 2,
}


@dataclass(frozen=True)
class Kind:
    """Everything the toolkit knows about one model kind.

    ``fit(problems, seeds, hyperparameters)`` fits each ``(X, y)`` problem
    with its seed in ``seeds`` and returns an iterator of each one's stored
    parameters, or the TrainingError it fails with, in order; it gets every
    hyperparameter, with the defaults filled in. The kinds that fit one
    problem at a time fit each when the iterator reaches it (``_each``);
    AdaBoost boosts them all at once and draws nothing. ``predictor``
    builds a model's predictor and is the one reader of its stored
    parameters: it raises on any value it cannot score with. ``stored``
    lists the keys of those parameters; a model holding any other key is
    refused, since nothing would read it and saving would write it back.
    ``hyperparameters`` maps each key the kind takes to ``(accepts,
    expected, default)``. ``size_key`` names the hyperparameter that sets
    the model's size. An ``ensemble`` model's predictor scores each size s
    up to its own as the fit at size s does (``prefix_labels``): by its
    first s trees or rounds, or for kNN by each row's s nearest neighbours.
    ``nested`` names the keys that nest: one fit at their largest values
    scores every smaller value through ``prefix_labels``. They are an
    ensemble's size and, for the kinds whose tree fitted at depth d is a
    deeper fit cut at d, ``max_depth``. That holds only without a
    ``max_leaf_nodes`` budget, which spends its splits in best-first order
    across depths (``nested_keys``).
    ``sweep`` runs a ``raw_only`` kind on raw values only: a tree kind
    depends on each feature's value order only (``models.tree``), which
    the transforms keep, and a transform only redraws ``baseline-random``'s
    hashed labels, so a sweep would pick the luckiest draw. An
    ``every_class`` kind needs every class in its training rows. ``grid``
    is the default sweep grid.
    """

    fit: Callable
    predictor: Callable
    stored: tuple[str, ...]
    hyperparameters: Mapping[str, tuple]
    size_key: str | None = None
    ensemble: bool = False
    nested: tuple[str, ...] = ()
    raw_only: bool = False
    every_class: bool = False
    grid: tuple[dict, ...] = ({},)


def _each(fit_one: Callable) -> Callable:
    """``Kind.fit`` from ``fit_one(X, y, seed, hyperparameters)``, which
    fits one problem: each problem is fitted when the iterator reaches it."""

    def fit(problems, seeds, hyperparameters):
        for (X, y), seed in zip(problems, seeds):
            try:
                parameters = fit_one(X, y, seed, hyperparameters)
            except TrainingError as exc:
                parameters = exc
            yield parameters

    return fit


def _integer(least: int, default, nullable: bool = False):
    def accepts(value) -> bool:
        if value is None:
            return nullable
        return isinstance(value, int) and not isinstance(value, bool) and value >= least

    return accepts, f"an integer >= {least}" + (" or null" if nullable else ""), default


def _finite(default: float):
    return finite_number, "a finite number", default


_TREE_HYPERPARAMETERS = {
    "max_depth": _integer(0, None, nullable=True),
    "min_leaf_size": _integer(1, 1),
    "max_leaf_nodes": _integer(1, None, nullable=True),
    "class_weight": (lambda v: v is None or v == "balanced", 'null or "balanced"', None),
}


#: the keys of stored trees (``tree.stored``)
_TREE_KEYS = ("trees", "sizes")


def _forest_predictor(model: ModelArtifact) -> ForestPredictor:
    return ForestPredictor(*Tree.read(model.parameters), len(model.features))


#: The one definition of each model kind, in the order the toolkit lists them.
SPECS = {
    "baseline-random": Kind(
        _each(fit_baseline_random), lambda m: RandomBaselinePredictor(m.parameters, m.seed),
        ("weights",), {}, raw_only=True,
    ),
    "baseline-threshold": Kind(
        _each(fit_baseline_threshold),
        lambda m: ThresholdBaselinePredictor(m.parameters, m.features), ("table", "fallback"),
        {"quantile_lo": _finite(0.025), "quantile_hi": _finite(0.975)},
    ),
    "gnb": Kind(
        _each(fit_gnb), lambda m: GnbPredictor(m.parameters, len(m.features)),
        ("priors", "means", "variances"), {},
    ),
    "knn": Kind(
        _each(fit_knn), lambda m: KnnPredictor(m.parameters, len(m.features)),
        ("k", "train_x", "train_y"), {"k": _integer(1, 5)}, "k", ensemble=True,
        nested=("k",), grid=tuple({"k": k} for k in (1, 3, 5, 7)),
    ),
    "decision-tree": Kind(
        _each(fit_decision_tree), _forest_predictor, _TREE_KEYS, _TREE_HYPERPARAMETERS,
        "max_depth", nested=("max_depth",), raw_only=True,
        grid=tuple({"max_depth": d} for d in (2, 3, 4)),
    ),
    "random-forest": Kind(
        _each(fit_random_forest), _forest_predictor, _TREE_KEYS,
        {
            **_TREE_HYPERPARAMETERS,
            "n_trees": _integer(1, 10),
            "bootstrap": (lambda v: isinstance(v, bool), "true or false", True),
            "feature_subset": _integer(1, 2),
        },
        "n_trees", ensemble=True, nested=("n_trees", "max_depth"), raw_only=True,
        grid=tuple({"n_trees": t, "max_depth": d} for t, d in product((5, 10, 20), (2, 3, 4))),
    ),
    "adaboost": Kind(
        lambda problems, seeds, hp: fit_adaboost(problems, hp),
        lambda m: adaboost_predictor(m.parameters, len(m.features)),
        (*_TREE_KEYS, "alphas"),
        {"rounds": _integer(1, 25), "max_depth": _integer(0, 2), "min_leaf_size": _integer(1, 1)},
        "rounds", ensemble=True, nested=("rounds",), raw_only=True, every_class=True,
        grid=tuple({"rounds": r, "max_depth": d} for r, d in product((10, 25, 50), (1, 2))),
    ),
    "linear-svm": Kind(
        _each(fit_linear_svm), lambda m: SvmPredictor(m.parameters, len(m.features)),
        ("weights", "biases"),
        {"epochs": _integer(0, 200), "step": _finite(1e-2), "reg": _finite(1e-4)},
        "epochs", every_class=True,
        grid=tuple({"epochs": e, "step": s} for e, s in product((50, 200), (1e-2, 1e-3))),
    ),
}
KINDS = tuple(SPECS)


def kind_spec(kind: str) -> Kind:
    """The kind's entry in SPECS; ValueError for a kind it does not list."""
    if kind not in KINDS:
        raise ValueError(f"unknown model kind: {kind!r}")
    return SPECS[kind]


def nested_keys(kind: str, hyperparameters: Mapping) -> tuple[str, ...]:
    """``kind``'s nested keys with these hyperparameters: ``Kind.nested``,
    less ``max_depth`` under a ``max_leaf_nodes`` budget."""
    budget = hyperparameters.get("max_leaf_nodes") is not None
    return tuple(key for key in kind_spec(kind).nested if not (budget and key == "max_depth"))


def check_hyperparameters(kind: str, hyperparameters: dict) -> None:
    """Raise ValueError for an unknown kind, the first key ``kind`` does
    not take, the first hyperparameter of a wrong type, or else threshold
    quantile levels, defaults filled in, that the fit would refuse."""
    listed = kind_spec(kind).hyperparameters
    for key in hyperparameters:
        if key not in listed:
            known = ", ".join(sorted(listed)) or "none"
            raise ValueError(f"{kind} has no hyperparameter {key!r} (known: {known})")
    for key, (accepts, expected, _) in listed.items():
        if key in hyperparameters and not accepts(value := hyperparameters[key]):
            shown = json.dumps(value, default=repr)
            raise ValueError(f"{kind} hyperparameter {key} must be {expected}, got {shown}")
    if kind == "baseline-threshold":
        levels = {key: default for key, (_, _, default) in listed.items()} | hyperparameters
        stats.check_quantile_levels(levels["quantile_lo"], levels["quantile_hi"])


def check_features(features: Sequence[str]) -> tuple[str, ...]:
    """``features`` as a tuple; ValueError unless it is non-empty and made
    of distinct ids from FEATURE_IDS, in that order."""
    features = tuple(features)
    if not features or features != tuple(fid for fid in FEATURE_IDS if fid in features):
        raise ValueError(f"invalid feature list: {features!r}; need distinct ids of f1-f4 in order")
    return features


def dataset_matrix(
    dataset: Sequence[LabeledExample], features: Sequence[str] = FEATURE_IDS
) -> tuple[np.ndarray, np.ndarray]:
    """Project labeled rows onto (X, y) arrays for the selected features,
    with NaN for a missing f1: the one place labeled rows become arrays."""
    # one getter for every selected field; with one field it gives a value, not a tuple
    row = attrgetter(*(FIELD_BY_ID[fid] for fid in features))
    X = np.array([row(ex.features) for ex in dataset], dtype=float)
    y = np.array([int(ex.label) for ex in dataset], dtype=int)
    return X.reshape(len(y), len(features)), y


def train(
    kind: str,
    dataset: Sequence[LabeledExample],
    hyperparameters: dict | None = None,
    seed: int = 0,
    transform: str = "identity",
    features: Sequence[str] = FEATURE_IDS,
) -> ModelArtifact:
    """Fit one model kind on the dataset and wrap it in a ModelArtifact:
    ``train_folds`` on one fold of these rows.

    The model stores the transform fitted on these rows and, when f1 is a
    feature, the ``stats.fit_imputer`` object that fills their missing f1
    and fills unseen rows the same way. A value the transform makes not
    finite raises TrainingError naming the example, as does a model that
    would not load (an overflowed fit).
    """
    kind_spec(kind)
    if not dataset:
        raise TrainingError("cannot train on an empty dataset")
    # _fit_inputs repeats these checks; here they keep bad features from the matrix
    check_hyperparameters(kind, hyperparameters or {})
    fold = ([ex.id for ex in dataset], dataset_matrix(dataset, check_features(features)))
    (model,) = train_folds(kind, [fold], hyperparameters, [seed], transform, features)
    return model


def train_folds(
    kind: str,
    folds: Sequence[tuple],
    hyperparameters: dict | None,
    seeds: Sequence[int],
    transform: str = "identity",
    features: Sequence[str] = FEATURE_IDS,
) -> Iterator[ModelArtifact]:
    """Yield, in order, the model fitted on each fold ``(ids, (X, y))``
    with its seed in ``seeds``: the ids of its training rows and their raw
    ``dataset_matrix`` over ``features``, which is read, never written.

    Each fold is checked, filled and transformed, up to the first that
    fails its checks, and the folds before it are fitted by one
    ``Kind.fit`` call. The first fold that fails raises its error, after
    the models of the folds before it.
    """
    spec = kind_spec(kind)
    prepared, failure = [], None
    for (ids, (X, y)), seed in zip(folds, seeds):
        try:
            prepared.append(_fit_inputs(kind, ids, X, y, hyperparameters, seed, transform, features))
        except (DocTypeError, ValueError) as exc:
            failure = exc
            break
    if prepared:
        problems = [(X, y) for X, y, _ in prepared]
        # an overflow fails in the predictor, with its reason; the state is
        # set around each fit, never across a yield to the caller
        with np.errstate(all="ignore"):
            fits = spec.fit(problems, seeds, _with_defaults(spec, hyperparameters))
        for _, _, fields in prepared:
            with np.errstate(all="ignore"):
                parameters = next(fits)
            if isinstance(parameters, TrainingError):
                raise parameters
            yield _checked(ModelArtifact(parameters=parameters, **fields))
    if failure is not None:
        raise failure


def _fit_inputs(kind, ids, X, y, hyperparameters, seed, transform, features):
    """One fold's checks, then its fit's inputs: the filled and transformed
    matrix, the labels and the model's other fields."""
    spec = kind_spec(kind)
    if not len(y):
        raise TrainingError("cannot train on an empty dataset")
    check_hyperparameters(kind, hyperparameters or {})
    features = check_features(features)

    if spec.every_class and not (counts := np.bincount(y, minlength=N_CLASSES)).all():
        missing = [t.label for t in DOC_TYPES if not counts[t]]
        raise TrainingError(f"{kind} needs every class present; missing {missing}")
    imputer = stats.fit_imputer(X) if "f1" in features else None
    if imputer is not None:
        X = stats.apply_imputer(imputer, X)
    fitted = stats.fit_transform(X, transform)
    Xt = stats.apply_transform(fitted, X)
    if bad := _first_non_finite(X, Xt, transform, features):
        row, what = bad
        raise TrainingError(f"example {ids[row]}: {what}")
    fields = {"kind": kind, "transform": fitted, "seed": seed, "features": features,
              "imputer": imputer}
    return Xt, y, fields


def _with_defaults(spec: Kind, hyperparameters: dict | None) -> dict:
    """``hyperparameters`` with the kind's defaults filled in."""
    defaults = {key: default for key, (_, _, default) in spec.hyperparameters.items()}
    return {**defaults, **(hyperparameters or {})}


def _checked(model: ModelArtifact) -> ModelArtifact:
    """``model`` after building its predictor; TrainingError if the fit's
    parameters cannot be used."""
    try:
        _predictor(model)
    except ModelFormatError as exc:
        raise TrainingError(
            f"{model.kind} fit gave unusable parameters: {exc.__cause__ or exc}"
        ) from exc
    return model


def _predictor(model: ModelArtifact):
    """The model's predictor, built once. Building it is the check of the
    model's seed, transform, imputer, kind, features and parameters, in
    that order: ModelFormatError if one fails."""
    if model._predictor is None:
        try:
            _read_fields(model)
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model payload: {exc}") from exc
        try:
            spec = kind_spec(model.kind)
            check_features(model.features)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc
        try:
            known_keys(model.parameters, spec.stored, "parameters")
            model._predictor = spec.predictor(model)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ModelFormatError(f"malformed {model.kind} parameters: {exc}") from exc
    return model._predictor


def _read_fields(model: ModelArtifact) -> None:
    """ValueError unless the seed is an integer, the stored transform and
    imputer pass their readers, the imputer is there exactly when f1 is a
    feature, and the transform maps both ends of the imputer's fill range."""
    if not isinstance(model.seed, int) or isinstance(model.seed, bool):
        raise ValueError(f"seed must be an integer, got {model.seed!r}")
    n_features = len(model.features)
    transform = stats.read_transform(model.transform, n_features)
    if (model.imputer is None) == ("f1" in model.features):
        raise ValueError("an imputer is stored exactly when f1 is a feature")
    if model.imputer is not None:
        imputer = stats.read_imputer(model.imputer, n_features)
        ends = np.trunc(np.repeat([[imputer["lo"]], [imputer["hi"]]], n_features, axis=1))
        if not np.isfinite(stats.apply_transform(transform, ends)[:, 0]).all():
            raise ValueError(f"the {transform['kind']} transform cannot map every fill")


def save_model(model: ModelArtifact, sink: IO[str] | str | Path) -> None:
    """Write the model's JSON after building its predictor, so a model
    that would not load is never written; a path is written atomically."""
    _predictor(model)
    if hasattr(sink, "write"):
        sink.write(model.to_json())
    else:
        atomic_write_text(sink, model.to_json())


def load_model(source: IO[str] | str | Path) -> ModelArtifact:
    """Read a model file, after a UTF-8 byte order mark if a path's file has
    one, and build its predictor; a corrupted file raises ModelFormatError."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ModelFormatError(f"cannot read model file: {exc}") from exc
    model = ModelArtifact.from_json(text)
    _predictor(model)
    return model


def predict(model: ModelArtifact, fv: FeatureVector) -> tuple[DocType, dict[DocType, float]]:
    """Classify one vector: row 0 of predict_batch, ties to the lowest class."""
    labels, scores = predict_batch(model, np.array([fv.values(model.features)], dtype=float))
    row = scores[0].tolist()
    return DocType(int(labels[0])), {t: row[t] for t in DOC_TYPES}


def predict_batch(
    model: ModelArtifact, X_raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fill, transform and score a matrix: returns (labels, score matrix).

    A missing f1 (NaN) is filled by the model's imputer. Labels are each
    row's argmax, so ties go to the lowest class. A value that is not
    finite, raw or transformed, raises ValueError naming it.
    """
    scores = _predictor(model).scores_matrix(_model_inputs(model, X_raw))
    return scores.argmax(axis=1), scores


def prefix_labels(model: ModelArtifact, X_raw: np.ndarray, depth: int | None = None) -> np.ndarray:
    """Row s - 1 is the ``predict_batch`` labels of the model's first s
    members alone (one row for a decision tree), with every tree cut at
    ``depth`` when given: the labels of the same fit at ``max_depth`` depth
    when the kind nests ``max_depth`` and the model has no leaf budget."""
    spec = kind_spec(model.kind)
    if not spec.nested:
        raise ValueError(f"{model.kind} is not an ensemble or a tree")
    if depth is not None and "max_depth" not in spec.nested:
        raise ValueError(f"{model.kind} does not nest max_depth")
    return _predictor(model).prefix_scores(_model_inputs(model, X_raw), depth).argmax(axis=2)


def _model_inputs(model: ModelArtifact, X_raw: np.ndarray) -> np.ndarray:
    """``X_raw`` filled and transformed for the model's predictor."""
    X = np.asarray(X_raw, dtype=float)
    if model.imputer is not None:
        X = stats.apply_imputer(model.imputer, X)
    Xt = stats.apply_transform(model.transform, X)
    if bad := _first_non_finite(X, Xt, model.transform["kind"], model.features):
        row, what = bad
        raise ValueError(f"row {row}: {what}")
    return Xt


def _first_non_finite(X: np.ndarray, Xt: np.ndarray, transform: str, features):
    """The row of ``Xt``'s first value that is not finite and what is wrong
    with it, naming the raw value ``X`` holds there; None when all are."""
    if np.isfinite(Xt).all():
        return None
    row, col = np.argwhere(~np.isfinite(Xt))[0]
    value = float(X[row, col])
    after = f" after the {transform} transform" if math.isfinite(value) else ""
    return row, f"feature {features[col]} = {value!r} is not finite{after}"
