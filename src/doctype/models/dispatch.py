"""Training and prediction entry points for every model kind."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from ..errors import ModelFormatError, TrainingError
from ..ingest import DOC_TYPES, FEATURE_IDS, DocType, FeatureVector
from ..ioutils import finite_number
from ..labeling import LabeledExample
from ..stats import TransformSpec
from .adaboost import AdaboostPredictor, fit_adaboost
from .artifact import ENSEMBLE_KINDS, KINDS, ModelArtifact
from .baselines import (
    RandomBaselinePredictor,
    ThresholdBaselinePredictor,
    fit_baseline_random,
    fit_baseline_threshold,
)
from .gnb import GnbPredictor, fit_gnb
from .knn import KnnPredictor, fit_knn
from .svm import SvmPredictor, fit_linear_svm
from .tree import ForestPredictor, fit_decision_tree, fit_random_forest

#: Production profile: a small forest kept within the deployment budget of
#: at most 10 trees and 5 leaf nodes per tree.
DEPLOYED_FOREST_PROFILE = {
    "n_trees": 10,
    "max_leaf_nodes": 5,
    "min_leaf_size": 1,
    "bootstrap": True,
    "feature_subset": 2,
}

# Kinds whose per-class decision structure needs every class observed.
_REQUIRE_ALL_CLASSES = ("adaboost", "linear-svm")
_REQUIRE_TWO_EXAMPLES = ("adaboost", "linear-svm")


def _integer(least: int, nullable: bool = False):
    def accepts(value) -> bool:
        if value is None:
            return nullable
        return isinstance(value, int) and not isinstance(value, bool) and value >= least

    return accepts, f"an integer >= {least}" + (" or null" if nullable else "")


_FINITE = (finite_number, "a finite number")
_TREE_HYPERPARAMETERS = {
    "max_depth": _integer(0, nullable=True),
    "min_leaf_size": _integer(1),
    "max_leaf_nodes": _integer(1, nullable=True),
    "class_weight": (lambda v: v is None or v == "balanced", 'null or "balanced"'),
}

#: Per kind, each hyperparameter's (accepts, expected) value check. A kind
#: takes no key it does not list.
_HYPERPARAMETER_TYPES = {
    "knn": {"k": _integer(1)},
    "decision-tree": _TREE_HYPERPARAMETERS,
    "random-forest": {
        **_TREE_HYPERPARAMETERS,
        "n_trees": _integer(1),
        "bootstrap": (lambda v: isinstance(v, bool), "true or false"),
        "feature_subset": _integer(1),
    },
    "adaboost": {"rounds": _integer(1), "max_depth": _integer(0), "min_leaf_size": _integer(1)},
    "linear-svm": {"epochs": _integer(0), "step": _FINITE, "reg": _FINITE},
    "baseline-threshold": {"quantile_lo": _FINITE, "quantile_hi": _FINITE},
}


def check_hyperparameters(kind: str, hyperparameters: dict) -> None:
    """Raise ValueError for the first key ``kind`` does not list, or else the
    first listed hyperparameter of a wrong type."""
    listed = _HYPERPARAMETER_TYPES.get(kind, {})
    for key in hyperparameters:
        if key not in listed:
            known = ", ".join(sorted(listed)) or "none"
            raise ValueError(f"{kind} has no hyperparameter {key!r} (known: {known})")
    for key, (accepts, expected) in listed.items():
        if key in hyperparameters and not accepts(value := hyperparameters[key]):
            shown = json.dumps(value, default=repr)
            raise ValueError(f"{kind} hyperparameter {key} must be {expected}, got {shown}")


def dataset_matrix(
    dataset: Sequence[LabeledExample], features: Sequence[str] = FEATURE_IDS
) -> tuple[np.ndarray, np.ndarray]:
    """Project labeled rows onto (X, y) arrays for the selected features,
    with NaN for a missing f1: the one place labeled rows become arrays."""
    X = np.array([ex.features.values(features) for ex in dataset], dtype=float)
    y = np.array([int(ex.label) for ex in dataset], dtype=int)
    return X.reshape(len(y), len(features)), y


def train(
    kind: str,
    dataset: Sequence[LabeledExample],
    hyperparameters: dict | None = None,
    seed: int = 0,
    transform: str = "identity",
    features: Sequence[str] = FEATURE_IDS,
    *,
    matrix: tuple[np.ndarray, np.ndarray] | None = None,
) -> ModelArtifact:
    """Fit one model kind on the dataset and wrap it in a ModelArtifact.

    ``matrix`` is ``dataset_matrix(dataset, features)`` when the caller
    has already built it; it is read, never written. A NaN in it (a
    missing f1) raises TrainingError naming the example.
    """
    if kind not in KINDS:
        raise TrainingError(f"unknown model kind: {kind!r}")
    if not dataset:
        raise TrainingError("cannot train on an empty dataset")
    hyperparameters = dict(hyperparameters or {})
    check_hyperparameters(kind, hyperparameters)
    features = tuple(features)
    if kind == "baseline-threshold" and features != FEATURE_IDS:
        raise TrainingError("baseline-threshold requires the full feature set")

    if kind in _REQUIRE_TWO_EXAMPLES and len(dataset) < 2:
        raise TrainingError(f"{kind} needs at least 2 examples")
    present = {ex.label for ex in dataset}
    if kind in _REQUIRE_ALL_CLASSES and present != set(DOC_TYPES):
        missing = [t.label for t in DOC_TYPES if t not in present]
        raise TrainingError(f"{kind} needs every class present; missing {missing}")

    X, y = dataset_matrix(dataset, features) if matrix is None else matrix
    nan_cells = np.argwhere(np.isnan(X))
    if len(nan_cells):
        row, col = nan_cells[0]
        raise TrainingError(f"example {dataset[row].id} has missing {features[col]}; impute first")
    spec = TransformSpec.fit(X, transform)
    parameters = _FITTERS[kind](spec.apply(X), y, seed, hyperparameters)

    return ModelArtifact(
        kind=kind,
        transform=spec,
        parameters=parameters,
        seed=seed,
        features=features,
    )


def truncate(model: ModelArtifact, size: int) -> ModelArtifact:
    """The ensemble made of ``model``'s first ``size`` members.

    For a model that ``train`` fitted at a size of at least ``size``, this
    equals, to the JSON byte, what ``train`` returns at ``size`` with the
    same seed, transform, data and other hyperparameters.
    """
    if model.kind not in ENSEMBLE_KINDS:
        raise ValueError(f"{model.kind} is not an ensemble; cannot truncate it")
    parameters = {name: members[:size] for name, members in model.parameters.items()}
    return ModelArtifact(model.kind, model.transform, parameters, model.seed, model.features)


_FITTERS = {
    "baseline-random": fit_baseline_random,
    "baseline-threshold": fit_baseline_threshold,
    "gnb": fit_gnb,
    "knn": fit_knn,
    "decision-tree": fit_decision_tree,
    "random-forest": fit_random_forest,
    "adaboost": fit_adaboost,
    "linear-svm": fit_linear_svm,
}

#: Per kind, the one reader of its stored parameters: the predictor's
#: constructor, which raises on any value it cannot score with.
_PREDICTORS = {
    "baseline-random": lambda m: RandomBaselinePredictor(m.parameters, m.seed),
    "baseline-threshold": lambda m: ThresholdBaselinePredictor(m.parameters, m.features),
    "gnb": lambda m: GnbPredictor(m.parameters, len(m.features)),
    "knn": lambda m: KnnPredictor(m.parameters, len(m.features)),
    "decision-tree": lambda m: ForestPredictor([m.parameters["nodes"]], len(m.features)),
    "random-forest": lambda m: ForestPredictor(m.parameters["trees"], len(m.features)),
    "adaboost": lambda m: AdaboostPredictor(m.parameters, len(m.features)),
    "linear-svm": lambda m: SvmPredictor(m.parameters, len(m.features)),
}


def _predictor(model: ModelArtifact):
    """The model's predictor, built once. Building it is the check of the
    model's kind, features and parameters: ModelFormatError if it fails."""
    if model._predictor is None:
        if model.kind not in KINDS:
            raise ModelFormatError(f"unknown model kind: {model.kind!r}")
        if not model.features or any(fid not in FEATURE_IDS for fid in model.features):
            raise ModelFormatError(f"invalid feature list: {model.features!r}")
        if not isinstance(model.parameters, Mapping):
            raise ModelFormatError("model parameters must be an object")
        try:
            model._predictor = _PREDICTORS[model.kind](model)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ModelFormatError(f"malformed {model.kind} parameters: {exc}") from exc
    return model._predictor


def save_model(model: ModelArtifact, sink: IO[str] | str | Path) -> None:
    """Write the model's JSON after building its predictor."""
    _predictor(model)
    text = model.to_json()
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text)


def load_model(source: IO[str] | str | Path) -> ModelArtifact:
    """Read a model file and build its predictor; a corrupted file raises
    ModelFormatError."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ModelFormatError(f"cannot read model file: {exc}") from exc
    model = ModelArtifact.from_json(text)
    _predictor(model)
    return model


def predict(model: ModelArtifact, fv: FeatureVector) -> tuple[DocType, dict[DocType, float]]:
    """Classify one vector: row 0 of predict_batch, ties to the lowest class."""
    raw = [_require_value(fv, fid) for fid in model.features]
    labels, scores = predict_batch(model, np.array([raw]))
    row = scores[0].tolist()
    return DocType(int(labels[0])), {t: row[t] for t in DOC_TYPES}


def _require_value(fv: FeatureVector, feature_id: str) -> float:
    value = fv.get(feature_id)
    if value is None:
        raise ValueError(f"feature {feature_id} is missing; impute before predicting")
    return float(value)


def predict_batch(
    model: ModelArtifact, X_raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transform and score a matrix: returns (labels, score matrix).

    Labels are each row's argmax, so ties go to the lowest class. A value
    that is not finite, raw or transformed, raises ValueError naming it.
    """
    X = np.asarray(X_raw, dtype=float)
    Xt = model.transform.apply(X)
    if not np.isfinite(Xt).all():
        row, col = np.argwhere(~np.isfinite(Xt))[0]
        value = float(X[row, col])
        where = f"row {row}: feature {model.features[col]} = {value!r}"
        after = f" after the {model.transform.kind} transform" if math.isfinite(value) else ""
        raise ValueError(f"{where} is not finite{after}")
    scores = _predictor(model).scores_matrix(Xt)
    return scores.argmax(axis=1), scores
