"""Baselines and trainable classifiers over feature vectors."""

from .artifact import MODEL_FORMAT_VERSION, ModelArtifact
from .baselines import FALLBACK_CLASS, THRESHOLD_TEST_ORDER
from .dispatch import (
    DEPLOYED_FOREST_PROFILE,
    KINDS,
    SPECS,
    check_features,
    check_hyperparameters,
    dataset_matrix,
    kind_spec,
    load_model,
    nested_keys,
    predict,
    predict_batch,
    prefix_labels,
    save_model,
    train,
    train_folds,
)

__all__ = [
    "KINDS",
    "MODEL_FORMAT_VERSION",
    "SPECS",
    "ModelArtifact",
    "kind_spec",
    "load_model",
    "save_model",
    "FALLBACK_CLASS",
    "THRESHOLD_TEST_ORDER",
    "DEPLOYED_FOREST_PROFILE",
    "check_features",
    "check_hyperparameters",
    "dataset_matrix",
    "nested_keys",
    "predict",
    "predict_batch",
    "prefix_labels",
    "train",
    "train_folds",
]
