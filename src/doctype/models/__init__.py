"""Baselines and trainable classifiers over feature vectors."""

from .artifact import (
    ENSEMBLE_KINDS,
    KINDS,
    MODEL_FORMAT_VERSION,
    SIZE_HYPERPARAMETERS,
    ModelArtifact,
    model_size,
)
from .baselines import (
    FALLBACK_CLASS,
    THRESHOLD_TEST_ORDER,
    baseline_random_predict,
    baseline_threshold_predict,
)
from .dispatch import (
    DEPLOYED_FOREST_PROFILE,
    check_hyperparameters,
    dataset_matrix,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
    truncate,
)

__all__ = [
    "ENSEMBLE_KINDS",
    "KINDS",
    "MODEL_FORMAT_VERSION",
    "SIZE_HYPERPARAMETERS",
    "ModelArtifact",
    "load_model",
    "model_size",
    "save_model",
    "FALLBACK_CLASS",
    "THRESHOLD_TEST_ORDER",
    "baseline_random_predict",
    "baseline_threshold_predict",
    "DEPLOYED_FOREST_PROFILE",
    "check_hyperparameters",
    "dataset_matrix",
    "predict",
    "predict_batch",
    "train",
    "truncate",
]
