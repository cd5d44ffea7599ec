"""Versioned model artifacts with a bit-exact JSON round trip."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ModelFormatError, UnsupportedVersionError
from ..ingest import FEATURE_IDS
from ..stats import TransformSpec

MODEL_FORMAT_VERSION = 1

KINDS = (
    "baseline-random",
    "baseline-threshold",
    "gnb",
    "knn",
    "decision-tree",
    "random-forest",
    "adaboost",
    "linear-svm",
)

#: Per kind, the hyperparameter that sets the model's size and the value a
#: fit uses when it is omitted (None: unbounded). The ensemble, kNN and SVM
#: fitters read their defaults here; ``evaluation.sweep`` ranks ties and
#: groups ensembles by it.
SIZE_HYPERPARAMETERS = {
    "knn": ("k", 5),
    "decision-tree": ("max_depth", None),
    "random-forest": ("n_trees", 10),
    "adaboost": ("rounds", 25),
    "linear-svm": ("epochs", 200),
}

#: Kinds whose model of size s is the first s members of any larger fit on
#: the same data and seed (``models.truncate``).
ENSEMBLE_KINDS = ("random-forest", "adaboost")


def model_size(kind: str, hyperparameters: Mapping):
    """The value of ``kind``'s size hyperparameter, its default when omitted."""
    key, default = SIZE_HYPERPARAMETERS[kind]
    return hyperparameters.get(key, default)


@dataclass
class ModelArtifact:
    """A trained model: kind, fitted transform, parameters, and provenance."""

    kind: str
    transform: TransformSpec
    parameters: dict
    seed: int
    features: tuple[str, ...] = FEATURE_IDS
    _predictor: object = field(default=None, repr=False, compare=False)

    def to_json(self) -> str:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "transform": self.transform.to_dict(),
            "parameters": self.parameters,
            "seed": self.seed,
            "features": list(self.features),
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ModelArtifact":
        """Parse a model file and check its transform. The kind's parameters
        are checked when its predictor is built; ``load_model`` does both."""
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ModelFormatError(f"model payload is not valid JSON: {exc}") from exc
        if not isinstance(payload, Mapping):
            raise ModelFormatError("model payload must be a JSON object")
        version = payload.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise UnsupportedVersionError(
                f"model format version {version!r} is not supported "
                f"(this build reads version {MODEL_FORMAT_VERSION})"
            )
        try:
            features = tuple(payload["features"])
            return cls(
                kind=payload["kind"],
                transform=TransformSpec.from_dict(payload["transform"], len(features)),
                parameters=payload["parameters"],
                seed=int(payload["seed"]),
                features=features,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"malformed model payload: {exc}") from exc
