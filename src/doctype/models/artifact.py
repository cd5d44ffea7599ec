"""Versioned model artifacts with a bit-exact JSON round trip."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping

from ..errors import ModelFormatError, UnsupportedVersionError
from ..ingest import FEATURE_IDS, N_CLASSES
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
    format_version: int = MODEL_FORMAT_VERSION
    _predictor: object = field(default=None, repr=False, compare=False)

    def to_json(self) -> str:
        payload = {
            "format_version": self.format_version,
            "kind": self.kind,
            "transform": self.transform.to_dict(),
            "parameters": self.parameters,
            "seed": self.seed,
            "features": list(self.features),
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ModelArtifact":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
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
            artifact = cls(
                kind=payload["kind"],
                transform=TransformSpec.from_dict(payload["transform"]),
                parameters=payload["parameters"],
                seed=int(payload["seed"]),
                features=tuple(payload["features"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model payload: {exc}") from exc
        validate_artifact(artifact)
        return artifact


def validate_artifact(model: ModelArtifact) -> int:
    """Structural checks: known kind, sane trees, finite ensemble weights.

    Returns the depth of the deepest tree, 0 for kinds without trees.
    """
    if model.kind not in KINDS:
        raise ModelFormatError(f"unknown model kind: {model.kind!r}")
    if not model.features or any(fid not in FEATURE_IDS for fid in model.features):
        raise ModelFormatError(f"invalid feature list: {model.features!r}")
    params = model.parameters
    if not isinstance(params, Mapping):
        raise ModelFormatError("model parameters must be an object")
    n_features = len(model.features)
    depth = 0
    try:
        if model.kind == "decision-tree":
            depth = _validate_tree(params["nodes"], n_features)
        elif model.kind in ("random-forest", "adaboost"):
            if not params["trees"]:
                raise ModelFormatError(f"{model.kind} has no trees")
            depth = max(_validate_tree(nodes, n_features) for nodes in params["trees"])
        if model.kind == "adaboost":
            if len(params["alphas"]) != len(params["trees"]):
                raise ModelFormatError("adaboost weight/tree count mismatch")
            for alpha in params["alphas"]:
                if not _finite(alpha):
                    raise ModelFormatError(f"non-finite boosting weight: {alpha!r}")
        elif model.kind == "knn":
            k = params["k"]
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ModelFormatError(f"knn k must be an integer >= 1, got {k!r}")
        elif model.kind == "baseline-random":
            weights = params["weights"]
            if abs(sum(weights) - 1.0) > 1e-9 or any(w < 0 for w in weights):
                raise ModelFormatError(f"baseline weights must sum to 1: {weights!r}")
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"malformed {model.kind} parameters: {exc}") from exc
    return depth


def _validate_tree(nodes, n_features: int) -> int:
    """Check one tree's nodes and shape; return its depth.

    The walk from node 0 must reach every node exactly once, so routing a
    row cannot loop or merge (a node that is its own child, a shared child)
    and the file holds one tree (no unreachable node).
    """
    if not nodes:
        raise ModelFormatError("tree has no nodes")
    reached = [True] + [False] * (len(nodes) - 1)
    level, depth = [0], -1
    while level:
        depth, below = depth + 1, []
        for parent in level:
            node = nodes[parent]
            if node["feature"] < 0:
                dist = node["dist"]
                if len(dist) != N_CLASSES or abs(sum(dist) - 1.0) > 1e-9 or min(dist) < 0:
                    raise ModelFormatError(f"leaf is not {N_CLASSES} probabilities: {dist!r}")
                continue
            if not isinstance(node["feature"], int) or node["feature"] >= n_features:
                raise ModelFormatError(f"split references feature {node['feature']}")
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


def _finite(value) -> bool:
    """An int or float, not a bool, within float range (so not NaN)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def save_model(model: ModelArtifact, sink: IO[str] | str | Path) -> None:
    validate_artifact(model)
    text = model.to_json()
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text)


def load_model(source: IO[str] | str | Path) -> ModelArtifact:
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ModelFormatError(f"cannot read model file: {exc}") from exc
    return ModelArtifact.from_json(text)
