"""Versioned model artifacts with a bit-exact JSON round trip."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ModelFormatError, UnsupportedVersionError
from ..ingest import FEATURE_IDS
from ..stats import TransformSpec

MODEL_FORMAT_VERSION = 1


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
            seed = payload["seed"]
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ValueError(f"seed must be an integer, got {seed!r}")
            return cls(
                kind=payload["kind"],
                transform=TransformSpec.from_dict(payload["transform"], len(features)),
                parameters=payload["parameters"],
                seed=seed,
                features=features,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model payload: {exc}") from exc
