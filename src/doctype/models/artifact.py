"""Versioned model artifacts with a bit-exact JSON round trip."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ModelFormatError, UnsupportedVersionError
from ..ingest import FEATURE_IDS
from ..ioutils import known_keys

MODEL_FORMAT_VERSION = 4


@dataclass
class ModelArtifact:
    """A trained model: kind, fitted transform, parameters, and provenance.

    ``transform`` and ``imputer`` are the objects the model file stores, as
    ``stats.fit_transform`` and ``stats.fit_imputer`` return them.
    ``imputer`` fills a missing f1 before the transform; it is None exactly
    when f1 is not one of ``features``. The predictor, built on first use,
    is not copied by ``dataclasses.replace``; building it checks every
    field (``models.save_model`` and ``load_model`` both build it).
    """

    kind: str
    transform: dict
    parameters: dict
    seed: int
    features: tuple[str, ...] = FEATURE_IDS
    imputer: dict | None = None
    _predictor: object = field(default=None, init=False, repr=False, compare=False)

    def to_json(self) -> str:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "transform": self.transform,
            "parameters": self.parameters,
            "seed": self.seed,
            "features": list(self.features),
            "imputer": self.imputer,
        }
        return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ModelArtifact":
        """Parse a model file into its fields, checking only its version and
        keys: ``load_model`` checks the values when it builds the predictor."""
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
            known_keys(payload, ("format_version", "kind", "transform", "parameters", "seed",
                                 "features", "imputer"), "model")
            return cls(
                features=tuple(payload["features"]),
                seed=payload["seed"],
                transform=payload["transform"],
                imputer=payload["imputer"],
                kind=payload["kind"],
                parameters=payload["parameters"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model payload: {exc}") from exc
