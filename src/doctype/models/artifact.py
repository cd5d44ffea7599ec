"""Versioned model artifacts with a bit-exact JSON round trip."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from ..errors import ModelFormatError, UnsupportedVersionError
from ..ingest import FEATURE_IDS
from ..stats import Imputer, TransformSpec

MODEL_FORMAT_VERSION = 4


@dataclass
class ModelArtifact:
    """A trained model: kind, fitted transform, parameters, and provenance.

    ``imputer`` fills a missing f1 before the transform; it is None exactly
    when f1 is not one of ``features``. The predictor, built on first use,
    is not copied by ``dataclasses.replace``.
    """

    kind: str
    transform: TransformSpec
    parameters: dict
    seed: int
    features: tuple[str, ...] = FEATURE_IDS
    imputer: Imputer | None = None
    _predictor: object = field(default=None, init=False, repr=False, compare=False)

    def to_json(self) -> str:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "transform": self.transform.to_dict(),
            "parameters": self.parameters,
            "seed": self.seed,
            "features": list(self.features),
            "imputer": None if self.imputer is None else self.imputer.to_dict(),
        }
        return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ModelArtifact":
        """Parse a model file and check its transform and imputer. The kind's
        parameters are checked when its predictor is built; ``load_model``
        does both."""
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
            transform = TransformSpec.from_dict(payload["transform"], len(features))
            imputer = payload["imputer"]
            if (imputer is None) == ("f1" in features):
                raise ValueError("an imputer is stored exactly when f1 is a feature")
            if imputer is not None:
                imputer = Imputer.from_dict(imputer, len(features))
                ends = np.trunc(np.repeat([[imputer.lo], [imputer.hi]], len(features), axis=1))
                if not np.isfinite(transform.apply(ends)[:, 0]).all():
                    raise ValueError(f"the {transform.kind} transform cannot map every fill")
            return cls(
                kind=payload["kind"],
                transform=transform,
                parameters=payload["parameters"],
                seed=seed,
                features=features,
                imputer=imputer,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model payload: {exc}") from exc
