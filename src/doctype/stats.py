"""Quantiles, Tukey fences, threshold tables, transforms, and imputation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ImputationError, ModelFormatError, ThresholdError
from .ingest import DOC_TYPES, FEATURE_IDS, DocType, FeatureVector
from .ioutils import number_array
from .labeling import LabeledExample

THRESHOLD_FORMAT_VERSION = 1
TRANSFORM_KINDS = ("identity", "z-score", "log-scale")


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile between closest ranks of the sorted sample."""
    if len(values) == 0:
        raise ValueError("quantile of an empty sample is undefined")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    frac = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * frac


def tukey_filter(values: Sequence[float]) -> list[float]:
    """Keep values inside [Q1 - 1.5*IQR, Q3 + 1.5*IQR], preserving order."""
    if len(values) == 0:
        raise ValueError("tukey_filter of an empty sample is undefined")
    q1 = quantile(values, 0.25)
    q3 = quantile(values, 0.75)
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    return [v for v in values if lo <= v <= hi]


@dataclass
class ThresholdTable:
    """Per-(class, feature) [lower, upper] bounds plus the quantile levels."""

    bounds: dict[tuple[DocType, str], tuple[float, float]]
    quantile_lo: float = 0.025
    quantile_hi: float = 0.975

    def __post_init__(self) -> None:
        for t in DOC_TYPES:
            for fid in FEATURE_IDS:
                cell = self.bounds.get((t, fid))
                if cell is None:
                    raise ValueError(f"missing threshold cell ({t.label}, {fid})")
                lo, hi = cell
                if lo > hi:
                    raise ValueError(
                        f"cell ({t.label}, {fid}) has lower {lo} > upper {hi}"
                    )

    def contains(self, doc_type: DocType, fv: FeatureVector) -> bool:
        """True when all four features fall inside this class's bounds."""
        for fid in FEATURE_IDS:
            value = fv.get(fid)
            if value is None:
                return False
            lo, hi = self.bounds[(doc_type, fid)]
            if not lo <= value <= hi:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "format_version": THRESHOLD_FORMAT_VERSION,
            "quantile_lo": self.quantile_lo,
            "quantile_hi": self.quantile_hi,
            "bounds": {
                t.label: {
                    fid: list(self.bounds[(t, fid)]) for fid in FEATURE_IDS
                }
                for t in DOC_TYPES
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ThresholdTable":
        try:
            version = payload["format_version"]
            if version != THRESHOLD_FORMAT_VERSION:
                raise ModelFormatError(f"unsupported threshold format version {version}")
            bounds = {
                (DocType.from_label(label), fid): (float(cell[0]), float(cell[1]))
                for label, cells in payload["bounds"].items()
                for fid, cell in cells.items()
            }
            return cls(bounds, float(payload["quantile_lo"]), float(payload["quantile_hi"]))
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            if isinstance(exc, ModelFormatError):
                raise
            raise ModelFormatError(f"malformed threshold table: {exc}") from exc

    def save(self, path: str | Path) -> None:
        from .ioutils import atomic_write_text

        atomic_write_text(path, json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ThresholdTable":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ModelFormatError(f"cannot read threshold table: {exc}") from exc
        return cls.from_dict(payload)


def derive_thresholds(
    X: np.ndarray,
    y: np.ndarray,
    quantile_lo: float = 0.025,
    quantile_hi: float = 0.975,
) -> ThresholdTable:
    """Tukey-filter each (class, feature) sample, then take the outer quantiles.

    ``X`` and ``y`` are as ``models.dataset_matrix`` builds them; a NaN
    (a missing f1) is left out of its cell.
    """
    if not 0.0 <= quantile_lo < quantile_hi <= 1.0:
        raise ValueError(
            f"quantile levels must satisfy 0 <= lo < hi <= 1, got ({quantile_lo}, {quantile_hi})"
        )
    bounds: dict[tuple[DocType, str], tuple[float, float]] = {}
    for t in DOC_TYPES:
        members = X[y == t]
        for column, fid in zip(members.T, FEATURE_IDS):
            values = column[~np.isnan(column)].tolist()
            if not values:
                raise ThresholdError(f"no usable values for cell ({t.label}, {fid})")
            kept = tukey_filter(values)
            bounds[(t, fid)] = (quantile(kept, quantile_lo), quantile(kept, quantile_hi))
    return ThresholdTable(bounds, quantile_lo, quantile_hi)


@dataclass
class TransformSpec:
    """A fitted per-feature transform, reusable on unseen data.

    z-score features with zero spread fall back to identity (mean 0,
    scale 1) so the transform stays invertible.
    """

    kind: str
    mean: tuple[float, ...] | None = None
    scale: tuple[float, ...] | None = None

    @classmethod
    def fit(cls, matrix: np.ndarray, kind: str) -> "TransformSpec":
        if kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind: {kind!r}")
        if kind != "z-score":
            return cls(kind)
        mean = matrix.mean(axis=0)
        scale = matrix.std(axis=0)
        degenerate = scale <= 0.0
        mean = np.where(degenerate, 0.0, mean)
        scale = np.where(degenerate, 1.0, scale)
        return cls(kind, tuple(float(m) for m in mean), tuple(float(s) for s in scale))

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return np.asarray(matrix, dtype=float)
        if self.kind == "log-scale":
            # values below -1 map to NaN or -inf; predict_batch reports them
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.log1p(np.asarray(matrix, dtype=float))
        return (np.asarray(matrix, dtype=float) - np.asarray(self.mean)) / np.asarray(self.scale)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "mean": list(self.mean) if self.mean is not None else None,
            "scale": list(self.scale) if self.scale is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping, n_features: int) -> "TransformSpec":
        """Read a stored transform. A z-score needs ``n_features`` finite
        means and positive scales, or else ValueError."""
        kind = payload["kind"]
        if kind not in TRANSFORM_KINDS:
            raise ModelFormatError(f"unknown transform kind: {kind!r}")
        mean = payload.get("mean")
        scale = payload.get("scale")
        if kind == "z-score":
            number_array(mean, (n_features,), "z-score mean")
            if (number_array(scale, (n_features,), "z-score scale") <= 0.0).any():
                raise ValueError(f"z-score scale must be positive, got {scale!r}")
        return cls(
            kind,
            tuple(mean) if mean is not None else None,
            tuple(scale) if scale is not None else None,
        )


def preserves_order(kind: str, train: np.ndarray, test: np.ndarray) -> bool:
    """True when the transform fitted on ``train`` keeps every column's order.

    Both matrices are mapped as training and prediction map them, with
    the spec fitted on ``train``. Per column, over the rows of both, the
    mapped values must be finite and strictly increasing wherever the raw
    values increase; the mapping is elementwise, so equal values stay
    equal. Trees split on ``x <= v`` at training values, so a tree fitted
    and scored under such a transform sends every row where the raw
    values send it. A rounding step that merges two values fails.
    """
    spec = TransformSpec.fit(train, kind)
    raw = np.vstack([train, test])
    mapped = np.vstack([spec.apply(train), spec.apply(test)])
    if not np.isfinite(mapped).all():
        return False
    order = np.argsort(raw, axis=0)
    raw = np.take_along_axis(raw, order, axis=0)
    mapped = np.take_along_axis(mapped, order, axis=0)
    return bool((mapped[1:] > mapped[:-1])[raw[1:] > raw[:-1]].all())


class Imputer:
    """Per-class least-squares fill-in for missing author counts.

    One chained-regression pass on ``(X, y)`` as ``models.dataset_matrix``
    builds them, where a missing f1 is NaN: within each class, regress f1
    on (f2, f3, f4) over the observed rows, predict the missing ones,
    round, and clamp into the observed per-class [min, max]. Observed
    values are never modified.
    """

    def __init__(self) -> None:
        self._by_class: dict[DocType, tuple[np.ndarray, float, float]] = {}

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Imputer":
        observed = ~np.isnan(X[:, 0])
        for t in DOC_TYPES:
            in_class = y == t
            if not in_class.any():
                continue
            rows = X[in_class & observed]
            if not len(rows):
                raise ImputationError(f"class {t.label} has no observed f1 values")
            design = np.column_stack([np.ones(len(rows)), rows[:, 1:]])
            coef, *_ = np.linalg.lstsq(design, rows[:, 0], rcond=None)
            self._by_class[t] = (coef, float(rows[:, 0].min()), float(rows[:, 0].max()))
        return self

    def transform(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """A copy of ``X`` with every missing f1 filled from its class's fit."""
        out = np.array(X, dtype=float)
        for i in np.flatnonzero(np.isnan(out[:, 0])):
            label = DocType(int(y[i]))
            if label not in self._by_class:
                raise ImputationError(
                    f"class {label.label} was not fitted; cannot impute row {i}"
                )
            coef, lo, hi = self._by_class[label]
            # one dot per row: a matrix product may round the sum differently
            raw = float(coef @ np.concatenate(([1.0], out[i, 1:])))
            out[i, 0] = max(int(lo), min(int(hi), int(np.rint(raw))))
        return out


def impute_f1(dataset: Sequence[LabeledExample]) -> list[LabeledExample]:
    """``Imputer`` fitted and applied on the dataset's own rows, as objects:
    each missing f1 becomes an int, and observed rows pass through."""
    from .models import dataset_matrix

    X, y = dataset_matrix(dataset)
    filled = Imputer().fit(X, y).transform(X, y)[:, 0]
    return [
        ex
        if ex.features.f1_authors is not None
        else LabeledExample(replace(ex.features, f1_authors=int(f1)), ex.label, ex.id)
        for ex, f1 in zip(dataset, filled.tolist())
    ]
