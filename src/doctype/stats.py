"""Quantiles, Tukey fences, threshold tables, transforms, and imputation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ImputationError, ModelFormatError, ThresholdError
from .ingest import DOC_TYPES, FEATURE_IDS, DocType, FeatureVector
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
        except (KeyError, TypeError, ValueError, IndexError) as exc:
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
    dataset: Iterable[LabeledExample],
    quantile_lo: float = 0.025,
    quantile_hi: float = 0.975,
) -> ThresholdTable:
    """Tukey-filter each (class, feature) sample, then take the outer quantiles."""
    if not 0.0 <= quantile_lo < quantile_hi <= 1.0:
        raise ValueError(
            f"quantile levels must satisfy 0 <= lo < hi <= 1, got ({quantile_lo}, {quantile_hi})"
        )
    examples = list(dataset)
    bounds: dict[tuple[DocType, str], tuple[float, float]] = {}
    for t in DOC_TYPES:
        members = [ex for ex in examples if ex.label == t]
        for fid in FEATURE_IDS:
            values = [v for ex in members if (v := ex.features.get(fid)) is not None]
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
    def from_dict(cls, payload: Mapping) -> "TransformSpec":
        kind = payload["kind"]
        if kind not in TRANSFORM_KINDS:
            raise ModelFormatError(f"unknown transform kind: {kind!r}")
        mean = payload.get("mean")
        scale = payload.get("scale")
        return cls(
            kind,
            tuple(mean) if mean is not None else None,
            tuple(scale) if scale is not None else None,
        )


def fit_transform(
    dataset: Sequence[LabeledExample], kind: str
) -> tuple[TransformSpec, list[LabeledExample]]:
    """Fit a transform on the dataset and return it with transformed copies."""
    if not dataset:
        raise ValueError("cannot fit a transform on an empty dataset")
    matrix = np.array([ex.features.values() for ex in dataset], dtype=float)
    if np.isnan(matrix).any():
        raise ValueError("dataset has missing f1 values; impute before transforming")
    spec = TransformSpec.fit(matrix, kind)
    transformed = spec.apply(matrix)
    out = [
        LabeledExample(
            FeatureVector(*(float(v) for v in row)), ex.label, ex.id
        )
        for row, ex in zip(transformed, dataset)
    ]
    return spec, out


class Imputer:
    """Per-class least-squares fill-in for missing author counts.

    One chained-regression pass: within each class, regress f1 on
    (f2, f3, f4) over the observed rows, predict the missing ones, round,
    and clamp into the observed per-class [min, max]. Observed values are
    never modified.
    """

    def __init__(self) -> None:
        self._by_class: dict[DocType, tuple[np.ndarray, float, float]] = {}

    def fit(self, dataset: Sequence[LabeledExample]) -> "Imputer":
        for t in DOC_TYPES:
            rows = [ex.features for ex in dataset if ex.label == t]
            observed = [fv for fv in rows if fv.f1_authors is not None]
            if rows and not observed:
                raise ImputationError(f"class {t.label} has no observed f1 values")
            if not rows:
                continue
            design = np.array(
                [[1.0, fv.f2_total_words, fv.f3_pages, fv.f4_words_per_page] for fv in observed],
                dtype=float,
            )
            target = np.array([fv.f1_authors for fv in observed], dtype=float)
            coef, *_ = np.linalg.lstsq(design, target, rcond=None)
            self._by_class[t] = (coef, float(target.min()), float(target.max()))
        return self

    def transform(self, dataset: Sequence[LabeledExample]) -> list[LabeledExample]:
        out: list[LabeledExample] = []
        for ex in dataset:
            if ex.features.f1_authors is not None:
                out.append(ex)
                continue
            if ex.label not in self._by_class:
                raise ImputationError(
                    f"class {ex.label.label} was not fitted; cannot impute {ex.id}"
                )
            coef, lo, hi = self._by_class[ex.label]
            fv = ex.features
            raw = float(
                coef @ np.array([1.0, fv.f2_total_words, fv.f3_pages, fv.f4_words_per_page])
            )
            value = int(np.rint(raw))
            value = max(int(lo), min(int(hi), value))
            out.append(LabeledExample(fv.with_f1(value), ex.label, ex.id))
        return out


def impute_f1(dataset: Sequence[LabeledExample], seed: int = 0) -> list[LabeledExample]:
    """Fill missing f1 values in place of MISSING; observed rows pass through.

    The pass is a deterministic single round, so ``seed`` is accepted for
    interface uniformity but unused.
    """
    del seed
    return Imputer().fit(dataset).transform(dataset)
