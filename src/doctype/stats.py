"""Quantiles, Tukey fences, threshold tables, transforms, and imputation."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ImputationError, ModelFormatError, ThresholdError
from .ingest import DOC_TYPES, FEATURE_IDS
from .ioutils import known_keys, number_array
from .labeling import LabeledExample

THRESHOLD_FORMAT_VERSION = 1
TRANSFORM_KINDS = ("identity", "z-score", "log-scale")


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile between closest ranks of the sorted sample.

    Between ranks ``a`` and ``b`` it is ``a + (b - a) * frac``, or
    ``a * (1 - frac) + b * frac`` when ``b - a`` overflows (finite values of
    opposite sign near the float limit), so finite values give a finite
    quantile."""
    if len(values) == 0:
        raise ValueError("quantile of an empty sample is undefined")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    frac = position - lower
    a, b = ordered[lower], ordered[upper]
    if not math.isfinite(b - a):
        return a * (1 - frac) + b * frac
    return a + (b - a) * frac


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


def check_quantile_levels(quantile_lo: float, quantile_hi: float) -> None:
    """ValueError unless 0 <= quantile_lo < quantile_hi <= 1."""
    if not 0.0 <= quantile_lo < quantile_hi <= 1.0:
        raise ValueError(
            f"quantile levels must satisfy 0 <= lo < hi <= 1, got ({quantile_lo}, {quantile_hi})"
        )


def derive_thresholds(
    X: np.ndarray,
    y: np.ndarray,
    quantile_lo: float = 0.025,
    quantile_hi: float = 0.975,
) -> dict:
    """Tukey-filter each (class, feature) sample, then take the outer quantiles.

    ``X`` and ``y`` are as ``models.dataset_matrix`` builds them; a NaN
    (a missing f1) is left out of its cell. The result is the stored table
    that ``doctype thresholds`` prints and a ``baseline-threshold`` model
    holds, with ``bounds[label][fid] = [lower, upper]``. ThresholdError
    names a cell with no values left, or whose bounds are not finite with
    lower <= upper.
    """
    check_quantile_levels(quantile_lo, quantile_hi)
    bounds: dict[str, dict[str, list[float]]] = {}
    for t in DOC_TYPES:
        members = X[y == t]
        cells = bounds[t.label] = {}
        for column, fid in zip(members.T, FEATURE_IDS):
            values = column[~np.isnan(column)].tolist()
            kept = tukey_filter(values) if values else []
            if not kept:
                raise ThresholdError(f"no usable values for cell ({t.label}, {fid})")
            lower, upper = quantile(kept, quantile_lo), quantile(kept, quantile_hi)
            if not -math.inf < lower <= upper < math.inf:
                raise ThresholdError(f"cell ({t.label}, {fid}) bounds [{lower!r}, {upper!r}] "
                                     "must be finite with lower <= upper")
            cells[fid] = [lower, upper]
    return {
        "format_version": THRESHOLD_FORMAT_VERSION,
        "quantile_lo": quantile_lo,
        "quantile_hi": quantile_hi,
        "bounds": bounds,
    }


def fit_transform(X: np.ndarray, kind: str) -> dict:
    """The stored transform of ``kind`` fitted on ``X``: ``{"kind", "mean",
    "scale"}``, where only a z-score has a per-feature mean and scale. A
    z-score feature whose values are all equal gets that value as its mean
    and scale 1, so its training rows map to exactly 0."""
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown transform kind: {kind!r}")
    if kind != "z-score":
        return {"kind": kind, "mean": None, "scale": None}
    with np.errstate(all="ignore"):  # an overflowing mean or std is refused after the fit
        mean, scale = X.mean(axis=0), X.std(axis=0)
    # a constant column's mean can round off its value, leaving a
    # rounding-level std; a spread as small as 1e-200 squares to a zero std
    top = X.max(axis=0)
    degenerate = (top == X.min(axis=0)) | (scale <= 0.0)
    mean = np.where(degenerate, top, mean)
    scale = np.where(degenerate, 1.0, scale)
    return {"kind": kind, "mean": mean.tolist(), "scale": scale.tolist()}


def apply_transform(transform: Mapping, X: np.ndarray) -> np.ndarray:
    """``X`` under a transform that ``read_transform`` accepts."""
    X = np.asarray(X, dtype=float)
    if transform["kind"] == "identity":
        return X
    if transform["kind"] == "log-scale":
        # values below -1 map to NaN or -inf; predict_batch reports them
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log1p(X)
    mean, scale = (np.asarray(transform[key], dtype=float) for key in ("mean", "scale"))
    with np.errstate(all="ignore"):  # what overflows, its caller names as not finite
        return (X - mean) / scale


def read_transform(transform, n_features: int) -> dict:
    """A stored transform, checked: a z-score needs ``n_features`` finite
    means and positive scales, and any other kind null ones, or else
    ValueError; an unknown kind is a ModelFormatError."""
    known_keys(transform, ("kind", "mean", "scale"), "transform")
    kind, mean, scale = transform["kind"], transform.get("mean"), transform.get("scale")
    if kind not in TRANSFORM_KINDS:
        raise ModelFormatError(f"unknown transform kind: {kind!r}")
    if kind != "z-score":
        if mean is not None or scale is not None:
            raise ValueError(f"{kind} transform mean and scale must be null")
        return {"kind": kind, "mean": None, "scale": None}
    mean = number_array(mean, (n_features,), "z-score mean")
    scale = number_array(scale, (n_features,), "z-score scale")
    if (scale <= 0.0).any():
        raise ValueError(f"z-score scale must be positive, got {scale.tolist()!r}")
    return {"kind": kind, "mean": mean.tolist(), "scale": scale.tolist()}


def fit_imputer(X: np.ndarray) -> dict:
    """The stored label-free least-squares fill for a missing author count.

    ``X`` is a ``models.dataset_matrix`` over features from f1 on, so a
    missing f1 is NaN in column 0. Over the rows where f1 is observed, f1
    is regressed on (1, the other columns): ``coef`` holds the intercept
    first, and ``[lo, hi]`` the range of the observed f1.
    """
    rows = X[~np.isnan(X[:, 0])]
    if not len(rows):
        raise ImputationError("no observed f1 values to fit the imputer on")
    design = np.column_stack([np.ones(len(rows)), rows[:, 1:]])
    coef, *_ = np.linalg.lstsq(design, rows[:, 0], rcond=None)
    return {"coef": coef.tolist(), "lo": float(rows[:, 0].min()), "hi": float(rows[:, 0].max())}


def apply_imputer(imputer: Mapping, X: np.ndarray) -> np.ndarray:
    """A copy of ``X`` with every missing f1 filled from its own row only:
    predict, round, and clamp into the integers of [lo, hi]. A fill from a
    value that is not finite stays NaN; a fill that overflows clamps."""
    out = np.array(X, dtype=float)
    coef = np.asarray(imputer["coef"], dtype=float)
    lo, hi = np.trunc(float(imputer["lo"])), np.trunc(float(imputer["hi"]))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in np.flatnonzero(np.isnan(out[:, 0])):
            # one dot per row: a matrix product may round the sum differently
            raw = coef @ np.concatenate(([1.0], out[i, 1:]))
            out[i, 0] = np.clip(np.rint(raw), lo, hi)
    return out


def read_imputer(imputer, n_features: int) -> dict:
    """A stored imputer, checked: ``n_features`` finite coefficients (the
    intercept first) and finite lo <= hi, or else ValueError."""
    known_keys(imputer, ("coef", "lo", "hi"), "imputer")
    coef = number_array(imputer["coef"], (n_features,), "imputer coef")
    lo, hi = number_array([imputer["lo"], imputer["hi"]], (2,), "imputer lo and hi").tolist()
    if lo > hi:
        raise ValueError(f"imputer lo {lo!r} is above hi {hi!r}")
    return {"coef": coef.tolist(), "lo": lo, "hi": hi}


def impute_f1(dataset: Sequence[LabeledExample]) -> list[LabeledExample]:
    """``fit_imputer`` fitted and applied on the dataset's own rows, as objects:
    each missing f1 becomes an int, and observed rows pass through. A
    dataset with no missing f1, an empty one included, needs no fit."""
    from .models import dataset_matrix

    if all(ex.features.f1_authors is not None for ex in dataset):
        return list(dataset)
    X, _ = dataset_matrix(dataset)
    filled = apply_imputer(fit_imputer(X), X)[:, 0]
    return [
        ex
        if ex.features.f1_authors is not None
        else LabeledExample(replace(ex.features, f1_authors=int(f1)), ex.label, ex.id)
        for ex, f1 in zip(dataset, filled.tolist())
    ]
